"""Experiment configuration: strict JSON schema with materialized defaults.

Unknown keys anywhere in the document are rejected with the offending path
so typos never silently fall back to defaults.  The `truth` and `operator`
sections are `model.TruthSpec` and `operators.CoefficientPair`; a section's own
refusal is a config error on its path.  `sweep_points` gives a real-mode
sweep's points, each validated like the config it came from.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, is_dataclass, replace

from .certification import GAMMA0_LABEL
from .eigensolver import MAX_K, MAX_N, MIN_N, liouville_transform, mu_scan_top
from .model import TruthSpec
from .operators import CoefficientPair, OperatorSpecError
from .validation import MAX_QUADRATURE_P, MIN_PER_AXIS

MIN_SAMPLES = 10000   # fewest importance draws a run takes (validation.M)


class ConfigError(ValueError):
    pass


@dataclass
class EigenCfg:
    K: int = 50
    N: int = 4096
    cache_dir: str | None = None


@dataclass
class CertCfg:
    gamma0: list | None = None     # extra gamma0 rows besides the auto gamma0*
    beta: float = 1.0


@dataclass
class ValidationCfg:
    method: str = "importance"     # "importance" | "quadrature" | "both"
    M: int = 20000
    per_axis: int = MIN_PER_AXIS


@dataclass
class SweepCfg:
    axis: str = "p"                # "p" | "n"
    values: list = field(default_factory=lambda: [2, 4, 8, 16])  # p <= default K
    synthetic: bool = False        # diagonal surrogate mode for large n


@dataclass
class ExperimentConfig:
    operator: CoefficientPair = field(default_factory=CoefficientPair)
    family: str = "poisson"
    n: int = 2000
    p: int = 6
    gamma: float = 2.0
    truth: TruthSpec = field(default_factory=TruthSpec)
    eigensolver: EigenCfg = field(default_factory=EigenCfg)
    certification: CertCfg = field(default_factory=CertCfg)
    validation: ValidationCfg = field(default_factory=ValidationCfg)
    sweep: SweepCfg = field(default_factory=SweepCfg)
    seed: int = 0
    out_dir: str = "out"


def _number(v) -> bool:   # never a bool, and finite: json reads NaN and Infinity
    return (isinstance(v, int) and not isinstance(v, bool)
            or isinstance(v, float) and math.isfinite(v))


# the JSON values a field of each annotation accepts; a "T | None" field also takes null
_TYPES = {"int": lambda v: _number(v) and isinstance(v, int), "float": _number,
          "str": lambda v: isinstance(v, str), "bool": lambda v: isinstance(v, bool),
          "list": lambda v: isinstance(v, list) and all(map(_number, v))}
_TYPES["tuple"] = _TYPES["list"]


def _build(cls, data: dict, path: str):
    """cls(**data) with its sections, the fields whose default_factory is a
    dataclass, built in turn; unknown keys, values of the wrong type and the
    section's own refusal (a ValueError of cls) are rejected."""
    if not isinstance(data, dict):
        raise ConfigError("%s: expected an object" % path)
    fields = cls.__dataclass_fields__
    for key, val in data.items():
        if key not in fields:
            raise ConfigError("%s.%s: unknown key (allowed: %s)"
                              % (path, key, ", ".join(sorted(fields))))
        typ = fields[key].type
        accepts = _TYPES.get(typ.removesuffix(" | None"))
        if accepts and not (accepts(val) or val is None and typ.endswith(" | None")):
            raise ConfigError("%s.%s: expected %s, got %r" % (path, key, typ, val))
    kwargs = {key: (_build(fields[key].default_factory, val, path + "." + key)
                    if is_dataclass(fields[key].default_factory) else val)
              for key, val in data.items()}
    try:
        return cls(**kwargs)
    except ValueError as exc:   # e.g. CoefficientPair's OperatorSpecError
        raise ConfigError("%s: %s" % (path, exc)) from exc


def load_config(path: str, **overrides) -> ExperimentConfig:
    """The config at `path`, each non-None override replacing its top-level key."""
    try:   # JSON text is UTF-8 (RFC 8259), whatever the locale
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except ValueError as exc:   # UnicodeDecodeError or JSONDecodeError
        raise ConfigError("%s: invalid JSON: %s" % (path, exc)) from exc
    if isinstance(raw, dict):
        raw.update((key, val) for key, val in overrides.items() if val is not None)
    return config_from_dict(raw, path)


def config_from_dict(raw: dict, where: str = "<dict>") -> ExperimentConfig:
    cfg = _build(ExperimentConfig, raw, where)
    _validate(cfg, where)
    return cfg


def sweep_points(cfg: ExperimentConfig) -> list:
    """A real-mode sweep's points (a synthetic one has none): the config with its
    sweep axis at each grid value v, validated as `sweep.values (<axis> = <v>)`."""
    axis = cfg.sweep.axis
    points = [] if cfg.sweep.synthetic else [replace(cfg, **{axis: v}) for v in cfg.sweep.values]
    for point, v in zip(points, cfg.sweep.values):
        _validate(point, "sweep.values (%s = %r)" % (axis, v))
    return points


def _validate(cfg: ExperimentConfig, where: str) -> None:
    if not MIN_N <= cfg.eigensolver.N <= MAX_N:
        raise ConfigError("%s.eigensolver.N: must be in [%d, %d]" % (where, MIN_N, MAX_N))
    if not 1 <= cfg.eigensolver.K <= MAX_K:
        raise ConfigError("%s.eigensolver.K: must be in [1, %d]" % (where, MAX_K))
    try:   # the eigensolver's own refusal of the operator
        mu_scan_top(liouville_transform(cfg.operator, cfg.eigensolver.N), cfg.eigensolver.K)
    except OperatorSpecError as exc:
        raise ConfigError("%s.operator: %s" % (where, exc)) from exc
    if cfg.family not in ("poisson", "gaussian", "bernoulli"):
        raise ConfigError("%s.family: unknown family %r" % (where, cfg.family))
    if cfg.n < 1 or cfg.p < 1:
        raise ConfigError("%s: n and p must be >= 1" % where)
    if cfg.p > cfg.eigensolver.K:
        raise ConfigError("%s: p exceeds eigensolver.K" % where)
    if not 0 <= cfg.truth.p_star <= cfg.eigensolver.K:
        raise ConfigError("%s.truth.%s: the mode count must be in [0, eigensolver.K]"
                          % (where, "p_star" if cfg.truth.theta is None else "theta"))
    if not 0 <= cfg.seed < 2 ** 64:
        raise ConfigError("%s.seed: must be in [0, 2**64)" % where)
    if cfg.gamma <= 0:
        raise ConfigError("%s.gamma: must be > 0" % where)
    try:   # the largest prior precision p^(2 gamma) must be a float
        float(cfg.p) ** (2 * cfg.gamma)
    except OverflowError:
        raise ConfigError("%s.gamma: p^(2*gamma) overflows a float (p = %d, gamma = %r)"
                          % (where, cfg.p, cfg.gamma)) from None
    if not 2 * cfg.certification.beta + 2 * cfg.gamma > 2:
        raise ConfigError("%s.certification.beta: 2*beta + 2*gamma must be > 2" % where)
    if cfg.validation.method not in ("importance", "quadrature", "both"):
        raise ConfigError("%s.validation.method: unknown method" % where)
    if cfg.validation.method != "importance" and cfg.p > MAX_QUADRATURE_P:
        raise ConfigError("%s.validation.method: quadrature TV needs p <= %d"
                          % (where, MAX_QUADRATURE_P))
    if cfg.validation.M < MIN_SAMPLES:
        raise ConfigError("%s.validation.M: must be >= %d" % (where, MIN_SAMPLES))
    if cfg.validation.per_axis < MIN_PER_AXIS:
        raise ConfigError("%s.validation.per_axis: must be >= %d" % (where, MIN_PER_AXIS))
    if cfg.sweep.axis not in ("p", "n"):
        raise ConfigError("%s.sweep.axis: must be 'p' or 'n'" % where)
    if not cfg.sweep.values:
        raise ConfigError("%s.sweep.values: must not be empty" % where)
    # p is a mode count and n a sample size: >= 1, and integers but on a synthetic n grid
    # (the p <= K bound of a real-mode point is checked by `sweep_points`)
    ints = cfg.sweep.axis == "p" or not cfg.sweep.synthetic
    if not all(v >= 1 and (type(v) is int or not ints) for v in cfg.sweep.values):
        raise ConfigError("%s.sweep.values: %s values must be %s >= 1"
                          % (where, cfg.sweep.axis, "integers" if ints else "numbers"))
    gamma0 = cfg.certification.gamma0 or []
    if any(g0 > cfg.gamma for g0 in gamma0):
        raise ConfigError("%s.certification.gamma0: entries must be <= gamma" % where)
    if len({GAMMA0_LABEL % g0 for g0 in gamma0}) < len(gamma0):
        raise ConfigError("%s.certification.gamma0: two entries share a row label "
                          "(%s, 6 significant digits)" % (where, GAMMA0_LABEL))
