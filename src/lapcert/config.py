"""Experiment configuration: strict JSON schema with materialized defaults.

Unknown keys anywhere in the document are rejected with the offending path
so typos never silently fall back to defaults.  `to_dict` re-emits the
fully defaulted config for the run manifest.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field


class ConfigError(ValueError):
    pass


@dataclass
class OperatorCfg:
    a: list = field(default_factory=lambda: [1.0])
    b: list = field(default_factory=lambda: [0.0])


@dataclass
class TruthCfg:
    p_star: int = 8
    amplitude: float = 0.5
    decay: float = 2.0
    theta: list | None = None


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
    per_axis: int = 64


@dataclass
class SweepCfg:
    axis: str = "p"                # "p" | "n"
    values: list = field(default_factory=lambda: [2, 4, 8, 16, 32, 64])
    synthetic: bool = False        # diagonal surrogate mode for large n
    n: float = 2000


@dataclass
class ExperimentConfig:
    operator: OperatorCfg = field(default_factory=OperatorCfg)
    family: str = "poisson"
    n: int = 2000
    p: int = 6
    gamma: float = 2.0
    truth: TruthCfg = field(default_factory=TruthCfg)
    eigensolver: EigenCfg = field(default_factory=EigenCfg)
    certification: CertCfg = field(default_factory=CertCfg)
    validation: ValidationCfg = field(default_factory=ValidationCfg)
    sweep: SweepCfg = field(default_factory=SweepCfg)
    seed: int = 0
    out_dir: str = "out"

    def to_dict(self) -> dict:
        return asdict(self)

    @property
    def beta(self) -> float:
        return self.certification.beta


_SECTIONS = {
    "operator": OperatorCfg,
    "truth": TruthCfg,
    "eigensolver": EigenCfg,
    "certification": CertCfg,
    "validation": ValidationCfg,
    "sweep": SweepCfg,
}


def _build(cls, data: dict, path: str):
    """cls(**data) with its sections built in turn; unknown keys are rejected."""
    if not isinstance(data, dict):
        raise ConfigError("%s: expected an object" % path)
    allowed = set(cls.__dataclass_fields__)
    for key in data:
        if key not in allowed:
            raise ConfigError("%s.%s: unknown key (allowed: %s)"
                              % (path, key, ", ".join(sorted(allowed))))
    return cls(**{key: (_build(_SECTIONS[key], val, path + "." + key)
                        if key in _SECTIONS else val) for key, val in data.items()})


def load_config(path: str) -> ExperimentConfig:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("%s: invalid JSON: %s" % (path, exc)) from exc
    return config_from_dict(raw, path)


def config_from_dict(raw: dict, where: str = "<dict>") -> ExperimentConfig:
    cfg = _build(ExperimentConfig, raw, where)
    _validate(cfg, where)
    return cfg


def _validate(cfg: ExperimentConfig, where: str) -> None:
    if cfg.family not in ("poisson", "gaussian", "bernoulli"):
        raise ConfigError("%s.family: unknown family %r" % (where, cfg.family))
    if cfg.n < 1 or cfg.p < 1:
        raise ConfigError("%s: n and p must be >= 1" % where)
    if cfg.p > cfg.eigensolver.K:
        raise ConfigError("%s: p exceeds eigensolver.K" % where)
    if cfg.gamma <= 0:
        raise ConfigError("%s.gamma: must be > 0" % where)
    if cfg.validation.method not in ("importance", "quadrature", "both"):
        raise ConfigError("%s.validation.method: unknown method" % where)
    if cfg.validation.M < 10000:
        raise ConfigError("%s.validation.M: must be >= 10000" % where)
    if cfg.validation.per_axis < 64:
        raise ConfigError("%s.validation.per_axis: must be >= 64" % where)
    if cfg.sweep.axis not in ("p", "n"):
        raise ConfigError("%s.sweep.axis: must be 'p' or 'n'" % where)
    if cfg.certification.gamma0 is not None:
        for g0 in cfg.certification.gamma0:
            if g0 > cfg.gamma:
                raise ConfigError("%s.certification.gamma0: entries must be <= gamma" % where)
