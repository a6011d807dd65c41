"""Traced in-process lapcert run and standalone layer probes.

    python3 tracer.py run SPANS_JSON -- LAPCERT_ARGS...
    python3 tracer.py probe {svd_oracle,outside_mass,import} CONFIG_JSON

`run` wraps every public function of every `lapcert` module (plus the
RK4 shooting kernel) in every module namespace and dict that holds it, so
names imported with `from .x import f` are traced too, then calls
`lapcert.cli.main`.  Spans (name, start, end, parent, attributes) are kept
in memory and written, together with the per-layer metrics derived from
them, when the run ends.  `probe` times code that no CLI path reaches.
Both print one JSON line to stdout.
"""
from __future__ import annotations

import functools
import json
import math
import os
import sys
import time
import types

PRIVATE_TRACED = ("eigensolver._rk4_shoot",)


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _shoot_attrs(args, kwargs, out):
    import numpy as np
    columns = int(np.atleast_1d(_arg(args, kwargs, 2, "mu")).size)
    steps = (int(_arg(args, kwargs, 0, "Qh").size) - 1) // 2
    return {"columns": columns, "steps": steps}


def _save_attrs(args, kwargs, base):
    folder, stem = os.path.split(base)
    return {"bytes": sum(os.path.getsize(os.path.join(folder, f))
                         for f in os.listdir(folder) if f.startswith(stem))}


# per-span attributes recorded after the call returns
ATTRS = {
    "eigensolver._rk4_shoot": _shoot_attrs,
    "eigensolver.save_eigensystem": _save_attrs,
    "model.generate": lambda a, k, out: {"n": int(out.n)},
    "posterior.map_solve": lambda a, k, out: {"newton_iters": int(out.newton_iters)},
    "certification.certify": lambda a, k, out: {"kind": _arg(a, k, 2, "choice").kind},
    "validation.tv_importance": lambda a, k, out: {
        "M": int(out.n_points), "n": int(_arg(a, k, 1, "prob").design.n),
        "ess": float(out.ess)},
    "validation.tv_quadrature": lambda a, k, out: {"n": int(_arg(a, k, 1, "prob").design.n)},
}


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1, attrs or None]
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                span[4] = attrs(args, kwargs, out)
            return out
        return traced

    def install(self) -> int:
        """Wrap lapcert's functions wherever a module refers to them."""
        import lapcert.cli  # noqa: F401  (imports the whole pipeline)
        import lapcert.concentration  # noqa: F401
        modules = [m for name, m in sorted(sys.modules.items())
                   if name.startswith("lapcert.") and m is not None]
        wrapped = {}
        for mod in modules:
            short = mod.__name__.split(".", 1)[1]
            for attr, fn in vars(mod).items():
                name = short + "." + attr
                if (isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__
                        and (not attr.startswith("_") or name in PRIVATE_TRACED)):
                    wrapped[fn] = self.wrap(name, fn)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in wrapped:
                    setattr(mod, attr, wrapped[val])
                elif isinstance(val, dict):   # e.g. cli.COMMANDS
                    for key, item in list(val.items()):
                        if isinstance(item, types.FunctionType) and item in wrapped:
                            val[key] = wrapped[item]
        return len(wrapped)


def _child_time(spans: list) -> list:
    """For each span, the time its direct children cover."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return covered


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics from a list of spans."""
    total, calls, child_time = {}, {}, _child_time(spans)
    for name, start, end, _, _ in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        calls[name] = calls.get(name, 0) + 1

    def attr_sum(name, key, weight=None):
        return sum((s[4] or {}).get(key, 0) * ((s[4] or {}).get(weight, 1) if weight else 1)
                   for s in spans if s[0] == name)

    def under(name, ancestor):
        count = 0
        for span in spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and spans[parent][0] != ancestor:
                parent = spans[parent][3]
            count += parent >= 0
        return count

    def self_time(name):
        return sum(s[2] - s[1] - child_time[i] for i, s in enumerate(spans) if s[0] == name)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    t = lambda name: total.get(name, 0.0)  # noqa: E731
    c = lambda name: calls.get(name, 0)    # noqa: E731
    shoot_steps = attr_sum("eigensolver._rk4_shoot", "columns", "steps")
    gen_obs = attr_sum("model.generate", "n")
    is_entries = attr_sum("validation.tv_importance", "M", "n")
    is_samples = attr_sum("validation.tv_importance", "M")
    quad_evals = under("posterior.f_value", "validation.tv_quadrature")
    quad_n = max([(s[4] or {}).get("n", 0) for s in spans
                  if s[0] == "validation.tv_quadrature"], default=0)
    certify_by_kind = {}
    for s in spans:
        if s[0] == "certification.certify" and s[4]:
            certify_by_kind[s[4]["kind"]] = certify_by_kind.get(s[4]["kind"], 0.0) + s[2] - s[1]
    return {
        "eigensolver.solve_eigs.s": t("eigensolver.solve_eigs"),
        "eigensolver.shoots": c("eigensolver._rk4_shoot"),
        "eigensolver.shoot_columns": attr_sum("eigensolver._rk4_shoot", "columns"),
        "eigensolver.shoot_ns_per_step": ratio(t("eigensolver._rk4_shoot"), shoot_steps, 1e9),
        "eigensolver.save_eigensystem.s": t("eigensolver.save_eigensystem"),
        "eigensolver.cache_bytes": attr_sum("eigensolver.save_eigensystem", "bytes"),
        "eigensolver.load_eigensystem.s": t("eigensolver.load_eigensystem"),
        "eigensolver.load_eigensystem.calls": c("eigensolver.load_eigensystem"),
        "model.generate.s": t("model.generate"),
        "model.generate.calls": c("model.generate"),
        "model.generate.us_per_obs": ratio(t("model.generate"), gen_obs, 1e6),
        "operators.assemble_design.calls": c("operators.assemble_design"),
        "posterior.map_solve.s": t("posterior.map_solve"),
        "posterior.map_solve.calls": c("posterior.map_solve"),
        "posterior.newton_iters": attr_sum("posterior.map_solve", "newton_iters"),
        "posterior.linesearch_evals": under("posterior.f_value", "posterior.map_solve"),
        "posterior.f_value.calls": c("posterior.f_value"),
        "certification.compare_choices.calls": c("certification.compare_choices"),
        "certification.certify.DG.s": certify_by_kind.get("DG", 0.0),
        "certification.certify.identity_scaled.s": certify_by_kind.get("identity_scaled", 0.0),
        "certification.certify.gamma0_family.s": certify_by_kind.get("gamma0_family", 0.0),
        "certification.s_sums.s": t("certification.s_sums"),
        "validation.tv_importance.s": t("validation.tv_importance"),
        "validation.tv_importance.self_s": self_time("validation.tv_importance"),
        "validation.tv_importance.evals": under("posterior.f_value", "validation.tv_importance"),
        "validation.tv_importance.ns_per_entry": ratio(t("validation.tv_importance"), is_entries, 1e9),
        "validation.tv_importance.ess_ratio": ratio(attr_sum("validation.tv_importance", "ess"),
                                                    is_samples),
        "validation.tv_quadrature.s": t("validation.tv_quadrature"),
        "validation.tv_quadrature.evals": quad_evals,
        "validation.tv_quadrature.ns_per_entry": ratio(t("validation.tv_quadrature"),
                                                       quad_evals * quad_n, 1e9),
    }


def print_profile(spans: list, top: int = 15) -> None:
    """Calls, total and self time of the functions with the most self time."""
    child_time = _child_time(spans)
    rows = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        row = rows.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child_time[i]
    print("%-40s %9s %10s %10s" % ("span", "calls", "total_s", "self_s"))
    for name, (calls, total, own) in sorted(rows.items(), key=lambda kv: -kv[1][2])[:top]:
        print("%-40s %9d %10.4f %10.4f" % (name, calls, total, own))


def cmd_run(spans_path: str, argv: list) -> int:
    tracer = Tracer()
    n_wrapped = tracer.install()
    import lapcert.cli
    rc = lapcert.cli.main(argv)
    with open(spans_path, "w") as fh:
        json.dump({"wrapped_functions": n_wrapped, "spans": tracer.spans}, fh)
    print_profile(tracer.spans)
    print(json.dumps({"rc": rc, "metrics": layer_metrics(tracer.spans)}))
    return rc


def _problem_from_config(path: str):
    """The workload's MAP fit, rebuilt from the config by the library API."""
    from lapcert.config import load_config
    from lapcert.eigensolver import cached_solve
    from lapcert.model import TruthSpec, exp_family, generate
    from lapcert.operators import CoefficientPair, assemble_design
    from lapcert.posterior import Problem, map_solve
    cfg = load_config(path)
    spec = CoefficientPair(tuple(cfg.operator.a), tuple(cfg.operator.b))
    eig = cached_solve(spec, cfg.eigensolver.N, cfg.eigensolver.K, cfg.eigensolver.cache_dir)
    fam = exp_family(cfg.family)
    truth = TruthSpec(p_star=cfg.truth.p_star, amplitude=cfg.truth.amplitude,
                      decay=cfg.truth.decay)
    data = generate(eig, fam, truth, n=cfg.n, seed=cfg.seed)
    prob = Problem(design=assemble_design(eig, cfg.n, cfg.p), data=data, family=fam,
                   gamma=cfg.gamma, eig=eig)
    return cfg, prob, map_solve(prob)


def cmd_probe(which: str, config_path: str) -> int:
    if which == "import":
        t0 = time.perf_counter()
        import lapcert.cli  # noqa: F401
        print(json.dumps({"cli.import_s": time.perf_counter() - t0}))
    elif which == "svd_oracle":
        from lapcert.eigensolver import svd_oracle
        from lapcert.operators import VOLTERRA
        t0 = time.perf_counter()
        svd_oracle(VOLTERRA, 2048, 50)
        print(json.dumps({"eigensolver.svd_oracle.s": time.perf_counter() - t0}))
    elif which == "outside_mass":
        from lapcert.concentration import empirical_outside_mass
        cfg, prob, fit = _problem_from_config(config_path)
        r = 3.0 * math.sqrt(prob.p) + 3.0
        t0 = time.perf_counter()
        empirical_outside_mass(fit, prob, fit.DG2, r, n_samples=2000, seed=cfg.seed)
        print(json.dumps({"concentration.empirical_outside_mass.s": time.perf_counter() - t0}))
    else:
        raise SystemExit("unknown probe %r" % which)
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["run"] and sys.argv[3:4] == ["--"]:
        sys.exit(cmd_run(sys.argv[2], sys.argv[4:]))
    if sys.argv[1:2] == ["probe"] and len(sys.argv) == 4:
        sys.exit(cmd_probe(sys.argv[2], sys.argv[3]))
    raise SystemExit(__doc__)
