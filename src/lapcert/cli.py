"""Command-line experiment driver.

Subcommands write deterministic CSV and JSON artifacts plus a run manifest
(config echo, git hash, wall times) from one `Run`, which computes each
pipeline stage once.  The process exits nonzero iff an asserted invariant
fails, never for an infeasible certificate (infeasibility is data).
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import subprocess
import sys
import time
from dataclasses import asdict
from functools import cached_property

from . import certification as cert
from . import validation as val
from .config import ConfigError, ExperimentConfig, config_from_dict, load_config
from .eigensolver import cached_solve, eig_diagnostics
from .model import TruthSpec, exp_family, generate, save_dataset
from .operators import CoefficientPair, assemble_design
from .posterior import Problem, fit_to_dict, map_solve

CERT_COLUMNS = ["label", "kind", "gamma0", "alpha", "effdim", "radius",
                "tau3_sup", "local_term", "tail_term", "tv_bound", "feasible",
                "A", "B", "gap_est", "S_dim", "S_tau", "m", "m0star"]


def _git_hash() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def _write_csv(path: str, columns: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=columns, extrasaction="ignore")
        w.writeheader()
        for row in rows:
            w.writerow({k: _fmt(row.get(k)) for k in columns})


def _fmt(v):
    if isinstance(v, float):
        return repr(float(v))  # full precision, deterministic, plain float repr
    return v


def _manifest(cfg: ExperimentConfig, out_dir: str, times: dict) -> None:
    doc = {"config": cfg.to_dict(), "git_hash": _git_hash(), "wall_times_s": times}
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


class Run:
    """One pass of the pipeline for a config.

    Each stage (eig, truth, data, prob, fit, comparison) is computed on first use
    and kept, so every subcommand of `all` reads the same objects.
    """

    def __init__(self, cfg: ExperimentConfig, eig=None):
        self.cfg = cfg
        self.times: dict = {}
        if eig is not None:
            self.eig = eig       # an instance value takes the cached_property's place

    def path(self, name: str) -> str:
        return os.path.join(self.cfg.out_dir, name)

    @cached_property
    def eig(self):
        cfg = self.cfg
        spec = CoefficientPair(tuple(cfg.operator.a), tuple(cfg.operator.b))
        cache = cfg.eigensolver.cache_dir or os.path.join(cfg.out_dir, "eigcache")
        return cached_solve(spec, cfg.eigensolver.N, cfg.eigensolver.K, cache)

    @cached_property
    def truth(self) -> TruthSpec:
        t = self.cfg.truth
        if t.theta is None:
            return TruthSpec(p_star=t.p_star, amplitude=t.amplitude, decay=t.decay)
        return TruthSpec(p_star=len(t.theta), explicit=tuple(t.theta))

    @cached_property
    def data(self):
        cfg = self.cfg
        return generate(self.eig, exp_family(cfg.family), self.truth, n=cfg.n, seed=cfg.seed)

    @cached_property
    def prob(self):
        cfg = self.cfg
        return Problem(design=assemble_design(self.eig, cfg.n, cfg.p), data=self.data,
                       family=exp_family(cfg.family), gamma=cfg.gamma, eig=self.eig)

    @cached_property
    def fit(self):
        return map_solve(self.prob)

    @cached_property
    def comparison(self):
        return cert.compare_choices(self.fit, self.prob, beta=self.cfg.beta)


def _cert_row(label: str, c: cert.Certificate) -> dict:
    d = c.diagnostics
    return {"label": label, "kind": c.choice.kind, "gamma0": c.choice.gamma0,
            "alpha": c.alpha, "effdim": c.effdim, "radius": c.radius,
            "tau3_sup": c.tau3_sup, "local_term": c.local_term,
            "tail_term": c.tail_term, "tv_bound": c.tv_bound,
            "feasible": int(c.feasible), "A": d.get("A"), "B": d.get("B"),
            "gap_est": d.get("gap_est"), "S_dim": d.get("S_dim"),
            "S_tau": d.get("S_tau"), "m": d.get("m"), "m0star": d.get("m0star")}


def cmd_eigen(run):
    t0 = time.time()
    eig = run.eig
    run.times["eigen"] = time.time() - t0
    diag = eig_diagnostics(eig)
    diag.update({"lambda": eig.lambdas, "active": diag["active"].astype(int)})
    cols = ["k", "lambda", "psi_sup", "dpsi_sup_over_k", "vk_inf", "dvk_inf",
            "vk_l2", "active"]
    _write_csv(run.path("eigen.csv"), cols,
               [{c: diag[c][i] for c in cols} for i in range(eig.lambdas.size)])
    print("eigen: K=%d, gap report: sup-field gap estimates attached per certificate"
          % eig.lambdas.size)
    return 0


def cmd_simulate(run):
    t0 = time.time()
    ds = run.data
    run.times["simulate"] = time.time() - t0
    save_dataset(ds, run.path("dataset.csv"), run.truth)
    print("simulate: n=%d, family=%s, seed=%d" % (ds.n, run.cfg.family, run.cfg.seed))
    return 0


def cmd_fit(run):
    t0 = time.time()
    fit = run.fit
    run.times["fit"] = time.time() - t0
    with open(run.path("fit.json"), "w") as fh:
        json.dump(fit_to_dict(fit), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print("fit: grad_norm=%.3e iters=%d" % (fit.grad_norm, fit.newton_iters))
    return 0


def _choice_rows(run) -> list:
    certs = run.comparison["certs"]
    return [_cert_row(label, certs[label]) for label in ("DG", "identity", "gamma0_star")]


def cmd_certify(run):
    t0 = time.time()
    cfg, res = run.cfg, run.comparison
    rows = _choice_rows(run)
    for g0 in (cfg.certification.gamma0 or []):
        c = cert.certify(run.fit, run.prob, cert.choice_gamma0(run.fit, g0, cfg.gamma),
                         beta=cfg.beta)
        rows.append(_cert_row("gamma0=%g" % g0, c))
    run.times["certify"] = time.time() - t0
    _write_csv(run.path("certificates.csv"), CERT_COLUMNS, rows)
    with open(run.path("comparison.json"), "w") as fh:
        json.dump({"m": res["m"], "m0_star": res["m0_star"],
                   "gamma0_star": res["gamma0_star"],
                   "ratio_DG": res["ratio_DG"],
                   "ratio_identity": res["ratio_identity"]},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    for row in rows:
        print("certify: %-12s tv_bound=%.4g feasible=%d (grid gap est %.2e)"
              % (row["label"], row["tv_bound"], row["feasible"], row["gap_est"]))
    return 0


def cmd_validate(run):
    t0 = time.time()
    cfg, prob, fit = run.cfg, run.prob, run.fit
    tvs = []
    if cfg.validation.method in ("importance", "both"):
        tvs.append(val.tv_importance(fit, prob, n_samples=cfg.validation.M, seed=cfg.seed))
    if cfg.validation.method in ("quadrature", "both"):
        tvs.append(val.tv_quadrature(fit, prob, per_axis=cfg.validation.per_axis))
    run.times["validate"] = time.time() - t0
    rows = [dict(asdict(tv), low_ess=int(tv.low_ess)) for tv in tvs]
    _write_csv(run.path("tv_estimates.csv"),
               ["method", "value", "ci_low", "ci_high", "n_points", "ess", "low_ess"],
               rows)
    best = run.comparison["certs"]["gamma0_star"]
    skipped = ("gamma0_star infeasible" if not best.feasible else
               "bound >= 1" if best.tv_bound >= 1.0 else None)
    ok = True
    for row in rows:
        if skipped:
            dom = " dominance=SKIPPED (%s)" % skipped
        else:
            # 1e-12 absolute floor: below it both the estimators and the
            # underflowed tail term are numerically zero
            holds = row["ci_high"] <= max(best.tv_bound, 1e-12)
            ok = ok and holds
            dom = " dominance=%s (bound %.4g)" % ("OK" if holds else "VIOLATED",
                                                  best.tv_bound)
        print("validate: %s TV=%.4g ci=[%.4g, %.4g]%s"
              % (row["method"], row["value"], row["ci_low"], row["ci_high"], dom))
    return 0 if ok else 1


def cmd_sweep(run):
    t0 = time.time()
    cfg = run.cfg
    rows = []
    if cfg.sweep.synthetic:
        if cfg.sweep.axis == "p":
            rows = cert.sweep_synthetic(cfg.sweep.n, cfg.sweep.values, cfg.beta, cfg.gamma)
        else:
            for n in cfg.sweep.values:
                rows += cert.sweep_synthetic(n, [cfg.p], cfg.beta, cfg.gamma)
        cols = ["n", "p", "beta", "gamma", "gamma0_star", "m", "m0_star",
                "bound_DG", "bound_identity", "bound_gamma0_star"]
    else:
        cols = ["n", "p"] + CERT_COLUMNS
        for v in cfg.sweep.values:
            point = Run(load_point(cfg, v), eig=run.eig)   # one eigensystem for the grid
            rows += [dict(r, n=point.cfg.n, p=point.cfg.p) for r in _choice_rows(point)]
    run.times["sweep"] = time.time() - t0
    _write_csv(run.path("sweep.csv"), cols, rows)
    print("sweep: %d rows over %s grid (%s mode)"
          % (len(rows), cfg.sweep.axis, "synthetic" if cfg.sweep.synthetic else "real"))
    return 0


def load_point(cfg: ExperimentConfig, v) -> ExperimentConfig:
    d = cfg.to_dict()
    if cfg.sweep.axis == "p":
        d["p"] = int(v)
    else:
        d["n"] = int(v)
    return config_from_dict(d)


def cmd_all(run):
    return max([fn(run) for fn in (cmd_eigen, cmd_simulate, cmd_fit, cmd_certify,
                                   cmd_validate)])


COMMANDS = {"eigen": cmd_eigen, "simulate": cmd_simulate, "fit": cmd_fit,
            "certify": cmd_certify, "validate": cmd_validate,
            "sweep": cmd_sweep, "all": cmd_all}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="lapcert",
        description="Certified total-variation bounds for Laplace approximations "
                    "of generalized linear inverse problems")
    ap.add_argument("command", choices=sorted(COMMANDS))
    ap.add_argument("--config", required=True, help="JSON experiment config")
    ap.add_argument("--out", default=None, help="output directory (default from config)")
    ap.add_argument("--seed", type=int, default=None, help="override config seed")
    ap.add_argument("--threads", type=int, default=None,
                    help="cap BLAS threads for reproducible timings")
    args = ap.parse_args(argv)

    if args.threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)
    try:
        cfg = load_config(args.config)
    except (ConfigError, OSError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    os.makedirs(cfg.out_dir, exist_ok=True)

    run = Run(cfg)
    t0 = time.time()
    try:
        rc = COMMANDS[args.command](run)
    except Exception as exc:  # surfaced module errors keep their class name
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 3
    run.times["total"] = time.time() - t0
    _manifest(cfg, cfg.out_dir, run.times)
    return rc


if __name__ == "__main__":
    sys.exit(main())
