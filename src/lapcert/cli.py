"""Command-line experiment driver.

Subcommands write deterministic CSV and JSON artifacts plus a run manifest
(config echo, git hash, wall times, threading) from one `Run`, which
computes each pipeline stage once; `all` runs the PIPELINE subcommands in
order.  Every file goes through `_write_csv` or `_write_json`.  The process
exits nonzero iff an asserted invariant fails (a `violated` row of
checks.csv), never for an infeasible certificate (infeasibility is data).
Run it as `lapcert` or `python -m lapcert` (`__main__`); `python -m lapcert.cli`
is refused with exit 2, since numpy, and so BLAS, has loaded by then.
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

import numpy as np

from . import certification as cert
from . import validation as val
from .__main__ import BLAS_VARS
from .config import ConfigError, ExperimentConfig, load_config, sweep_points
from .eigensolver import cached_solve, eig_diagnostics
from .model import exp_family, generate
from .operators import assemble_design
from .posterior import Problem, f_rounding, map_solve, usable_cores

CERT_COLUMNS = ["label", "kind", "gamma0", "alpha", "effdim", "radius",
                "tau3_sup", "local_term", "tail_term", "tv_bound", "feasible",
                "A", "B", "gap_est", "S_dim", "S_tau", "m", "m0star"]
CHECK_COLUMNS = ["label", "check", "status", "reason", "bound", "estimate",
                 "ci_low", "ci_high", "ratio"]
# absolute floor of every sampled check: below it both the estimators and an
# underflowed tail term are numerically zero (the exact Gaussian rows compare logs)
CHECK_FLOOR = 1e-12
MAX_THREADS = 256   # the largest --threads
# BLAS reads these once, when numpy loads, which the imports above do
BLAS_ENV = {var: os.environ.get(var) for var in BLAS_VARS}


def _git_hash() -> str:
    """HEAD of the source tree this package runs from, whatever the cwd."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10, cwd=os.path.dirname(os.path.abspath(__file__)))
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):   # no git, or it timed out
        return "unknown"


def _write_csv(path: str, columns: list, rows) -> None:
    """One line per row, in `columns` order: row dicts (a missing key is an empty
    cell) or one dict of equal-length numpy columns, each cell by its repr.  csv
    writes a float by its repr, so numpy floats go as plain floats."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        if isinstance(rows, dict):   # 1024 rows at a time: the heap that a chunk's floats and
            for a in range(0, len(rows[columns[0]]), 1024):   # strings take stays with the process
                cells = zip(*(map(repr, rows[k][a:a + 1024].tolist()) for k in columns))
                fh.write("\r\n".join(map(",".join, cells)) + "\r\n")
        else:
            w.writerows([float(v) if isinstance(v, float) else v
                         for v in map(row.get, columns)] for row in rows)


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


class Run:
    """One pass of the pipeline for a config.

    Each stage (eig, data, prob, fit, certs, usable, tvs) is computed on first
    use and kept, so every subcommand of `all` reads the same objects.  data is
    drawn from the config's truth, and certs is one `compare_choices` call.  eig
    keeps every eigenvalue but only the eigenfunctions a stage samples: p, the
    truth's p_star, and the p of each of `points`, a sweep's point configs.
    `at(point)` is a point's run, which shares this run's eig, and its data when
    the point's n is the config's.  Up to `workers` threads run the TV
    estimates' likelihood kernel and bootstrap.
    """

    def __init__(self, cfg: ExperimentConfig, workers: int, points=()):
        self.cfg = cfg
        self.workers = workers
        self.points = points

    def at(self, point: ExperimentConfig) -> Run:
        run = Run(point, self.workers)
        run.eig = self.eig       # an instance value takes the cached_property's place
        if point.n == self.cfg.n:
            run.data = self.data
        return run

    def path(self, name: str) -> str:
        return os.path.join(self.cfg.out_dir, name)

    @cached_property
    def eig(self):
        cfg = self.cfg
        cache = cfg.eigensolver.cache_dir or os.path.join(cfg.out_dir, "eigcache")
        return cached_solve(cfg.operator, cfg.eigensolver.N, cfg.eigensolver.K, cache).leading(
            max(cfg.p, cfg.truth.p_star, *(point.p for point in self.points)))

    @cached_property
    def data(self):
        cfg = self.cfg
        return generate(self.eig, exp_family(cfg.family), cfg.truth, n=cfg.n, seed=cfg.seed)

    @cached_property
    def prob(self):
        cfg = self.cfg
        return Problem(design=assemble_design(self.eig, cfg.n, cfg.p), data=self.data,
                       family=exp_family(cfg.family), gamma=cfg.gamma, eig=self.eig)

    @cached_property
    def fit(self):
        return map_solve(self.prob)

    @cached_property
    def certs(self) -> dict:
        c = self.cfg.certification
        return cert.compare_choices(self.fit, self.prob, beta=c.beta, gamma0s=c.gamma0 or ())

    @cached_property
    def usable(self) -> list:
        """Labels of the certificates that can be checked: feasible, bound < 1."""
        return [label for label, c in self.certs.items() if c.feasible and c.tv_bound < 1.0]

    @cached_property
    def tvs(self) -> list:
        """The config's TV estimates.  The importance draws also give the mass
        outside each usable certificate's ellipsoid, in `usable` order."""
        cfg, certs = self.cfg, self.certs
        tvs = []
        if cfg.validation.method in ("importance", "both"):
            tvs.append(val.tv_importance(
                self.fit, self.prob, n_samples=cfg.validation.M, seed=cfg.seed,
                regions=[(certs[label].choice.D2, certs[label].radius) for label in self.usable],
                workers=self.workers))
        if cfg.validation.method in ("quadrature", "both"):
            tvs.append(val.tv_quadrature(self.fit, self.prob, per_axis=cfg.validation.per_axis,
                                         workers=self.workers))
        return tvs


def _cert_row(label: str, c: cert.Certificate) -> dict:
    return {"label": label, "kind": c.choice.kind, "gamma0": c.choice.gamma0,
            "alpha": c.alpha, "effdim": c.effdim, "radius": c.radius,
            "tau3_sup": c.tau3_sup, "local_term": c.local_term,
            "tail_term": c.tail_term, "tv_bound": c.tv_bound,
            "feasible": int(c.feasible), **c.diagnostics}


def cmd_eigen(run):
    eig = run.eig
    diag = eig_diagnostics(eig)
    diag.update({"lambda": eig.lambdas, "active": diag["active"].astype(int)})
    _write_csv(run.path("eigen.csv"), ["k", "lambda", "psi_sup", "dpsi_sup_over_k", "vk_inf",
                                       "dvk_inf", "vk_l2", "active"], diag)
    print("eigen: K=%d active=%d vk_inf_violations=%d dvk_inf_violations=%d "
          "vk_l2_c_estimate=%.4g" % (eig.lambdas.size, diag["active"].sum(),
                                     diag["vk_inf_violations"], diag["dvk_inf_violations"],
                                     diag["vk_l2_c_estimate"]))
    return 0


def cmd_simulate(run):
    ds = run.data
    _write_csv(run.path("dataset.csv"), ["j", "s_true", "y"],
               {"j": np.arange(1, ds.n + 1), "s_true": ds.s_true, "y": ds.y})
    cfg = run.cfg
    _write_json(run.path("dataset.json"), {"seed": cfg.seed, "family": cfg.family, "n": ds.n,
                                           "truth": asdict(cfg.truth)})
    print("simulate: n=%d, family=%s, seed=%d" % (ds.n, cfg.family, cfg.seed))
    return 0


def cmd_fit(run):
    fit = run.fit
    _write_json(run.path("fit.json"), {
        "theta_hat": fit.theta_hat.tolist(), "rq_sup": fit.rq_sup,
        "newton_iters": fit.newton_iters, "grad_norm": fit.grad_norm, "f_hat": fit.f_hat})
    print("fit: grad_norm=%.3e iters=%d" % (fit.grad_norm, fit.newton_iters))
    return 0


def cmd_certify(run):
    rows = [_cert_row(label, c) for label, c in run.certs.items()]
    _write_csv(run.path("certificates.csv"), CERT_COLUMNS, rows)
    for row in rows:
        print("certify: %-12s tv_bound=%.4g feasible=%d (grid gap est %.2e)"
              % (row["label"], row["tv_bound"], row["feasible"], row["gap_est"]))
    return 0


def _check(label, check, bound, est=(None,) * 3, violated=False, reason="") -> dict:
    """A checks.csv row: skipped if there is a reason, else violated or checked."""
    status = "skipped" if reason else "violated" if violated else "checked"
    return {"label": label, "check": check, "status": status, "reason": reason,
            "bound": bound, "estimate": est[0], "ci_low": est[1], "ci_high": est[2],
            "ratio": bound / est[0] if est[0] and not reason else None}


def _checks(run) -> list:
    """The checks.csv rows.

    Each usable certificate is checked against every TV estimate (violated iff
    ci_high > bound; both above CHECK_FLOOR and f's rounding at the fit, which
    every log-weight f_hat - f(theta) carries; skipped if that floor is >= 1) and on
    its tail claims at its radius and scaled weighting: the importance draws'
    posterior mass outside against `posterior_tail` (violated iff ci_low > bound;
    both above CHECK_FLOOR), and the certificate's own `gaussian_mass`, the
    Gaussian's exact bracket against `gaussian_tail`.  Other certificates get one
    skipped row, and the TV estimates are made only if some certificate is usable.
    """
    rows = []
    tv_floor = max(CHECK_FLOOR, f_rounding(run.prob, run.fit.theta_hat, run.fit.f_hat))
    tv_skip = "f rounding >= 1" if tv_floor >= 1 else ""
    for label, c in run.certs.items():
        if label not in run.usable:
            rows.append(_check(label, "all", c.tv_bound,
                               reason="infeasible" if not c.feasible else "bound >= 1"))
            continue
        rows += [_check(label, "tv_" + tv.method, c.tv_bound, (tv.value, tv.ci_low, tv.ci_high),
                        tv.ci_high > max(c.tv_bound, tv_floor), tv_skip) for tv in run.tvs]
        draws = run.tvs[0].method == "importance"
        m = run.tvs[0].outside[run.usable.index(label)] if draws else (None,) * 3
        lo, hi, refuted = c.gaussian_mass()
        rows += [_check(label, "tail_posterior", c.posterior_tail, m,
                        draws and m[1] > max(c.posterior_tail, CHECK_FLOOR),
                        "" if draws else "no importance draws"),
                 _check(label, "tail_gaussian", c.gaussian_tail, (hi, lo, hi), refuted)]
    return rows


def cmd_validate(run):
    tvs, checks = run.tvs, _checks(run)
    rows = [dict(asdict(tv), low_ess=int(tv.low_ess)) for tv in tvs]
    _write_csv(run.path("tv_estimates.csv"),
               ["method", "value", "ci_low", "ci_high", "n_points", "ess", "low_ess"],
               rows)
    _write_csv(run.path("checks.csv"), CHECK_COLUMNS, checks)
    for tv in tvs:
        mine = [r for r in checks if r["check"] == "tv_" + tv.method]
        bad = [r["label"] for r in mine if r["status"] == "violated"]
        reason = mine[0]["reason"] if mine else "no usable certificate"
        dom = ("SKIPPED (%s)" % reason if reason else
               "VIOLATED (%s)" % ", ".join(bad) if bad else
               "OK (bound %.4g)" % min(r["bound"] for r in mine))
        print("validate: %s TV=%.4g ci=[%.4g, %.4g] dominance=%s"
              % (tv.method, tv.value, tv.ci_low, tv.ci_high, dom))
    return 1 if any(r["status"] == "violated" for r in checks) else 0


def cmd_sweep(run):
    cfg = run.cfg
    rows, checks = [], []
    if cfg.sweep.synthetic:
        for v in cfg.sweep.values:   # the config's (n, p) with the axis coordinate v
            at = {"n": cfg.n, "p": cfg.p, cfg.sweep.axis: v}
            rows += cert.sweep_synthetic(at["n"], [at["p"]], cfg.certification.beta, cfg.gamma)
        cols = ["n", "p", "beta", "gamma", "gamma0_star", "m", "m0_star",
                "bound_DG", "bound_identity", "bound_gamma0_star"]
    else:
        cols = ["n", "p"] + CERT_COLUMNS
        for point in map(run.at, run.points):   # one eigensystem for the grid
            at = {"n": point.cfg.n, "p": point.cfg.p}
            rows += [dict(_cert_row(label, c), **at) for label, c in point.certs.items()]
            checks += [dict(r, **at) for r in _checks(point)]
        _write_csv(run.path("checks.csv"), ["n", "p"] + CHECK_COLUMNS, checks)
    _write_csv(run.path("sweep.csv"), cols, rows)
    print("sweep: %d rows over %s grid (%s mode)"
          % (len(rows), cfg.sweep.axis, "synthetic" if cfg.sweep.synthetic else "real"))
    return 1 if any(r["status"] == "violated" for r in checks) else 0


COMMANDS = {"eigen": cmd_eigen, "simulate": cmd_simulate, "fit": cmd_fit,
            "certify": cmd_certify, "validate": cmd_validate, "sweep": cmd_sweep}
PIPELINE = ("eigen", "simulate", "fit", "certify", "validate")   # what `all` runs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="lapcert",
        description="Certified total-variation bounds for Laplace approximations "
                    "of generalized linear inverse problems")
    ap.add_argument("command", choices=sorted([*COMMANDS, "all"]))
    ap.add_argument("--config", required=True, help="JSON experiment config")
    ap.add_argument("--out", default=None, help="output directory (default from config)")
    ap.add_argument("--seed", type=int, default=None, help="override config seed")
    ap.add_argument("--threads", type=int, default=None,
                    help="most threads for the likelihood kernel and bootstrap (default "
                         "and cap: the usable cores; 1 to %d); BLAS runs on one thread under "
                         "the `lapcert` command whatever N" % MAX_THREADS)
    args = ap.parse_args(argv)

    try:
        if args.threads is not None and not 1 <= args.threads <= MAX_THREADS:
            raise ConfigError("--threads must be >= 1 and <= %d, got %d"
                              % (MAX_THREADS, args.threads))
        cfg = load_config(args.config, seed=args.seed, out_dir=args.out)
        points = sweep_points(cfg) if args.command == "sweep" else ()
        try:   # before --out, so that a cache_dir naming a file leaves nothing behind
            if cfg.eigensolver.cache_dir:
                os.makedirs(cfg.eigensolver.cache_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError("%s.eigensolver.cache_dir: %s" % (args.config, exc)) from exc
        os.makedirs(cfg.out_dir, exist_ok=True)
    except (ConfigError, OSError) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2

    run = Run(cfg, min(args.threads or usable_cores(), usable_cores()), points)
    # each subcommand's time includes the stages it computes first and its artifacts
    wall_times_s, rc, start = {}, 0, time.time()
    try:
        for name in PIPELINE if args.command == "all" else [args.command]:
            t0 = time.time()
            rc = max(rc, COMMANDS[name](run))
            wall_times_s[name] = time.time() - t0
        wall_times_s["total"] = time.time() - start
        threads = {"requested": args.threads, "kernel_workers": run.workers, "blas_env": BLAS_ENV}
        _write_json(run.path("manifest.json"), {"config": asdict(cfg), "git_hash": _git_hash(),
                                                "wall_times_s": wall_times_s, "threads": threads})
    except Exception as exc:  # surfaced module errors keep their class name
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 3
    return rc


if __name__ == "__main__":   # numpy, and so BLAS, has loaded at the environment's thread count
    print("lapcert.cli is not a command: run `lapcert` or `python -m lapcert`, which run BLAS "
          "on one thread", file=sys.stderr)
    sys.exit(2)
