"""The four benchmark workloads, each a lapcert config built from a seed.

Every warm workload reads the Volterra (a = 1, b = 0) eigensystem at
N = 4096, K = 50 from a cache the benchmark builds during set-up, so the
three of them share one set-up and differ only in what runs after the
eigen stage.  `eigen_cold` solves a different operator, with a non-zero
Liouville potential, from an empty cache on every run.
"""
from __future__ import annotations

from dataclasses import dataclass

N_GRID = 4096
K_MODES = 50


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # lapcert subcommand
    warm: bool              # reads an eigen cache built during set-up
    tv_methods: tuple       # rows expected in tv_estimates.csv, in order
    base: dict              # config without seed, cache_dir and out_dir
    why: str

    def config(self, seed: int, cache_dir: str, out_dir: str) -> dict:
        cfg = {key: (dict(val) if isinstance(val, dict) else val)
               for key, val in self.base.items()}
        cfg["eigensolver"] = {"K": K_MODES, "N": N_GRID, "cache_dir": cache_dir}
        cfg["seed"] = int(seed)
        cfg["out_dir"] = out_dir
        return cfg


_TRUTH = {"p_star": 8, "amplitude": 0.5, "decay": 2.0}

# The bundled configs/poisson_desk.json, minus the certification keys that no
# code path reads (auto_star, n_r, lambda_exp); their defaults equal the
# bundled values, so the run is the same and survives their removal.
_DESK = {"operator": {"a": [1.0], "b": [0.0]}, "family": "poisson",
         "n": 2000, "p": 6, "gamma": 2.0, "truth": _TRUTH,
         "certification": {"beta": 1.0},
         "validation": {"method": "importance", "M": 20000}}

WORKLOADS = {w.name: w for w in (
    Workload(
        name="eigen_cold", command="eigen", warm=False, tv_methods=(),
        base={"operator": {"a": [1.0, 0.5], "b": [0.5]}, "family": "poisson",
              "n": 2000, "p": 6},
        why="lapcert eigen from an empty cache on a=1+0.5x, b=0.5: the only "
            "workload where the shooting eigensolver does the work"),
    Workload(
        name="desk", command="all", warm=True, tv_methods=("importance",),
        base=_DESK,
        why="lapcert all on the bundled poisson_desk config (n=2000, p=6, IS "
            "M=2e4), warm cache: cache reloads and per-call overhead dominate"),
    Workload(
        name="large_n", command="all", warm=True, tv_methods=("importance",),
        base={"operator": {"a": [1.0], "b": [0.0]}, "family": "poisson",
              "n": 20000, "p": 8, "gamma": 2.0, "truth": _TRUTH,
              "validation": {"method": "importance", "M": 20000}},
        why="lapcert all, Poisson n=2e4, p=8, IS M=2e4, warm cache: the IS "
            "likelihood over M*n=4e8 entries and data generation dominate"),
    Workload(
        name="quad_bernoulli", command="all", warm=True,
        tv_methods=("importance", "quadrature"),
        base={"operator": {"a": [1.0], "b": [0.0]}, "family": "bernoulli",
              "n": 5000, "p": 2, "gamma": 2.0, "truth": _TRUTH,
              "validation": {"method": "both", "M": 10000, "per_axis": 64}},
        why="lapcert all, Bernoulli n=5000, p=2, IS and tensor quadrature: the "
            "only workload with quadrature TV and the Bernoulli family"),
)}
