"""The benchmark's own tests.  Run from the root of the source tree:

    python3 perfbench/selftest.py          (or: python3 -m pytest perfbench/selftest.py)

The traced counts are those of the parent commit of the benchmark; a change
that alters them on purpose updates them here in its own benchmark change.
"""
from __future__ import annotations

import copy
import csv
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import (CERT_FLOATS, CERT_LABELS, EIGEN_FLOATS, TV_FLOATS, CheckFailed,  # noqa: E402
                    check_run, load_reference)
from workloads import WORKLOADS  # noqa: E402


def _traced(workload: str, seed: int = 1) -> dict:
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                         capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, out.stdout
    return {name: m["value"] for name, m in result["metrics"].items()}


def test_desk_traced_counts():
    m = _traced("desk")
    assert m["eigensolver.load_eigensystem.calls"] == 5
    assert m["model.generate.calls"] == 4
    assert m["posterior.map_solve.calls"] == 3
    assert m["certification.compare_choices.calls"] == 2
    assert m["validation.tv_importance.evals"] == WORKLOADS["desk"].base["validation"]["M"]
    assert m["eigensolver.shoots"] == 0 and m["validation.tv_quadrature.evals"] == 0


def test_eigen_cold_traced_counts():
    m = _traced("eigen_cold")
    assert m["eigensolver.shoots"] == 36
    assert m["eigensolver.shoot_columns"] == 7182
    assert m["eigensolver.load_eigensystem.calls"] == 1   # the cache miss
    assert m["eigensolver.cache_bytes"] > 10e6


def _write(path: str, columns: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=columns)
        w.writeheader()
        for row in rows:
            w.writerow({k: ("" if v is None else repr(v) if isinstance(v, float) else v)
                        for k, v in row.items()})


def _artifacts(folder: str, arts: dict) -> None:
    os.makedirs(folder, exist_ok=True)
    _write(os.path.join(folder, "eigen.csv"), ["k"] + list(EIGEN_FLOATS),
           [dict(row, k=k) for k, row in arts["eigen"].items()])
    _write(os.path.join(folder, "certificates.csv"), ["label", "feasible"] + list(CERT_FLOATS),
           [dict(arts["certificates"][label], label=label) for label in CERT_LABELS])
    _write(os.path.join(folder, "tv_estimates.csv"), ["method"] + list(TV_FLOATS),
           [dict(row, method=m) for m, row in arts["tv_estimates"].items()])


def test_check_rejects_perturbed_artifacts():
    wl, seed = WORKLOADS["large_n"], 1
    ref = load_reference(wl.name)
    good = dict(ref["seeds"][str(seed)], eigen=ref["eigen"])
    assert good["certificates"]["gamma0_star"]["feasible"] == 1
    stdout = "validate: importance TV=0 ci=[0, 0] dominance=OK (bound 0.1)\n"
    folder = os.path.join(os.getcwd(), ".perfbench", "selftest")

    def verdict(arts, rc=0, text=stdout):
        shutil.rmtree(folder, ignore_errors=True)
        _artifacts(folder, arts)
        try:
            check_run(rc, text, folder, wl, ref, seed)
            return "pass"
        except CheckFailed as exc:
            return str(exc)
        finally:
            shutil.rmtree(folder, ignore_errors=True)

    assert verdict(good) == "pass"
    edits = {
        "float off by 1e-4": lambda a: a["certificates"]["DG"].update(
            tv_bound=a["certificates"]["DG"]["tv_bound"] * (1 + 1e-4)),
        "feasibility flipped": lambda a: a["certificates"]["identity"].update(feasible=1),
        "eigenvalue moved": lambda a: a["eigen"]["7"].update(
            **{"lambda": a["eigen"]["7"]["lambda"] * (1 + 1e-5)}),
        "estimate above a feasible bound": lambda a: a["tv_estimates"]["importance"].update(
            ci_high=0.99, value=0.9),
    }
    for what, edit in edits.items():
        bad = copy.deepcopy(good)
        edit(bad)
        assert verdict(bad) != "pass", what
    assert verdict(good, text="validate: importance TV=0\n") != "pass", "no dominance line"
    assert verdict(good, rc=1) != "pass", "nonzero exit"


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
            print("ok  %s" % name)
