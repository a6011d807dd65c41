"""Output checks applied to every benchmarked lapcert run.

A run passes when it exits 0, its artifacts have the documented schema,
every feasible certificate with a bound below 1 dominates every TV
estimate (and the CLI printed `dominance=OK` for the optimized choice),
and, where a reference exists for the seed, the feasibility flags match
exactly and every float column matches within the reference's relative
tolerance.
"""
from __future__ import annotations

import csv
import json
import math
import os

CERT_LABELS = ("DG", "identity", "gamma0_star")
CERT_FLOATS = ("gamma0", "alpha", "effdim", "radius", "tau3_sup", "local_term",
               "tail_term", "tv_bound", "A", "B", "gap_est", "S_dim", "S_tau",
               "m", "m0star")
TV_FLOATS = ("value", "ci_low", "ci_high", "ess")
EIGEN_FLOATS = ("lambda", "psi_sup", "dpsi_sup_over_k", "vk_inf", "dvk_inf", "vk_l2")
DOMINANCE_FLOOR = 1e-12  # the CLI's absolute floor for numerically-zero bounds

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references")


class CheckFailed(Exception):
    pass


def _read_rows(path: str, required: tuple) -> list:
    if not os.path.exists(path):
        raise CheckFailed("missing artifact %s" % os.path.basename(path))
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in required if c not in (reader.fieldnames or ())]
        if missing:
            raise CheckFailed("%s lacks columns %s" % (os.path.basename(path), missing))
        return list(reader)


def _num(cell: str):
    if cell is None or cell == "":
        return None
    try:
        return float(cell)
    except ValueError as exc:
        raise CheckFailed("non-numeric cell %r" % cell) from exc


def read_artifacts(out_dir: str, workload) -> dict:
    """Parse the artifacts a workload writes into plain dicts of floats."""
    eig_rows = _read_rows(os.path.join(out_dir, "eigen.csv"), ("k",) + EIGEN_FLOATS)
    arts = {"eigen": {row["k"]: {c: _num(row[c]) for c in EIGEN_FLOATS}
                      for row in eig_rows}}
    if workload.command == "eigen":
        return arts
    certs = _read_rows(os.path.join(out_dir, "certificates.csv"),
                       ("label", "feasible") + CERT_FLOATS)
    labels = tuple(row["label"] for row in certs)
    if labels != CERT_LABELS:
        raise CheckFailed("certificate labels %s, expected %s" % (labels, CERT_LABELS))
    arts["certificates"] = {
        row["label"]: dict({c: _num(row[c]) for c in CERT_FLOATS},
                           feasible=_num(row["feasible"]))
        for row in certs}
    tvs = _read_rows(os.path.join(out_dir, "tv_estimates.csv"), ("method",) + TV_FLOATS)
    methods = tuple(row["method"] for row in tvs)
    if methods != workload.tv_methods:
        raise CheckFailed("TV methods %s, expected %s" % (methods, workload.tv_methods))
    arts["tv_estimates"] = {row["method"]: {c: _num(row[c]) for c in TV_FLOATS}
                            for row in tvs}
    return arts


def check_schema(arts: dict) -> None:
    lam = [row["lambda"] for _, row in sorted(arts["eigen"].items(), key=lambda kv: int(kv[0]))]
    if len(lam) == 0 or any(v is None or not v > 0 for v in lam):
        raise CheckFailed("eigenvalues missing or not positive")
    if any(b >= a for a, b in zip(lam, lam[1:])):
        raise CheckFailed("eigenvalues not strictly decreasing")
    for label, row in arts.get("certificates", {}).items():
        if row["tv_bound"] is None or not math.isfinite(row["tv_bound"]):
            raise CheckFailed("certificate %s has no finite tv_bound" % label)
    for method, row in arts.get("tv_estimates", {}).items():
        if not (0.0 <= row["ci_low"] <= row["value"] <= row["ci_high"] <= 1.0):
            raise CheckFailed("TV estimate %s outside its interval" % method)


def check_dominance(arts: dict, stdout: str) -> None:
    certs, tvs = arts.get("certificates", {}), arts.get("tv_estimates", {})
    for label, cert in certs.items():
        if not (cert["feasible"] and cert["tv_bound"] < 1.0):
            continue
        for method, tv in tvs.items():
            if tv["ci_high"] > max(cert["tv_bound"], DOMINANCE_FLOOR):
                raise CheckFailed("feasible %s bound %.6g below %s TV ci_high %.6g"
                                  % (label, cert["tv_bound"], method, tv["ci_high"]))
    best = certs.get("gamma0_star")
    if best and best["feasible"] and best["tv_bound"] < 1.0:
        if "VIOLATED" in stdout or stdout.count("dominance=OK") != len(tvs):
            raise CheckFailed("CLI did not report dominance=OK for every TV estimate")


def _close(got, want, rtol: float, atol: float) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(got - want) <= atol + rtol * max(abs(got), abs(want))


def _compare(section: str, got: dict, want: dict, rtol: float, atol: float) -> None:
    if set(got) != set(want):
        raise CheckFailed("%s rows %s, reference %s" % (section, sorted(got), sorted(want)))
    for key, ref_row in want.items():
        row = got[key]
        for col, ref in ref_row.items():
            if col == "feasible":
                if row[col] != ref:
                    raise CheckFailed("%s %s feasible=%s, reference %s"
                                      % (section, key, row[col], ref))
            elif not _close(row.get(col), ref, rtol, atol):
                raise CheckFailed("%s %s %s=%r, reference %r (rtol %g)"
                                  % (section, key, col, row.get(col), ref, rtol))


def check_reference(arts: dict, ref: dict | None, seed: int) -> None:
    """Compare with the stored reference, where one covers the workload and seed."""
    if ref is None:
        return
    rtol, atol = ref["rtol"], ref["atol"]
    _compare("eigen", arts["eigen"], ref["eigen"], rtol, atol)
    per_seed = ref["seeds"].get(str(seed))
    if per_seed is not None:
        _compare("certificates", arts["certificates"], per_seed["certificates"], rtol, atol)
        _compare("tv_estimates", arts["tv_estimates"], per_seed["tv_estimates"], rtol, atol)


def load_reference(workload_name: str) -> dict | None:
    path = os.path.join(REFERENCE_DIR, workload_name + ".json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        return json.load(fh)


def check_run(returncode: int, stdout: str, out_dir: str, workload, ref: dict | None,
              seed: int) -> dict:
    """Run every check; returns the parsed artifacts. Raises CheckFailed."""
    if returncode != 0:
        tail = stdout.strip().splitlines()[-1:] or [""]
        raise CheckFailed("exit code %d: %s" % (returncode, tail[0]))
    arts = read_artifacts(out_dir, workload)
    check_schema(arts)
    check_dominance(arts, stdout)
    check_reference(arts, ref, seed)
    return arts
