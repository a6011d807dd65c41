"""Behaviour contract: the bundled configs reproduce the stored artifacts byte for byte.

Each case runs `python -W error -m lapcert` in a subprocess, which runs BLAS
on one thread, with the eigen cache pointed at the test session's cache; the
run exits 0 with nothing on stderr (no warning), and every artifact under
tests/golden/<config>/ is compared with the fresh output.  Two cases
(`THREADS_1`) run at `--threads 1`, the rest at the default kernel pool; the
committed goldens came from default-pool runs, so the two also pin that the
thread count moves no bit: two column tiles a row with both TV estimators
(bernoulli_quadrature), and the p = 32 and 48 rows of a real-mode sweep.

The exceptions to byte equality are in gaussian_exactness: its posterior is
Gaussian, so the true TV is 0 and the TV estimates (~5e-15) are rounding
noise that any last-bit change moves, as is the Newton fit's final gradient
norm (~4e-14, `grad_norm` in fit.json); those cells (`NOISE_CELLS`) compare
at absolute `NOISE_ATOL`, and every other cell byte for byte.  A change that
alters numerics on purpose regenerates them:

    PYTHONPATH=src python tests/test_golden.py
"""
import csv
import json
import os
import re
import subprocess
import sys
import tempfile

import pytest

from conftest import python_env
from probes import gaussian_mass_bracket, theorem_claims

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")
PIPELINE = ("eigen.csv", "dataset.csv", "fit.json", "certificates.csv",
            "tv_estimates.csv", "checks.csv")
CASES = {  # config name -> (subcommand, artifacts compared)
    "bernoulli_quadrature": ("all", PIPELINE),
    "poisson_desk": ("all", PIPELINE),
    "gaussian_exactness": ("all", PIPELINE),
    "poisson_sweep": ("sweep", ("sweep.csv",)),
    "poisson_plateau": ("sweep", ("sweep.csv", "checks.csv")),
}
THREADS_1 = {"bernoulli_quadrature", "poisson_plateau"}   # cases run at --threads 1
# (case, artifact) -> columns (keys of a JSON) compared at NOISE_ATOL, in checks.csv
# on the tv_* rows only
NOISE_CELLS = {("gaussian_exactness", "tv_estimates.csv"): ("value", "ci_low", "ci_high"),
               ("gaussian_exactness", "checks.csv"): ("estimate", "ci_low", "ci_high"),
               ("gaussian_exactness", "fit.json"): ("grad_norm",)}
NOISE_ATOL = 1e-13


def same_artifact(got: bytes, want: bytes, noise: tuple = ()) -> bool:
    """got is want byte for byte, except that the numbers in the `noise` fields
    need only agree to NOISE_ATOL: columns of a CSV (of a checks.csv, on its
    tv_* rows only), or keys of a JSON document written one key per line."""
    if got == want or not noise:
        return got == want
    got_lines, want_lines = got.split(b"\n"), want.split(b"\n")
    if len(got_lines) != len(want_lines) or got_lines[0] != want_lines[0]:
        return False
    if want.startswith(b"{"):
        def cells(line):   # '  "key": value,' -> ['  "key": ', 'value', ','], value noisy
            key, sep, value = line.partition(b": ")
            comma = value.endswith(b",")
            noisy = {1} if key.strip().strip(b'"').decode() in noise else set()
            return [key + sep, value[:len(value) - comma], b"," * comma], noisy
    else:
        head = want_lines[0].rstrip(b"\r").split(b",")
        cols = {head.index(c.encode()) for c in noise}
        check = head.index(b"check") if b"check" in head else None

        def cells(line):
            row = line.split(b",")
            return row, cols if check is None or row[check].startswith(b"tv_") else set()
    for g, w in zip(got_lines[1:], want_lines[1:]):
        if g == w:
            continue
        (g, _), (w, noisy) = cells(g), cells(w)
        if len(g) != len(w) or any(
                a != b and not (i in noisy and abs(float(a) - float(b)) <= NOISE_ATOL)
                for i, (a, b) in enumerate(zip(g, w))):
            return False
    return True


def run_config(name: str, out_dir: str, cache_dir: str) -> subprocess.CompletedProcess:
    """Run the config's subcommand into out_dir with the given eigen cache, warnings as errors."""
    with open(os.path.join(ROOT, "configs", name + ".json")) as fh:
        doc = json.load(fh)
    doc.setdefault("eigensolver", {})["cache_dir"] = cache_dir
    os.makedirs(out_dir, exist_ok=True)
    cfg = os.path.join(out_dir, "config.json")
    with open(cfg, "w") as fh:
        json.dump(doc, fh)
    threads = ["--threads", "1"] if name in THREADS_1 else []
    return subprocess.run([sys.executable, "-W", "error", "-m", "lapcert", CASES[name][0],
                           "--config", cfg, "--out", out_dir, *threads], env=python_env(),
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_artifacts(name, tmp_path, eig_cache, volterra_eig, volterra_eig_small):
    out = str(tmp_path / name)
    proc = run_config(name, out, eig_cache)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    for artifact in CASES[name][1]:
        with open(os.path.join(GOLDEN, name, artifact), "rb") as fh:
            want = fh.read()
        with open(os.path.join(out, artifact), "rb") as fh:
            assert same_artifact(fh.read(), want, NOISE_CELLS.get((name, artifact), ())), \
                "%s/%s differs from the golden copy" % (name, artifact)


def test_noise_cells_keep_their_teeth():
    """A TV cell of gaussian_exactness, or its fit's grad_norm, that moves by
    rounding noise matches; one at 1e-12 does not, nor does any other cell
    changed (status, bound, ratio, ess, f_hat), nor a tail row's interval
    moved by the same noise."""
    for artifact in ("tv_estimates.csv", "checks.csv"):
        cols = NOISE_CELLS["gaussian_exactness", artifact]
        with open(os.path.join(GOLDEN, "gaussian_exactness", artifact), "rb") as fh:
            want = fh.read()
        lines = want.split(b"\n")
        head = lines[0].decode().split(",")

        def edited(line, col, change):
            row = lines[line].split(b",")
            row[head.index(col)] = change(row[head.index(col)])
            return b"\n".join(lines[:line] + [b",".join(row)] + lines[line + 1:])

        def noise(cell):
            return repr(float(cell) + 5e-14).encode()

        assert same_artifact(want, want, cols)
        for col in cols:
            assert same_artifact(edited(1, col, noise), want, cols)
            assert not same_artifact(edited(1, col, noise), want)
            assert not same_artifact(edited(1, col, lambda cell: b"1e-12"), want, cols)
        for col in set(head) - set(cols):
            assert not same_artifact(edited(1, col, lambda cell: cell + b"0"), want, cols), col
        if artifact == "checks.csv":   # a tail_posterior row compares byte for byte
            assert b",tail_posterior," in lines[3]
            assert not same_artifact(edited(3, "ci_high", noise), want, cols)
    # fit.json: grad_norm compares at NOISE_ATOL, every other key byte for byte
    cols = NOISE_CELLS["gaussian_exactness", "fit.json"]
    with open(os.path.join(GOLDEN, "gaussian_exactness", "fit.json"), "rb") as fh:
        want = fh.read()

    def fit_with(key, change):
        return re.sub(rb'(?<="%s": )[^,\n]+' % key, lambda m: change(m.group()), want, count=1)

    assert same_artifact(fit_with(b"grad_norm", noise), want, cols)
    assert not same_artifact(fit_with(b"grad_norm", noise), want)
    assert not same_artifact(fit_with(b"grad_norm", lambda cell: b"1e-12"), want, cols)
    for key in (b"f_hat", b"newton_iters", b"rq_sup"):
        assert not same_artifact(fit_with(key, lambda cell: cell + b"0"), want, cols), key


def _golden_rows(name: str, artifact: str) -> list:
    with open(os.path.join(GOLDEN, name, artifact), newline="") as fh:
        return list(csv.DictReader(fh))


def test_goldens_state_the_theorem():
    """Every committed certificate row (certificates.csv, real-mode sweep.csv)
    and every bound in checks.csv is what the theorem states at the row's
    effdim, radius and tau3_sup, to 1e-12 relative; checks.csv rows are joined
    to their certificate by label, and by n and p in a sweep.  A tail_gaussian
    row's interval is the Gaussian mass bracket at its p and radius."""
    claim_of = {"tail_posterior": "posterior_tail", "tail_gaussian": "gaussian_tail"}
    for name, artifact in (("bernoulli_quadrature", "certificates.csv"),
                           ("poisson_desk", "certificates.csv"),
                           ("gaussian_exactness", "certificates.csv"),
                           ("poisson_plateau", "sweep.csv")):
        with open(os.path.join(ROOT, "configs", name + ".json")) as fh:
            config_p = json.load(fh).get("p")
        claims, radius = {}, {}
        for row in _golden_rows(name, artifact):
            want = theorem_claims(*(float(row[k]) for k in ("effdim", "radius", "tau3_sup")))
            assert float(row["alpha"]) == pytest.approx(1.0, rel=1e-12)
            assert float(row["radius"]) >= want["r_min"] * (1 - 1e-12)
            assert row["feasible"] == str(int(want["feasible"]))
            for key in ("local_term", "tail_term", "tv_bound"):
                assert float(row[key]) == pytest.approx(want[key], rel=1e-12, abs=0), (
                    name, row["label"], key)
            claims[row.get("n"), row.get("p"), row["label"]] = want
            radius[row.get("n"), row.get("p"), row["label"]] = float(row["radius"])
        for row in _golden_rows(name, "checks.csv"):
            at = row.get("n"), row.get("p"), row["label"]
            key = claim_of.get(row["check"], "tv_bound")
            assert float(row["bound"]) == pytest.approx(claims[at][key], rel=1e-12, abs=0), (
                name, row["label"], row["check"])
            if row["check"] == "tail_gaussian":
                want = gaussian_mass_bracket(int(row.get("p") or config_p), radius[at])
                got = float(row["ci_low"]), float(row["ci_high"])
                assert got == pytest.approx(want, rel=1e-12, abs=0), (name, row["label"])


def test_checked_statuses():
    """The desk case checks nothing (all three certificates are infeasible);
    the Gaussian case checks every certificate."""
    desk = _golden_rows("poisson_desk", "checks.csv")
    assert [(r["check"], r["status"], r["reason"]) for r in desk] == \
        [("all", "skipped", "infeasible")] * 3
    gauss = _golden_rows("gaussian_exactness", "checks.csv")
    assert len(gauss) == 3 * 4 and all(r["status"] == "checked" for r in gauss)


def test_plateau_shows_the_headline():
    """Fitted Poisson, n = 1e4: the D_G bound grows with p while the
    D(gamma0*) bound plateaus.  To p = 12 every usable certificate is checked
    and the exact Gaussian tail rows resolve its claim; from p = 16 D(gamma0*)
    moves by at most 1.25x and stays checked, while D_G triples by p = 48 or
    loses its certificate; no row is violated."""
    rows = _golden_rows("poisson_plateau", "sweep.csv")
    bound = {(r["label"], int(r["p"])): float(r["tv_bound"]) for r in rows}
    ps = sorted({p for _, p in bound})
    assert ps == [2, 4, 6, 8, 12, 16, 32, 48]
    assert bound["DG", 12] >= 5 * bound["DG", 2]
    assert bound["gamma0_star", 12] < 4 * bound["gamma0_star", 2]
    assert abs(bound["gamma0_star", 2] / bound["DG", 2] - 1) < 0.01
    assert all(bound["gamma0_star", p] <= bound["DG", p] for p in ps if p >= 4)
    assert all(bound["gamma0_star", p] <= 1.25 * bound["gamma0_star", 16] for p in ps if p >= 16)
    checks = _golden_rows("poisson_plateau", "checks.csv")
    status = {(label, p): {r["status"] for r in checks if (r["label"], int(r["p"])) == (label, p)}
              for label, p in bound}
    assert bound["DG", 48] >= 3 * bound["DG", 16] or status["DG", 48] == {"skipped"}
    for label, want in (("DG", {"checked"}), ("gamma0_star", {"checked"})):
        assert all(status[label, p] == want for p in ps if p <= 12)
    assert all(status["gamma0_star", p] == {"checked"} for p in ps)
    assert all(status["identity", p] == {"skipped"} for p in ps)
    assert {r["reason"] for r in checks if r["label"] == "identity"} == {"infeasible"}
    assert all(r["status"] != "violated" for r in checks)
    # to p = 12 the exact Gaussian tail rows resolve every claim, by a factor 40 at least
    gauss = [r for r in checks if r["check"] == "tail_gaussian" and int(r["p"]) <= 12]
    assert len(gauss) == 2 * 5 and all(float(r["ratio"]) >= 40 for r in gauss)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            proc = run_config(case, os.path.join(tmp, case), os.path.join(tmp, "eigcache"))
            proc.check_returncode()
            os.makedirs(os.path.join(GOLDEN, case), exist_ok=True)
            for artifact in CASES[case][1]:
                os.replace(os.path.join(tmp, case, artifact),
                           os.path.join(GOLDEN, case, artifact))
            print("wrote %s" % os.path.join(GOLDEN, case))
