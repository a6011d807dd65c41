"""Write references/<workload>.json from the lapcert source tree in the cwd.

    python3 perfbench/make_references.py [--seeds 0-20] [--workloads a,b]

Each reference stores the parsed artifacts of one run per seed (the eigen
table once, since no workload's eigen problem depends on the seed) and the
tolerances the benchmark compares with.  The eigen_cold eigenvalues are
cross-checked once against the dense SVD oracle at the same N.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import REFERENCE_DIR, check_run  # noqa: E402
from run import LAPCERT, Bench  # noqa: E402
from workloads import K_MODES, N_GRID, WORKLOADS  # noqa: E402

# Loose enough for a change of solver iteration, summation order or cache
# format (all well below 1e-8 relative at this size), tight enough to catch
# a different eigenpair, data set or estimator.
RTOL = 1e-6
ATOL = 1e-12     # tail terms and bounds that underflow towards zero
ORACLE_RTOL = 1e-3  # shooting vs dense SVD, as in acceptance criterion 4

ORACLE_CHECK = """
import json, sys
import numpy as np
from lapcert.eigensolver import svd_oracle
from lapcert.operators import CoefficientPair
op, ref = json.loads(sys.argv[1]), np.array(json.loads(sys.argv[2]))
sv = svd_oracle(CoefficientPair(tuple(op["a"]), tuple(op["b"])), %d, %d)
print(json.dumps({"max_rel_diff": float(np.max(np.abs(sv.lambdas - ref) / ref))}))
""" % (N_GRID, K_MODES)


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def make(name: str, seeds: list, root: str) -> dict:
    wl = WORKLOADS[name]
    doc = {"rtol": RTOL, "atol": ATOL, "eigen": None, "seeds": {}}
    bench = Bench(root, wl, seeds[0])
    bench.reference = None
    bench.deadline = time.perf_counter() + 3600.0   # the SVD cross-check alone takes ~1 min
    if wl.warm:
        bench.setup(1)
    for seed in (seeds if wl.command == "all" else seeds[:1]):
        bench.seed = seed
        out = bench.path("out")
        cfg = bench.write_config(bench.cache_dir or bench.path("cold-cache"), out)
        ch = bench.child(["-c", LAPCERT, wl.command, "--config", cfg, "--out", out], "ref")
        arts = check_run(ch.returncode, ch.stdout, out, wl, None, seed)
        doc["eigen"] = arts.pop("eigen")
        if arts:
            doc["seeds"][str(seed)] = arts
        print("%s seed %d: %s" % (name, seed, ", ".join(
            "%s feasible=%d" % (k, v["feasible"]) for k, v in arts.get("certificates", {}).items())))
    if name == "eigen_cold":
        lam = [doc["eigen"][str(k)]["lambda"] for k in range(1, K_MODES + 1)]
        ch = bench.child(["-c", ORACLE_CHECK, json.dumps(wl.base["operator"]), json.dumps(lam)],
                         "oracle")
        diff = ch.last_json()["max_rel_diff"]
        if not diff <= ORACLE_RTOL:
            raise SystemExit("eigen_cold: shooting and SVD oracle differ by %.3g" % diff)
        doc["svd_oracle_max_rel_diff"] = diff
        print("eigen_cold: shooting vs SVD oracle max relative difference %.3g" % diff)
    shutil.rmtree(bench.work, ignore_errors=True)
    return doc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="0-20", help="inclusive range, e.g. 0-20")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args()
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for name in args.workloads.split(","):
        doc = make(name, _seeds(args.seeds), os.getcwd())
        with open(os.path.join(REFERENCE_DIR, name + ".json"), "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
