"""lapcert benchmark: time workloads end to end, or trace one run per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a lapcert source tree; it runs `src/lapcert` from
there, with BLAS pinned to one thread through the child's environment.

--trace 0  Set up (build the workload's eigen cache three times from empty
           into directories under .perfbench/, or time three fresh imports
           for eigen_cold), then run the workload's lapcert command as a
           subprocess until S seconds are spent.  Every run's outputs are
           checked (checks.py).  Reports wall_s (median), setup_s (median of
           the set-ups) and peak_rss_mb (median of the children's ru_maxrss);
           fail_ratio = failed / attempted is printed and carried by the
           result's `failed` and `attempted`.
--trace 1  Set up once, run the workload untraced and then traced
           in-process (tracer.py), and report the per-layer metrics, the
           tracing overhead and the standalone probes.  The spans are kept
           in .perfbench/spans-<workload>.json.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Workload configs are in workloads.py; references/ holds the
reference outputs written by make_references.py.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import CheckFailed, check_run, load_reference  # noqa: E402
from tracer import layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

LAPCERT = "import sys; from lapcert.cli import main; sys.exit(main())"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 3
DEADLINE_S = 170.0      # whole run, under the 180 s a run may take
WORK_DIR = ".perfbench"
ENV_PROBE = (
    "import json, platform, numpy, scipy, mpmath\n"
    "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
    "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,"
    " 'scipy': scipy.__version__, 'mpmath': mpmath.__version__,"
    " 'blas': '%s %s' % (blas.get('name'), blas.get('version'))}))\n")


class Child:
    """One subprocess: wall time, peak RSS from wait4, captured stdout."""

    def __init__(self, argv, env, log_path, timeout):
        self.argv, self.env, self.log_path, self.timeout = argv, env, log_path, timeout
        self.wall_s = self.rss_mb = 0.0
        self.returncode = None
        self.timed_out = False
        self.stdout = ""

    def run(self) -> "Child":
        with open(self.log_path, "w") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(self.argv, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(max(self.timeout, 0.0), self._kill, (proc,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - t0
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        with open(self.log_path) as fh:
            self.stdout = fh.read()
        return self

    def _kill(self, proc):
        self.timed_out = True
        proc.kill()

    def last_json(self) -> dict:
        lines = self.stdout.strip().splitlines()
        try:
            return json.loads(lines[-1]) if lines else {}
        except ValueError:
            return {}


class Bench:
    def __init__(self, root, workload, seed):
        self.root, self.wl, self.seed = root, workload, seed
        self.deadline = time.perf_counter() + DEADLINE_S
        self.work = os.path.join(root, WORK_DIR, "%s-seed%d" % (workload.name, seed))
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (os.path.join(root, "src"), os.environ.get("PYTHONPATH")) if p))
        self.env.update({var: "1" for var in THREAD_VARS})
        self.reference = load_reference(workload.name)
        self.counter = 0
        self.attempted = self.failed = 0
        self.cache_dir = None

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def path(self, stem: str) -> str:
        self.counter += 1
        return os.path.join(self.work, "%s-%d" % (stem, self.counter))

    def child(self, argv, stem) -> Child:
        return Child([sys.executable] + argv, self.env, self.path(stem) + ".log",
                     self.remaining()).run()

    def write_config(self, cache_dir, out_dir) -> str:
        cfg_path = self.path("config") + ".json"
        with open(cfg_path, "w") as fh:
            json.dump(self.wl.config(self.seed, cache_dir, out_dir), fh, indent=1)
        return cfg_path

    def environment(self) -> dict:
        env = self.child(["-c", ENV_PROBE], "env").last_json()
        git = "unknown"
        if os.path.isdir(os.path.join(self.root, ".git")):
            out = subprocess.run(["git", "-C", self.root, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            git = out.stdout.strip() or git
        env.update(nproc=os.cpu_count(), git=git, workload=self.wl.name, seed=self.seed,
                   child_env={var: self.env[var] for var in THREAD_VARS})
        return env

    def setup(self, repeats: int) -> list:
        """Untimed preparation; returns the wall time of each repetition."""
        times = []
        for _ in range(repeats):
            if self.wl.warm:
                cache = self.path("cache")
                cfg = self.write_config(cache, self.path("setup-out"))
                ch = self.child(["-c", LAPCERT, "eigen", "--config", cfg], "setup")
                self.cache_dir = cache
            else:
                ch = self.child([os.path.join(HERE, "tracer.py"), "probe", "import", "-"],
                                "setup")
            if ch.returncode != 0:
                raise SystemExit("set-up failed (exit %s):\n%s" % (ch.returncode, ch.stdout))
            times.append(ch.wall_s)
        return times

    def sample(self, traced_spans: str | None = None) -> Child:
        """One checked run of the workload's lapcert command."""
        cache = self.cache_dir if self.wl.warm else self.path("cold-cache")
        out = self.path("out")
        cfg = self.write_config(cache, out)
        args = [self.wl.command, "--config", cfg, "--out", out]
        if traced_spans is None:
            ch = self.child(["-c", LAPCERT] + args, "run")
        else:
            ch = self.child([os.path.join(HERE, "tracer.py"), "run", traced_spans, "--"] + args,
                            "traced")
        self.attempted += 1
        try:
            if ch.timed_out:
                raise CheckFailed("timed out after %.0f s" % ch.wall_s)
            check_run(ch.returncode, ch.stdout, out, self.wl, self.reference, self.seed)
        except CheckFailed as exc:
            self.failed += 1
            print("FAILED %s seed %d: %s" % (self.wl.name, self.seed, exc))
        shutil.rmtree(out, ignore_errors=True)
        if not self.wl.warm:
            shutil.rmtree(cache, ignore_errors=True)
        return ch


def tail_percentile(values: list) -> tuple:
    """Highest of p50/p90/p99 with at least ten samples beyond it, or None."""
    for q in (99, 90, 50):
        if len(values) * (100 - q) / 100.0 >= 10:
            return q, statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    return None


def timed(bench: Bench, seconds: float) -> dict:
    setup = bench.setup(SETUP_REPEATS)
    walls, rss = [], []
    t0 = time.perf_counter()
    # start another run only while it is expected to end inside the window
    while not walls or (time.perf_counter() - t0 + statistics.median(walls) <= seconds
                        and bench.remaining() > 2 * max(walls)):
        ch = bench.sample()
        walls.append(ch.wall_s)
        rss.append(ch.rss_mb)
    tail = tail_percentile(walls)
    print("setup_s     %.4f s (median of %s)" % (statistics.median(setup),
                                                 ", ".join("%.3f" % s for s in setup)))
    print("wall_s      %.4f s (median of %d runs: %s)%s"
          % (statistics.median(walls), len(walls), ", ".join("%.3f" % w for w in walls),
             "; p%d %.4f s" % tail if tail else "; no tail percentile below 20 runs"))
    print("peak_rss_mb %.1f MB (median)" % statistics.median(rss))
    print("fail_ratio  %.4f (%d of %d runs failed)"
          % (bench.failed / bench.attempted, bench.failed, bench.attempted))
    return {"wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"}}


def traced(bench: Bench) -> dict:
    bench.setup(1)
    imports = [bench.child([os.path.join(HERE, "tracer.py"), "probe", "import", "-"],
                           "import").last_json()["cli.import_s"] for _ in range(3)]
    plain = bench.sample()
    # kept after the run; one file per workload bounds the disk used
    spans = os.path.join(bench.root, WORK_DIR, "spans-%s.json" % bench.wl.name)
    run = bench.sample(traced_spans=spans)
    print("\n".join(run.stdout.strip().splitlines()[:-1]))
    layers = dict(layer_metrics([]), **run.last_json().get("metrics", {}))
    probes = {"eigensolver.svd_oracle.s": 0.0, "concentration.empirical_outside_mass.s": 0.0}
    probe = {"eigen_cold": "svd_oracle", "large_n": "outside_mass"}.get(bench.wl.name)
    if probe:
        cfg = bench.write_config(bench.cache_dir, bench.path("probe-out"))
        probes.update(bench.child([os.path.join(HERE, "tracer.py"), "probe", probe, cfg],
                                  "probe").last_json())
    metrics = dict(layers, **probes)
    metrics.update({"cli.import_s": statistics.median(imports),
                    "trace.untraced_wall_s": plain.wall_s,
                    "trace.traced_wall_s": run.wall_s,
                    "trace.overhead_s": run.wall_s - plain.wall_s})
    for name, value in sorted(metrics.items()):
        print("%-42s %.6g" % (name, value))
    with open(os.path.join(bench.root, "BENCHMARK.json")) as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    return {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "lapcert", "cli.py")):
        print("no lapcert source tree at %s (expected src/lapcert/cli.py)" % root,
              file=sys.stderr)
        return 2
    bench = Bench(root, WORKLOADS[args.workload], args.seed)
    print("environment " + json.dumps(bench.environment(), sort_keys=True))
    metrics = traced(bench) if args.trace else timed(bench, args.seconds)
    shutil.rmtree(bench.work, ignore_errors=True)
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
