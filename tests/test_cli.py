import ast
import csv
import glob
import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import threading
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest

import lapcert.certification
import lapcert.cli
import lapcert.config
import lapcert.__main__ as entry
import lapcert.eigensolver
import lapcert.model
import lapcert.operators
import lapcert.posterior
import lapcert.validation
from lapcert.cli import main
from lapcert.config import ConfigError, config_from_dict, load_config
from lapcert.operators import CoefficientPair
from lapcert.posterior import usable_cores

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASE = {
    "operator": {"a": [1.0], "b": [0.0]},
    "family": "gaussian",
    "n": 200,
    "p": 2,
    "gamma": 2.0,
    "eigensolver": {"K": 30, "N": 2048},
    "validation": {"method": "importance", "M": 10000},
    "seed": 3,
}


@pytest.fixture
def write_cfg(tmp_path, eig_cache, volterra_eig_small):
    """Writes BASE plus overrides, reading the (already warm) session eigen cache."""
    def write(overrides=None, name="cfg.json"):
        doc = json.loads(json.dumps(BASE))
        doc["eigensolver"]["cache_dir"] = eig_cache
        for key, val in (overrides or {}).items():
            if isinstance(val, dict):
                doc.setdefault(key, {}).update(val)
            else:
                doc[key] = val
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)
    return write


def _count_calls(monkeypatch, targets) -> dict:
    """Wrap each (module, name) with a call counter; returns name -> count."""
    counts = {}
    for mod, name in targets:
        def counted(*args, _fn=getattr(mod, name), _name=name, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(mod, name, counted)
    return counts


def _read_checks(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# Every config the run refuses (exit 2), by id: BASE's overrides (or a config file's
# bytes), the text that stderr holds, and any extra argv.  config_from_dict alone
# refuses each LOAD_REFUSALS row; "taken" names a file.
LOAD_REFUSALS = {
    # unknown keys, removed knobs among them, named by their path
    "unknown_key": ({"familly": "poisson"}, ".familly: unknown key"),
    "unknown_section_key": ({"eigensolver": {"K": 30, "wat": 1}}, ".eigensolver.wat: unknown"),
    "removed_n_r": ({"certification": {"n_r": 60}}, ".certification.n_r: unknown key"),
    "removed_beta_override": ({"beta_override": 1.0}, ".beta_override: unknown key"),
    "removed_sweep_n": ({"sweep": {"n": 1000000}}, ".sweep.n: unknown key"),
    # each field takes its JSON type; a number is a finite float (json reads NaN), not a bool
    "p_float": ({"p": 2.5}, ".p:"), "n_float": ({"n": 500.5}, ".n:"),
    "n_bool": ({"n": True}, ".n:"), "seed_float": ({"seed": 1.5}, ".seed:"),
    **{"seed_%d" % seed: ({"seed": seed}, ".seed:") for seed in (-1, 2 ** 64)},
    "gamma_string": ({"gamma": "2"}, ".gamma:"), "gamma_inf": ({"gamma": math.inf}, ".gamma:"),
    "M_float": ({"validation": {"M": 1e5}}, ".validation.M:"),
    "gamma0_scalar": ({"certification": {"gamma0": 1.5}}, ".certification.gamma0:"),
    "gamma0_string": ({"certification": {"gamma0": ["x"]}}, ".certification.gamma0:"),
    "gamma0_nan": ({"certification": {"gamma0": [math.nan]}}, ".certification.gamma0:"),
    "operator_a_scalar": ({"operator": {"a": 5}}, ".operator.a:"),
    "operator_b_nan": ({"operator": {"b": [math.nan]}}, ".operator.b:"),
    "operator_b_10_400": ({"operator": {"b": [10 ** 400]}}, ".operator.b:"),
    "theta_string": ({"truth": {"theta": "ab"}}, ".truth.theta:"),
    "theta_bool": ({"truth": {"theta": [1.0, True]}}, ".truth.theta:"),
    "theta_nan": ({"truth": {"theta": [0.5, math.nan]}}, ".truth.theta:"),
    "amplitude_nan": ({"truth": {"amplitude": math.nan}}, ".truth.amplitude:"),
    "amplitude_10_400": ({"truth": {"amplitude": 10 ** 400}}, ".truth.amplitude:"),
    "truth_not_object": ({"truth": 5}, ".truth: expected an object"),
    "cache_dir_int": ({"eigensolver": {"cache_dir": 5}}, ".eigensolver.cache_dir:"),
    "sweep_values_scalar": ({"sweep": {"values": 3}}, ".sweep.values:"),
    "synthetic_string": ({"sweep": {"synthetic": "no"}}, ".sweep.synthetic:"),
    # values out of range, each named by its key
    "family_cauchy": ({"family": "cauchy"}, ".family: unknown family"),
    "n_zero": ({"n": 0}, ".n: must be >= 1"), "p_zero": ({"p": 0}, ".p: must be >= 1"),
    "p_past_K": ({"p": 64}, ": p exceeds eigensolver.K"),
    "gamma_negative": ({"gamma": -1.0}, ".gamma: must be > 0"),
    "method_unknown": ({"validation": {"method": "x"}}, ".validation.method: unknown"),
    "quadrature_p_4": ({"p": 4, "validation": {"method": "both"}}, ".validation.method:"),
    "quadrature_p_5": ({"p": 5, "validation": {"method": "quadrature"}}, ".validation.method:"),
    "M_5000": ({"validation": {"M": 5000}}, ".validation.M: must be >= 10000"),
    "M_9999": ({"validation": {"M": 9999}}, ".validation.M: must be >= 10000"),
    "per_axis_32": ({"validation": {"per_axis": 32}}, ".validation.per_axis: must be >= 64"),
    "axis_unknown": ({"sweep": {"axis": "q"}}, ".sweep.axis:"),
    # a grid value is a mode count or a sample size: >= 1, an integer but on a synthetic n grid
    "sweep_values_empty": ({"sweep": {"values": []}}, ".sweep.values: must not be empty"),
    "sweep_p_float": ({"sweep": {"values": [2, 2.5]}}, ".sweep.values:"),
    "sweep_n_float": ({"sweep": {"axis": "n", "values": [300.5]}}, ".sweep.values:"),
    **{"synthetic_n_%g" % n: ({"sweep": {"axis": "n", "values": [n], "synthetic": True}},
                              ".sweep.values:") for n in (0, -5.0)},
    # a truth has [0, K] modes
    **{"p_star_%d" % p: ({"truth": {"p_star": p}}, ".truth.p_star:") for p in (-3, -1)},
    "p_star_past_K": ({"eigensolver": {"K": 10}, "truth": {"p_star": 12}}, ".truth.p_star:"),
    "p_star_8_K_6": ({"eigensolver": {"K": 6}}, ".truth.p_star:"),
    "theta_past_K": ({"truth": {"theta": [0.1] * 31}}, ".truth.theta:"),
    # each power of k <= P (the larger of p and a synthetic p grid's top) is a float, or its log
    # is finite: the prior precision P^(2 gamma), the S-sums' k^(2 beta + 2 gamma) and ^(2 gamma0)
    "gamma_199_p_6": ({"gamma": 199.0, "p": 6}, ".gamma: p^(2*gamma) overflows"),
    "beta_gamma_0_9": ({"gamma": 0.4, "certification": {"beta": 0.5}}, ".certification.beta:"),
    "gamma_1e308_p_1": ({"p": 1, "gamma": 1e308}, ".certification.beta:"),
    "beta_1e308": ({"certification": {"beta": 1e308}}, ".certification.beta:"),
    "beta_10_308": ({"certification": {"beta": 10 ** 308}}, ".certification.beta:"),
    "beta_5e307_p_30": ({"p": 30, "certification": {"beta": 5e307}}, ".certification.beta:"),
    **{"synthetic_%s_p_%d_grid_%d" % (key, p, grid[-1]): (
        {"p": p, **over, "sweep": {"synthetic": True, "values": grid}}, text.format(max(p, *grid)))
       for p, grid, gamma in ((2, [2, 512], 100), (30, [2], 150)) for key, over, text in (
           ("gamma", {"gamma": gamma}, ".gamma: p^(2*gamma) overflows a float (p = {},"),
           ("beta", {"certification": {"beta": 5e307}}, ".certification.beta:"))},
    "gamma0_-1e308": ({"p": 3, "certification": {"gamma0": [-1e308]}}, ".certification.gamma0:"),
    "gamma0_past_gamma": ({"certification": {"gamma0": [3.0]}}, ".certification.gamma0:"),
    "gamma0_twice": ({"certification": {"gamma0": [1.5, 1.5]}}, ".certification.gamma0:"),
    "gamma0_labels_clash": ({"certification": {"gamma0": [1.0000001, 1.0000002, 1.5, 1.5]}},
                            ".certification.gamma0: two entries share"),
    # an N outside [1024, 65536], or too coarse for K: a step turns the mu scan's top mode by
    # > 0.8 rad (the solve finds too few brackets, or at K = 722 a lambda_K 9.5% off)
    **{"N_%g" % N: ({"eigensolver": {"N": N}}, ".eigensolver.N: must be in [1024, 65536]")
       for N in (512, 65537, 10 ** 21)},
    "N_1024_K_375": ({"eigensolver": {"N": 1024, "K": 375}},
                     ".eigensolver.N: K = 375 needs N >= 1481\n"),
    **{"N_%d_K_%d" % NK: ({"eigensolver": dict(zip("NK", NK))}, ".eigensolver.N:")
       for NK in ((1531, 475), (1800, 550), (2048, 600), (2600, 700), (1024, 722))},
    **{"K_%g" % K: ({"eigensolver": {"K": K}}, ".eigensolver.K: must be in [1, 722]")
       for K in (723, 1000, 10 ** 300)},
    # an operator with a(x) <= 0 or overflowing, a degree past 16 or no coefficient, a
    # Liouville form not finite (b^2 overflows; Q = inf - inf; T = int 1/a overflows) or a
    # mu scan too long or not finite (max Q = 1e12; (pi / T)^2 over- or underflows)
    **{name: ({"operator": op}, ".operator: ") for name, op in {
        "a_negative": {"a": [1.0, -2.0]}, "a_overflows": {"a": [1e308, 1e308]},
        "degree_17": {"a": [1.0] + [0.0] * 17}, "b_empty": {"b": []}, "b_1e6": {"b": [1e6]},
        "b_1e300": {"b": [1e300]}, "Q_inf_minus_inf": {"a": [1.0, 1e200], "b": [0.0, 1e200]},
        "a_1e-320": {"a": [1e-320]}, "a_1e160": {"a": [1e160]}, "a_1e-160": {"a": [1e-160]},
    }.items()},
    "synthetic_operator": ({"operator": {"a": [-1.0]}, "sweep": {"synthetic": True}},
                           ".operator: a(x) must be strictly positive"),
}
RUN_REFUSALS = {
    # a real-mode sweep point the config cannot run, named by its grid value
    "sweep_point_p_60": ({"sweep": {"values": [2, 60]}},
                         "config error: sweep.values (p = 60): p exceeds eigensolver.K"),
    # the bundled quadrature config asks for both estimators; its default grid reaches p = 4
    "sweep_point_quadrature": (os.path.join(ROOT, "configs", "gaussian_exactness.json"),
                               "config error: sweep.values (p = 4).validation.method:"),
    # a file not UTF-8 (JSON's encoding, whatever the locale) or not JSON
    "not_utf8": (b'{"family": "\xff"}\n', ": invalid JSON: 'utf-8' codec can't decode"),
    "malformed_json": (b"{not json", ": invalid JSON: Expecting property name"),
    # a flag, the config's overrides among them, or a path that cannot be a directory
    "seed_override_negative": ({}, ".seed: must be in [0, 2**64)", "--seed", "-1"),
    **{"threads_" + n: ({}, "--threads must be >= 1 and <= 256, got %s\n" % n, "--threads", n)
       for n in ("0", "-4", "257", "100000")},
    "out_a_file": ({}, "File exists", "--out", "taken"),
    **{"cache_dir_%s_a_file" % at: ({"eigensolver": {"cache_dir": d}}, ".eigensolver.cache_dir: ")
       for at, d in (("at", "taken"), ("below", "taken/sub"))},
}


@pytest.mark.parametrize("row", [*LOAD_REFUSALS, *RUN_REFUSALS])
def test_config_refused(row, tmp_path, write_cfg, capsys, monkeypatch):
    """`lapcert sweep` (its point checks add to every subcommand's) exits 2 before any stage,
    with `config error: `, the row's text and no traceback or warning on stderr, no --out
    directory, thread or environment variable made, and "taken" as it was.  A LOAD_REFUSALS
    row prints config_from_dict's ConfigError; row b_1e300 does too in `python -m lapcert`."""
    config, text, *argv = {**LOAD_REFUSALS, **RUN_REFUSALS}[row]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "taken").write_text("kept")
    path = config if isinstance(config, str) else tmp_path / "cfg.json"   # str: a bundled file
    out = tmp_path / "out"
    if isinstance(config, bytes):
        path.write_bytes(config)
    elif isinstance(config, dict):
        write_cfg(config)
    args = ["sweep", "--config", str(path), "--out", str(out), *argv]
    threads, environ = threading.active_count(), dict(os.environ)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(args) == 2
        err = capsys.readouterr().err
        if row in LOAD_REFUSALS:
            with pytest.raises(ConfigError) as exc:
                config_from_dict(json.loads(path.read_text()), str(path))
            assert err == "config error: %s\n" % exc.value
    assert err.startswith("config error: ") and text in err and "Traceback" not in err, err
    assert not out.exists() and (tmp_path / "taken").read_text() == "kept"
    assert threading.active_count() == threads and dict(os.environ) == environ
    if row == "b_1e300":
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-m", "lapcert", *args], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stderr) == (2, err) and not out.exists()


def test_config_loads_at_its_bounds():
    """The largest K, 722, loads, and a synthetic n grid takes real sample sizes."""
    assert config_from_dict({**BASE, "eigensolver": {"K": 722}}).eigensolver.K == 722
    config_from_dict({**BASE, "sweep": {"axis": "n", "values": [1e5], "synthetic": True}})


def test_defaults_materialized():
    cfg = config_from_dict(BASE)
    d = asdict(cfg)
    assert d["certification"] == {"gamma0": None, "beta": 1.0}
    assert cfg.certification.beta == 1.0
    assert d["truth"]["p_star"] == 8
    assert d["sweep"]["axis"] == "p"


def test_operator_section_is_the_coefficient_pair(write_cfg, monkeypatch):
    """The config's operator section is the CoefficientPair that the run solves: its
    coefficients load as floats, perfbench's tracer rebuilds an equal pair from it, and
    Run.eig hands it itself to cached_solve.  The section refuses before _validate, so a
    bad operator is named ahead of a bad N."""
    cfg = config_from_dict({**BASE, "operator": {"a": [1, 0.5], "b": [0.5]}})
    assert cfg.operator == CoefficientPair((1.0, 0.5), (0.5,))
    assert CoefficientPair(tuple(cfg.operator.a), tuple(cfg.operator.b)) == cfg.operator
    assert json.dumps(asdict(cfg)["operator"]) == '{"a": [1.0, 0.5], "b": [0.5]}'
    with pytest.raises(ConfigError, match=r"\.operator: a\(x\) must be strictly positive"):
        config_from_dict({**BASE, "operator": {"a": [-1.0]}, "eigensolver": {"N": 5}})
    solved = []
    real = lapcert.cli.cached_solve
    monkeypatch.setattr(lapcert.cli, "cached_solve",
                        lambda spec, *args: solved.append(spec) or real(spec, *args))
    cfg = load_config(write_cfg())
    assert lapcert.cli.Run(cfg, 1).eig.lambdas.size == 30
    assert len(solved) == 1 and solved[0] is cfg.operator


def test_bracket_warning_prints_once(tmp_path, write_cfg):
    """A run below the S-sums' bracket threshold (n = 3, gamma = 0.6), where both
    compare_choices and certify take gamma0*, prints its UserWarning once."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "lapcert", "all", "--config",
                           write_cfg({"n": 3, "p": 1, "gamma": 0.6}), "--out",
                           str(tmp_path / "out")], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0 and proc.stderr.count("UserWarning") == 1, proc.stderr


def test_simulate_bernoulli_far_from_zero(tmp_path, write_cfg):
    """A Bernoulli signal with |s| > 709.78, where e^-s overflows, draws y = 0
    below and y = 1 above (exit 0, not a bare OverflowError)."""
    cfg = write_cfg({"family": "bernoulli", "truth": {"theta": [0, -5000]}})
    out = tmp_path / "bern"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    rows = [(float(r["s_true"]), float(r["y"])) for r in _read_checks(out / "dataset.csv")]
    assert min(s for s, _ in rows) < -709.79 and max(s for s, _ in rows) > 709.79
    assert all(y == (s > 0) for s, y in rows if abs(s) > 709.79)


def test_all_pipeline_gaussian(tmp_path, capsys, write_cfg):
    cfg = write_cfg()
    out = str(tmp_path / "out")
    rc = main(["all", "--config", cfg, "--out", out])
    text = capsys.readouterr().out
    assert rc == 0
    for artifact in ("eigen.csv", "dataset.csv", "fit.json",
                     "certificates.csv", "tv_estimates.csv", "manifest.json"):
        assert os.path.exists(os.path.join(out, artifact))
    assert "dominance=OK" in text
    # Volterra has Q = 0: every mode is in the asymptotic regime, v_k = sin(rho t)/rho
    assert ("eigen: K=30 active=30 vk_inf_violations=0 dvk_inf_violations=0 "
            "vk_l2_c_estimate=0.7071\n") in text
    # exact-fit family: TV row is numerically zero
    rows = open(os.path.join(out, "tv_estimates.csv")).read().splitlines()
    assert float(rows[1].split(",")[1]) < 1e-8
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["config"]["seed"] == 3
    assert "total" in manifest["wall_times_s"]


def test_gaussian_rounding_is_no_violation(tmp_path, capsys, eig_cache, volterra_eig):
    """At n = 2e4 and amplitude 3 (|f_hat| = 3.7e4) every certified bound is 0, as the
    Laplace fit is exact, and both TV estimates read ~7e-12, the rounding that every
    log-weight f_hat - f(theta) carries: the TV rows' floor is the rounding of f at the
    fit (6.5e-10 here), not CHECK_FLOOR, so the run exits 0 with no violated row."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "gaussian", "n": 20000, "p": 2,
                               "truth": {"amplitude": 3.0}, "validation": {"method": "both"},
                               "eigensolver": {"cache_dir": eig_cache}}))   # warm N=4096, K=50
    out = tmp_path / "out"
    assert main(["all", "--config", str(cfg), "--out", str(out)]) == 0
    assert "VIOLATED" not in capsys.readouterr().out
    rows = _read_checks(out / "checks.csv")
    assert len(rows) == 12 and all(r["status"] == "checked" for r in rows)
    tv = [r for r in rows if r["check"] in ("tv_importance", "tv_quadrature")]
    assert len(tv) == 6
    assert all(float(r["bound"]) == 0.0 and 1e-12 < float(r["ci_high"]) < 1e-10 for r in tv)


def test_tv_rows_under_a_floor_past_one_are_skipped(tmp_path, capsys, eig_cache, volterra_eig):
    """At amplitude 1e6 (n = 500) f's rounding at the fit is 1.8, so no TV estimate, at
    most 1, can exceed the TV rows' floor: both read ~0.0101 of rounding against bounds
    of 0, the rows are skipped with reason `f rounding >= 1`, validate prints
    dominance=SKIPPED for each estimator, and the run exits 0."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "gaussian", "n": 500, "p": 2,
                               "truth": {"amplitude": 1e6}, "validation": {"method": "both"},
                               "eigensolver": {"cache_dir": eig_cache}}))   # warm N=4096, K=50
    out = tmp_path / "out"
    assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().out.count("dominance=SKIPPED (f rounding >= 1)") == 2
    rows = _read_checks(out / "checks.csv")
    tv = [r for r in rows if r["check"] in ("tv_importance", "tv_quadrature")]
    assert len(tv) == 6 and all(0.01 < float(r["estimate"]) < 0.0102 for r in tv)
    assert {(r["status"], r["reason"], r["bound"], r["ratio"]) for r in tv} == {
        ("skipped", "f rounding >= 1", "0.0", "")}
    assert all(r["status"] == "checked" for r in rows if r not in tv)


def test_integer_decay_simulates_the_float_truth(tmp_path, write_cfg):
    """A truth.decay of JSON 2 simulates the same dataset as 2.0 (it exited 3: int64
    k ** -2 is refused)."""
    csvs = []
    for decay in (2, 2.0):
        out = tmp_path / ("decay_%r" % decay)
        assert main(["simulate", "--config", write_cfg({"truth": {"decay": decay}}),
                     "--out", str(out)]) == 0
        csvs.append((out / "dataset.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_all_validates_past_p_30(tmp_path, write_cfg, volterra_eig):
    """Every p the config admits is validated: at p = 32 the importance
    estimate and its checks are written, and the run exits 0 (not 3)."""
    cfg = write_cfg({"family": "poisson", "n": 2000, "p": 32,
                     "eigensolver": {"K": 50, "N": 4096}})
    out = tmp_path / "p32"
    assert main(["all", "--config", cfg, "--out", str(out)]) == 0
    for artifact in ("tv_estimates.csv", "checks.csv", "manifest.json"):
        assert (out / artifact).exists()
    (tv,) = _read_checks(out / "tv_estimates.csv")
    assert tv["method"] == "importance" and tv["low_ess"] == "0"


def test_dispatcher_times_what_it_runs(tmp_path, monkeypatch, write_cfg):
    """`all` times each pipeline subcommand and a lone subcommand only itself,
    each plus `total`; the config is built once per run, a sweep's too: its
    points are the config with the axis replaced."""
    counts = _count_calls(monkeypatch, [(lapcert.config, "config_from_dict")])
    cfg = write_cfg({"family": "poisson", "sweep": {"values": [2, 4]}})
    for command, timed in (
            ("all", {"eigen", "simulate", "fit", "certify", "validate", "total"}),
            ("certify", {"certify", "total"}), ("sweep", {"sweep", "total"})):
        counts.clear()
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
        assert set(json.loads((out / "manifest.json").read_text())["wall_times_s"]) == timed
        assert counts == {"config_from_dict": 1}


def test_all_computes_each_stage_once(tmp_path, monkeypatch, write_cfg):
    cfg = write_cfg({"family": "poisson"})
    counts = _count_calls(monkeypatch, [
        (lapcert.eigensolver, "load_eigensystem"), (lapcert.cli, "generate"),
        (lapcert.cli, "map_solve"), (lapcert.certification, "compare_choices")])
    assert main(["all", "--config", cfg, "--out", str(tmp_path / "once")]) == 0
    assert counts == {"load_eigensystem": 1, "generate": 1, "map_solve": 1,
                      "compare_choices": 1}


def test_laplace_fit_is_factored_once(tmp_path, monkeypatch, eig_cache, volterra_eig_small):
    """`all` with importance and both quadrature grids calls np.linalg.cholesky
    once per Newton iterate and then once per certificate, on its scaled D^2:
    nothing factors D_G^2 after map_solve returns, as every weighting, draw
    and grid whitens through fit.L."""
    with open(os.path.join(ROOT, "configs", "gaussian_exactness.json")) as fh:
        doc = json.load(fh)
    doc["eigensolver"]["cache_dir"] = eig_cache     # the session's warm N=2048, K=30 cache
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    factored, returned = [], {}     # (map_solve returned yet, matrix) per factorization

    def keep(mod, name):            # records what mod.name returns
        fn = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *a, **k: returned.setdefault(name, fn(*a, **k)))

    cholesky = np.linalg.cholesky

    def counted(a):
        factored.append(("map_solve" in returned, a.copy()))
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counted)
    keep(lapcert.cli, "map_solve")
    keep(lapcert.certification, "compare_choices")
    assert main(["all", "--config", str(cfg), "--out", str(tmp_path / "once")]) == 0
    fit, certs = returned["map_solve"], returned["compare_choices"]
    assert [after for after, _ in factored] == [False] * fit.newton_iters + [True] * 3
    for (_, a), c in zip(factored[fit.newton_iters:], certs.values()):
        assert np.array_equal(a, c.choice.D2)


def test_dominance_skip_is_reported(tmp_path, capsys, write_cfg):
    # Poisson, n=200, p=6: no certificate is feasible, so nothing is checked
    cfg = write_cfg({"family": "poisson", "p": 6})
    assert main(["all", "--config", cfg, "--out", str(tmp_path / "skip")]) == 0
    text = capsys.readouterr().out
    assert "feasible=0" in text and "feasible=1" not in text
    assert "dominance=SKIPPED (no usable certificate)" in text
    assert "dominance=OK" not in text
    rows = _read_checks(tmp_path / "skip" / "checks.csv")
    assert [(r["label"], r["check"], r["status"], r["reason"]) for r in rows] == [
        (label, "all", "skipped", "infeasible") for label in ("DG", "identity", "gamma0_star")]


def test_every_usable_certificate_is_checked(tmp_path, capsys, monkeypatch, write_cfg):
    """A DG bound below the TV estimate fails validate although gamma0_star,
    the only certificate checked before, still dominates."""
    cfg = write_cfg({"family": "poisson", "n": 2000, "p": 2})
    compare = lapcert.certification.compare_choices

    def low_dg(*args, **kwargs):
        res = compare(*args, **kwargs)
        dg = res["DG"]
        # tv_bound = tau3 * effdim + a tail term that underflows at this radius
        res["DG"] = replace(dg, tau3_sup=1e-6 / dg.effdim, radius=100.0)
        return res

    monkeypatch.setattr(lapcert.certification, "compare_choices", low_dg)
    out = tmp_path / "viol"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 1
    text = capsys.readouterr().out
    assert "dominance=VIOLATED (DG)" in text and "dominance=OK" not in text
    rows = {(r["label"], r["check"]): r for r in _read_checks(out / "checks.csv")}
    assert rows["DG", "tv_importance"]["status"] == "violated"
    assert rows["gamma0_star", "tv_importance"]["status"] == "checked"
    assert float(rows["gamma0_star", "tv_importance"]["bound"]) < 1.0
    assert all(r["status"] == "checked" for key, r in rows.items()
               if key[0] == "gamma0_star")


def test_validate_runs_one_likelihood_pass(tmp_path, monkeypatch, write_cfg):
    """The tail checks reuse the importance draws: one f_values call for IS,
    as before they existed, although two certificates are usable here."""
    cfg = write_cfg({"family": "poisson", "n": 2000, "p": 2})
    counts = _count_calls(monkeypatch, [(lapcert.validation, "f_values")])
    out = tmp_path / "once"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
    assert counts == {"f_values": 1}
    rows = _read_checks(out / "checks.csv")
    tails = [r for r in rows if r["check"].startswith("tail_")]
    assert len(tails) >= 4 and all(r["status"] == "checked" for r in tails)


def test_gaussian_tail_rows_refute_a_false_claim(tmp_path, monkeypatch, write_cfg, eig_cache):
    """The tail_gaussian rows are exact, so a claim below the Gaussian's true
    mass fails them: with the t^2 mutant -t^2 of Certificate.log_gaussian_tail
    (so gaussian_tail = exp(-t^2)), a real-mode sweep at n = 1e4 over p in {2, 6}
    exits 1 with every one of those rows violated, and every other row as the
    true claim leaves it.  The rows compare logs, so they fail where the
    claim and the bracket underflow too: gaussian_exactness's three, at radii
    near 51, whose bound and bracket read 0."""
    cfg = write_cfg({"family": "poisson", "n": 10000,
                     "sweep": {"axis": "p", "values": [2, 6], "synthetic": False}})
    with open(os.path.join(ROOT, "configs", "gaussian_exactness.json")) as fh:
        doc = json.load(fh)
    doc["eigensolver"]["cache_dir"] = eig_cache
    exact = tmp_path / "exact.json"
    exact.write_text(json.dumps(doc))
    true, mutant = tmp_path / "true", tmp_path / "mutant"
    assert main(["sweep", "--config", cfg, "--out", str(true)]) == 0
    monkeypatch.setattr(lapcert.certification.Certificate, "log_gaussian_tail", property(
        lambda c: -max(0.0, c.radius - math.sqrt(c.effdim)) ** 2))
    assert main(["sweep", "--config", cfg, "--out", str(mutant)]) == 1
    want = _read_checks(true / "checks.csv")
    got = _read_checks(mutant / "checks.csv")
    gauss = [i for i, r in enumerate(want) if r["check"] == "tail_gaussian"]
    assert {want[i]["p"] for i in gauss} == {"2", "6"}
    assert all(want[i]["status"] == "checked" and got[i]["status"] == "violated"
               for i in gauss)
    assert [r for i, r in enumerate(got) if i not in gauss] == [
        r for i, r in enumerate(want) if i not in gauss]
    assert main(["validate", "--config", str(exact), "--out", str(mutant / "exact")]) == 1
    gauss = [r for r in _read_checks(mutant / "exact" / "checks.csv")
             if r["check"] == "tail_gaussian"]
    assert [(r["bound"], r["ci_low"], r["status"]) for r in gauss] == [
        ("0.0", "0.0", "violated")] * 3


def test_quadrature_only_checks_the_gaussian_tail(tmp_path, write_cfg):
    """With no importance draws (validation.method = "quadrature", p <= 3) a
    usable certificate's Gaussian tail claim is still checked, exactly; only
    its posterior tail row is skipped."""
    cfg = write_cfg({"family": "poisson", "n": 2000, "p": 2,
                     "validation": {"method": "quadrature"}})
    out = tmp_path / "quad"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
    rows = _read_checks(out / "checks.csv")
    usable = [r["label"] for r in rows if r["check"] == "tv_quadrature"]
    assert usable and all(r["status"] == "checked" for r in rows if r["check"] == "tv_quadrature")
    for label in usable:
        mine = {r["check"]: r for r in rows if r["label"] == label}
        assert sorted(mine) == ["tail_gaussian", "tail_posterior", "tv_quadrature"]
        assert (mine["tail_posterior"]["status"], mine["tail_posterior"]["reason"]) == (
            "skipped", "no importance draws")
        gauss = mine["tail_gaussian"]
        assert gauss["status"] == "checked" and gauss["reason"] == ""
        assert 0 < float(gauss["ci_low"]) <= float(gauss["ci_high"]) < float(gauss["bound"])


def test_csv_outputs_deterministic(tmp_path, write_cfg):
    theta = [0.5, -0.125, 0.05]
    cfg = write_cfg({"family": "poisson", "n": 2000, "truth": {"theta": theta},
                     "certification": {"gamma0": [1.0, 1.5]}, "sweep": {"values": [2]}})
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert main(["certify", "--config", cfg, "--out", out1]) == 0
    assert main(["certify", "--config", cfg, "--out", out2]) == 0
    a = open(os.path.join(out1, "certificates.csv"), "rb").read()
    b = open(os.path.join(out2, "certificates.csv"), "rb").read()
    assert a == b
    # certification.gamma0 adds one row per value after the three choices
    rows = _read_checks(os.path.join(out1, "certificates.csv"))
    assert [(r["label"], r["kind"], r["gamma0"]) for r in rows[3:]] == [
        ("gamma0=1", "gamma0_family", "1.0"), ("gamma0=1.5", "gamma0_family", "1.5")]
    # each is compare_choices' certificate of D(g0), drawn from the given theta
    run = lapcert.cli.Run(load_config(cfg), 1)
    for row, g0 in zip(rows[3:], (1.0, 1.5)):
        c = lapcert.certification.certify(
            run.fit, run.prob, lapcert.certification.choice_gamma0(run.fit, g0, run.cfg.gamma))
        assert float(row["tv_bound"]) == c.tv_bound
    assert main(["simulate", "--config", cfg, "--out", out1]) == 0
    assert json.load(open(os.path.join(out1, "dataset.json")))["truth"]["p_star"] == len(theta)
    # each usable one is checked by validate and by a real-mode sweep, like the three
    extra = [r["label"] for r in rows[3:] if r["feasible"] == "1" and float(r["tv_bound"]) < 1]
    assert extra == ["gamma0=1", "gamma0=1.5"]
    assert main(["validate", "--config", cfg, "--out", out1]) == 0
    assert main(["sweep", "--config", cfg, "--out", out2]) == 0
    swept = _read_checks(os.path.join(out2, "sweep.csv"))
    assert [r["label"] for r in swept] == [r["label"] for r in rows]
    for out in (out1, out2):
        checks = _read_checks(os.path.join(out, "checks.csv"))
        for label in extra:
            assert [(r["check"], r["status"]) for r in checks if r["label"] == label] == [
                ("tv_importance", "checked"), ("tail_posterior", "checked"),
                ("tail_gaussian", "checked")]


def test_column_csv_is_csv_writers(tmp_path):
    """A dict of numpy columns is written as csv.writer writes its rows, byte
    for byte: ints, floats by repr, signed zero, subnormals, inf and NaN."""
    cols = {"j": np.arange(1, 8),
            "s": np.array([0.1, -0.0, 5e-324, 1e300, np.inf, -np.inf, np.nan]),
            "y": np.array([3.0, 0.0, 1.0, 2.5, 7.0, 1e-7, -2.0])}
    path = str(tmp_path / "cols.csv")
    lapcert.cli._write_csv(path, ["j", "s", "y"], cols)
    with open(str(tmp_path / "want.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["j", "s", "y"])
        w.writerows(zip(*(cols[k].tolist() for k in ("j", "s", "y"))))
    assert open(path, "rb").read() == open(str(tmp_path / "want.csv"), "rb").read()


def test_seed_override(tmp_path, write_cfg):
    cfg = write_cfg({"family": "poisson", "truth": {"p_star": 5}})
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    assert main(["simulate", "--config", cfg, "--out", out1, "--seed", "9"]) == 0
    assert main(["simulate", "--config", cfg, "--out", out2]) == 0
    y1 = open(os.path.join(out1, "dataset.csv")).read()
    y2 = open(os.path.join(out2, "dataset.csv")).read()
    assert y1 != y2
    assert json.load(open(os.path.join(out1, "manifest.json")))["config"]["seed"] == 9
    sidecar = json.load(open(os.path.join(out1, "dataset.json")))
    assert sidecar == {"seed": 9, "family": "poisson", "n": 200, "truth": {
        "p_star": 5, "amplitude": 0.5, "decay": 2.0, "theta": None}}


def test_manifest_git_hash_from_source_tree(tmp_path, monkeypatch, write_cfg):
    """The manifest records the HEAD of the package's source tree, not of the cwd."""
    src = os.path.dirname(os.path.abspath(lapcert.cli.__file__))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=src, capture_output=True,
                              text=True, timeout=10)
    except OSError:
        pytest.skip("git is not installed")
    if head.returncode != 0:
        pytest.skip("the source tree is not a git checkout")
    monkeypatch.chdir(tmp_path)
    assert main(["eigen", "--config", write_cfg(), "--out", "o"]) == 0
    assert json.load(open(tmp_path / "o" / "manifest.json"))["git_hash"] == head.stdout.strip()


def test_manifest_git_hash_unknown_when_git_hangs(tmp_path, monkeypatch, write_cfg, capsys):
    """A `git rev-parse` that times out leaves the run's exit code and its manifest,
    whose git_hash is "unknown"; a manifest that cannot be written exits 3."""
    def hang(cmd, **kwargs):
        raise subprocess.TimeoutExpired(cmd, kwargs.get("timeout"))
    monkeypatch.setattr(lapcert.cli.subprocess, "run", hang)
    out = tmp_path / "o"
    assert main(["eigen", "--config", write_cfg(), "--out", str(out)]) == 0
    assert json.load(open(out / "manifest.json"))["git_hash"] == "unknown"
    os.remove(out / "manifest.json")
    os.mkdir(out / "manifest.json")
    assert main(["eigen", "--config", write_cfg(), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith("IsADirectoryError:")


def test_sweep_synthetic(tmp_path, write_cfg):
    cfg = write_cfg({
        "family": "poisson", "n": 100000,
        "sweep": {"axis": "p", "values": [2, 8, 32, 128], "synthetic": True}})
    out = str(tmp_path / "sw")
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    rows = open(os.path.join(out, "sweep.csv")).read().splitlines()
    assert rows[0].startswith("n,p,beta,gamma,gamma0_star,m,m0_star,bound_")
    assert len(rows) == 5
    # over p: every row at the config's n
    assert [r["n"] for r in _read_checks(os.path.join(out, "sweep.csv"))] == ["100000"] * 4
    # over n: one row per n at the config's p
    cfg = write_cfg({"family": "poisson", "sweep": {"axis": "n", "values": [300, 600],
                                                    "synthetic": True}}, name="n.json")
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    rows = _read_checks(os.path.join(out, "sweep.csv"))
    assert [(r["n"], r["p"]) for r in rows] == [("300", "2"), ("600", "2")]


def test_sweep_real_mode(tmp_path, monkeypatch, write_cfg):
    cfg = write_cfg({
        "family": "poisson", "n": 400,
        "sweep": {"axis": "p", "values": [2, 4], "synthetic": False}})
    out = str(tmp_path / "swr")
    counts = _count_calls(monkeypatch, [(lapcert.eigensolver, "load_eigensystem"),
                                        (lapcert.cli, "generate"),
                                        (lapcert.validation, "tv_importance")])
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    rows = open(os.path.join(out, "sweep.csv")).read().splitlines()
    assert len(rows) == 1 + 2 * 3  # three weighting choices per p value
    # one eigensystem and one dataset for the whole grid; no certificate is
    # usable at either point, so no importance draw is made
    assert counts == {"load_eigensystem": 1, "generate": 1}
    checks = _read_checks(os.path.join(out, "checks.csv"))
    assert {(r["n"], r["p"], r["status"]) for r in checks} == {("400", "2", "skipped"),
                                                                ("400", "4", "skipped")}
    # over n: one dataset per n, still one eigensystem
    cfg = write_cfg({"family": "poisson",
                     "sweep": {"axis": "n", "values": [300, 600], "synthetic": False}},
                    name="n.json")
    counts.clear()
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    assert counts["load_eigensystem"] == 1 and counts["generate"] == 2
    rows = _read_checks(os.path.join(out, "sweep.csv"))
    assert [(r["n"], r["p"]) for r in rows] == [("300", "2")] * 3 + [("600", "2")] * 3
    checks = _read_checks(os.path.join(out, "checks.csv"))
    assert {(r["n"], r["p"]) for r in checks} == {("300", "2"), ("600", "2")}
    assert all(r["status"] != "violated" for r in checks)


def test_run_holds_the_modes_it_samples(tmp_path, monkeypatch, eig_cache, volterra_eig):
    """A run keeps all K eigenvalues but only the eigenfunctions of the most modes
    a stage samples: `all` on poisson_desk (p = 6, p_star = 8) holds 8, and a
    p-sweep max(grid, p_star), shared by its points: 48 on the plateau grid (here
    at n = 400), 8 on a grid below p_star.  More modes than are held are refused."""
    runs = []

    class Spy(lapcert.cli.Run):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            runs.append(self)

    monkeypatch.setattr(lapcert.cli, "Run", Spy)
    fam = lapcert.model.exp_family("poisson")
    for name, command, overrides, modes in (
            ("poisson_desk", "all", {}, 8),
            ("poisson_plateau", "sweep", {"n": 400}, 48),
            ("poisson_plateau", "sweep", {"n": 400, "sweep": {"values": [2, 4]}}, 8)):
        with open(os.path.join(ROOT, "configs", name + ".json")) as fh:
            doc = json.load(fh)
        doc["eigensolver"]["cache_dir"] = eig_cache     # the session's N=4096, K=50 cache
        for key, val in overrides.items():
            doc[key] = dict(doc[key], **val) if isinstance(val, dict) else val
        cfg = tmp_path / (name + ".json")
        cfg.write_text(json.dumps(doc))
        runs.clear()
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        eig = runs[0].eig
        assert all(run.eig is eig for run in runs)
        assert eig.psi.shape == eig.dpsi.shape == (modes, 4097) and eig.psi.flags.f_contiguous
        assert np.array_equal(eig.psi, volterra_eig.psi[:modes])
        assert eig.lambdas.size == eig.psi_sup.size == eig.dpsi_sup.size == 50
        with pytest.raises(lapcert.model.ModelError, match="modes exceed"):
            lapcert.operators.assemble_design(eig, 400, modes + 1)
        with pytest.raises(lapcert.model.ModelError, match="modes exceed"):
            lapcert.model.generate(eig, fam, lapcert.model.TruthSpec(p_star=modes + 1), 400, 1)


def test_sweep_default_grid(tmp_path, write_cfg):
    """A config without a sweep section runs the default real-mode p grid."""
    cfg = write_cfg({"family": "poisson"})
    assert "sweep" not in json.load(open(cfg))
    out = str(tmp_path / "default")
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    rows = _read_checks(os.path.join(out, "sweep.csv"))
    assert [int(r["p"]) for r in rows if r["label"] == "DG"] == [2, 4, 8, 16]
    assert len(rows) == 4 * 3


def test_threads_change_no_artifact(tmp_path, eig_cache, volterra_eig_small):
    """`all` on the bundled gaussian_exactness config writes byte-identical
    CSVs at --threads 1 and 2, and the manifest says how each run was threaded."""
    with open(os.path.join(ROOT, "configs", "gaussian_exactness.json")) as fh:
        doc = json.load(fh)
    doc["eigensolver"]["cache_dir"] = eig_cache     # the session's warm N=2048, K=30 cache
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    csvs = {}
    for threads in (1, 2):
        out = tmp_path / ("t%d" % threads)
        assert main(["all", "--config", str(cfg), "--out", str(out),
                     "--threads", str(threads)]) == 0
        csvs[threads] = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["threads"] == {
            "requested": threads, "kernel_workers": min(threads, usable_cores()),
            "blas_env": {var: os.environ.get(var) for var in lapcert.cli.BLAS_VARS}}
    assert len(csvs[1]) == 5 and csvs[1] == csvs[2]
    # a count above the usable cores runs on the usable cores
    out = tmp_path / "t256"
    assert main(["fit", "--config", str(cfg), "--out", str(out), "--threads", "256"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["threads"]["kernel_workers"] == usable_cores()


def test_console_entry_sets_blas_before_numpy(monkeypatch):
    """The `lapcert` command imports nothing that loads numpy before it has
    set the BLAS variables to 1, whatever the environment and --threads say;
    an out-of-range count reaches the CLI, which rejects it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p))
    code = "import sys, lapcert.__main__; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == "False"
    seen = []

    def cli_main(argv):   # records the BLAS variables the CLI would load numpy with
        seen.append((argv, {var: os.environ.get(var) for var in entry.BLAS_VARS}))
        return 7

    monkeypatch.setattr(lapcert.cli, "main", cli_main)
    for preset in (None, "8"):
        for argv in (["fit", "--threads", "3"], ["fit", "--thr=2"], ["fit", "--threads", "257"],
                     ["fit", "--threads", "x"], ["fit"]):
            for var in entry.BLAS_VARS:
                if preset is None:
                    monkeypatch.delenv(var, raising=False)
                else:
                    monkeypatch.setenv(var, preset)
            assert entry.main(argv) == 7
            assert seen.pop() == (argv, dict.fromkeys(entry.BLAS_VARS, "1"))


def test_console_certificates_ignore_blas_env(tmp_path, eig_cache, volterra_eig):
    """`python -m lapcert certify` at n = 10^4, p = 32, where a multithreaded
    BLAS reduction moves the certificate cells' last bits, writes the same
    certificates.csv at the default pool and at --threads 1 with the BLAS
    variables preset to 2: the command runs BLAS on one thread."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 10000, "p": 32,
                               "eigensolver": {"cache_dir": eig_cache}}))   # warm N=4096, K=50
    env = dict(os.environ, **dict.fromkeys(entry.BLAS_VARS, "2"), PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p))
    csvs = []
    for extra in ([], ["--threads", "1"]):
        out = tmp_path / ("out%d" % len(csvs))
        subprocess.run([sys.executable, "-m", "lapcert", "certify", "--config", str(cfg),
                        "--out", str(out), *extra], env=env, check=True, capture_output=True,
                       timeout=120)
        csvs.append((out / "certificates.csv").read_bytes())
    assert csvs[0] == csvs[1]


def test_cli_module_run_is_refused(tmp_path):
    """`python -m lapcert.cli`, which would load numpy before any code of its own
    could pin BLAS, exits 2 with the BLAS variables at 2, names the two commands
    that run BLAS on one thread, and writes nothing."""
    env = dict(os.environ, **dict.fromkeys(entry.BLAS_VARS, "2"), PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p))
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-m", "lapcert.cli", "all", "--config",
                           os.path.join(ROOT, "configs", "gaussian_exactness.json"),
                           "--out", str(out)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 2
    assert "`lapcert`" in proc.stderr and "`python -m lapcert`" in proc.stderr
    assert proc.stdout == "" and not out.exists() and os.listdir(tmp_path) == []


def test_cli_import_skips_unused_dependencies():
    """`import lapcert.cli` loads neither mpmath nor any scipy module: the
    pipeline is numpy alone (only the SVD oracle imports scipy.sparse.linalg,
    lazily), and scipy.linalg was most of the import's time.  Nor
    does it load lapcert.concentration, which only the benchmark probe reads."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, lapcert.cli; "
            "print(' '.join(m for m in sys.modules if m in ('mpmath', 'lapcert.concentration') "
            "or m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == ""


def test_cold_eigen_run_loads_neither_openssl_nor_numpy_polynomial(tmp_path):
    """Neither `import lapcert.cli` nor a cold `eigen` run after it loads `hashlib`
    (whose `_hashlib` maps OpenSSL) or `numpy.polynomial`: the eigen cache names its
    entries by zlib's crc32, and numpy's `polyval` and `polyder`, which `numpy.lib` holds,
    evaluate the coefficients."""
    cache = tmp_path / "cache"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"operator": {"a": [1.0, 0.5], "b": [0.5]},
                               "p": 2, "truth": {"p_star": 2},
                               "eigensolver": {"K": 5, "N": 1024, "cache_dir": str(cache)}}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, lapcert.cli\n"
            "def loaded():\n"
            "    return [m for m in sys.modules if m.lstrip('_') == 'hashlib'\n"
            "            or m.startswith('numpy.polynomial')]\n"
            "before = loaded()\n"
            "rc = lapcert.cli.main(['eigen', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
            "print(rc, before, loaded())\n")
    out = subprocess.run([sys.executable, "-c", code, str(cfg), str(tmp_path / "out")], env=env,
                         check=True, capture_output=True, text=True, timeout=120).stdout
    assert out.splitlines()[-1] == "0 [] []"
    assert [name.startswith("eig_") for name in os.listdir(cache)] == [True]   # it solved


def test_warm_all_run_loads_no_numpy_ma_concurrent_futures_or_openssl(tmp_path, eig_cache,
                                                                      volterra_eig_small):
    """A warm `all` run with importance and quadrature TV on two workers loads neither
    `numpy.ma` (which `np.percentile` imports) nor `concurrent.futures`: the bootstrap
    takes its percentiles from the sorted values, and the pool runs on plain threads.
    Nor does it load OpenSSL, which `numpy.random` reaches through `secrets` and `hmac`:
    the first draw imports `numpy.random` with a stand-in `secrets`.  After the run,
    `import secrets` gives the real module, and an unseeded SeedSequence still draws
    fresh OS entropy."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "bernoulli", "n": 500, "p": 2,
                               "validation": {"method": "both", "M": 10000},
                               "eigensolver": {"K": 30, "N": 2048, "cache_dir": eig_cache}}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, lapcert.cli\n"
            "rc = lapcert.cli.main(['all', '--config', sys.argv[1], '--out', sys.argv[2],\n"
            "                       '--threads', '2'])\n"
            "print(rc, [m for m in sys.modules if m.split('.')[:2] == ['numpy', 'ma']\n"
            "           or m.split('.')[0] in ('concurrent', 'secrets', 'hmac', 'hashlib',\n"
            "                                  '_hashlib')])\n"
            "import secrets, numpy as np\n"
            "print(hasattr(secrets, 'token_hex'),\n"
            "      np.random.SeedSequence().entropy != np.random.SeedSequence().entropy)\n")
    out = subprocess.run([sys.executable, "-c", code, str(cfg), str(tmp_path / "out")], env=env,
                         check=True, capture_output=True, text=True, timeout=120).stdout
    assert out.splitlines()[-2:] == ["0 []", "True True"]
    with open(tmp_path / "out" / "tv_estimates.csv") as fh:
        assert [row["method"] for row in csv.DictReader(fh)] == ["importance", "quadrature"]


def test_overflowing_newton_trial_step_warns_nothing(tmp_path, eig_cache, volterra_eig,
                                                    monkeypatch):
    """At Poisson amplitude 8 a trial step of the Newton line search overflows exp in
    the cumulant sum: the kernel refuses it (the fit refuses at least one) and the step
    is halved, with no numpy warning, so `python -W error::RuntimeWarning -m lapcert all`
    exits 0 and prints nothing to stderr.  The run's TV is importance alone; CI's smoke
    step runs this config with quadrature too."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"family": "poisson", "n": 1000, "p": 3,
                               "truth": {"amplitude": 8.0}, "validation": {"method": "importance"},
                               "eigensolver": {"cache_dir": eig_cache}}))   # warm N=4096, K=50
    refused, f_value = [], lapcert.posterior.f_value

    def recording(prob, theta):
        try:
            return f_value(prob, theta)
        except lapcert.posterior.EvaluationError:
            refused.append(theta)
            raise

    monkeypatch.setattr(lapcert.posterior, "f_value", recording)
    assert lapcert.cli.Run(load_config(str(cfg)), workers=1).fit.newton_iters > 1 and refused
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "lapcert", "all",
                           "--config", str(cfg), "--out", str(tmp_path / "out")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_perfbench_imports_resolve():
    """Every `import lapcert.X` and `from lapcert.X import Y` in perfbench/*.py
    names a module that imports and a name it has, so no src change can break
    `perfbench/run.py --trace 1` without failing here."""
    wanted = []
    for path in sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                wanted += [(alias.name, None) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                wanted += [(node.module, alias.name) for alias in node.names]
    wanted = {(mod, name) for mod, name in wanted if mod.split(".")[0] == "lapcert"}
    assert wanted
    for mod, name in sorted(wanted, key=str):
        module = importlib.import_module(mod)
        assert (name is None or hasattr(module, name)
                or importlib.util.find_spec(mod + "." + name)), "%s has no %s" % (mod, name)
