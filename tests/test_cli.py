import json
import os
import subprocess
import sys

import pytest

import lapcert.certification
import lapcert.cli
import lapcert.eigensolver
from lapcert.cli import main
from lapcert.config import ConfigError, config_from_dict, load_config

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


def test_unknown_key_rejected_with_path(write_cfg):
    path = write_cfg({"familly": "poisson"})
    with pytest.raises(ConfigError, match="familly"):
        load_config(path)
    with pytest.raises(ConfigError, match="eigensolver.wat"):
        config_from_dict({**BASE, "eigensolver": {"K": 30, "wat": 1}})
    # removed knobs are unknown keys like any other
    with pytest.raises(ConfigError, match="certification.n_r"):
        config_from_dict({**BASE, "certification": {"n_r": 60}})
    with pytest.raises(ConfigError, match="beta_override"):
        config_from_dict({**BASE, "beta_override": 1.0})


def test_defaults_materialized():
    cfg = config_from_dict(BASE)
    d = cfg.to_dict()
    assert d["certification"] == {"gamma0": None, "beta": 1.0}
    assert cfg.beta == 1.0
    assert d["truth"]["p_star"] == 8
    assert d["sweep"]["axis"] == "p"


def test_invalid_values_rejected():
    with pytest.raises(ConfigError, match="family"):
        config_from_dict({**BASE, "family": "cauchy"})
    with pytest.raises(ConfigError, match="gamma"):
        config_from_dict({**BASE, "gamma": -1.0})
    with pytest.raises(ConfigError, match="exceeds"):
        config_from_dict({**BASE, "p": 64})


def test_validation_sizes_rejected(tmp_path, write_cfg, capsys):
    """validation.M below the estimator's 10,000 floor and per_axis below 64
    fail at load time with the key path (exit 2), not at validate time."""
    for overrides, key in (({"M": 5000}, "validation.M"),
                           ({"per_axis": 32}, "validation.per_axis")):
        with pytest.raises(ConfigError, match=key):
            config_from_dict({**BASE, "validation": {**BASE["validation"], **overrides}})
        path = write_cfg({"validation": overrides})
        assert main(["validate", "--config", path, "--out", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err


def test_malformed_json_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["fit", "--config", str(bad)]) == 2
    assert "config error" in capsys.readouterr().err


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
    # exact-fit family: TV row is numerically zero
    rows = open(os.path.join(out, "tv_estimates.csv")).read().splitlines()
    assert float(rows[1].split(",")[1]) < 1e-8
    manifest = json.load(open(os.path.join(out, "manifest.json")))
    assert manifest["config"]["seed"] == 3
    assert "total" in manifest["wall_times_s"]


def test_all_computes_each_stage_once(tmp_path, monkeypatch, write_cfg):
    cfg = write_cfg({"family": "poisson"})
    counts = _count_calls(monkeypatch, [
        (lapcert.eigensolver, "load_eigensystem"), (lapcert.cli, "generate"),
        (lapcert.cli, "map_solve"), (lapcert.certification, "compare_choices")])
    assert main(["all", "--config", cfg, "--out", str(tmp_path / "once")]) == 0
    assert counts == {"load_eigensystem": 1, "generate": 1, "map_solve": 1,
                      "compare_choices": 1}


def test_dominance_skip_is_reported(tmp_path, capsys, write_cfg):
    # Poisson, n=200, p=6: no certificate is feasible, so nothing is checked
    cfg = write_cfg({"family": "poisson", "p": 6})
    assert main(["all", "--config", cfg, "--out", str(tmp_path / "skip")]) == 0
    text = capsys.readouterr().out
    assert "feasible=0" in text and "feasible=1" not in text
    assert "dominance=SKIPPED (gamma0_star infeasible)" in text
    assert "dominance=OK" not in text


def test_csv_outputs_deterministic(tmp_path, write_cfg):
    cfg = write_cfg({"family": "poisson"})
    out1, out2 = str(tmp_path / "o1"), str(tmp_path / "o2")
    assert main(["certify", "--config", cfg, "--out", out1]) == 0
    assert main(["certify", "--config", cfg, "--out", out2]) == 0
    a = open(os.path.join(out1, "certificates.csv"), "rb").read()
    b = open(os.path.join(out2, "certificates.csv"), "rb").read()
    assert a == b


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
    assert sidecar["seed"] == 9 and sidecar["truth"]["p_star"] == 5


def test_sweep_synthetic(tmp_path, write_cfg):
    cfg = write_cfg({
        "family": "poisson",
        "sweep": {"axis": "p", "values": [2, 8, 32, 128], "synthetic": True,
                  "n": 100000.0}})
    out = str(tmp_path / "sw")
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    rows = open(os.path.join(out, "sweep.csv")).read().splitlines()
    assert rows[0].startswith("n,p,beta,gamma,gamma0_star,m,m0_star,bound_")
    assert len(rows) == 5


def test_sweep_real_mode(tmp_path, monkeypatch, write_cfg):
    cfg = write_cfg({
        "family": "poisson", "n": 400,
        "sweep": {"axis": "p", "values": [2, 4], "synthetic": False}})
    out = str(tmp_path / "swr")
    counts = _count_calls(monkeypatch, [(lapcert.eigensolver, "load_eigensystem")])
    assert main(["sweep", "--config", cfg, "--out", out]) == 0
    rows = open(os.path.join(out, "sweep.csv")).read().splitlines()
    assert len(rows) == 1 + 2 * 3  # three weighting choices per p value
    assert counts == {"load_eigensystem": 1}  # one eigensystem for the whole grid


def test_cli_import_skips_unused_dependencies():
    """`import lapcert.cli` loads neither mpmath, scipy.integrate nor
    scipy.sparse: the pipeline uses none of them (only the SVD oracle needs
    scipy.sparse.linalg), and loading each costs ~0.3-0.4 s per import."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, lapcert.cli; "
            "print(' '.join(m for m in ('mpmath', 'scipy.integrate', 'scipy.sparse') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    assert out.strip() == ""
