import csv
import json
import math
import subprocess
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import lapcert.model
from lapcert.cli import main
from lapcert.model import (ModelError, TruthSpec, exp_family, generate,
                           sample_poisson, signal_sup_norm, _bernoulli_h3_envelope,
                           _philox_uniforms, _poisson_ptrs, _substream)
from lapcert.validation import laplace_draws

from conftest import make_problem, python_env
from probes import ALLOCATING_H, ALLOCATING_HSUM


def _ref_poisson(lam: float, rng) -> int:
    """Scalar reference: sequential inversion below rate 30, PTRS from 30 on."""
    if lam >= 30.0:
        return _poisson_ptrs(lam, rng)
    u = rng.random()
    p = math.exp(-lam)
    F = p
    k = 0
    while u > F:
        k += 1
        p *= lam / k
        F += p
    return k


def _ref_bernoulli(s: float, rng) -> int:
    """y = 1 iff u < 1/(1 + e^-s), a threshold of 0 where e^-s overflows."""
    try:
        threshold = 1.0 / (1.0 + math.exp(-s))
    except OverflowError:
        threshold = 0.0
    return int(rng.random() < threshold)


# the per-observation reference: y_j from its own generator _substream(seed, j)
_REFERENCE = {
    "poisson": lambda s, rng: _ref_poisson(math.exp(s), rng),
    "bernoulli": _ref_bernoulli,
    "gaussian": lambda s, rng: s + rng.standard_normal(),
}


def _reference_y(kind: str, s: np.ndarray, seed: int) -> np.ndarray:
    return np.array([_REFERENCE[kind](float(v), _substream(seed, j)) for j, v in enumerate(s)])


def test_philox_block_matches_numpy():
    js = [0, 1, 2, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 63, 2 ** 64 - 1]
    for seed in (0, 1, 2 ** 64 - 1):
        ref = [np.random.Generator(np.random.Philox(key=np.array([seed, j], dtype=np.uint64)))
               .random() for j in js]
        assert np.array_equal(_philox_uniforms(seed, np.array(js, dtype=np.uint64)), ref)


def test_philox_passes_hold_blocks_not_whole_temporaries():
    """At n = 2e5 the vectorized Philox pass allocates under four result arrays (tracemalloc),
    working 2^14 streams at a time; a whole-length pass held ~14 n-long uint64 temporaries.
    sample_poisson, which draws 2^15 observations at a time, stays under four too: the result
    and its blocks (its whole-length inversion held ~9 n-long arrays).  A few rates of 40 past
    the first block take PTRS draws, keyed by their global index too."""
    n = 200_000
    j = np.arange(n, dtype=np.uint64)
    s = np.full(n, math.log(2.0))
    s[[2 ** 15, 6 * 2 ** 15 - 1, n - 1]] = math.log(40.0)
    out = []
    for call, arrays in ((lambda: _philox_uniforms(0, j), 4), (lambda: sample_poisson(s, 0), 4)):
        tracemalloc.start()
        try:
            out.append(call())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < arrays * 8 * n, (arrays, peak)
    edges = [0, 2 ** 14 - 1, 2 ** 14, 2 ** 15, 2 ** 17 + 5, 6 * 2 ** 15 - 1, n - 1]   # seams
    assert np.array_equal(out[0][edges], [_substream(0, k).random() for k in edges])
    assert np.array_equal(out[1][edges],
                          [_REFERENCE["poisson"](s[k], _substream(0, k)) for k in edges])


def test_first_draw_keeps_a_callers_secrets_and_the_bits():
    """A process that imports `secrets` before lapcert keeps that module object through the
    first draw (which imports numpy.random), and one that did not is left without a `secrets`:
    the stand-in is gone.  Both draw the same importance Z as this process does."""
    code = ("import sys, types\n"
            "if sys.argv[1] == 'first':\n"
            "    import secrets\n"
            "import numpy as np\n"
            "from lapcert.validation import laplace_draws\n"
            "before = sys.modules.get('secrets')\n"
            "_, Z = laplace_draws(types.SimpleNamespace(theta_hat=np.zeros(3)), 7, 5, 13)\n"
            "print(sys.modules.get('secrets') is before, before is None, Z.tobytes().hex())\n")
    Z = laplace_draws(SimpleNamespace(theta_hat=np.zeros(3)), 7, 5, 13)[1]
    for order, absent in (("first", "False"), ("never", "True")):
        out = subprocess.run([sys.executable, "-c", code, order], env=python_env(), check=True,
                             capture_output=True, text=True, timeout=60).stdout.split()
        assert out == ["True", absent, Z.tobytes().hex()], order


def test_generate_matches_per_observation_reference(volterra_eig_small):
    # Poisson: s in [-66, 26], so rates below and above 30 and s <= -40 in one
    # dataset; Bernoulli: |s| up to 40
    truths = {"poisson": (-30.0, 130.0), "bernoulli": (0.0, 133.0), "gaussian": (-30.0, 130.0)}
    for kind, theta in truths.items():
        for seed in (0, 1, 2 ** 64 - 1):
            ds = generate(volterra_eig_small, exp_family(kind),
                          TruthSpec(theta=theta), n=1000, seed=seed)
            assert np.array_equal(ds.y, _reference_y(kind, ds.s_true, seed)), (kind, seed)
        if kind == "poisson":
            assert ds.s_true.min() < -40.0 and np.sum(ds.s_true >= math.log(30.0)) > 100
    # edge values through the samplers: s = 0 exactly, the rate-30 switch, and
    # rates that underflow (e^-745 is the last subnormal); Bernoulli's e^-s
    # overflows below -log(DBL_MAX) = -709.782712893384
    edges = [0.0, -0.0, -40.0, -745.0, -746.0, -800.0, 3.4, math.log(30.0),
             math.nextafter(math.log(30.0), 0.0), 34.0]
    s_over = -math.log(np.finfo(float).max)
    cases = {"poisson": edges, "gaussian": edges,
             "bernoulli": [0.0, -0.0, 40.0, -40.0, 36.7, -36.7, 1e-3, -1e-3,
                           -5000.0, s_over, math.nextafter(s_over, 0.0),
                           math.nextafter(s_over, -math.inf)]}
    for kind, vals in cases.items():
        s = np.tile(vals, 20)
        for seed in (0, 2 ** 64 - 1):
            assert np.array_equal(exp_family(kind).sampler(s, seed),
                                  _reference_y(kind, s, seed)), (kind, seed)


def test_generate_rejects_rate_overflow_before_drawing(volterra_eig_small, monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew before checking the rates")
    monkeypatch.setattr(lapcert.model, "_philox_uniforms", no_draw)
    monkeypatch.setattr(lapcert.model, "_substream", no_draw)
    fam = exp_family("poisson")
    # rates up to e^45 > 1e15; s past 709.78, where math.exp overflows; nan
    for truth in (TruthSpec(theta=(0.0, 150.0)), TruthSpec(p_star=2, amplitude=1e4),
                  TruthSpec(p_star=2, amplitude=float("nan"))):
        with pytest.raises(ModelError, match="poisson rate overflow"):
            generate(volterra_eig_small, fam, truth, n=200, seed=0)


def test_poisson_sampler_matches_pmf():
    lam = 4.5
    draws = sample_poisson(np.full(20000, math.log(lam)), 123).astype(int)
    # chi-square against the exact pmf over a truncated support
    kmax = 15
    obs = np.bincount(np.minimum(draws, kmax), minlength=kmax + 1)
    pk = stats.poisson.pmf(np.arange(kmax + 1), lam)
    pk[kmax] = 1.0 - pk[:kmax].sum()
    chi2 = np.sum((obs - 20000 * pk) ** 2 / (20000 * pk))
    assert chi2 < stats.chi2.ppf(0.999, kmax)


def test_poisson_sampler_large_rate_moments():
    rng = _substream(7, 3)
    lam = 250.0
    draws = np.array([_poisson_ptrs(lam, rng) for _ in range(20000)])
    assert draws.mean() == pytest.approx(lam, rel=0.01)
    assert draws.var() == pytest.approx(lam, rel=0.05)


def test_poisson_rate_overflow_rejected():
    with pytest.raises(ModelError):
        sample_poisson(np.array([math.log(1e16)]), 0)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.01, 200.0), st.integers(0, 2 ** 32 - 1))
def test_poisson_sampler_nonnegative_int(lam, seed):
    v = sample_poisson(np.array([math.log(lam)]), seed)[0]
    assert v == int(v) and v >= 0


def test_family_derivatives_finite_difference():
    eps = 1e-5
    for kind, h in ALLOCATING_H.items():
        fam = exp_family(kind)
        for s in (-1.5, 0.0, 0.7):
            assert fam.h1(s) == pytest.approx(
                (h(s + eps) - h(s - eps)) / (2 * eps), rel=1e-4, abs=1e-6)
            assert fam.h2(s) == pytest.approx(
                (fam.h1(s + eps) - fam.h1(s - eps)) / (2 * eps), rel=1e-4, abs=1e-6)
            assert fam.h3(s) == pytest.approx(
                (fam.h2(s + eps) - fam.h2(s - eps)) / (2 * eps), rel=1e-3, abs=1e-6)


def test_d3_envelopes():
    # poisson: sup |h'''| over |t| <= K is e^K; gaussian: 0
    assert exp_family("poisson").d3_envelope(2.0) == pytest.approx(math.e ** 2)
    assert exp_family("gaussian").d3_envelope(5.0) == 0.0
    # bernoulli: global max 1/(6 sqrt 3) reached past the critical |s|
    env = exp_family("bernoulli").d3_envelope
    assert env(10.0) == pytest.approx(1.0 / (6 * math.sqrt(3.0)))
    assert env(0.05) < env(10.0)
    # envelope dominates |h'''| on a grid
    fam = exp_family("bernoulli")
    for K in (0.3, 1.0, 4.0):
        ss = np.linspace(-K, K, 201)
        assert np.max(np.abs(fam.h3(ss))) <= _bernoulli_h3_envelope(K) + 1e-12


def test_truth_theta():
    t = TruthSpec(p_star=4, amplitude=0.5, decay=2.0).coefficients()
    assert np.allclose(t, [0.5, -0.125, 0.5 / 9, -0.03125])
    # a given theta sets p_star, whatever p_star was passed
    e = TruthSpec(p_star=3, theta=(0.3, -0.1))
    assert e.p_star == 2
    assert np.allclose(e.coefficients(), [0.3, -0.1])
    with pytest.raises(ModelError):
        TruthSpec(theta=(0.3, math.inf)).coefficients()
    # an int decay is the float one: an int64 k ** -2 refuses, and 8 ** 22 wraps to 0
    for decay in (2, -22):
        assert (TruthSpec(decay=decay).coefficients().tobytes()
                == TruthSpec(decay=float(decay)).coefficients().tobytes())


def test_generate_deterministic(volterra_eig_small):
    fam = exp_family("poisson")
    tr = TruthSpec(p_star=6)
    d1 = generate(volterra_eig_small, fam, tr, n=50, seed=9)
    d2 = generate(volterra_eig_small, fam, tr, n=50, seed=9)
    d3 = generate(volterra_eig_small, fam, tr, n=50, seed=10)
    assert np.array_equal(d1.y, d2.y)
    assert not np.array_equal(d1.y, d3.y)
    # substream for index j depends only on (seed, j), not on draw order
    rng_direct = _substream(9, 10)
    lam = math.exp(d1.s_true[10])
    assert _ref_poisson(lam, rng_direct) == d1.y[10]


def test_gaussian_generate_moments(volterra_eig_small):
    fam = exp_family("gaussian")
    ds = generate(volterra_eig_small, fam, TruthSpec(p_star=6), n=4000, seed=3)
    resid = ds.y - ds.s_true
    assert abs(resid.mean()) < 0.06
    assert resid.std() == pytest.approx(1.0, abs=0.05)


def test_signal_sup_norm(volterra_eig_small):
    theta = TruthSpec(p_star=6).coefficients()
    sup = signal_sup_norm(volterra_eig_small, theta)
    field = sum(theta[k] * np.sqrt(volterra_eig_small.lambdas[k]) * volterra_eig_small.psi[k]
                for k in range(6))
    assert sup == pytest.approx(np.max(np.abs(field)))


def test_bernoulli_h_matches_logaddexp():
    # the split max(s, 0) + log1p(exp(-|s|)) is the formula logaddexp applies;
    # exp(-|s|) underflows to 0 past |s| ~ 745, as it does inside logaddexp
    edges = [0.0, 1e-300, 30.0, 700.0, 1e4]
    s = np.concatenate([edges, np.negative(edges), np.linspace(-50.0, 50.0, 20001),
                        np.geomspace(1e-300, 1e4, 2001), -np.geomspace(1e-300, 1e4, 2001)])
    with np.errstate(all="raise", under="ignore"):
        h = ALLOCATING_H["bernoulli"](s)
        ref = np.logaddexp(0.0, s)
    assert np.all(np.abs(h - ref) <= 4e-16 * np.abs(ref))


def test_cumulants_in_place_match_allocating():
    """Each family's hsum(S), which may overwrite S (here a view of a wider
    buffer, as in the kernel), is the allocating row sums of h(S), bit for bit:
    at signed zeros, subnormals, the edges of exp's range (709.8 overflows it,
    745 underflows it) and a normal draw, in rows of 101 columns (one partial
    Bernoulli group), of 505 (one whole group and a partial one) and of 1010
    (three whole groups and a partial one)."""
    edges = [0.0, 1e-310, 709.8, 745.0, 800.0]
    s = np.concatenate([edges, np.negative(edges),
                        np.random.default_rng(0).standard_normal(1000)])
    for kind in ALLOCATING_HSUM:
        fam = exp_family(kind)
        for shape in ((10, 101), (2, 505), (1, 1010)):
            S = np.full((12, 1100), np.nan)[:shape[0], :shape[1]]
            S[...] = s.reshape(shape)
            with np.errstate(over="ignore"):
                want = ALLOCATING_HSUM[kind](s.reshape(shape)).view(np.int64)
                assert np.array_equal(fam.hsum(S).view(np.int64), want), (kind, shape)


@pytest.mark.parametrize("kind, scale", [("poisson", 3.0), ("gaussian", 100.0),
                                         ("bernoulli", 800.0)])
def test_hsum_is_the_row_sums_of_h(kind, scale):
    """hsum(S) is the row sums of h(S) within 1e-15 n relative, n the row
    length; Bernoulli at |s| up to 800, on both signs and on each alone, past
    where e^-|s| underflows."""
    n = 4096
    S = np.random.default_rng(1).uniform(-scale, scale, (6, n))
    S[2:4] = np.abs(S[2:4])
    S[4:] = -np.abs(S[4:])
    want = np.array([math.fsum(row) for row in ALLOCATING_H[kind](S)])
    got = exp_family(kind).hsum(S.copy())
    assert np.all(np.abs(got - want) <= 1e-15 * n * np.abs(want)), kind


def test_bernoulli_hsum_accuracy_contract():
    """Bernoulli's hsum(S) is within 1e-15 n max(1, |sum h|) of the row sums of
    h(S) (fsum), n the row length, at widths 1, 127, 128, 129, 255, 256, 257 (one
    partial group), 2500, 4095 and 4096, on a view narrower than its buffer, as the
    kernel's last tile is: rows of moderate s, each holding one s of +-0 (the factor is exactly 2),
    +-745, +-800 or +-1e308; a row of only s = -40, whose every term rounds away;
    a row of only s = 37, whose groups multiply the most factors that large, up to
    16 of 1 + e^37; and rows of s in [-800, -700] holding a few s in [0, 1], whose
    sum h is their positive parts alone, which a sum of s and |s| halved would
    lose.  The clamp (no bound) on every row, and the unclamped sum (bound 37) on
    the rows it may take, those with max|s| <= 37."""
    rng = np.random.default_rng(4)
    fam = exp_family("bernoulli")
    for n in (1, 127, 128, 129, 255, 256, 257, 2500, 4095, 4096):
        rows = []
        for v in (0.0, -0.0, 745.0, -745.0, 800.0, -800.0, 1e308, -1e308):
            row = rng.uniform(-3.0, 3.0, n)
            row[rng.integers(n)] = v
            rows.append(row)
        rows += [np.full(n, -40.0), np.full(n, 37.0)]
        for k in (1, 3, 40):
            row = rng.uniform(-800.0, -700.0, n)
            row[rng.integers(0, n, k)] = rng.uniform(0.0, 1.0, k)
            rows.append(row)
        S = np.full((len(rows) + 3, n + 37), np.nan)[:len(rows), :n]
        S[...] = rows
        want = np.array([math.fsum(row) for row in ALLOCATING_H["bernoulli"](S)])
        tol = 1e-15 * n * np.maximum(1.0, np.abs(want))
        low = np.max(np.abs(S), axis=1) <= 37.0
        got_low = fam.hsum(S[low], 37.0)
        got = fam.hsum(S)
        assert np.all(np.isfinite(got)) and np.all(np.abs(got - want) <= tol), n
        assert np.all(np.abs(got_low - want[low]) <= tol[low]), n


def test_bernoulli_hsum_branches_agree_below_37():
    """Where max|s| <= 37 Bernoulli's hsum(S, bound) gives the same bits with a
    bound of 37 (its clamp skipped), inf or NaN (clamped): at widths 1, 255, 256,
    257, 4095 and 4096, on rows of s in [-37, 37] holding +-0, a subnormal and
    +-37, rows of only s = 37 and rows of s in [-800, -700]."""
    rng = np.random.default_rng(5)
    fam = exp_family("bernoulli")
    for n in (1, 255, 256, 257, 4095, 4096):
        S = rng.uniform(-37.0, 37.0, (6, n))
        for i, v in enumerate((0.0, -0.0, 5e-324, 37.0, -37.0)):
            S[i, rng.integers(n)] = v
        S = np.vstack([S, np.full((2, n), 37.0), rng.uniform(-800.0, -700.0, (2, n))])
        want = fam.hsum(S.copy(), 37.0).view(np.int64)
        for bound in (math.inf, math.nan):
            assert np.array_equal(fam.hsum(S.copy(), bound).view(np.int64), want), (n, bound)


def test_rowsum_of_a_lone_row_is_its_row_in_a_block():
    """_rowsum gives a row the same bits alone (1-d or one row) as in a block of
    any size or offset, at widths past numpy's 8192-entry iterator buffer."""
    rng = np.random.default_rng(2)
    for width in (100, 4097, 10000, 20000):
        W = rng.random((7, width))
        full = lapcert.model._rowsum(W)
        for i in range(7):
            assert lapcert.model._rowsum(W[i]) == full[i]
            assert np.array_equal(lapcert.model._rowsum(W[i:i + 1]), full[i:i + 1])
            assert np.array_equal(lapcert.model._rowsum(W[i:]), full[i:])


def test_save_dataset_roundtrip(tmp_path, eig_cache, volterra_eig_small):
    """simulate's dataset.csv parses back to generate's y and s_true exactly."""
    cfg = {"operator": {"a": [1.0], "b": [0.0]}, "family": "poisson", "n": 20, "p": 2,
           "eigensolver": {"K": 30, "N": 2048, "cache_dir": eig_cache}, "seed": 1,
           "truth": {"p_star": 4}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
    ds = generate(volterra_eig_small, exp_family("poisson"), TruthSpec(p_star=4), n=20, seed=1)
    with open(tmp_path / "o" / "dataset.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["j"]) for r in rows] == list(range(1, 21))
    assert np.array_equal([float(r["y"]) for r in rows], ds.y)
    assert np.array_equal([float(r["s_true"]) for r in rows], ds.s_true)
