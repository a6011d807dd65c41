import itertools
import math
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular
from scipy.special import log_ndtr

from lapcert import certification as C
from lapcert import posterior
from lapcert import validation as val
from lapcert import concentration
from lapcert.concentration import empirical_outside_mass
from lapcert.posterior import EvaluationError, f_value, f_values, map_solve

from conftest import make_problem
from probes import (f_reference, f_values_allocating, gaussian_mass_bracket,
                    outside_mass_bootstrap, outside_mass_reference)


def test_gaussian_family_tv_zero(gaussian_fit):
    prob, fit = gaussian_fit
    imp = val.tv_importance(fit, prob, n_samples=10000, seed=0)
    assert imp.value < 1e-8
    quad = val.tv_quadrature(fit, prob, per_axis=64)
    assert quad.value < 1e-8
    for est in (imp, quad):
        assert 0.0 <= est.ci_low <= est.value <= est.ci_high <= 1.0


def test_importance_deterministic(poisson_fit):
    prob, fit = poisson_fit
    a = val.tv_importance(fit, prob, n_samples=10000, seed=42)
    b = val.tv_importance(fit, prob, n_samples=10000, seed=42)
    c = val.tv_importance(fit, prob, n_samples=10000, seed=43)
    assert a.value == b.value and a.ci_low == b.ci_low
    assert a.value != c.value


def test_cross_method_agreement(volterra_eig):
    # p=2 Poisson toy: quadrature and importance agree within joint intervals
    prob = make_problem(volterra_eig, "poisson", n=300, p=2)
    fit = map_solve(prob)
    quad = val.tv_quadrature(fit, prob, per_axis=128)
    imp = val.tv_importance(fit, prob, n_samples=40000, seed=0)
    joint_lo = max(quad.ci_low, imp.ci_low)
    joint_hi = min(quad.ci_high, imp.ci_high)
    slack = 0.1 * max(quad.value, imp.value)
    assert joint_lo <= joint_hi + slack
    assert imp.value == pytest.approx(quad.value, rel=0.15)


def test_quadrature_p3(volterra_eig):
    # p = 3 is the largest dimension tv_quadrature accepts: 64^3 + 128^3 points
    prob = make_problem(volterra_eig, "poisson", n=200, p=3)
    fit = map_solve(prob)
    t0 = time.perf_counter()
    quad = val.tv_quadrature(fit, prob, per_axis=64)
    assert time.perf_counter() - t0 <= 20.0
    imp = val.tv_importance(fit, prob, n_samples=40000, seed=0)
    joint_lo = max(quad.ci_low, imp.ci_low)
    joint_hi = min(quad.ci_high, imp.ci_high)
    slack = 0.1 * max(quad.value, imp.value)
    assert joint_lo <= joint_hi + slack
    assert imp.value == pytest.approx(quad.value, rel=0.15)


@pytest.mark.parametrize("family, n, p", [("gaussian", 500, 2), ("poisson", 500, 4),
                                          ("bernoulli", 1500, 3)])
def test_kernel_matches_per_point_reference(volterra_eig, monkeypatch, family, n, p):
    prob = make_problem(volterra_eig, family, n=n, p=p)
    fit = map_solve(prob)
    _, Z = val.laplace_draws(fit, 50, seed=0, stream=5)
    Z *= 3.0   # reach into the tails
    U = solve_triangular(fit.L, Z.T, lower=True, trans="T").T
    Theta = fit.theta_hat + U
    f_ref = np.array([f_reference(prob, th) for th in Theta])
    lr_ref = np.array([-f_reference(prob, th) + fit.f_hat + 0.5 * float(u @ (fit.DG2 @ u))
                       for th, u in zip(Theta, U)])
    # default chunk; 7 rows per chunk, so 50 rows end in a 1-row remainder;
    # n above the chunk size, so one row per chunk.  Each with one tile, with
    # 3 tiles of n // 3 + 1 columns (the last one shorter unless 3 divides n)
    # and with 2 tiles.  At each, on 1, 2 and 3 workers, the in-place kernel
    # is its allocating form bit for bit
    for entries, tile in itertools.product((posterior._CHUNK_ENTRIES, 7 * n, n - 1),
                                           (posterior._TILE_COLUMNS, n // 3 + 1, n - 1)):
        monkeypatch.setattr(posterior, "_CHUNK_ENTRIES", entries)
        monkeypatch.setattr(posterior, "_TILE_COLUMNS", tile)
        assert np.all(np.abs(f_values(prob, Theta) - f_ref) <= 1e-10 * np.abs(f_ref))
        want = f_values_allocating(prob, Theta, entries, tile)
        for workers in (1, 2, 3):
            assert np.array_equal(f_values(prob, Theta, workers), want), (entries, tile, workers)
        # the log ratio is a difference of terms the size of f
        lp, lq = val.log_densities(fit, prob, Z.copy())
        assert np.all(np.abs((lp - lq) - lr_ref) <= 1e-10 * np.abs(f_ref))


def test_bernoulli_kernel_past_the_clamp(volterra_eig):
    """A Bernoulli f_values call whose bound max|Theta| p max|R| on |s| exceeds 37
    clamps its cumulant sum; with s reaching past +-37 (up to ~+-1e3) in many rows,
    f is still f from its definition within 1e-12 relative, and its allocating
    form bit for bit, on 1 and 2 workers."""
    prob = make_problem(volterra_eig, "bernoulli", n=1500, p=3)
    fit = map_solve(prob)
    Theta = fit.theta_hat * np.geomspace(1.0, 3000.0, 24)[:, None]
    Theta[::3] *= -1.0
    s_max = np.abs(Theta @ prob.design.rows.T).max(axis=1)
    assert s_max.min() < 37.0 < s_max.max() and np.sum(s_max > 37.0) >= 8
    f_ref = np.array([f_reference(prob, th) for th in Theta])
    want = f_values_allocating(prob, Theta, posterior._CHUNK_ENTRIES, posterior._TILE_COLUMNS)
    for workers in (1, 2):
        got = f_values(prob, Theta, workers)
        assert np.all(np.abs(got - f_ref) <= 1e-12 * np.abs(f_ref))
        assert np.array_equal(got, want)


def test_kernel_raises_like_f_value(poisson_fit, monkeypatch):
    """f_values raises both of its errors at 1 and 3 workers, the lowest
    failing block's; f_value, its one-row call, raises what its row raises."""
    prob, fit = poisson_fit
    monkeypatch.setattr(posterior, "_CHUNK_ENTRIES", 7 * prob.design.n)
    Theta = np.tile(fit.theta_hat, (30, 1))
    Theta[17] += 1e4   # exp(R theta) overflows
    for msg, row in (("overflow in cumulant h", Theta[17].copy()),
                     ("non-finite linear predictor", np.full(prob.p, np.nan))):
        Theta[17] = row
        # blocks of 7 rows: at 3 workers row 17 is in the second run; the
        # workers keep the caller's errstate, so no RuntimeWarning escapes it
        for workers in (1, 3):
            with warnings.catch_warnings(), np.errstate(over="ignore"), \
                    pytest.raises(EvaluationError, match=msg):
                warnings.simplefilter("error")
                f_values(prob, Theta, workers)
        with np.errstate(over="ignore"), pytest.raises(EvaluationError, match=msg):
            f_value(prob, row)
    # row 3 overflows in block 0 and row 17 is still NaN in block 2, which
    # is in another run at 3 workers: the lowest block's error, at any count
    Theta[3] += 1e4
    for workers in (1, 3):
        with np.errstate(over="ignore"), pytest.raises(EvaluationError, match="overflow"):
            f_values(prob, Theta, workers)


def test_kernel_raises_from_later_tiles(poisson_fit, monkeypatch):
    """With rows cut into 3 column tiles, an S that is non-finite only in the
    last tile raises `non-finite linear predictor` and an h(S) that overflows
    only in the second raises `overflow in cumulant h`, at 1 and 3 workers;
    with both, the lowest failing block's error.  Two design entries in
    observations with y = 0 put them there: 1e3 (exp(1e3) overflows) and
    1e308 (2e308 does), each read by one bad row alone."""
    prob, fit = poisson_fit
    n = prob.design.n
    cols = n // 3 + 1   # tiles [0, cols), [cols, 2 cols), [2 cols, n)
    monkeypatch.setattr(posterior, "_TILE_COLUMNS", cols)
    monkeypatch.setattr(posterior, "_CHUNK_ENTRIES", 7 * cols)   # blocks of 7 rows
    zeros = np.flatnonzero(prob.data.y == 0)
    j_h, j_s = zeros[(zeros >= cols) & (zeros < 2 * cols)][0], zeros[-1]
    assert j_s >= 2 * cols
    rows = prob.design.rows.copy()
    rows[j_h, 0], rows[j_s, 1] = 1e3, 1e308
    odd = replace(prob, design=replace(prob.design, rows=rows))
    Theta = np.tile(fit.theta_hat, (30, 1))
    Theta[:, :2] = 0.0
    assert np.all(np.isfinite(f_values(odd, Theta, 1)))
    overflow, nonfinite = Theta[0].copy(), Theta[0].copy()
    overflow[0], nonfinite[1] = 1.0, 2.0
    # blocks of 7 rows: row 3 is in block 0 and row 17 in block 2, which is
    # in another run at 3 workers
    for first, second, msg in ((overflow, None, "overflow in cumulant h"),
                               (None, nonfinite, "non-finite linear predictor"),
                               (overflow, nonfinite, "overflow in cumulant h"),
                               (nonfinite, overflow, "non-finite linear predictor")):
        bad = Theta.copy()
        for i, row in ((3, first), (17, second)):
            if row is not None:
                bad[i] = row
        for workers in (1, 3):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(EvaluationError, match=msg):
                f_values(odd, bad, workers)


def test_kernel_finiteness_without_the_pass(volterra_eig, monkeypatch):
    """f_values scans S for non-finite entries only in a call whose bound
    max|Theta| p max|R| on |S_ij| reaches half the largest double (or is NaN),
    and raises as a scan of every call would, at 1 and 3 workers: an inf or NaN
    row, and a finite row whose S overflows, raise `non-finite linear
    predictor`; a row past the bound whose S is finite returns f.  A design
    entry of 1e308 in an observation with y = 0 puts every row past the bound."""
    prob = make_problem(volterra_eig, "bernoulli", n=500, p=3)
    fit = map_solve(prob)
    monkeypatch.setattr(posterior, "_CHUNK_ENTRIES", 7 * prob.design.n)
    Theta = np.tile(fit.theta_hat, (30, 1))
    Theta[:, 1] += np.linspace(-0.2, 0.2, 30)
    rows = prob.design.rows.copy()
    rows[np.flatnonzero(prob.data.y == 0)[0], 0] = 1e308
    huge = replace(prob, design=replace(prob.design, rows=rows))
    overflow = -2.0 * np.eye(prob.p)[0]   # s_j = -2e308 + ... on the huge design
    for problem, row in ((prob, np.inf), (prob, np.nan), (huge, np.nan), (huge, overflow)):
        bad = Theta.copy()
        bad[17] = row
        for workers in (1, 3):
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(EvaluationError, match="non-finite linear predictor"):
                f_values(problem, bad, workers)
    Theta[:, 0] = -1.0   # s_j = -1e308 + ...: finite, and h(s_j) = 0
    for workers in (1, 3):
        got = f_values(huge, Theta, workers)
        want = [f_reference(huge, th) for th in Theta]
        assert got == pytest.approx(want, rel=1e-12)


def test_log_densities_whiten_in_place(poisson_fit):
    """log_densities returns -||z||^2 / 2 and leaves theta_hat + L^{-T} z in Z's
    own memory, as scipy's triangular solve gives it to 1e-13 of the largest entry."""
    prob, fit = poisson_fit
    _, Z = val.laplace_draws(fit, 500, seed=0, stream=5)
    z0 = Z.copy()
    lp, lq = val.log_densities(fit, prob, Z)
    assert np.array_equal(lq, -0.5 * np.einsum("ij,ij->i", z0, z0))
    want = fit.theta_hat + solve_triangular(fit.L, z0.T, lower=True, trans="T").T
    assert np.max(np.abs(Z - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.array_equal(lp, fit.f_hat - f_values(prob, Z, 1))


def test_importance_weights_match_per_point_reference(poisson_fit, monkeypatch):
    """The importance pass's log-weights, from its stream-13 draw, are
    f_hat - f(theta_hat + L^{-T} z) + ||z||^2 / 2 with f the per-point
    reference, to 1e-10 of the size of f, and its TV is theirs."""
    prob, fit = poisson_fit
    seen, log_densities = [], val.log_densities

    def recording(fit_, prob_, Z, workers=None):
        z = Z.copy()
        out = log_densities(fit_, prob_, Z, workers)
        seen.append((z, *out))
        return out

    monkeypatch.setattr(val, "log_densities", recording)
    monkeypatch.setattr(val, "_N_BOOT", 10)
    est = val.tv_importance(fit, prob, n_samples=10000, seed=5)
    [(Z, lp, lq)] = seen
    assert np.array_equal(Z, val.laplace_draws(fit, 10000, 5, stream=13)[1])
    U = solve_triangular(fit.L, Z.T, lower=True, trans="T").T
    f_ref = np.array([f_reference(prob, fit.theta_hat + u) for u in U])
    want = fit.f_hat - f_ref + 0.5 * np.sum(Z * Z, axis=1)
    assert np.all(np.abs((lp - lq) - want) <= 1e-10 * np.abs(f_ref))
    w = np.exp(want - np.max(want))
    assert est.value == pytest.approx(0.5 * np.mean(np.abs(w / np.mean(w) - 1.0)), rel=1e-8)


@pytest.mark.parametrize("family", ["poisson", "bernoulli"])
def test_estimates_do_not_depend_on_workers(volterra_eig, poisson_fit, monkeypatch, family):
    """The kernel, both TV estimators (quadrature at p <= 3) and the outside
    masses are bit-identical for 1, 2 and 3 workers; the kernel also at two
    odd chunk sizes and two tile widths.  Work of any size is split."""
    if family == "poisson":
        prob, fit = poisson_fit    # p = 4
    else:
        prob = make_problem(volterra_eig, family, n=400, p=2)
        fit = map_solve(prob)
    n, p = prob.design.n, prob.p
    _, U = val.laplace_draws(fit, 200, seed=0, stream=5)
    # the default chunk and tile last, so the estimators below run with them
    for entries, tile in itertools.product((7 * n, n - 1, posterior._CHUNK_ENTRIES),
                                           (n // 3 + 1, n - 1, posterior._TILE_COLUMNS)):
        monkeypatch.setattr(posterior, "_CHUNK_ENTRIES", entries)
        monkeypatch.setattr(posterior, "_TILE_COLUMNS", tile)
        ref = f_values(prob, fit.theta_hat + U, 1)
        for workers in (2, 3):
            assert np.array_equal(f_values(prob, fit.theta_hat + U, workers), ref)
    regions = [(fit.DG2, 1.5 * np.sqrt(p)), (np.eye(p), 0.5)]
    monkeypatch.setattr(val, "_N_BOOT", 100)
    imp = [val.tv_importance(fit, prob, n_samples=10000, seed=2, regions=regions, workers=w)
           for w in (1, 2, 3)]
    assert imp[0] == imp[1] == imp[2] and len(imp[0].outside) == 2
    if p <= 3:
        quad = [val.tv_quadrature(fit, prob, workers=w) for w in (1, 2, 3)]
        assert quad[0] == quad[1] == quad[2]


def test_grid_in_product_order():
    zs = np.linspace(-2.0, 2.0, 5)
    for p in (1, 2, 3):
        want = np.array(list(itertools.product(zs, repeat=p)))
        assert np.array_equal(val._whitened_grid(p, 5, 2.0), want)


def test_grid_tv_matches_per_point_reference(volterra_eig):
    prob = make_problem(volterra_eig, "bernoulli", n=1000, p=2)
    fit = map_solve(prob)
    L = cholesky(fit.DG2, lower=True)
    cells = []
    for ztup in itertools.product(np.linspace(-10.0, 10.0, 64), repeat=2):
        z = np.array(ztup)
        u = solve_triangular(L, z, lower=True, trans="T")
        cells.append((-f_reference(prob, fit.theta_hat + u) + fit.f_hat, -0.5 * float(z @ z)))
    lp, lq = np.array(cells).T
    wp, wq = np.exp(lp - np.max(lp)), np.exp(lq)
    want = 0.5 * np.sum(np.abs(wp / np.sum(wp) - wq / np.sum(wq)))
    assert val._tv_on_grid(fit, prob, 64, 1) == pytest.approx(want, rel=1e-9)


def _philox(seed, stream):
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def test_bootstrap_blocks_repeat_one_draw(monkeypatch):
    n_samples, n_boot = 3000, 500
    rows = val._BOOT_BLOCK_ENTRIES // n_samples   # full blocks of this many rows, then the rest
    assert n_boot > rows and n_boot % rows
    want = _philox(0, 13).integers(0, n_samples, size=(n_boot, n_samples))
    blocks = []

    def stat(idx):
        blocks.append(idx.copy())
        return idx[:, 0].astype(float)

    val.bootstrap_ci(_philox(0, 13), n_samples, n_boot, stat, workers=1)
    assert [len(b) for b in blocks] == [rows] * (n_boot // rows) + [n_boot % rows]
    assert np.array_equal(np.concatenate(blocks), want)
    # on more workers the blocks shrink, so the indices held stay at
    # _BOOT_BLOCK_ENTRIES; the statistic is each row's first index, and the
    # values reach the percentiles in draw order
    seen = []

    def recording(*args):
        seen.append(posterior.pool_map(*args))
        return seen[-1]

    monkeypatch.setattr(val, "pool_map", recording)
    for workers in (2, 3):
        rows = val._BOOT_BLOCK_ENTRIES // workers // n_samples
        sizes = []

        def stat(idx):
            sizes.append(len(idx))
            return idx[:, 0].astype(float)

        lo_hi = val.bootstrap_ci(_philox(0, 13), n_samples, n_boot, stat, workers=workers)
        assert sorted(sizes, reverse=True) == [rows] * (n_boot // rows) + [n_boot % rows]
        assert np.array_equal(np.concatenate(seen.pop()), want[:, 0])
        assert lo_hi == tuple(np.percentile(want[:, 0], [2.5, 97.5]))


@pytest.mark.parametrize("size", [1, 2, 3, 41, 500, 501])
def test_bootstrap_percentiles_are_numpys(size):
    """bootstrap_ci's percentiles are np.percentile(v, [2.5, 97.5]) bit for bit, on
    values with ties and negative ones, and on values with a NaN among them."""
    rng = np.random.default_rng(size)
    cases = [rng.standard_normal(size), rng.integers(-3, 3, size).astype(float),
             np.round(rng.standard_normal(size), 1) * 1e-7, np.full(size, -2.5)]
    cases.append(cases[0].copy())
    cases[-1][size // 2] = np.nan
    for v in cases:
        got = val.bootstrap_ci(_philox(0, 13), 2, size, lambda idx, v=v: v[:len(idx)], 1)
        assert np.array_equal(got, np.percentile(v, [2.5, 97.5]), equal_nan=True), v


def test_bootstrap_block_size_moves_no_bit(poisson_fit, monkeypatch):
    """The importance pass (TV and outside masses) is bit-identical at 2^20 and
    2^18 resample indices per block and at one row per block, on 1, 2 and 3
    workers, with a region that has draws outside and one that has none."""
    prob, fit = poisson_fit
    n_samples, regions = 10000, [(fit.DG2, float(np.sqrt(prob.p))), (fit.DG2, 50.0)]
    runs = []
    monkeypatch.setattr(val, "_N_BOOT", 100)
    for entries in (1 << 20, 1 << 18, n_samples):
        monkeypatch.setattr(val, "_BOOT_BLOCK_ENTRIES", entries)
        runs += [val.tv_importance(fit, prob, n_samples=n_samples, seed=3,
                                   regions=regions, workers=w) for w in (1, 2, 3)]
    assert all(r == runs[0] for r in runs)
    (_, some_lo, some_hi), (empty_frac, _, _) = runs[0].outside
    assert 0.0 < some_lo < some_hi and empty_frac == 0.0


def test_importance_ci_matches_per_resample_reference(poisson_fit, monkeypatch):
    prob, fit = poisson_fit
    monkeypatch.setattr(val, "_N_BOOT", 200)
    est = val.tv_importance(fit, prob, n_samples=10000, seed=5)
    rng, Z = val.laplace_draws(fit, 10000, 5, stream=13)
    lp, lq = val.log_densities(fit, prob, Z)
    logw = lp - lq
    w = np.exp(logw - np.max(logw))
    tvs = [0.5 * np.mean(np.abs(w[i] / np.mean(w[i]) - 1.0))
           for i in rng.integers(0, 10000, size=(200, 10000))]
    lo, hi = np.percentile(tvs, [2.5, 97.5])
    assert est.ci_low == pytest.approx(max(0.0, min(lo, est.value)), rel=1e-12)
    assert est.ci_high == pytest.approx(min(1.0, max(hi, est.value)), rel=1e-12)


def test_tail_statistics_share_the_importance_pass(poisson_fit, monkeypatch):
    """Outside masses taken on the TV estimate's own draws equal the stand-alone
    tail statistic; the TV fields do not move."""
    prob, fit = poisson_fit
    p = prob.design.p
    # radii where a fair share of the draws lies outside, and one beyond all
    regions = [(fit.DG2, float(np.sqrt(p))), (np.diag(np.arange(1.0, p + 1)), 2.0),
               (fit.DG2, 50.0)]
    monkeypatch.setattr(val, "_N_BOOT", 200)
    est = val.tv_importance(fit, prob, n_samples=10000, seed=5, regions=regions)
    assert replace(est, outside=()) == val.tv_importance(fit, prob, n_samples=10000, seed=5)
    assert len(est.outside) == len(regions)
    for (D0_sq, r), got in zip(regions, est.outside):
        want = outside_mass_reference(fit, prob, D0_sq, r, 10000, 5, stream=13)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)
    assert 0.2 < est.outside[0][0] < 0.8 and est.outside[2][0] == 0.0
    # the Laplace Gaussian's side is exact, with no draws: at D_G the chi^2_p
    # tail, which the certificate's claim bounds
    claim = C.Certificate(choice=C.choice_DG(fit), effdim=float(p), tau3_sup=0.0,
                          radius=regions[0][1])
    lo, hi, refuted = claim.gaussian_mass()
    assert lo < hi <= claim.gaussian_tail and not refuted
    assert C._gaussian_tail_bracket(p, 50.0) == (0.0, 0.0)
    # empirical_outside_mass is its own draw plus the same statistic
    D0_sq, r = regions[1]
    rep = empirical_outside_mass(fit, prob, D0_sq, r, n_samples=2000, seed=5)
    np.testing.assert_allclose(rep.outside[0],
                               outside_mass_reference(fit, prob, D0_sq, r, 2000, 5, stream=11),
                               rtol=1e-12, atol=1e-15)
    # ... and reports the pass's own low-ESS flag, here at an ESS of 75
    def low(*args, **kwargs):
        return replace(val.tv_importance(*args, **kwargs), ess=75.0, low_ess=True)
    monkeypatch.setattr(concentration, "tv_importance", low)
    rep = empirical_outside_mass(fit, prob, D0_sq, r, n_samples=2000, seed=5)
    assert (rep.ess, rep.low_ess) == (75.0, True) and not est.low_ess


def test_outside_masses_match_the_theta_space_formula(poisson_fit, monkeypatch):
    """With draws outside every region, each outside fraction and its interval, taken as
    z^T W z on the whitened draws, equal the reference's ||D0 u|| on u = theta - theta_hat,
    on 1 and on 2 workers."""
    prob, fit = poisson_fit
    p = prob.design.p
    regions = [(fit.DG2, float(np.sqrt(p))), (np.diag(np.arange(1.0, p + 1) ** 2), 1.0),
               (4.0 * fit.DG2, 0.5)]
    want = [outside_mass_reference(fit, prob, D0_sq, r, 10000, 2, stream=13)
            for D0_sq, r in regions]
    assert all(0.0 < frac < 1.0 for frac, _, _ in want)
    monkeypatch.setattr(val, "_N_BOOT", 100)
    for workers in (1, 2):
        est = val.tv_importance(fit, prob, n_samples=10000, seed=2, regions=regions,
                                workers=workers)
        for got, ref in zip(est.outside, want):
            np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-15)


def test_outside_interval_is_closed_form(poisson_fit):
    """Where a share f ~ 0.06 of the mass lies outside, the outside fraction's interval
    is as wide as a 500-resample percentile bootstrap's, to 10%, and its lower end is
    the delta method's, below Wilson's; with no draw outside it is (0, Wilson's upper end)."""
    prob, fit = poisson_fit
    r = 1.5 * math.sqrt(prob.p)
    est = val.tv_importance(fit, prob, n_samples=10000, seed=5, regions=[(fit.DG2, r),
                                                                        (fit.DG2, 50.0)])
    (frac, ci_low, ci_high), none = est.outside
    lo, hi = outside_mass_bootstrap(fit, prob, fit.DG2, r, 10000, 5, 500, stream=13)
    assert 0.03 < frac < 0.1 and lo < frac < hi
    assert (ci_high - ci_low) / 2 == pytest.approx((hi - lo) / 2, rel=0.1)
    assert frac - ci_low == pytest.approx((hi - lo) / 2, rel=0.1)
    assert ci_low < val.wilson_interval(frac * est.ess, est.ess)[0]
    assert none == (0.0, 0.0, val.wilson_interval(0.0, est.ess)[1])


def test_gaussian_tail_bracket_matches_scipy():
    """The closed form (erfc, the finite sum of Q at half-integer order)
    against scipy.special at every p <= 48, at r = 0 and over radii 0.1 to 37."""
    for p in range(1, 49):
        for r in [0.0, *np.geomspace(0.1, 37.0, 41)]:
            lo, hi = C._gaussian_tail_bracket(p, float(r))
            want = gaussian_mass_bracket(p, float(r))
            assert (lo, hi) == pytest.approx(want, rel=1e-12, abs=0), (p, r)
            assert 0.0 < lo <= hi <= 1.0


def test_log_bracket_low_bounds_log_erfc():
    """The log of the bracket's lower end is log erfc(r/sqrt 2) to 1e-12
    wherever erfc is a normal float, and past that a lower bound (to the
    rounding of the exponent) within 1e-5 of it, at radii up to 1e3; there
    scipy.special.log_ndtr gives log erfc(r/sqrt 2) = log 2 + log_ndtr(-r)."""
    for r in np.linspace(0.0, 1000.0, 4001):
        want = math.log(2.0) + float(log_ndtr(-r))
        got = C._log_bracket_low(float(r))
        if math.erfc(r / math.sqrt(2.0)) >= np.finfo(float).tiny:
            assert got == pytest.approx(want, rel=1e-12), r
        else:
            assert want - 1e-5 < got <= want + 1e-15 * abs(want), r
    assert C._log_bracket_low(37.0) == math.log(math.erfc(37.0 / math.sqrt(2.0)))


def test_quadrature_grid_convergence(volterra_eig):
    prob = make_problem(volterra_eig, "poisson", n=300, p=1)
    fit = map_solve(prob)
    a = val.tv_quadrature(fit, prob, per_axis=128)
    b = val.tv_quadrature(fit, prob, per_axis=256)
    assert b.value == pytest.approx(a.value, rel=0.01)


def test_quadrature_capacity(poisson_fit, gaussian_fit):
    prob, fit = poisson_fit  # p = 4
    with pytest.raises(ValueError, match="p <= 3"):
        val.tv_quadrature(fit, prob)
    gprob, gfit = gaussian_fit  # p = 2
    with pytest.raises(ValueError):
        val.tv_quadrature(gfit, gprob, per_axis=8)


def test_importance_at_high_dimension(volterra_eig):
    """Past p = 30 the high modes are prior-dominated, so the posterior is
    Gaussian there and the weights do not degenerate: ESS stays near M."""
    prob = make_problem(volterra_eig, "poisson", n=2000, p=48, gamma=2.0)
    est = val.tv_importance(map_solve(prob), prob, n_samples=10000, seed=0)
    assert est.ess > 0.9 * est.n_points and not est.low_ess
    assert 0.0 < est.ci_low <= est.value <= est.ci_high < 0.05


def test_importance_flags_low_ess(volterra_eig):
    """A proposal centred 3 posterior SDs off the mode in three coordinates
    puts its draws where the posterior is thin: ESS < 100 is flagged, and the
    estimate is still returned."""
    prob = make_problem(volterra_eig, "poisson", n=2000, p=32, gamma=2.0)
    fit = map_solve(prob)
    theta = fit.theta_hat.copy()
    theta[:3] += 3.0 * np.sqrt(np.diag(np.linalg.inv(fit.DG2)))[:3]
    off = replace(fit, theta_hat=theta, f_hat=f_value(prob, theta))
    est = val.tv_importance(off, prob, n_samples=10000, seed=0)
    assert est.ess < 100 and est.low_ess
    assert 0.0 <= est.ci_low <= est.value <= est.ci_high <= 1.0


def test_importance_min_samples(poisson_fit):
    prob, fit = poisson_fit
    with pytest.raises(ValueError):
        val.tv_importance(fit, prob, n_samples=100)


def test_estimate_reasonable_scale(poisson_fit):
    prob, fit = poisson_fit
    est = val.tv_importance(fit, prob, n_samples=20000, seed=1)
    assert 0.0 < est.value < 0.2
    assert est.ess > 1000
    assert not est.low_ess
