import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh

from lapcert import certification as C
from lapcert.cli import CERT_COLUMNS
from lapcert.posterior import map_solve

from conftest import make_problem
from probes import (omega_diagnostics, ortho_constant, tau3_witness, theorem_claims,
                    tightness_probe, weighting_claims)

# --- alpha / effdim, from one spectrum ---


def _alpha_effdim(D2, DG2):
    """(alpha, effdim) of D^2 against D_G^2 from C.spectrum, as certify forms them."""
    mu = C.spectrum(D2, np.linalg.cholesky(DG2))
    return math.sqrt(mu[-1]), float(np.sum(mu)) / mu[-1]


def test_alpha_identity_and_scaling(poisson_fit):
    _, fit = poisson_fit
    assert math.sqrt(C.spectrum(fit.DG2, fit.L)[-1]) == pytest.approx(1.0, abs=1e-12)
    assert math.sqrt(C.spectrum(4.0 * fit.DG2, fit.L)[-1]) == pytest.approx(2.0, rel=1e-12)


def test_alpha_gamma0_family_is_one(poisson_fit):
    prob, fit = poisson_fit
    for g0 in (0.5, 1.0, 1.5, 2.0):
        ch = C.choice_gamma0(fit, g0, prob.gamma)
        assert math.sqrt(C.spectrum(ch.D2, fit.L)[-1]) == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(ValueError):
        C.choice_gamma0(fit, 2.5, prob.gamma)


def test_alpha_generalized_eig_oracle():
    """spectrum(S, L) is the generalized spectrum of (S, L L^T), which LAPACK
    solves by its own reduction; alpha is the root of its top."""
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = int(rng.integers(2, 6))
        M = rng.normal(size=(p, p))
        DG2 = M @ M.T + np.eye(p)
        M2 = rng.normal(size=(p, p))
        D2 = M2 @ M2.T + 0.5 * np.eye(p)
        want = eigh(D2, DG2, eigvals_only=True)
        np.testing.assert_allclose(C.spectrum(D2, np.linalg.cholesky(DG2)), want, rtol=1e-10)
        assert _alpha_effdim(D2, DG2)[0] == pytest.approx(math.sqrt(want[-1]), rel=1e-10)
        assert weighting_claims(D2, DG2)[0] == pytest.approx(math.sqrt(want[-1]), rel=1e-10)


def test_effdim_examples(poisson_fit):
    _, fit = poisson_fit
    p = fit.DG2.shape[0]
    assert _alpha_effdim(fit.DG2, fit.DG2)[1] == pytest.approx(p, rel=1e-10)
    assert _alpha_effdim(3.7 * fit.DG2, fit.DG2)[1] == pytest.approx(
        _alpha_effdim(fit.DG2, fit.DG2)[1], rel=1e-10)
    # diagonal case by hand
    d = np.diag([1.0, 2.0, 4.0])
    e = np.diag([1.0, 1.0, 2.0])
    ratios = [1.0, 0.5, 0.5]
    assert _alpha_effdim(e, d)[1] == pytest.approx(sum(ratios) / max(ratios))
    assert weighting_claims(e, d)[1] == pytest.approx(sum(ratios) / max(ratios))


# --- certified tau3 ---


def test_tau3_gaussian_is_zero(gaussian_fit):
    prob, fit = gaussian_fit
    for ch in (C.choice_DG(fit), C.choice_identity(fit)):
        assert C.tau3_certified(fit, prob, ch, 5.0, C.tau3_parts(prob, ch)) == 0.0


def test_tau3_dominates_multistart_search(poisson_fit, volterra_eig):
    """The certified tau3 of D_G, D(gamma0*) and the identity, each at its
    certificate's radius, dominates tau3_witness's multistart SS-HOPM search,
    at n = 500, p = 4 and on the poisson_plateau golden's p = 16 point."""
    prob16 = make_problem(volterra_eig, "poisson", n=10000, p=16)
    for prob, fit in (poisson_fit, (prob16, map_solve(prob16))):
        for label, c in C.compare_choices(fit, prob).items():
            witness = tau3_witness(prob, fit, c.choice.D2, c.radius, starts=8, iters=60, seed=2)
            assert witness <= c.tau3_sup * (1 + 1e-9), (prob.p, label, witness / c.tau3_sup)


def test_tau3_monotone_in_gamma0(poisson_fit):
    prob, fit = poisson_fit
    vals = []
    for g0 in (0.25, 0.75, 1.25, 1.75):
        ch = C.choice_gamma0(fit, g0, prob.gamma)
        sc = C.WeightChoice(kind=ch.kind, D2=ch.D2 / C.spectrum(ch.D2, fit.L)[-1], gamma0=g0)
        vals.append(C.tau3_certified(fit, prob, sc, 4.0, C.tau3_parts(prob, sc)))
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_tau3_rejects_bad_radius(poisson_fit):
    prob, fit = poisson_fit
    ch = C.choice_DG(fit)
    with pytest.raises(ValueError):
        C.tau3_certified(fit, prob, ch, 0.0, C.tau3_parts(prob, ch))


# --- certify ---


def test_certify_gaussian_feasible_tiny_bound(gaussian_fit):
    prob, fit = gaussian_fit
    cert = C.certify(fit, prob, C.choice_DG(fit))
    assert cert.feasible
    assert cert.local_term == 0.0
    assert cert.tv_bound < 1e-6
    assert cert.alpha == pytest.approx(1.0, abs=1e-8)


def test_certify_feasible_flags_consistent(poisson_fit):
    prob, fit = poisson_fit
    for ch in (C.choice_DG(fit), C.choice_identity(fit)):
        cert = C.certify(fit, prob, ch)
        assert cert.tv_bound >= 0
        assert cert.feasible == (cert.radius * cert.tau3_sup <= 0.5)
        if cert.feasible:
            assert cert.radius >= 3 * math.sqrt(cert.effdim) + 3 - 1e-9
            assert cert.alpha == pytest.approx(1.0, abs=1e-8)
    # both conditions of the theorem: a tiny tau3 is infeasible below r = 3 sqrt(dim) + 3
    r_lo = 3 * math.sqrt(cert.effdim) + 3
    assert replace(cert, radius=r_lo, tau3_sup=1e-12).feasible
    assert not replace(cert, radius=0.99 * r_lo, tau3_sup=1e-12).feasible


@pytest.fixture(scope="module")
def infeasible_fit(volterra_eig):
    """Tiny n, large p: no grid radius of any weighting is feasible."""
    prob = make_problem(volterra_eig, "poisson", n=50, p=20, gamma=2.0)
    return prob, map_solve(prob)


@pytest.fixture(scope="module")
def feasible_fit(volterra_eig):
    """Poisson, n = 2000, p = 2: D_G and D(gamma0*) are feasible, the scaled identity is not."""
    prob = make_problem(volterra_eig, "poisson", n=2000, p=2)
    return prob, map_solve(prob)


def test_certify_infeasible_showcase(infeasible_fit):
    # reported and flagged, no exception
    prob, fit = infeasible_fit
    cert = C.certify(fit, prob, C.choice_DG(fit))
    assert not cert.feasible
    assert np.isfinite(cert.tv_bound)


@pytest.mark.parametrize("fixture, outcomes", [
    ("poisson_fit", {False}), ("infeasible_fit", {False}),
    ("feasible_fit", {True, False}), ("gaussian_fit", {True})])
def test_certify_choice_rule(fixture, outcomes, request):
    """certify returns, of every grid candidate recomputed here with
    tau3_certified, the first feasible one of least TV bound, or, if none is
    feasible, the first of least r * tau3.  The Gaussian bounds underflow to 0
    from some radius on, so there the first of equal bounds is the one kept."""
    prob, fit = request.getfixturevalue(fixture)
    seen = set()
    for label, cert in C.compare_choices(fit, prob, beta=1.0).items():
        dim, parts = cert.effdim, C.tau3_parts(prob, cert.choice)
        r_lo = 3 * math.sqrt(dim) + 3
        cands = []
        for r in np.geomspace(r_lo, max(50 * math.sqrt(dim), 2 * r_lo), C.N_RADII):
            tau = C.tau3_certified(fit, prob, cert.choice, r, parts)
            cands.append((r, tau, theorem_claims(dim, r, tau)))
        feasible = [c for c in cands if c[2]["feasible"]]
        if feasible:
            least = min(c[2]["tv_bound"] for c in feasible)
            r, tau, _ = next(c for c in feasible if c[2]["tv_bound"] == least)
        else:
            least = min(c[0] * c[1] for c in cands)
            r, tau, _ = next(c for c in cands if c[0] * c[1] == least)
        assert (cert.radius, cert.tau3_sup) == (r, tau), label
        assert cert.feasible == bool(feasible), label
        seen.add(bool(feasible))
    assert seen == outcomes


def test_gap_report_present(poisson_fit):
    prob, fit = poisson_fit
    cert = C.certify(fit, prob, C.choice_DG(fit))
    assert cert.diagnostics["gap_est"] > 0
    assert cert.diagnostics["gap_est"] < 0.01 * cert.diagnostics["A"]


@pytest.mark.parametrize("fixture", ["poisson_fit", "gaussian_fit"])
def test_certificates_state_the_theorem(fixture, request):
    """compare_choices' certificates are what the theorem states for their
    weighting, radius and tau3, to 1e-12 relative: the weighting scaled to
    alpha = 1, effdim by two routes, the radius in the theorem's domain, the
    feasibility condition, the TV bound and both tail claims."""
    prob, fit = request.getfixturevalue(fixture)
    g0s = C.gamma0_star(prob.design.n, 1.0, prob.gamma)[0]
    given = {"DG": C.choice_DG(fit), "identity": C.choice_identity(fit),
             "gamma0_star": C.choice_gamma0(fit, g0s, prob.gamma)}
    for label, cert in C.compare_choices(fit, prob, beta=1.0).items():
        alpha0 = weighting_claims(given[label].D2, fit.DG2)[0]
        np.testing.assert_allclose(cert.choice.D2, given[label].D2 / alpha0 ** 2, rtol=1e-12)
        alpha, dim, dim2 = weighting_claims(cert.choice.D2, fit.DG2)
        assert alpha == pytest.approx(1.0, rel=1e-12) and cert.alpha == pytest.approx(1.0, rel=1e-12)
        assert cert.effdim == pytest.approx(dim, rel=1e-12) == dim2
        # at cert.effdim: a radius at r_min flips posterior_tail on 1 ulp of dim
        want = theorem_claims(cert.effdim, cert.radius, cert.tau3_sup)
        assert cert.radius >= want["r_min"] * (1 - 1e-12), label
        assert cert.feasible == want["feasible"], label
        for key in ("local_term", "tail_term", "tv_bound", "posterior_tail", "gaussian_tail"):
            assert getattr(cert, key) == pytest.approx(want[key], rel=1e-12, abs=0), (label, key)


# --- S sums and gamma0* ---


def _s_sums_fraction(n, p, b2, g2, g02):
    """Rational oracle of (S_dim, S_tau^2); exponents must be even integers (2b, 2g, 2g0).

    Each term is the exact rational rounded once to a float, and math.fsum adds the
    rounded terms with one last rounding: the terms are positive, so each sum is within
    2^-52 relative of the exact one, with no common denominator (at k^162 one has
    thousands of digits)."""
    sd = math.fsum(float(Fraction(n + k ** (b2 + g02), n + k ** (b2 + g2)))
                   for k in range(1, p + 1))
    st2 = math.fsum(float(Fraction(1, n + k ** (b2 + g02))) for k in range(1, p + 1))
    return sd, st2


def test_s_sums_against_rational_oracle():
    # (n, p, beta, gamma, gamma0); in the second case k^162 reaches ~1e439,
    # which overflows a naive double evaluation of the terms
    for n, p, beta, gamma, gamma0 in ((4096, 64, 1, 2, 1), (4096, 512, 1, 80, 79)):
        sd, st2 = _s_sums_fraction(n, p, 2 * beta, 2 * gamma, 2 * gamma0)
        got_sd, got_st = C.s_sums(n, p, beta, gamma, gamma0)
        assert got_sd == pytest.approx(sd, rel=1e-12)
        assert got_st == pytest.approx(math.sqrt(st2), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(16, 100000), st.integers(2, 64),
       st.integers(1, 3), st.integers(2, 4))
def test_s_sums_rational_property(n, p, beta_i, gamma_i):
    gamma0_i = gamma_i - 1
    sd, st2 = _s_sums_fraction(n, p, 2 * beta_i, 2 * gamma_i, 2 * gamma0_i)
    got_sd, got_st = C.s_sums(n, p, beta_i, gamma_i, gamma0_i)
    assert got_sd == pytest.approx(sd, rel=1e-10)
    assert got_st ** 2 == pytest.approx(st2, rel=1e-10)


def test_s_sums_trivial_limits():
    # gamma0 = gamma: every summand is 1
    sd, _ = C.s_sums(1000, 17, 1.0, 2.0, 2.0)
    assert sd == pytest.approx(17.0, rel=1e-12)
    # S_tau <= sqrt(p/n)
    for g0 in (0.5, 1.0, 2.0):
        _, stau = C.s_sums(10 ** 6, 32, 1.0, 2.0, g0)
        assert stau <= math.sqrt(32 / 10 ** 6) + 1e-15


def test_gamma0_star_example():
    g0, m, m0 = C.gamma0_star(4096, 1.0, 2.0)
    assert m == pytest.approx(4.0, rel=1e-12)
    assert g0 == pytest.approx(2.0 - 0.5 - 1.0 / 8.0, rel=1e-12)
    assert m0 == pytest.approx(4096 ** (1 / 4.75), rel=1e-12)
    assert m0 >= m
    with pytest.raises(ValueError):
        C.gamma0_star(100, 0.25, 0.5)


def test_gamma0_star_threshold_warning():
    # beta + gamma - 1 small makes the threshold astronomically large
    with pytest.warns(UserWarning):
        C.gamma0_star(10, 1.0, 0.02)


# --- scalar sum inequalities, exact rational arithmetic ---

pos_fracs = st.fractions(min_value=Fraction(1, 100), max_value=Fraction(100))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(pos_fracs, pos_fracs, pos_fracs), min_size=1, max_size=12))
def test_split_sum_inequality(entries):
    """sum a/(b+c) is bracketed by half-sums split at the b >= c crossover."""
    entries.sort(key=lambda t: t[1] >= t[2], reverse=True)
    mid = sum(1 for t in entries if t[1] >= t[2])
    zero = Fraction(0)
    total = sum((a / (b + c) for a, b, c in entries), zero)
    lower = (sum((a / b for a, b, _ in entries[:mid]), zero) / 2
             + sum((a / c for a, _, c in entries[mid:]), zero) / 2)
    upper = (sum((a / b for a, b, _ in entries[:mid]), zero)
             + sum((a / c for a, _, c in entries[mid:]), zero))
    assert lower <= total <= upper


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.integers(2, 60), st.integers(0, 6))
def test_power_sum_bracket_alpha_above_minus_one(a, extra, alpha):
    # integral comparison for sum_{k=a}^{b} k^alpha, alpha > -1
    b = a + extra
    s = sum(Fraction(k) ** alpha for k in range(a, b + 1))
    assert Fraction(b ** (alpha + 1) - a ** (alpha + 1), alpha + 1) <= s
    assert s <= Fraction((b + 1) ** (alpha + 1), alpha + 1)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 60), st.integers(2, 8))
def test_power_sum_bracket_alpha_below_minus_one(b, neg):
    # 1 <= sum_{k=1}^{b} k^alpha <= 1 + 1/(-1-alpha) for alpha < -1
    alpha = -neg
    s = sum(Fraction(1, k ** (-alpha)) for k in range(1, b + 1))
    assert 1 <= s <= 1 + Fraction(1, -1 - alpha)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(2, 8))
def test_tail_sum_bracket(a, extra, neg):
    # tail sums of k^alpha, alpha < -1, between the two integral estimates
    alpha = -neg
    b = a + extra
    s = sum(Fraction(1, k ** (-alpha)) for k in range(a + 1, b + 1))
    lower = (Fraction(1, (a + 1) ** (-alpha - 1))
             - Fraction(1, (b + 1) ** (-alpha - 1))) / (-1 - alpha)
    upper = Fraction(1, a ** (-alpha - 1)) / (-1 - alpha)
    assert lower <= s <= upper


# --- comparisons, probes, diagnostics ---


def test_compare_choices_structure(poisson_fit):
    prob, fit = poisson_fit
    res = C.compare_choices(fit, prob, beta=1.0)
    assert set(res) == {"DG", "identity", "gamma0_star"}
    assert res["DG"].effdim == pytest.approx(prob.design.p, rel=1e-9)
    assert all(c.tv_bound > 0 for c in res.values())
    g0s, m, m0s = C.gamma0_star(prob.design.n, 1.0, prob.gamma)
    star = res["gamma0_star"]
    assert star.choice.gamma0 == g0s
    assert (star.diagnostics["m"], star.diagnostics["m0star"]) == (m, m0s) and m0s >= m
    # every diagnostic is a certificates.csv column, written as is
    for c in res.values():
        assert set(c.diagnostics) <= set(CERT_COLUMNS)
    assert set(star.diagnostics) == {"A", "B", "gap_est", "S_dim", "S_tau", "m", "m0star"}


def test_effdim_tracks_s_dim(poisson_fit):
    """dim_A(D(gamma0)) / S_dim(gamma0) stays within a stable band."""
    prob, fit = poisson_fit
    n, p = prob.design.n, prob.design.p
    ratios = []
    for g0 in (0.5, 1.0, 1.5):
        ch = C.choice_gamma0(fit, g0, prob.gamma)
        dim = _alpha_effdim(ch.D2, fit.DG2)[1]
        sd, _ = C.s_sums(n, p, 1.0, prob.gamma, g0)
        ratios.append(dim / sd)
    assert all(0.1 < r < 10 for r in ratios)
    assert max(ratios) / min(ratios) < 3


def test_sweep_synthetic_regimes():
    n = 10 ** 6
    ps = [2, 4, 8, 16, 32, 64, 128, 256, 512]
    rows = C.sweep_synthetic(n, ps, beta=1.0, gamma=2.0)
    m0 = rows[0]["m0_star"]
    plateau = [(math.log(r["p"]), math.log(r["bound_gamma0_star"]))
               for r in rows if r["p"] > m0]
    assert len(plateau) >= 2
    slope = (plateau[-1][1] - plateau[0][1]) / (plateau[-1][0] - plateau[0][0])
    assert abs(slope) < 0.1
    # growth regime p < m: squared DG bound grows like p^3
    small = [(math.log(r["p"]), 2 * math.log(r["bound_DG"]))
             for r in rows if r["p"] < rows[0]["m"]]
    if len(small) >= 2:
        slope = (small[-1][1] - small[0][1]) / (small[-1][0] - small[0][0])
        assert 2.7 <= slope <= 3.3


def test_sweep_synthetic_identity_bound_at_n_1e250():
    """At n = 1e250, p = 2 (beta = 1, gamma = 2) alpha_I^3 = 8e-375 is below the floats, yet
    the identity bound is its closed form dim_I tau_I = 1.25 (4/n)^1.5 n 1.25^1.5 (it read 0)."""
    (row,) = C.sweep_synthetic(1e250, [2], beta=1.0, gamma=2.0)
    assert row["bound_identity"] == pytest.approx(10 * 1.25 ** 1.5 / 1e125, rel=1e-12, abs=0)


def test_ortho_constant_riemann_p1(volterra_eig):
    # p=1: |Psi_11 - n| is a Riemann sum error, bounded by ||(psi_1^2)'||_inf
    n = 500
    c = ortho_constant(volterra_eig, n, 1, 3.5)
    psi1, dpsi1 = volterra_eig.psi[0], volterra_eig.dpsi[0]
    bound = np.max(np.abs(2 * psi1 * dpsi1))
    assert c <= bound


def test_ortho_constant_bounded(volterra_eig):
    vals = [ortho_constant(volterra_eig, n, p, 3.5)
            for n in (200, 800, 3200) for p in (8, 20, 50)]
    assert max(vals) / min(vals) < 3


def test_tightness_probe_cosine():
    for n in (2 ** 10, 2 ** 14):
        out = tightness_probe(n, p=32, beta=1.0, gamma0=1.25)
        assert 0.0 < out["lower"] <= out["upper"] * (1 + 1e-9)
        assert out["ratio"] > 0.01
        # identity witness: cubic sum at e1 scales with n
        assert out["identity_cubic_sum_e1"] > 0.5 * n


def test_omega_chain(poisson_fit):
    prob, fit = poisson_fit
    out = omega_diagnostics(fit, prob, C.choice_DG(fit), r=3.0, samples=50, seed=0)
    assert out["chain_ok"]
    assert out["tau3_est"] <= out["tau3_cert"] + 1e-12


def test_omega_gaussian_zero(gaussian_fit):
    prob, fit = gaussian_fit
    out = omega_diagnostics(fit, prob, C.choice_DG(fit), r=3.0, samples=20, seed=0)
    assert out["omega_est"] < 1e-9
    assert out["omega3_est"] < 1e-9


def test_omega_third_condition_at_certificate(gaussian_fit):
    prob, fit = gaussian_fit
    cert = C.certify(fit, prob, C.choice_DG(fit))
    if cert.feasible:
        out = omega_diagnostics(fit, prob, cert.choice, r=cert.radius,
                                samples=30, seed=1)
        assert out["omega_est"] <= 1.0 / 3.0
