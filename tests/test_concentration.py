"""The certificate's tail claims, `Certificate.gaussian_tail` and
`.posterior_tail`, against the Laplace Gaussian's exact mass outside an
ellipsoid (`.gaussian_mass`) and the posterior mass as the benchmark probe's
entry `concentration.empirical_outside_mass` estimates it."""
import math

import numpy as np
import pytest

from lapcert import certification as C
from lapcert.concentration import empirical_outside_mass
from lapcert.posterior import tri_solve
from lapcert.validation import laplace_draws, tv_importance, wilson_interval

from probes import weighting_claims


def _claims(effdim: float, radius: float, p: int = 1) -> C.Certificate:
    """A certificate at (effdim, radius) for p modes; its tau3 enters no tail claim."""
    return C.Certificate(choice=C.WeightChoice("DG", np.eye(p)), effdim=effdim, tau3_sup=0.0,
                         radius=radius)


def test_gaussian_tail_values():
    # exp(-t^2 / 2) at t = max(0, r - sqrt(dim)): 1 up to r = sqrt(dim), not only at it
    assert _claims(1.0, 1.0).gaussian_tail == 1.0
    assert _claims(1.0, 0.5).gaussian_tail == 1.0
    assert _claims(1.0, 4.0).log_gaussian_tail == -4.5
    assert _claims(1.0, 4.0).gaussian_tail == pytest.approx(math.exp(-4.5))


def test_gaussian_tail_monte_carlo():
    # dim=1: P(|Z| > 1 + t) <= e^{-t^2/2}
    rng = np.random.default_rng(0)
    z = np.abs(rng.standard_normal(10 ** 6))
    for t in (1.0, 2.0, 3.0):
        frac = np.mean(z > 1.0 + t)
        assert frac <= _claims(1.0, 1.0 + t).gaussian_tail


def test_quadratic_form_deviation_bound():
    # P(g' B g - dim > 2 v sqrt(x) + 2 x) <= e^{-x} with v^2 = Tr(B^2), ||B||=1
    rng = np.random.default_rng(1)
    B = np.diag([1.0, 0.5, 0.25])
    dim, v = np.trace(B), math.sqrt(np.trace(B @ B))
    g = rng.standard_normal((10 ** 6, 3))
    q = np.sum(g * (g @ B), axis=1)
    for x in (1.0, 2.0, 4.0):
        frac = np.mean(q - dim > 2 * v * math.sqrt(x) + 2 * x)
        assert frac <= math.exp(-x)


def test_posterior_tail_bound_values():
    dim = 4.0
    r0 = 3.0 + 3.0 * math.sqrt(dim)
    assert _claims(dim, r0).posterior_tail == pytest.approx(math.exp(-3.0) / 3.0)
    assert _claims(dim, r0 - 0.5).posterior_tail == 1.0  # below critical radius
    rs = np.linspace(r0, r0 + 10, 20)
    vals = [_claims(dim, r).posterior_tail for r in rs]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert all(0.0 <= v <= 1.0 for v in vals)


def test_wilson_interval_basic():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and 0.0 < hi < 0.05
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi


def test_outside_mass_extremes(poisson_fit):
    prob, fit = poisson_fit
    at0 = empirical_outside_mass(fit, prob, fit.DG2, r=0.0, n_samples=1000, seed=0).outside[0]
    assert C._gaussian_tail_bracket(prob.design.p, 0.0) == (1.0, 1.0)
    assert at0[0] == pytest.approx(1.0)
    frac, _, ci_high = empirical_outside_mass(fit, prob, fit.DG2, r=100.0, n_samples=1000,
                                              seed=0).outside[0]
    assert C._gaussian_tail_bracket(prob.design.p, 100.0) == (0.0, 0.0)
    assert frac == 0.0 and ci_high < 0.02


def test_gaussian_family_weights_unit(gaussian_fit):
    # exact Laplace fit: importance weights are constant, so the posterior
    # fraction equals the plain fraction of its draws (stream 11) outside,
    # and its interval holds the exact Gaussian mass, the chi^2_p tail at D_G
    prob, fit = gaussian_fit
    rep = empirical_outside_mass(fit, prob, fit.DG2, r=1.5, n_samples=2000, seed=3)
    frac, ci_low, ci_high = rep.outside[0]
    _, Z = laplace_draws(fit, 2000, 3, stream=11)
    U = tri_solve(fit.L, Z.T, trans=True).T   # u = L^{-T} z
    plain = np.mean(np.sqrt(np.sum(U * (U @ fit.DG2), axis=1)) > 1.5)
    assert frac == pytest.approx(plain, abs=1e-10)
    exact = C._gaussian_tail_bracket(prob.design.p, 1.5)[1]
    assert ci_low <= exact <= ci_high
    assert rep.ess == pytest.approx(2000, rel=1e-6)


def test_bounds_dominate_empirical(poisson_fit):
    prob, fit = poisson_fit
    p = prob.design.p
    dim = weighting_claims(fit.DG2, fit.DG2)[1]
    for r in np.linspace(math.sqrt(p), 3 + 3 * math.sqrt(p) + 2, 6):
        _, ci_low, _ = empirical_outside_mass(fit, prob, fit.DG2, r=float(r),
                                              n_samples=2000, seed=5).outside[0]
        c = _claims(dim, float(r), p)
        # at D_G the upper end of the bracket is the exact Gaussian mass
        lo, hi, refuted = c.gaussian_mass()
        assert (lo, hi) == C._gaussian_tail_bracket(p, float(r))
        assert lo <= hi <= c.gaussian_tail and not refuted
        assert ci_low <= c.posterior_tail


def test_min_samples_enforced(poisson_fit):
    prob, fit = poisson_fit
    with pytest.raises(ValueError):
        empirical_outside_mass(fit, prob, fit.DG2, r=1.0, n_samples=10)


def test_probe_is_one_call_of_tv_importance(poisson_fit):
    """The probe is `tv_importance` on stream 11 with U(D0, r) as its one region, field
    for field; `tv_importance` refuses 999 draws and accepts 1,000."""
    prob, fit = poisson_fit
    D0_sq, r = np.diag(np.arange(1.0, prob.p + 1)), 2.0
    assert (empirical_outside_mass(fit, prob, D0_sq, r, 2000, 5)
            == tv_importance(fit, prob, 2000, 5, [(D0_sq, r)], stream=11))
    with pytest.raises(ValueError, match="1000"):
        tv_importance(fit, prob, 999)
    assert tv_importance(fit, prob, 1000).n_points == 1000
