import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lapcert.model import TruthSpec, exp_family, generate
from lapcert.operators import assemble_design
from lapcert.posterior import Problem, f_value, grad, hessian, map_solve

from conftest import make_problem
from probes import third_directional


def _rand_small_problem(eig, rng, family=None):
    family = family or rng.choice(["poisson", "gaussian", "bernoulli"])
    n = int(rng.integers(20, 80))
    p = int(rng.integers(1, 6))
    gamma = float(rng.uniform(0.5, 3.0))
    seed = int(rng.integers(0, 2 ** 31))
    return make_problem(eig, family, n=n, p=p, gamma=gamma, seed=seed)


def test_derivatives_match_finite_differences(volterra_eig_small):
    """Gradient, Hessian, and third directional derivative on 100 random instances."""
    rng = np.random.default_rng(0)
    for _ in range(100):
        prob = _rand_small_problem(volterra_eig_small, rng)
        p = prob.design.p
        theta = rng.normal(scale=0.3, size=p)
        v = rng.normal(size=p)
        eps = 1e-5

        g = grad(prob, theta)
        fd_g = np.array([
            (f_value(prob, theta + eps * np.eye(p)[k])
             - f_value(prob, theta - eps * np.eye(p)[k])) / (2 * eps)
            for k in range(p)])
        assert np.max(np.abs(g - fd_g)) < 1e-5 * (1 + np.max(np.abs(fd_g)))

        H = hessian(prob, theta)
        fd_H = np.array([
            (grad(prob, theta + eps * np.eye(p)[k])
             - grad(prob, theta - eps * np.eye(p)[k])) / (2 * eps)
            for k in range(p)])
        assert np.max(np.abs(H - fd_H)) < 1e-4 * (1 + np.max(np.abs(fd_H)))

        t3 = third_directional(prob, theta, v)
        fd_t3 = float(v @ ((hessian(prob, theta + eps * v)
                            - hessian(prob, theta - eps * v)) / (2 * eps)) @ v)
        assert t3 == pytest.approx(fd_t3, rel=1e-3, abs=1e-5)


def test_gaussian_map_is_ridge_solution(gaussian_fit):
    prob, fit = gaussian_fit
    R, y = prob.design.rows, prob.data.y
    direct = np.linalg.solve(R.T @ R + np.diag(prob.g2), R.T @ y)
    assert np.max(np.abs(fit.theta_hat - direct)) < 1e-10
    assert fit.newton_iters <= 2


def test_map_stationarity_and_descent(poisson_fit):
    prob, fit = poisson_fit
    assert np.linalg.norm(grad(prob, fit.theta_hat)) < 1e-6
    assert fit.f_hat <= f_value(prob, np.zeros(prob.design.p))
    # hess_L excludes the prior block; DG2 includes it
    assert np.allclose(fit.DG2 - fit.hess_L, np.diag(prob.g2))
    lam = np.linalg.eigvalsh(fit.DG2)
    assert lam[0] > 0


def test_map_converges_from_far_start(poisson_fit):
    prob, fit = poisson_fit
    theta0 = np.full(prob.design.p, 2.0)
    fit2 = map_solve(prob, theta0=theta0)
    assert np.max(np.abs(fit2.theta_hat - fit.theta_hat)) < 1e-6


def test_rq_sup_matches_signal(poisson_fit):
    prob, fit = poisson_fit
    field = sum(fit.theta_hat[k] * np.sqrt(prob.eig.lambdas[k]) * prob.eig.psi[k]
                for k in range(prob.design.p))
    assert fit.rq_sup == pytest.approx(np.max(np.abs(field)))
    # the design-point maximum is a lower bound for the knot maximum
    assert np.max(np.abs(prob.design.rows @ fit.theta_hat)) <= fit.rq_sup + 1e-12


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_map_deterministic(volterra_eig_small, seed):
    # pure function of the dataset: same inputs, same fit
    prob = make_problem(volterra_eig_small, "poisson", n=40, p=3, seed=seed)
    f1 = map_solve(prob)
    f2 = map_solve(prob)
    assert np.array_equal(f1.theta_hat, f2.theta_hat)


def test_map_converges_when_decrease_is_below_rounding(volterra_eig_small):
    # near the optimum the Newton decrease falls below the rounding of f; the
    # line search must still take the full step instead of creeping to the cap
    prob = make_problem(volterra_eig_small, "poisson", n=40, p=3, seed=1263)
    fit = map_solve(prob)
    assert fit.newton_iters < 20
    assert fit.grad_norm < 1e-9 * (1.0 + abs(fit.f_hat))


def test_bernoulli_fit_runs(volterra_eig_small):
    prob = make_problem(volterra_eig_small, "bernoulli", n=200, p=3)
    fit = map_solve(prob)
    assert fit.grad_norm < 1e-6
    assert set(np.unique(prob.data.y)).issubset({0.0, 1.0})
