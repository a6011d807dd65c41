import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from lapcert.model import TruthSpec, exp_family, generate
from lapcert.operators import assemble_design
from lapcert import posterior
from lapcert.posterior import (Problem, derivatives, f_value, f_values, map_solve, pool_map,
                               tri_solve)

from conftest import make_problem
from probes import f_reference, third_directional


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

        g, hL = derivatives(prob, theta)
        fd_g = np.array([
            (f_reference(prob, theta + eps * np.eye(p)[k])
             - f_reference(prob, theta - eps * np.eye(p)[k])) / (2 * eps)
            for k in range(p)])
        assert np.max(np.abs(g - fd_g)) < 1e-5 * (1 + np.max(np.abs(fd_g)))

        H = hL + np.diag(prob.g2)
        fd_H = np.array([
            (derivatives(prob, theta + eps * np.eye(p)[k])[0]
             - derivatives(prob, theta - eps * np.eye(p)[k])[0]) / (2 * eps)
            for k in range(p)])
        assert np.max(np.abs(H - fd_H)) < 1e-4 * (1 + np.max(np.abs(fd_H)))

        t3 = third_directional(prob, theta, v)
        fd_t3 = float(v @ ((derivatives(prob, theta + eps * v)[1]
                            - derivatives(prob, theta - eps * v)[1]) / (2 * eps)) @ v)
        assert t3 == pytest.approx(fd_t3, rel=1e-3, abs=1e-5)


def test_problem_requires_eig(volterra_eig_small):
    """The sup-over-x fields of the fit and the certificate come from the
    eigensystem, so a Problem cannot be built without one."""
    prob = make_problem(volterra_eig_small, n=50, p=2)
    with pytest.raises(TypeError, match="eig"):
        Problem(design=prob.design, data=prob.data, family=prob.family, gamma=prob.gamma)


def test_kernel_terms_hold_no_second_design(volterra_eig_small):
    """The kernel's contiguous R^T is a view of the assembled design's rows, so a run
    holds the n x p design once."""
    prob = make_problem(volterra_eig_small, n=300, p=5)
    Rt = prob.kernel_terms[0]
    assert Rt.flags.c_contiguous and np.shares_memory(Rt, prob.design.rows)
    assert np.array_equal(Rt, prob.design.rows.T)


def test_gaussian_map_is_ridge_solution(gaussian_fit):
    prob, fit = gaussian_fit
    R, y = prob.design.rows, prob.data.y
    direct = np.linalg.solve(R.T @ R + np.diag(prob.g2), R.T @ y)
    assert np.max(np.abs(fit.theta_hat - direct)) < 1e-10
    assert fit.newton_iters <= 2


def test_map_stationarity_and_descent(poisson_fit):
    prob, fit = poisson_fit
    assert np.linalg.norm(derivatives(prob, fit.theta_hat)[0]) < 1e-6
    assert fit.f_hat <= f_value(prob, np.zeros(prob.design.p))
    # hess_L excludes the prior block; DG2 includes it
    assert np.allclose(fit.DG2 - fit.hess_L, np.diag(prob.g2))
    lam = np.linalg.eigvalsh(fit.DG2)
    assert lam[0] > 0


def test_f_hat_is_the_kernels_value(volterra_eig, poisson_fit, gaussian_fit):
    """f_value is the one-row call of f_values, so the Newton fit's f_hat is
    the kernel's value at theta_hat bit for bit, in every family."""
    bernoulli = make_problem(volterra_eig, "bernoulli", n=1500, p=3)
    for prob, fit in (poisson_fit, gaussian_fit, (bernoulli, map_solve(bernoulli))):
        assert fit.f_hat == f_values(prob, fit.theta_hat[None], 1)[0]
        assert fit.f_hat == f_value(prob, fit.theta_hat)
        assert fit.f_hat == pytest.approx(f_reference(prob, fit.theta_hat), rel=1e-12)


def test_fit_is_its_last_newton_iterate(poisson_fit, gaussian_fit):
    """The fit's derivatives and Cholesky factor are those of theta_hat, bit for bit."""
    for prob, fit in (poisson_fit, gaussian_fit):
        g, hL = derivatives(prob, fit.theta_hat)
        assert np.array_equal(fit.hess_L, hL)
        assert np.array_equal(fit.DG2, hL + np.diag(prob.g2))
        assert np.array_equal(fit.L, np.linalg.cholesky(fit.DG2))
        assert fit.grad_norm == float(np.linalg.norm(g))


@pytest.mark.parametrize("p", [1, 2, 8, 48])
@pytest.mark.parametrize("trans", [False, True])
def test_tri_solve_matches_lapack_in_place(p, trans):
    """tri_solve is LAPACK's triangular solve to 1e-13 of the solution's
    size, for 1-D and 2-D B and for the transposed view of a row-major (m, p)
    array, and it writes into B's own memory."""
    rng = np.random.default_rng(p)
    M = rng.normal(size=(p, p))
    L = np.linalg.cholesky(M @ M.T + p * np.eye(p))
    for B in (rng.normal(size=p), rng.normal(size=(p, 5)), rng.normal(size=(7, p)).T):
        want = solve_triangular(L, B, lower=True, trans="T" if trans else "N")
        base = B.base if B.base is not None else B
        before = base.copy()
        got = tri_solve(L, B, trans)
        assert got is B and not np.array_equal(base, before)
        # relative to the largest entry: single entries may cancel at p = 48
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))


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


@pytest.mark.parametrize("amplitude, p", [(10.0, 2), (20.0, 6)])
def test_map_converges_on_near_separable_bernoulli(volterra_eig, amplitude, p):
    """Near-separable Bernoulli data (n = 5000, seed 0; amplitude 10 at p = 2 is
    the default config at that amplitude): |f| ~ 430-730 while its terms, sum h
    and y's = theta (R^T y), reach 2-3e4 each.  The line search's rounding floor
    must scale with the terms: one scaled by |f| alone lets Armijo test a
    decrease below f's rounding, and the step halves until the iteration cap."""
    prob = make_problem(volterra_eig, "bernoulli", n=5000, p=p, seed=0,
                        truth=TruthSpec(p_star=8, amplitude=amplitude))
    fit = map_solve(prob)
    assert fit.newton_iters < 20
    assert fit.grad_norm <= 1e-9 * (1.0 + abs(fit.f_hat))


def test_bernoulli_fit_runs(volterra_eig_small):
    prob = make_problem(volterra_eig_small, "bernoulli", n=200, p=3)
    fit = map_solve(prob)
    assert fit.grad_norm < 1e-6
    assert set(np.unique(prob.data.y)).issubset({0.0, 1.0})


@pytest.mark.parametrize("family", ["poisson", "gaussian", "bernoulli"])
def test_kernel_holds_one_tile_buffer_per_worker(volterra_eig, family):
    """Two workers, each holding its buffer at once (they meet at a barrier in
    hsum): f_values allocates one (rows, cols) tile buffer per worker for every
    family, each hsum working in S's own memory (tracemalloc peak, within half a
    tile; Bernoulli's adds only its (rows, 256) group product)."""
    base = make_problem(volterra_eig, family, n=4096, p=2)
    barrier, waited = threading.Barrier(2, timeout=60), threading.local()

    def hsum(S, bound):   # a thread's first tile waits until the other has its buffer too
        if not getattr(waited, "done", False):
            waited.done = True
            barrier.wait()
        return base.family.hsum(S, bound)

    prob = replace(base, family=replace(base.family, hsum=hsum))
    prob.kernel_terms   # cached before the window opens
    rows = posterior._CHUNK_ENTRIES // 4096   # the tile is one row block of 4096 columns
    Theta = np.random.default_rng(0).uniform(-0.1, 0.1, (2 * rows, 2))   # one block a worker
    tile = rows * 4096 * 8
    tracemalloc.start()
    try:
        got = f_values(prob, Theta, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, f_values(base, Theta, 1))
    assert 2 * tile <= peak <= 2.5 * tile, (peak, tile)


def test_pool_map_order_errors_and_items_held():
    """More workers than cores and a short switch interval: results are in
    item order, the error raised is the first failing item's, and at most
    `workers` items are drawn and unfinished at any time."""
    lock = threading.Lock()
    state = {}

    def items(k):
        for i in range(k):
            with lock:
                state["drawn"] += 1
                state["held"] = max(state["held"], state["drawn"] - state["done"])
            yield i

    def square(i):
        time.sleep(0.0005 * (i % 3))
        with lock:
            state["done"] += 1
        if state["fail"] and i in (5, 9):
            time.sleep(0.02 if i == 5 else 0.0)   # item 9 fails first
            raise ValueError("item %d" % i)
        return i * i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3, 8):
            state.update(drawn=0, done=0, held=0, fail=False)
            assert pool_map(square, items(40), workers) == [i * i for i in range(40)]
            assert state["held"] <= workers
            state["fail"] = True
            with pytest.raises(ValueError, match="item 5"):
                pool_map(square, items(40), workers)
    finally:
        sys.setswitchinterval(interval)


def test_pool_map_takes_no_item_after_a_failure():
    """Item 5 fails at once while every other item takes 20 ms: no worker takes
    an item once the failure is recorded, so an endless iterator is drawn only
    to item 5 and the items the other workers took before it failed."""
    drawn = []

    def items():
        while True:
            drawn.append(len(drawn))
            yield drawn[-1]

    def slow(i):
        if i == 5:
            raise ValueError("item 5")
        time.sleep(0.02)

    for workers in (1, 2, 3):
        drawn.clear()
        with pytest.raises(ValueError, match="item 5"):
            pool_map(slow, items(), workers)
        assert 6 <= len(drawn) <= 5 + workers


def test_pool_map_raises_the_iterators_failure():
    """An exception raised by the iterator reaches the caller, after the items
    drawn before it have run and with no thread left behind; an item that fails
    before the iterator does is the one raised."""
    done = []

    def items(k):
        yield from range(k)
        raise KeyError("iterator")

    def record(i):
        time.sleep(0.001)
        done.append(i)
        return i

    threads = threading.active_count()
    for workers in (1, 2, 3):
        done.clear()
        with pytest.raises(KeyError, match="iterator"):
            pool_map(record, items(7), workers)
        assert sorted(done) == list(range(7)) and threading.active_count() == threads

    def slow_fail(i):
        time.sleep(0.02 * (i == 1))
        if i == 1:
            raise ValueError("item 1")

    for workers in (2, 3):
        with pytest.raises(ValueError, match="item 1"):
            pool_map(slow_fail, items(2), workers)


def test_one_row_starts_no_pool(poisson_fit, monkeypatch):
    """A one-row call runs on the calling thread at any worker count: the
    Newton fit, whose line search evaluates f a row at a time, converges to
    the same fit with every thread refused; two row blocks on two workers
    start one."""
    def refuse(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading, "Thread", refuse)
    prob, fit = poisson_fit
    again = map_solve(prob)
    assert np.array_equal(again.theta_hat, fit.theta_hat) and again.f_hat == fit.f_hat
    assert f_values(prob, fit.theta_hat[None], 8)[0] == fit.f_hat
    two_blocks = np.tile(fit.theta_hat, (posterior._CHUNK_ENTRIES // prob.design.n + 1, 1))
    with pytest.raises(AssertionError, match="thread was started"):
        f_values(prob, two_blocks, 2)
