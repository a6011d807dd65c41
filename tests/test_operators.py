import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid as cumulative_trapezoid_ref

from lapcert.eigensolver import cached_solve, svd_oracle
from lapcert.operators import (VOLTERRA, CapacityError, CoefficientPair,
                               OperatorSpecError, _apply_R_transpose, apply_R,
                               apply_RT, assemble_design,
                               cumulative_antiderivative, grid, l2_inner,
                               trapezoid_weights)

from conftest import SPEC_CORPUS

# a = 1 + sum c_i x^i with at most 3 terms |c_i| <= 0.33, so sum |c_i| < 1 and
# a >= 0.01 on [0, 1]; the rejection of a <= 0 is test_nonpositive_a_rejected
a_coeff_st = st.lists(st.floats(-0.33, 0.33), min_size=0, max_size=3)
b_coeff_st = st.lists(st.floats(-0.4, 0.4), min_size=0, max_size=3)


def _spec(extra_a, b):
    return CoefficientPair((1.0, *extra_a), tuple(b) or (0.0,))


def discretize_R(spec, N):
    """Dense (N+1)x(N+1) matrix M with M f_grid = apply_R(f): the reference build."""
    x = grid(N)
    dx = 1.0 / N
    C = cumulative_antiderivative(spec, N)
    # trapezoid weights for the running integral 0..x_i, causal (lower triangular)
    W = np.tril(np.full((N + 1, N + 1), dx))
    idx = np.arange(N + 1)
    W[:, 0] = 0.5 * dx
    W[idx, idx] = 0.5 * dx
    W[0, :] = 0.0
    return np.exp(-C)[:, None] * W * (np.exp(C) / spec.a(x))[None, :]


def test_volterra_is_running_integral():
    N = 1024
    x = grid(N)
    f = np.cos(3 * x)
    g = apply_R(VOLTERRA, f)
    assert np.max(np.abs(g - np.sin(3 * x) / 3)) < 1e-5


def test_apply_R_solves_ode():
    spec = CoefficientPair((1.0, 0.5), (0.1,))
    N = 2048
    x = grid(N)
    f = np.sin(2 * x) + 1.0
    g = apply_R(spec, f)
    resid = spec.a(x[1:-1]) * np.gradient(g, x)[1:-1] + spec.b(x[1:-1]) * g[1:-1] - f[1:-1]
    assert g[0] == 0.0
    assert np.max(np.abs(resid)) < 1e-3


def test_apply_RT_solves_backward_ode():
    spec = CoefficientPair((1.0, 0.5), (0.1,))
    N = 2048
    x = grid(N)
    h = np.cos(x) + 0.5
    g = apply_RT(spec, h)
    ag = spec.a(x) * g
    resid = -np.gradient(ag, x)[1:-1] + spec.b(x[1:-1]) * g[1:-1] - h[1:-1]
    assert abs(g[-1]) < 1e-12
    assert np.max(np.abs(resid)) < 1e-3


@settings(max_examples=40, deadline=None)
@given(a_coeff_st, b_coeff_st, st.integers(0, 3), st.integers(0, 3))
def test_adjointness(extra_a, b, i, j):
    """<R f, h> = <f, R^T h> in L2, for polynomial coefficient pairs."""
    spec = _spec(extra_a, b)
    N = 512
    x = grid(N)
    f = np.sin((i + 1) * np.pi * x)
    h = np.cos(j * np.pi * x)
    lhs = l2_inner(apply_R(spec, f), h)
    rhs = l2_inner(f, apply_RT(spec, h))
    assert lhs == pytest.approx(rhs, abs=1e-4, rel=1e-3)


@settings(max_examples=20, deadline=None)
@given(a_coeff_st, b_coeff_st)
def test_discretize_matches_apply(extra_a, b):
    spec = _spec(extra_a, b)
    N = 256
    x = grid(N)
    f = np.exp(-x) * np.sin(4 * x)
    M = discretize_R(spec, N)
    assert np.max(np.abs(M @ f - apply_R(spec, f))) < 1e-12


@settings(max_examples=20, deadline=None)
@given(a_coeff_st, b_coeff_st)
def test_transpose_matches_dense(extra_a, b):
    """The O(N) transpose is the dense M^T, end nodes included."""
    spec = _spec(extra_a, b)
    N = 256
    x = grid(N)
    v = np.exp(-x) * np.sin(4 * x) + 0.5
    want = discretize_R(spec, N).T @ v
    got = _apply_R_transpose(spec, v)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("spec", SPEC_CORPUS, ids=["volterra", "linear_a", "quadratic_a"])
def test_svd_oracle_matches_dense_svd(spec):
    """Lanczos on the matrix-free B B^T gives the dense weighted SVD's top
    values, and a second call repeats the first bit for bit."""
    N, K = 512, 20
    rw = np.sqrt(trapezoid_weights(N))
    B = rw[:, None] * discretize_R(spec, N) / rw[None, :]
    want = np.linalg.svd(B, compute_uv=False)[:K] ** 2
    got = svd_oracle(spec, N, K)
    assert got.method == "svd"
    assert np.max(np.abs(got.lambdas - want) / want) <= 1e-12
    again = svd_oracle(spec, N, K)
    for name in ("lambdas", "psi", "dpsi"):
        assert np.array_equal(getattr(got, name), getattr(again, name))


def test_antiderivative_linear_case():
    # b/a = 0.1/(1 + x/2): C(x) = 0.2 log(1 + x/2)
    spec = CoefficientPair((1.0, 0.5), (0.1,))
    N = 2048
    x = grid(N)
    C = cumulative_antiderivative(spec, N)
    assert np.max(np.abs(C - 0.2 * np.log1p(0.5 * x))) < 1e-8
    # the numpy running trapezoid is scipy's expression, bit for bit
    ref = cumulative_trapezoid_ref(spec.b(x) / spec.a(x), dx=1.0 / N, initial=0.0)
    assert np.array_equal(C, ref)


def test_trapezoid_weights_sum_to_one():
    w = trapezoid_weights(100)
    assert w.sum() == pytest.approx(1.0)
    assert l2_inner(np.ones(101), np.ones(101)) == pytest.approx(1.0)


def test_nonpositive_a_rejected():
    with pytest.raises(OperatorSpecError):
        CoefficientPair((1.0, -2.0), (0.0,))
    with pytest.raises(OperatorSpecError):
        CoefficientPair((0.0,), (0.0,))


def test_degree_cap():
    with pytest.raises(OperatorSpecError):
        CoefficientPair((1.0,) + (0.0,) * 17, (0.0,))


def test_svd_oracle_beyond_dense_sizes():
    """At N = 8192, where a dense (N+1)^2 matrix would take 537 MB, the oracle
    agrees with shooting at criterion 4's thresholds."""
    spec = SPEC_CORPUS[1]
    sh = cached_solve(spec, 8192, 10)
    sv = svd_oracle(spec, 8192, 10)
    assert np.max(np.abs(sh.lambdas - sv.lambdas) / sh.lambdas) <= 1e-3
    assert min(abs(l2_inner(sh.psi[k], sv.psi[k])) for k in range(10)) >= 0.999


def test_design_shapes_and_capacity(volterra_eig_small):
    des = assemble_design(volterra_eig_small, n=100, p=5)
    assert des.rows.shape == (100, 5)
    # row j samples the weighted basis at x = j/n
    k = 2
    expected = np.sqrt(volterra_eig_small.lambdas[k]) * np.interp(
        0.5, volterra_eig_small.x, volterra_eig_small.psi[k])
    assert des.rows[49, k] == pytest.approx(expected)
    with pytest.raises(CapacityError):
        assemble_design(volterra_eig_small, n=100, p=100)
