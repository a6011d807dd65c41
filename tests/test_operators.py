"""The smoothing operator R: its O(N) matrix-free apply, its exact discrete transpose,
design matrices and coefficient checks.  At small N the dense matrix of R is the
reference for the apply, the transpose and the SVD oracle."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly
from scipy.integrate import cumulative_trapezoid as cumulative_trapezoid_ref

from lapcert.eigensolver import cached_solve, svd_oracle
from lapcert.model import ModelError, TruthSpec, exp_family, generate
from lapcert.operators import (VOLTERRA, CoefficientPair,
                               OperatorSpecError, _apply_R_transpose, apply_R,
                               assemble_design, cumulative_antiderivative, grid,
                               poly, trapezoid_weights)

from conftest import SPEC_CORPUS
from probes import l2_inner

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
    return np.exp(-C)[:, None] * W * (np.exp(C) / poly(spec.a, x))[None, :]


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
    a, b = poly(spec.a, x[1:-1]), poly(spec.b, x[1:-1])
    resid = a * np.gradient(g, x)[1:-1] + b * g[1:-1] - f[1:-1]
    assert g[0] == 0.0
    assert np.max(np.abs(resid)) < 1e-3


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
    ref = cumulative_trapezoid_ref(poly(spec.b, x) / poly(spec.a, x), dx=1.0 / N, initial=0.0)
    assert np.array_equal(C, ref)


def test_trapezoid_weights_sum_to_one():
    w = trapezoid_weights(100)
    assert w.sum() == pytest.approx(1.0)
    assert l2_inner(np.ones(101), np.ones(101)) == pytest.approx(1.0)


@pytest.mark.parametrize("degree", range(17))
def test_coefficients_evaluate_as_numpy_polynomial(degree):
    """poly of a or b and of their first and second derivatives equals numpy.polynomial's
    polyval of the coefficients and of their polyder bit for bit, at every degree the
    specs allow, on the 2049-point positivity grid, on grid(4096) and at x = 1, a
    constant's zero derivatives included."""
    rng = np.random.default_rng(degree)
    # a >= 2 - 0.5 > 0 on [0, 1]; b spans six decades
    a = (2.0 + abs(rng.standard_normal()),) + tuple(rng.uniform(-1, 1, degree) / (2 * degree or 1))
    b = tuple(rng.standard_normal(degree + 1) * 10.0 ** rng.integers(-3, 4, degree + 1))
    spec = CoefficientPair(a, b)
    for x in (np.linspace(0.0, 1.0, 2049), grid(4096), 1.0):
        for coeffs, c in ((spec.a, a), (spec.b, b)):
            for m in range(3):
                want = npoly.polyval(x, npoly.polyder(c, m) if m else c)
                assert np.array_equal(np.float64(poly(coeffs, x, m)).view(np.uint64),
                                      np.float64(want).view(np.uint64)), (c, m, x)


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
    # more modes than held: sample_basis refuses for the design as for the data
    with pytest.raises(ModelError, match="100 modes exceed the 30 eigenfunctions held"):
        assemble_design(volterra_eig_small, n=100, p=100)
    with pytest.raises(ModelError, match="31 modes exceed the 30 eigenfunctions held"):
        generate(volterra_eig_small, exp_family("poisson"), TruthSpec(p_star=31), 100, 1)
