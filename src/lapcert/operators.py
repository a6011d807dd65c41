"""Smoothing operator R defined by a g' + b g = f, g(0)=0, on [0,1].

Coefficients a, b are polynomials (exact symbolic derivatives); all
quadrature is composite trapezoid on the uniform grid x_i = i/N.  R, its
discrete transpose and its L2 adjoint are applied matrix-free, each in O(N)
as one running sum; no dense matrix of R is ever formed.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .model import sample_basis

MAX_POLY_DEGREE = 16


class OperatorSpecError(ValueError):
    """Invalid coefficient pair (a not positive, degree too high, ...)."""


class CapacityError(ValueError):
    """Requested more than the computed/allowed capacity."""


@dataclass(frozen=True)
class CoefficientPair:
    """Polynomial coefficients (ascending degree) for a(x), b(x) on [0,1]."""

    a_coeffs: tuple
    b_coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "a_coeffs", tuple(float(c) for c in self.a_coeffs))
        object.__setattr__(self, "b_coeffs", tuple(float(c) for c in self.b_coeffs))
        if len(self.a_coeffs) - 1 > MAX_POLY_DEGREE or len(self.b_coeffs) - 1 > MAX_POLY_DEGREE:
            raise OperatorSpecError("polynomial degree > %d" % MAX_POLY_DEGREE)
        xs = np.linspace(0.0, 1.0, 2049)
        avals = self.a(xs)
        if not np.all(np.isfinite(avals)) or avals.min() <= 0.0:
            raise OperatorSpecError("a(x) must be strictly positive on [0,1]")

    # exact polynomial evaluations; derivatives are symbolic
    def a(self, x):
        return npoly.polyval(x, self.a_coeffs)

    def b(self, x):
        return npoly.polyval(x, self.b_coeffs)

    def a1(self, x):
        return npoly.polyval(x, npoly.polyder(self.a_coeffs))

    def a2(self, x):
        return npoly.polyval(x, npoly.polyder(self.a_coeffs, 2))

    def b1(self, x):
        return npoly.polyval(x, npoly.polyder(self.b_coeffs))

    def to_dict(self) -> dict:
        return {"a": list(self.a_coeffs), "b": list(self.b_coeffs)}


VOLTERRA = CoefficientPair((1.0,), (0.0,))


def grid(N: int) -> np.ndarray:
    """Uniform grid x_i = i/N, i = 0..N."""
    return np.linspace(0.0, 1.0, N + 1)


def _check_grid(f: np.ndarray):
    f = np.asarray(f, dtype=float)
    if f.ndim != 1 or f.size < 2:
        raise ValueError("function grid must be a 1-d array of length >= 2")
    if not np.all(np.isfinite(f)):
        raise ValueError("function grid contains non-finite values")
    return f


def cumulative_trapezoid(y: np.ndarray, dx: float) -> np.ndarray:
    """Running composite-trapezoid integral of y on a uniform grid, starting at 0."""
    return np.concatenate(([0.0], np.cumsum(dx * (y[1:] + y[:-1]) / 2.0)))


def cumulative_antiderivative(spec: CoefficientPair, N: int) -> np.ndarray:
    """C(x) = int_0^x b/a on the uniform grid, C(0) = 0."""
    if N < 64:
        raise ValueError("N >= 64 required")
    x = grid(N)
    return cumulative_trapezoid(spec.b(x) / spec.a(x), 1.0 / N)


def apply_R(spec: CoefficientPair, f: np.ndarray) -> np.ndarray:
    """g(x) = e^{-C(x)} int_0^x e^{C} f / a; solves a g' + b g = f, g(0)=0."""
    f = _check_grid(f)
    N = f.size - 1
    x = grid(N)
    C = cumulative_antiderivative(spec, N)
    inner = cumulative_trapezoid(np.exp(C) * f / spec.a(x), 1.0 / N)
    return np.exp(-C) * inner


def _apply_R_transpose(spec: CoefficientPair, v: np.ndarray) -> np.ndarray:
    """M^T v for the matrix M with M f = apply_R(f): one reversed running sum.

    With u = e^{-C} v, (M^T v)_j = (e^C/a)_j (dx sum_{i>j} u_i + dx/2 u_j),
    and dx/2 sum_{i>=1} u_i at j = 0.  This is the exact transpose of the
    discrete apply_R; apply_RT, the L2 adjoint, differs at both end nodes.
    """
    v = _check_grid(v)
    N = v.size - 1
    dx = 1.0 / N
    C = cumulative_antiderivative(spec, N)
    u = np.exp(-C) * v
    after = np.concatenate((np.cumsum(u[:0:-1])[::-1], [0.0]))   # sum_{i>j} u_i
    s = dx * after + 0.5 * dx * u
    s[0] = 0.5 * dx * after[0]
    return np.exp(C) / spec.a(grid(N)) * s


def apply_RT(spec: CoefficientPair, h: np.ndarray) -> np.ndarray:
    """Adjoint: g(x) = (e^{C(x)}/a(x)) int_x^1 e^{-C} h; solves -(a g)' + b g = h, g(1)=0.

    Closed form via integrating factor on the backward ODE; validated by the
    adjointness test against apply_R.
    """
    h = _check_grid(h)
    N = h.size - 1
    x = grid(N)
    C = cumulative_antiderivative(spec, N)
    w = np.exp(-C) * h
    cum = cumulative_trapezoid(w, 1.0 / N)
    tail = cum[-1] - cum
    return np.exp(C) / spec.a(x) * tail


def trapezoid_weights(N: int) -> np.ndarray:
    w = np.full(N + 1, 1.0 / N)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def l2_inner(f: np.ndarray, g: np.ndarray) -> float:
    """Trapezoid approximation of the L2[0,1] inner product."""
    f = np.asarray(f)
    return float(np.trapezoid(f * g, dx=1.0 / (f.size - 1)))


@dataclass(frozen=True)
class DesignMatrix:
    """n x p matrix with rows R_j, R_{jk} = sqrt(lambda_k) psi_k(j/n).

    `basis_x` / `basis_rows` carry the continuum fields r(x)_k =
    sqrt(lambda_k) psi_k(x) on the eigenfunction grid (plus derivative rows),
    used by the certification stage for sup-over-x quantities.
    """

    rows: np.ndarray
    n: int
    p: int
    basis_x: np.ndarray = field(repr=False)
    basis_rows: np.ndarray = field(repr=False)  # (p, len(basis_x))
    basis_drows: np.ndarray = field(repr=False)


def assemble_design(eig, n: int, p: int) -> DesignMatrix:
    """Sample the weighted eigenbasis at j/n, j = 1..n."""
    if p > eig.lambdas.size:
        raise CapacityError("p = %d exceeds %d computed eigenpairs" % (p, eig.lambdas.size))
    root_lam = np.sqrt(eig.lambdas[:p])
    rows = sample_basis(eig, n, p) * root_lam
    basis_rows = root_lam[:, None] * eig.psi[:p]
    basis_drows = root_lam[:, None] * eig.dpsi[:p]
    return DesignMatrix(rows=rows, n=n, p=p, basis_x=eig.x,
                        basis_rows=basis_rows, basis_drows=basis_drows)
