"""Smoothing operator R defined by a g' + b g = f, g(0)=0, on [0,1].

Coefficients a, b are polynomials, a `CoefficientPair` (the config's `operator`
section); `poly`, the one evaluator, takes each and its exact derivatives by
numpy's polyval and polyder.  All quadrature is composite trapezoid on the
uniform grid x_i = i/N.  R and its discrete transpose are applied matrix-free,
each in O(N) as one running sum; no dense matrix of R is ever formed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import sample_basis

MAX_POLY_DEGREE = 16


class OperatorSpecError(ValueError):
    """Invalid coefficient pair (a not positive, degree too high, ...)."""


@dataclass(frozen=True)
class CoefficientPair:
    """Polynomial coefficients (ascending degree) of a(x), b(x) on [0,1]; the config's
    `operator` section, whose default is the Volterra operator."""

    a: tuple = (1.0,)
    b: tuple = (0.0,)

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(c) for c in self.a))
        object.__setattr__(self, "b", tuple(float(c) for c in self.b))
        if not (self.a and self.b):
            raise OperatorSpecError("a and b need at least one coefficient")
        if len(self.a) - 1 > MAX_POLY_DEGREE or len(self.b) - 1 > MAX_POLY_DEGREE:
            raise OperatorSpecError("polynomial degree > %d" % MAX_POLY_DEGREE)
        with np.errstate(all="ignore"):   # an overflow is refused below
            avals = poly(self.a, np.linspace(0.0, 1.0, 2049))
        if not np.all(np.isfinite(avals)) or avals.min() <= 0.0:
            raise OperatorSpecError("a(x) must be strictly positive on [0,1]")


def poly(coeffs: tuple, x, d: int = 0):
    """The d-th derivative at x of the polynomial with ascending coefficients `coeffs`."""
    # numpy takes the top coefficient first; polyder(p, 0) is p, and past the degree 0
    return np.polyval(np.polyder(coeffs[::-1], d), x)


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
    return cumulative_trapezoid(poly(spec.b, x) / poly(spec.a, x), 1.0 / N)


def apply_R(spec: CoefficientPair, f: np.ndarray) -> np.ndarray:
    """g(x) = e^{-C(x)} int_0^x e^{C} f / a; solves a g' + b g = f, g(0)=0."""
    f = _check_grid(f)
    N = f.size - 1
    x = grid(N)
    C = cumulative_antiderivative(spec, N)
    inner = cumulative_trapezoid(np.exp(C) * f / poly(spec.a, x), 1.0 / N)
    return np.exp(-C) * inner


def _apply_R_transpose(spec: CoefficientPair, v: np.ndarray) -> np.ndarray:
    """M^T v for the matrix M with M f = apply_R(f): one reversed running sum.

    With u = e^{-C} v, (M^T v)_j = (e^C/a)_j (dx sum_{i>j} u_i + dx/2 u_j),
    and dx/2 sum_{i>=1} u_i at j = 0.  This is the exact transpose of the
    discrete apply_R.
    """
    v = _check_grid(v)
    N = v.size - 1
    dx = 1.0 / N
    C = cumulative_antiderivative(spec, N)
    u = np.exp(-C) * v
    after = np.concatenate((np.cumsum(u[:0:-1])[::-1], [0.0]))   # sum_{i>j} u_i
    s = dx * after + 0.5 * dx * u
    s[0] = 0.5 * dx * after[0]
    return np.exp(C) / poly(spec.a, grid(N)) * s


def trapezoid_weights(N: int) -> np.ndarray:
    w = np.full(N + 1, 1.0 / N)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


@dataclass(frozen=True)
class DesignMatrix:
    """n x p matrix with rows R_j, R_{jk} = sqrt(lambda_k) psi_k(j/n)."""

    rows: np.ndarray
    n: int
    p: int


def assemble_design(eig, n: int, p: int) -> DesignMatrix:
    """Sample the weighted eigenbasis at j/n, j = 1..n, into one column-major array."""
    rows = sample_basis(eig, n, p)
    return DesignMatrix(rows=np.multiply(rows, np.sqrt(eig.lambdas[:p]), out=rows), n=n, p=p)
