"""Exponential-family observation model and synthetic data generation.

Observations follow rho(dy|s) = exp(s y - h(s)) mu(dy) with natural
parameter s_j = (R q*)(j/n).  Sampling uses the counter-based Philox
generator with one substream per observation index, keyed by (seed, j),
so datasets are reproducible regardless of execution order or threading.
Poisson variates are drawn by sequential inversion below rate 30 and by
the PTRS transformed-rejection method above (documented here so the
stream is pinned independent of numpy internals).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class ExpFamily:
    kind: str
    h: Callable
    h1: Callable
    h2: Callable
    h3: Callable
    d3_envelope: Callable          # K -> sup_{|t|<=K} |h'''(t)|
    sampler: Callable              # (s, rng) -> observation


def _poisson_inversion(lam: float, rng) -> int:
    u = rng.random()
    p = math.exp(-lam)
    F = p
    k = 0
    while u > F:
        k += 1
        p *= lam / k
        F += p
        if k > 10_000_000:  # pragma: no cover
            raise ModelError("poisson inversion runaway at rate %g" % lam)
    return k


def _poisson_ptrs(lam: float, rng) -> int:
    # Hormann (1993) PTRS, valid for lam >= 10; we use it above 30
    loglam = math.log(lam)
    b = 0.931 + 2.53 * math.sqrt(lam)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    while True:
        u = rng.random() - 0.5
        v = rng.random()
        us = 0.5 - abs(u)
        k = math.floor((2.0 * a / us + b) * u + lam + 0.43)
        if us >= 0.07 and v <= v_r:
            return int(k)
        if k < 0 or (us < 0.013 and v > us):
            continue
        if (math.log(v) + math.log(inv_alpha) - math.log(a / (us * us) + b)
                <= -lam + k * loglam - math.lgamma(k + 1.0)):
            return int(k)


def sample_poisson(lam: float, rng) -> int:
    if not np.isfinite(lam) or lam > 1e15:
        raise ModelError("poisson rate overflow (e^s too large); reduce the "
                         "truth amplitude A")
    if lam < 30.0:
        return _poisson_inversion(lam, rng)
    return _poisson_ptrs(lam, rng)


def _bernoulli_h3_envelope(K: float) -> float:
    # |h'''| = sigma(1-sigma)|1-2sigma| peaks at sigma=(3-sqrt3)/6, i.e.
    # |s| = log((3+sqrt3)/(3-sqrt3)); below that the max sits at the endpoint
    s_star = math.log((3.0 + math.sqrt(3.0)) / (3.0 - math.sqrt(3.0)))
    if K >= s_star:
        return 1.0 / (6.0 * math.sqrt(3.0))
    sig = 1.0 / (1.0 + math.exp(-K))
    return sig * (1.0 - sig) * abs(1.0 - 2.0 * sig)


def exp_family(kind: str) -> ExpFamily:
    if kind == "poisson":
        return ExpFamily(
            kind="poisson",
            h=np.exp, h1=np.exp, h2=np.exp, h3=np.exp,
            d3_envelope=lambda K: math.exp(K),
            sampler=lambda s, rng: sample_poisson(math.exp(s), rng),
        )
    if kind == "gaussian":
        return ExpFamily(
            kind="gaussian",
            h=lambda s: 0.5 * np.asarray(s, dtype=float) ** 2,
            h1=lambda s: np.asarray(s, dtype=float),
            h2=lambda s: np.ones_like(np.asarray(s, dtype=float)),
            h3=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
            d3_envelope=lambda K: 0.0,
            sampler=lambda s, rng: s + rng.standard_normal(),
        )
    if kind == "bernoulli":
        def h(s):
            # the log(1 + e^s) split logaddexp uses, in vectorized exp/log1p
            s = np.asarray(s, dtype=float)
            return np.maximum(s, 0.0) + np.log1p(np.exp(-np.abs(s)))

        def h1(s):
            return 1.0 / (1.0 + np.exp(-np.asarray(s, dtype=float)))

        def h2(s):
            sg = h1(s)
            return sg * (1.0 - sg)

        def h3(s):
            sg = h1(s)
            return sg * (1.0 - sg) * (1.0 - 2.0 * sg)

        return ExpFamily(
            kind="bernoulli", h=h, h1=h1, h2=h2, h3=h3,
            d3_envelope=_bernoulli_h3_envelope,
            sampler=lambda s, rng: int(rng.random() < 1.0 / (1.0 + math.exp(-s))),
        )
    raise ModelError("unknown family kind %r" % kind)


@dataclass(frozen=True)
class TruthSpec:
    """Ground-truth coefficients theta*_k = A (-1)^{k+1} k^{-s}."""

    p_star: int
    amplitude: float = 0.5
    decay: float = 2.0
    explicit: tuple | None = None

    def theta(self) -> np.ndarray:
        if self.explicit is not None:
            th = np.asarray(self.explicit, dtype=float)
            if th.size != self.p_star or not np.all(np.isfinite(th)):
                raise ModelError("explicit truth has wrong length or non-finite entries")
            return th
        k = np.arange(1, self.p_star + 1)
        return self.amplitude * (-1.0) ** (k + 1) * k ** (-self.decay)


@dataclass(frozen=True)
class Dataset:
    y: np.ndarray
    s_true: np.ndarray
    seed: int
    kind: str

    @property
    def n(self) -> int:
        return self.y.size


def _substream(seed: int, j: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, j], dtype=np.uint64)))


def signal_sup_norm(eig, theta: np.ndarray) -> float:
    """sup_x |sum_k theta_k sqrt(lambda_k) psi_k(x)| on the eigenfunction grid.

    The stored psi_k are piecewise linear, so the grid max equals the sup of
    the interpolant; the grid-to-continuum gap is reported separately by the
    certification stage.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.size == 0:
        return 0.0
    field = (theta * np.sqrt(eig.lambdas[: theta.size])) @ eig.psi[: theta.size]
    return float(np.abs(field).max())


def sample_basis(eig, n: int, p: int) -> np.ndarray:
    """(n, p) matrix of psi_k(j/n), j = 1..n, interpolated on the eigenfunction grid."""
    xj = np.arange(1, n + 1) / n
    P = np.empty((n, p))
    for k in range(p):
        P[:, k] = np.interp(xj, eig.x, eig.psi[k])
    return P


def generate(eig, fam: ExpFamily, truth: TruthSpec, n: int, seed: int) -> Dataset:
    """Draw Y_j ~ rho(.|s_j) with s_j = sum_k theta*_k sqrt(lambda_k) psi_k(j/n)."""
    theta = truth.theta()
    if theta.size > eig.lambdas.size:
        raise ModelError("truth dimension exceeds computed eigenpairs")
    P = sample_basis(eig, n, theta.size)
    s_true = np.zeros(n)
    for k in range(theta.size):   # one mode at a time: pins the summation order
        s_true += theta[k] * np.sqrt(eig.lambdas[k]) * P[:, k]
    y = np.empty(n)
    for j in range(n):
        y[j] = fam.sampler(float(s_true[j]), _substream(seed, j))
    return Dataset(y=y, s_true=s_true, seed=seed, kind=fam.kind)

