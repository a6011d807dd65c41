"""Exponential-family observation model and synthetic data generation.

Observations follow rho(dy|s) = exp(s y - h(s)) mu(dy) with natural parameter
s_j = (R q*)(j/n).  Observation j (0-based) is drawn from its own stream, numpy's
``Philox(key=[seed, j])``, so datasets are reproducible regardless of execution order or
threading.  Pinned independent of numpy internals: block c = 1, 2, ... of the stream is
Philox4x64-10 of counter [c, 0, 0, 0] under key (seed, j), each of its four words w giving the
uniform (w >> 11) 2^-53.  Bernoulli takes y = 1 iff u_1 < 1/(1 + e^-s), a threshold of exactly 0
where e^-s overflows.  Poisson at rate e^s < 30 inverts u_1 sequentially (the smallest k with
u_1 <= the pmf summed term by term to k), and at rate >= 30 runs PTRS (Hormann 1993) on pairs
(u, v) from the stream's start.  Those two draw u_1 of all j in vectorized Philox passes; PTRS
and the Gaussian (s plus numpy's ziggurat normal) build each j's generator.  The first generator
`_substream` builds in a process (here or for the IS draws) imports numpy.random, without OpenSSL.
"""
from __future__ import annotations

import math
import random
import sys
import types
from dataclasses import dataclass
from typing import Callable

import numpy as np


class ModelError(ValueError):
    pass


# a family as a run evaluates it: the cumulant h's row sums, h', h'', h''' (h: tests/probes.py)
@dataclass(frozen=True)
class ExpFamily:
    kind: str
    hsum: Callable                 # (S, bound >= max|S|, inf or NaN if unknown; default inf) ->
                                   # row sums of the cumulant h(S), in S's own memory
    h1: Callable
    h2: Callable
    h3: Callable
    d3_envelope: Callable          # K -> sup_{|t|<=K} |h'''(t)|
    sampler: Callable              # (s, seed) -> y, y_j from the stream (seed, j)


def _rowsum(A: np.ndarray) -> np.ndarray:
    # sums over the last axis by einsum's SIMD loop (twice np.sum's speed, never BLAS, so no thread
    # count moves its bits), 4096 columns at a time: numpy sums a lone row in 8192-entry pieces
    return sum(np.einsum("...i->...", A[..., c:c + 4096]) for c in range(0, A.shape[-1], 4096))


def _exp(s: np.ndarray) -> np.ndarray:
    # libm's exp per element (np.exp's SIMD paths can differ by an ulp by CPU),
    # one scalar at a time: a tolist() copy of s raises the run's peak RSS; past
    # log(DBL_MAX) = 709.782712893384, where math.exp raises, inf as np.exp gives
    e = np.fromiter(map(math.exp, np.minimum(s, 709.782712893384)), float, s.size)
    return np.where(s > 709.782712893384, np.inf, e)


_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)   # round multipliers
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)   # Weyl key increments
_LO, _32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _mulhilo(a: int, b: np.ndarray):
    # (high, low) words of the 128-bit products a*b, from 32-bit halves
    a_lo, a_hi = np.uint64(a & 0xFFFFFFFF), np.uint64(a >> 32)
    lh, hl = a_lo * (b >> _32), a_hi * (b & _LO)
    mid = ((a_lo * (b & _LO)) >> _32) + (lh & _LO) + (hl & _LO)
    return a_hi * (b >> _32) + (lh >> _32) + (hl >> _32) + (mid >> _32), np.uint64(a) * b


def _philox_uniforms(seed: int, j) -> np.ndarray:
    """The first random() draw of each stream _substream(seed, j): word 0 of its first block."""
    j, u = np.asarray(j, dtype=np.uint64), np.empty(np.shape(j))
    for b in range(0, j.size, 2 ** 14):   # 2^14 streams at a time: a round holds ~14 temporaries
        jb = j[b:b + 2 ** 14]
        c = [np.ones_like(jb)] + [np.zeros_like(jb)] * 3
        for r in range(10):   # ten rounds; round r uses the key (seed, j) + r * W
            k0 = np.uint64((seed + r * _PHILOX_W[0]) % 2 ** 64)
            k1 = jb + np.uint64(r * _PHILOX_W[1] % 2 ** 64)
            hi0, lo0 = _mulhilo(_PHILOX_M[0], c[0])
            hi1, lo1 = _mulhilo(_PHILOX_M[1], c[2])
            c = [hi1 ^ c[1] ^ k0, lo1, hi0 ^ c[3] ^ k1, lo0]
        u[b:b + 2 ** 14] = (c[0] >> np.uint64(11)) * 2.0 ** -53
    return u


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


def sample_poisson(s: np.ndarray, seed: int) -> np.ndarray:
    """Y_j ~ Poisson(e^s_j), each drawn from the stream keyed (seed, j), 2^15 draws at a time."""
    # checked before any draw: libm's exp is monotone, so e^max(s) bounds every rate (nan refuses)
    if not _exp(s.max(initial=-np.inf, keepdims=True))[0] <= 1e15:
        raise ModelError("poisson rate overflow (e^s too large); reduce the truth amplitude A")
    y = np.zeros(s.size)
    for b in range(0, s.size, 2 ** 15):
        yb, lam = y[b:b + 2 ** 15], _exp(s[b:b + 2 ** 15])
        for j in np.flatnonzero(lam >= 30.0):
            yb[j] = _poisson_ptrs(float(lam[j]), _substream(seed, b + int(j)))
        # below rate 30, sequential inversion: one k step at a time over the draws still searching
        low = np.flatnonzero(lam < 30.0)
        u, lam = _philox_uniforms(seed, b + low), lam[low]
        p = _exp(-lam)
        F, act, k = p.copy(), np.flatnonzero(u > p), 0
        while act.size:
            k += 1
            p[act] *= lam[act] / k
            F[act] += p[act]
            yb[low[act]] = k
            act = act[u[act] > F[act]]
            if k > 10_000_000:  # pragma: no cover
                raise ModelError("poisson inversion runaway at rate %g" % lam[act].max())
    return y


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
            hsum=lambda S, bound=math.inf: _rowsum(np.exp(S, out=S)),
            h1=np.exp, h2=np.exp, h3=np.exp,
            d3_envelope=lambda K: math.exp(K),
            sampler=sample_poisson,
        )
    if kind == "gaussian":
        return ExpFamily(
            kind="gaussian",
            # one einsum pass, which sums a row alike alone or in a block up to 8192 columns
            hsum=lambda S, bound=math.inf: 0.5 * np.einsum("ij,ij->i", S, S),
            h1=lambda s: np.asarray(s, dtype=float),
            h2=lambda s: np.ones_like(np.asarray(s, dtype=float)),
            h3=lambda s: np.zeros_like(np.asarray(s, dtype=float)),
            d3_envelope=lambda K: 0.0,
            sampler=lambda s, seed: s + np.fromiter(
                (_substream(seed, j).standard_normal() for j in range(s.size)), float),
        )
    if kind == "bernoulli":
        def hsum(S, bound=math.inf):
            # h = log(1 + e^min(s, 37)) + max(s - 37, 0) in S's own memory: the factors
            # 1 + e^min(s, 37) multiplied over the interleaved 256-column groups and one log a
            # group, plus the parts of s past 37, which sum no cancelling terms.  Rows of at most
            # 4096 columns (the kernel's widest tile): a group then has at most 16 factors, each
            # <= 1 + e^37, so its product stays <= e^592.  Where bound >= max|s| is <= 37 both
            # 37-terms are no-ops (min gives s, the parts sum to +0.0) and are skipped, with the
            # same bits; a NaN bound clamps.  log(1 + e^-37) < 2^-53, and a k-factor product is
            # within ~k u of exact, so |hsum - sum h| <= 1e-15 n max(1, |sum h|), n the row
            # length, at any s
            past = 0.0
            if not bound <= 37.0:
                d = S - 37.0
                past = _rowsum(np.maximum(d, 0.0, out=d))
                np.minimum(S, 37.0, out=S)
            np.add(np.exp(S, out=S), 1.0, out=S)
            q, t = divmod(S.shape[-1], 256)
            if q and t:   # the last, partial group folds into the first t
                np.multiply(S[..., :t], S[..., 256 * q:], out=S[..., :t])
            G = np.multiply.reduce(S[..., :256 * q].reshape(*S.shape[:-1], q, 256), -2) if q else S
            return _rowsum(np.log(G, out=G)) + past

        def h1(s):
            return 1.0 / (1.0 + np.exp(-np.asarray(s, dtype=float)))

        def h2(s):
            sg = h1(s)
            return sg * (1.0 - sg)

        def h3(s):
            sg = h1(s)
            return sg * (1.0 - sg) * (1.0 - 2.0 * sg)

        return ExpFamily(
            kind="bernoulli", hsum=hsum, h1=h1, h2=h2, h3=h3,
            d3_envelope=_bernoulli_h3_envelope,
            sampler=lambda s, seed: (_philox_uniforms(seed, np.arange(s.size))
                                     < 1.0 / (1.0 + _exp(-s))).astype(float),
        )
    raise ModelError("unknown family kind %r" % kind)


@dataclass(frozen=True)
class TruthSpec:
    """Ground-truth coefficients theta*_k = A (-1)^{k+1} k^{-s}, k <= p_star, or the given
    `theta` (then p_star = len(theta)).  The config's `truth` section."""

    p_star: int = 8
    amplitude: float = 0.5
    decay: float = 2.0
    theta: list | None = None

    def __post_init__(self):   # a float decay: an int64 k ** -s refuses, and k ** s wraps
        object.__setattr__(self, "amplitude", float(self.amplitude))
        object.__setattr__(self, "decay", float(self.decay))
        if self.theta is not None:
            object.__setattr__(self, "p_star", len(self.theta))

    def coefficients(self) -> np.ndarray:
        if self.theta is not None:
            th = np.asarray(self.theta, dtype=float)
            if not np.all(np.isfinite(th)):
                raise ModelError("truth theta has non-finite entries")
            return th
        k = np.arange(1, self.p_star + 1)
        return self.amplitude * (-1.0) ** (k + 1) * k ** (-self.decay)


@dataclass(frozen=True)
class Dataset:
    y: np.ndarray
    s_true: np.ndarray

    @property
    def n(self) -> int:
        return self.y.size


def _import_numpy_random() -> None:
    # numpy.random takes randbits from secrets, whose hmac loads OpenSSL (~3.5 MB of RSS, unused
    # here): its first import sees a stand-in with the same function; a caller's secrets stays
    if "secrets" in sys.modules or "numpy.random" in sys.modules:
        return
    stand_in = sys.modules["secrets"] = types.ModuleType("secrets")
    stand_in.randbits = random.SystemRandom().getrandbits
    try:
        import numpy.random  # noqa: F401
    finally:
        del sys.modules["secrets"]


def _substream(seed: int, j: int) -> np.random.Generator:
    _import_numpy_random()
    return np.random.Generator(np.random.Philox(key=np.array([seed, j], dtype=np.uint64)))


def signal_sup_norm(eig, theta: np.ndarray) -> float:
    """sup_x |sum_k theta_k sqrt(lambda_k) psi_k(x)| on the eigenfunction grid.

    The stored psi_k are piecewise linear, so the grid max equals the sup of
    the interpolant; the grid-to-continuum gap is reported separately by the
    certification stage.
    """
    theta = np.asarray(theta, dtype=float)
    field = (theta * np.sqrt(eig.lambdas[: theta.size])) @ eig.psi[: theta.size]
    return float(np.abs(field).max())


def sample_basis(eig, n: int, p: int) -> np.ndarray:
    """Column-major (n, p) matrix of psi_k(j/n), j = 1..n, interpolated on the eigen grid;
    more modes than eig holds are refused."""
    if p > len(eig.psi):
        raise ModelError("%d modes exceed the %d eigenfunctions held" % (p, len(eig.psi)))
    xj = np.arange(1, n + 1) / n
    P = np.empty((n, p), order="F")
    for k in range(p):
        P[:, k] = np.interp(xj, eig.x, eig.psi[k])
    return P


def generate(eig, fam: ExpFamily, truth: TruthSpec, n: int, seed: int) -> Dataset:
    """Draw Y_j ~ rho(.|s_j) with s_j = sum_k theta*_k sqrt(lambda_k) psi_k(j/n)."""
    theta = truth.coefficients()
    P = sample_basis(eig, n, theta.size)
    s_true = np.zeros(n)
    for k in range(theta.size):   # one mode at a time: pins the summation order
        s_true += theta[k] * np.sqrt(eig.lambdas[k]) * P[:, k]
    return Dataset(y=fam.sampler(s_true, seed), s_true=s_true)

