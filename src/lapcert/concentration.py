"""Tail mass outside the weighted ellipsoid U(D0, r) = {theta : ||D0 (theta - theta_hat)|| <= r}.

Explicit tail bounds for the Laplace Gaussian and for the posterior, plus
empirical counterparts: the indicator fraction of Gaussian samples outside
the ellipsoid (Wilson interval) and a self-normalized importance estimate
of the posterior mass outside (bootstrap interval).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .posterior import LaplaceFit, Problem
from .validation import bootstrap_ci, laplace_draws, log_ratio


class ConcentrationError(RuntimeError):
    pass


def gaussian_tail(effdim: float, t: float) -> float:
    """P(||D0 u|| >= sqrt(effdim) + t) <= exp(-t^2 / 2) for the Laplace Gaussian."""
    if t < 0:
        raise ValueError("t >= 0 required")
    return min(1.0, math.exp(-t * t / 2.0))


def posterior_tail_bound(effdim: float, r: float) -> float:
    """(1/3) exp(-(r - 3 sqrt(dim))^2 / 3); clamped to 1 when r < 3 + 3 sqrt(dim)."""
    if r < 3.0 + 3.0 * math.sqrt(effdim):
        return 1.0  # bound not applicable below the critical radius
    return min(1.0, math.exp(-((r - 3.0 * math.sqrt(effdim)) ** 2) / 3.0) / 3.0)


def wilson_interval(successes: float, trials: float, z: float = 1.96) -> tuple:
    if trials <= 0:
        raise ValueError("trials > 0")
    ph = successes / trials
    den = 1.0 + z * z / trials
    centre = (ph + z * z / (2 * trials)) / den
    hw = z / den * math.sqrt(ph * (1 - ph) / trials + z * z / (4 * trials * trials))
    return max(0.0, centre - hw), min(1.0, centre + hw)


@dataclass(frozen=True)
class TailReport:
    radius: float
    effdim: float
    gaussian_bound: float
    posterior_bound: float
    gaussian_frac: float
    gaussian_ci_low: float
    gaussian_ci_high: float
    posterior_frac: float
    posterior_ci_low: float
    posterior_ci_high: float
    ess: float
    n_samples: int
    low_ess: bool


def empirical_outside_mass(fit: LaplaceFit, prob: Problem, D0_sq: np.ndarray,
                           r: float, n_samples: int = 2000, seed: int = 0,
                           n_boot: int = 500) -> TailReport:
    """Empirical Gaussian and posterior mass outside U(D0, r).

    Samples come from the Laplace Gaussian N(theta_hat, D_G^{-2}); the
    posterior estimate reweights them by exp(-f + f_hat + ||D_G u||^2 / 2)
    (self-normalized).  The ellipsoid membership uses the D0 norm, so D0 may
    differ from D_G.  The reported tail bounds assume D0 is scaled so that
    ||D_G^{-1} D0|| = 1 (certificates store their weighting in that form);
    for unscaled D0 the bound columns are conservative placeholders.
    """
    if n_samples < 1000:
        raise ValueError("n_samples >= 1000 required")
    rng, U = laplace_draws(fit, n_samples, seed, stream=11)
    d0_sq = np.sum(U * (U @ D0_sq), axis=1)
    outside = np.sqrt(d0_sq) > r

    g_frac = float(np.mean(outside))
    g_lo, g_hi = wilson_interval(float(np.sum(outside)), n_samples)

    logw = log_ratio(fit, prob, U)
    w = np.exp(logw - np.max(logw))
    w /= np.sum(w)
    post_frac = float(np.sum(w[outside]))
    ess = 1.0 / float(np.sum(w ** 2))

    def outside_frac(idx):
        wb = w[idx]
        return np.sum(np.where(outside[idx], wb, 0.0), axis=1) / np.sum(wb, axis=1)

    lo, hi = bootstrap_ci(rng, n_samples, n_boot, outside_frac)
    # widen by the Wilson interval at the effective sample size so an
    # exactly-zero estimate still carries finite uncertainty
    w_lo, w_hi = wilson_interval(post_frac * ess, ess)

    # effective dimension of D0 relative to D_G, clamped by alpha(D0)
    c = np.linalg.cholesky(fit.DG2)
    W = solve_triangular(c, solve_triangular(c, D0_sq, lower=True).T, lower=True)
    alpha2 = float(np.linalg.eigvalsh(W)[-1])
    dim = float(np.trace(W)) / alpha2
    return TailReport(
        radius=r, effdim=dim,
        gaussian_bound=gaussian_tail(dim, max(0.0, r - math.sqrt(dim))),
        posterior_bound=posterior_tail_bound(dim, r),
        gaussian_frac=g_frac, gaussian_ci_low=g_lo, gaussian_ci_high=g_hi,
        posterior_frac=post_frac,
        posterior_ci_low=min(lo, w_lo),
        posterior_ci_high=max(hi, w_hi),
        ess=ess, n_samples=n_samples, low_ess=ess < 50.0)
