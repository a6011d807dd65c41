"""Tail mass outside the weighted ellipsoid U(D0, r) = {theta : ||D0 (theta - theta_hat)|| <= r}.

Explicit tail bounds for the Laplace Gaussian and for the posterior, plus
their empirical counterparts from importance draws (`validation.OutsideMass`:
the Gaussian fraction outside with a Wilson interval, the self-normalized
posterior fraction outside with a bootstrap interval).
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .certification import effdim_of
from .posterior import LaplaceFit, Problem
from .validation import _importance_pass


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
    est = _importance_pass(fit, prob, n_samples, seed, n_boot, [(D0_sq, r)], stream=11)
    dim = effdim_of(D0_sq, fit.DG2)   # Tr(D_G^-2 D0^2) / alpha(D0)^2
    return TailReport(
        radius=r, effdim=dim,
        gaussian_bound=gaussian_tail(dim, max(0.0, r - math.sqrt(dim))),
        posterior_bound=posterior_tail_bound(dim, r),
        **asdict(est.outside[0]),
        ess=est.ess, n_samples=n_samples, low_ess=est.low_ess)
