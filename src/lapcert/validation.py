"""Empirical total-variation distance between posterior and Laplace Gaussian.

Two estimators:

* `tv_quadrature`: deterministic tensor-product trapezoid quadrature of
  (1/2) integral |pi - phi|, only for p <= 3, with a Richardson-style
  interval from coarse/fine grids.
* `tv_importance`: the identity TV = (1/2) E_phi |w / E_phi w - 1| with
  w = pi_unnorm / phi_unnorm, estimated by self-normalized Monte Carlo
  under the Laplace Gaussian, at any p, from at least 1,000 draws (a run's
  floor, 10,000, is `config.MIN_SAMPLES`).  Its effective sample size is the
  one degeneracy signal (`low_ess`: ESS < 100); ESS cannot see posterior
  mass where the Gaussian draws never land.

Both work in the whitened frame z = L^T (theta - theta_hat), D_G^2 = L L^T,
where the Laplace Gaussian is N(0, I), and take both log densities at all
their points (the quadrature grid, or all M draws) from one `log_densities`
call, so from one call of the kernel `posterior.f_values`; the bootstrap
holds 2^17 resample indices at a time over all its workers, each evaluating its
statistic on its own block in the block's memory; both sum rows by einsum
(`model._rowsum`).  The kernel's
row blocks (each row cut into column tiles of at most 4096) and the
bootstrap's blocks run on `workers` threads (default: the usable cores), at
most one per block, at any size of work; no estimate depends on the count.
The importance draws also give the posterior mass outside ellipsoids
{||D0 u|| <= r}, each a (fraction, ci_low, ci_high) triple, so tail claims need no
second likelihood pass; each fraction's interval is closed form (delta method) widened
by the Wilson interval at the ESS, and the bootstrap resamples the TV alone.
Each draw's ||D0 u||^2 is z^T W z, W = `whiten(L, D0^2)`, on the whitened
draws, so no array of thetas or of u = theta - theta_hat outlives the kernel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import _rowsum, _substream
from .posterior import (LaplaceFit, Problem, f_values, pool_map, tri_solve, usable_cores,
                        whiten)


_Z95 = 1.96   # normal quantile of the 95% intervals: Wilson's and the outside masses'
MIN_PER_AXIS = 64      # coarsest quadrature grid per axis (`tv_quadrature`)
MAX_QUADRATURE_P = 3   # largest p the quadrature grid covers (`tv_quadrature`)


@dataclass(frozen=True)
class TVEstimate:
    method: str
    value: float
    ci_low: float
    ci_high: float
    n_points: int
    ess: float | None = None
    low_ess: bool = False
    outside: tuple = ()     # (fraction, ci_low, ci_high) per region given to tv_importance


def wilson_interval(successes: float, trials: float) -> tuple:
    if trials <= 0:
        raise ValueError("trials > 0")
    z = _Z95
    ph = successes / trials
    den = 1.0 + z * z / trials
    centre = (ph + z * z / (2 * trials)) / den
    hw = z / den * math.sqrt(ph * (1 - ph) / trials + z * z / (4 * trials * trials))
    return max(0.0, centre - hw), min(1.0, centre + hw)


def laplace_draws(fit: LaplaceFit, n_samples: int, seed: int, stream: int) -> tuple:
    """(rng, Z): whitened draws Z ~ N(0, I), (n_samples, p), from the Philox stream
    (seed, stream); rng continues that stream, for the caller's bootstrap draw."""
    rng = _substream(seed, stream)
    return rng, rng.standard_normal((n_samples, fit.theta_hat.size))


def log_densities(fit: LaplaceFit, prob: Problem, Z: np.ndarray,
                  workers: int | None = None) -> tuple:
    """(f_hat - f(theta), -||z||^2 / 2) at theta = theta_hat + L^{-T} z, z the rows of Z: the log
    posterior and log Laplace Gaussian, up to constants and the Jacobian both share.  Z becomes
    the thetas in its own memory (a p = 3 quadrature grid at 128 per axis is 50 MB)."""
    lq = -0.5 * np.einsum("ij,ij->i", Z, Z)
    tri_solve(fit.L, Z.T, trans=True)
    Z += fit.theta_hat
    return fit.f_hat - f_values(prob, Z, workers), lq


_N_BOOT = 500   # bootstrap resamples of the importance TV (`tv_importance`)
# resample indices held at a time, over all workers: 2^17 int64 (1 MiB, plus float
# gathers as large) instead of the whole (n_boot, n_samples) array
_BOOT_BLOCK_ENTRIES = 1 << 17


def bootstrap_ci(rng: np.random.Generator, n_samples: int, n_boot: int, stat,
                 workers: int) -> tuple:
    """(lo, hi): 2.5% and 97.5% percentiles of stat over n_boot resamples.

    stat maps a (b, n_samples) block of resample indices to its b values; it
    must be row-wise, so that the block size changes no value.  Blocks of
    rows are drawn in turn from rng by the `workers` threads that run stat, a
    block each, which gives the same indices as one (n_boot, n_samples) draw.
    """
    rows = max(1, _BOOT_BLOCK_ENTRIES // workers // n_samples)
    blocks = (rng.integers(0, n_samples, size=(min(rows, n_boot - a), n_samples))
              for a in range(0, n_boot, rows))
    v = np.sort(np.concatenate(pool_map(stat, blocks, workers)))
    # np.percentile's "linear" rule and bits, without its import of numpy.ma; NaN sorts last
    i, g = np.divmod((len(v) - 1) * np.array([0.025, 0.975]), 1.0)
    a, b = v[i.astype(int)], v[np.minimum(i + 1, len(v) - 1).astype(int)]
    lo, hi = np.where(g < 0.5, a + (b - a) * g, b - (b - a) * (1.0 - g))
    return (math.nan, math.nan) if np.isnan(v[-1]) else (float(lo), float(hi))


def _whitened_grid(p: int, per_axis: int, half_width: float) -> np.ndarray:
    """(per_axis^p, p) tensor grid on [-half_width, half_width]^p, last axis fastest."""
    zs = np.linspace(-half_width, half_width, per_axis)
    return np.stack(np.meshgrid(*[zs] * p, indexing="ij", copy=False), axis=-1).reshape(-1, p)


def _tv_on_grid(fit: LaplaceFit, prob: Problem, per_axis: int, workers: int | None) -> float:
    lp, lq = log_densities(fit, prob, _whitened_grid(fit.theta_hat.size, per_axis, 10.0), workers)
    wp, wq = np.exp(lp - np.max(lp)), np.exp(lq)
    return 0.5 * float(np.sum(np.abs(wp / np.sum(wp) - wq / np.sum(wq))))


def tv_quadrature(fit: LaplaceFit, prob: Problem, per_axis: int = MIN_PER_AXIS,
                  workers: int | None = None) -> TVEstimate:
    """Grid quadrature of the TV integral in whitened coordinates, p <= 3."""
    p = fit.theta_hat.size
    if p > MAX_QUADRATURE_P:
        raise ValueError("quadrature TV supports p <= %d only; use tv_importance"
                         % MAX_QUADRATURE_P)
    if per_axis < MIN_PER_AXIS:
        raise ValueError("per_axis >= %d required" % MIN_PER_AXIS)
    coarse = _tv_on_grid(fit, prob, per_axis, workers)
    fine = _tv_on_grid(fit, prob, 2 * per_axis, workers)
    err = abs(fine - coarse)
    return TVEstimate(method="quadrature", value=fine,
                      ci_low=max(0.0, fine - err),
                      ci_high=min(1.0, fine + err),
                      n_points=(2 * per_axis) ** p)


def tv_importance(fit: LaplaceFit, prob: Problem, n_samples: int = 20000, seed: int = 0,
                  regions=(), workers: int | None = None, stream: int = 13) -> TVEstimate:
    """TV = (1/2) E_phi |w / mean(w) - 1| by Monte Carlo under the Gaussian on Philox stream
    (seed, stream); `outside` holds the (f, ci_low, ci_high) of each (D0_sq, r) in regions.  Its
    fraction f = sum w 1_out / sum w has the delta-method half-width 1.96 sd(psi) / sqrt(M),
    psi_i = w_i (1_out,i - f) / mean(w), so f = 0 gives exactly (0, Wilson's upper end)."""
    if n_samples < 1000:
        raise ValueError("n_samples >= 1000 required")
    workers = usable_cores() if workers is None else workers
    rng, Z = laplace_draws(fit, n_samples, seed, stream)
    # ||D0 u||^2 = z^T W z with W = whiten(L, D0^2), as u = theta - theta_hat = L^{-T} z
    outside = [np.sqrt(np.einsum("ij,ij->i", Z @ whiten(fit.L, D0_sq), Z)) > r
               for D0_sq, r in regions]
    lp, lq = log_densities(fit, prob, Z, workers)
    del Z   # the thetas now, which the weights replace
    logw = lp - lq
    w = np.exp(logw - np.max(logw))

    def tv_of(W):   # row-wise over the last axis, in W's own memory
        W /= np.divide(_rowsum(W), W.shape[-1])[..., None]
        W -= 1.0
        return 0.5 * _rowsum(np.abs(W, out=W)) / W.shape[-1]

    tv = float(tv_of(w.copy()))
    total = np.sum(w)
    ess = float(total ** 2 / np.sum(w ** 2))
    lo, hi = bootstrap_ci(rng, n_samples, _N_BOOT, lambda idx: tv_of(w[idx]), workers)
    masses = []
    for out in outside:
        wo = np.where(out, w, 0.0)
        frac = float(np.sum(wo) / total)
        hw = _Z95 * math.sqrt(n_samples) * float(np.std(wo - frac * w) / total)
        e_lo, e_hi = wilson_interval(frac * ess, ess)
        masses.append((frac, max(0.0, min(frac - hw, e_lo)), min(1.0, max(frac + hw, e_hi))))
    return TVEstimate(method="importance", value=tv,
                      ci_low=max(0.0, min(lo, tv)), ci_high=min(1.0, max(hi, tv)),
                      n_points=n_samples, ess=ess, low_ess=ess < 100.0,
                      outside=tuple(masses))
