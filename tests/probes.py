"""Assumption and tightness probes used only by the tests.

They estimate quantities the paper's assumptions and bounds are about (the
near-orthogonality constant, sampled omega / tau3, a witness lower bound on
the cosine surrogate, a searched lower bound on tau3, the third directional
derivative) so the tests can check the certified pipeline against them.  `weighting_claims` and
`theorem_claims` restate the certificate theorem from its formulas alone,
as the spec that certificates and golden rows are compared with,
`gaussian_mass_bracket` the Laplace Gaussian's exact tail bracket by
scipy.special, `f_reference` the negative log posterior f from its
definition, and `f_values_allocating` the likelihood kernel in its allocating
form (`ALLOCATING_HSUM`), which `posterior.f_values` matches bit for bit, and
`outside_mass_reference` the posterior mass outside an ellipsoid in theta
space, with `outside_mass_bootstrap` its percentile bootstrap.  `ALLOCATING_H`
holds each family's cumulant h, and `l2_inner` the trapezoid L2[0,1] inner
product.  No CLI path reads them.
"""
import math

import numpy as np
from scipy.linalg import cholesky, eigh, solve_triangular
from scipy.special import erfc, gammaincc

from lapcert.certification import WeightChoice, tau3_certified, tau3_parts
from lapcert.model import _rowsum, sample_basis
from lapcert.posterior import LaplaceFit, Problem, derivatives, f_values
from lapcert.validation import laplace_draws, log_densities, wilson_interval


def f_reference(prob: Problem, theta: np.ndarray) -> float:
    """f at one theta from its definition, sum_j [h(R_j theta) - y_j R_j theta]
    + sum_k g2_k theta_k^2 / 2, as one plain per-point sum with no chunking and no
    sufficient statistic: the tests' reference for `posterior.f_values`."""
    s = prob.design.rows @ theta
    return float(np.sum(ALLOCATING_H[prob.family.kind](s) - prob.data.y * s)
                 + 0.5 * np.sum(prob.g2 * theta ** 2))


def l2_inner(f: np.ndarray, g: np.ndarray) -> float:
    """Trapezoid approximation of the L2[0,1] inner product."""
    f = np.asarray(f)
    return float(np.trapezoid(f * g, dx=1.0 / (f.size - 1)))


def _bernoulli_hsum(S: np.ndarray) -> np.ndarray:
    """The row sums of log(1 + e^s) = log(1 + e^min(s, 37)) + max(s - 37, 0) as the
    Bernoulli hsum forms them: the factors 1 + e^min(s, 37) multiplied over the
    interleaved 256-column groups one 256-column slice at a time, in column order after
    the last, partial slice, with one log per group, and the parts of s past 37 summed
    alone."""
    F = 1.0 + np.exp(np.minimum(S, 37.0))
    q, t = divmod(S.shape[-1], 256)
    if q:
        groups = F[..., :256].copy()
        groups[..., :t] *= F[..., 256 * q:]
        for k in range(1, q):
            groups *= F[..., 256 * k:256 * (k + 1)]
        F = groups
    return _rowsum(np.log(F)) + _rowsum(np.maximum(S - 37.0, 0.0))


# each family's cumulant h, and the row sums of h(S) its in-place hsum(S) must
# match bit for bit, as fresh arrays
ALLOCATING_H = {"poisson": np.exp,
                "gaussian": lambda s: 0.5 * np.asarray(s, dtype=float) ** 2,
                "bernoulli": lambda s: np.maximum(s, 0.0) + np.log1p(np.exp(-np.abs(s)))}
ALLOCATING_HSUM = {"poisson": lambda S: _rowsum(np.exp(S)),
                   "gaussian": lambda S: 0.5 * np.einsum("ij,ij->i", S, S),
                   "bernoulli": _bernoulli_hsum}


def f_values_allocating(prob: Problem, Theta: np.ndarray, chunk_entries: int,
                        tile_columns: int) -> np.ndarray:
    """f at every row of Theta, as `posterior.f_values` computes it on one
    thread with chunks of `chunk_entries` and tiles of at most `tile_columns`,
    in its summation order, but with S = T R^T and h(S) formed as fresh
    arrays per tile, and no finiteness checks."""
    Rt = np.ascontiguousarray(prob.design.rows.T)
    Rty, hsum, n = Rt @ prob.data.y, ALLOCATING_HSUM[prob.family.kind], prob.design.n
    tiles = math.ceil(n / tile_columns)
    cols = math.ceil(n / tiles)
    rows = max(1, chunk_entries // cols)
    out = np.empty(Theta.shape[0])
    for a in range(0, Theta.shape[0], rows):
        T = Theta[a:a + rows]
        total = 0.0
        for c in range(0, n, cols):
            total = total + hsum(T @ Rt[:, c:c + cols])
        out[a:a + rows] = total - T @ Rty + 0.5 * (T * T) @ prob.g2
    return out


def third_directional(prob: Problem, theta: np.ndarray, v: np.ndarray) -> float:
    """<nabla^3 f, v^(x3)> = sum_j h'''(R_j'theta) (R_j'v)^3; prior is quadratic."""
    s = prob.design.rows @ theta
    rv = prob.design.rows @ v
    return float(np.sum(prob.family.h3(s) * rv ** 3))


def tau3_witness(prob: Problem, fit: LaplaceFit, D2: np.ndarray, r: float,
                 starts: int, iters: int, seed: int) -> float:
    """A lower bound on sup_{||D u|| <= r, ||D v|| = 1} |nabla^3 f(theta_hat + u)[v, v, v]|,
    the tau3 that a certificate of weighting D2 at radius r must dominate.

    It is the largest |F(y, z)| = |sum_j h'''(s_j + rho_j.y) (rho_j.z)^3| evaluated
    over ||y|| <= r, ||z|| = 1, in the whitened frame D^2 = L L^T, rho_j = L^{-1} R_j,
    s_j = R_j theta_hat (u = L^{-T} y, v = L^{-T} z).  Each of `starts` random z, from
    y = 0, alternates `iters` times a shifted power step in z (SS-HOPM, Kolda & Mayo
    2011, at the sign of z where F > 0, shift |F|) with the boundary step
    y <- r grad_y / ||grad_y|| (h'''' by a central difference of h''').  Every evaluated
    point is a lower bound, so the witness never exceeds a true tau3 by chance.
    """
    L = np.linalg.cholesky(D2)
    rho = np.linalg.solve(L, prob.design.rows.T).T
    s = (prob.design.rows @ fit.theta_hat)[:, None]
    h3 = prob.family.h3
    Z = np.random.default_rng(seed).standard_normal((D2.shape[0], starts))
    Z /= np.linalg.norm(Z, axis=0)
    Y = np.zeros_like(Z)
    seen = []

    def value(Y, Z):   # F per start (column), S = s + rho Y and rho Z; x * x * x, as ** 3 is slow
        S, Pz = s + rho @ Y, rho @ Z
        F = np.einsum("ij,ij->j", h3(S), Pz * Pz * Pz)
        seen.append(float(np.max(np.abs(F))))
        return F, S, Pz

    for _ in range(iters):
        F, S, Pz = value(Y, Z)
        Z = rho.T @ (h3(S) * Pz * Pz) + F * Z   # the SS-HOPM step at sign(F) z
        Z /= np.linalg.norm(Z, axis=0)
        F, S, Pz = value(Y, Z)
        e = 1e-6 * (1.0 + np.abs(S))
        grad = rho.T @ ((h3(S + e) - h3(S - e)) / (2.0 * e) * Pz * Pz * Pz)
        Y = r * grad / np.linalg.norm(grad, axis=0) * np.where(F < 0, -1.0, 1.0)
    value(Y, Z)
    return max(seen)


def ortho_constant(eig, n: int, p: int, lambda_exp: float = 3.5) -> float:
    """Smallest C with |u'(Psi - n I)u| <= C u' diag(k^lam) u for the sampled basis."""
    P = sample_basis(eig, n, p)
    Psi = P.T @ P
    scale = np.arange(1, p + 1, dtype=float) ** (-lambda_exp / 2.0)
    M = scale[:, None] * (Psi - n * np.eye(p)) * scale[None, :]
    return float(np.linalg.norm(M, 2))


def cosine_design(n: int, p: int, beta: float) -> np.ndarray:
    """Surrogate rows R_jk = k^{-beta} sqrt(2) cos(pi k j / n)."""
    j = np.arange(1, n + 1)[:, None] / n
    k = np.arange(1, p + 1)[None, :]
    return k ** (-beta) * np.sqrt(2.0) * np.cos(np.pi * k * j)


def tightness_probe(n: int, p: int, beta: float, gamma0: float) -> dict:
    """Witness lower bound vs certified upper bound for the cosine surrogate."""
    R = cosine_design(n, p, beta)
    k = np.arange(1, p + 1, dtype=float)
    d2 = n * k ** (-2 * beta) + k ** (2 * gamma0)
    m0bar = max(1, min(int(n ** (1.0 / (2 * beta + 2 * gamma0))), p))
    v = np.zeros(p)
    v[:m0bar] = k[:m0bar] ** beta
    v /= math.sqrt(float(np.sum(d2 * v ** 2)))   # ||D v|| = 1 exactly
    lower = float(np.sum(np.abs(R @ v) ** 3))
    # certified route: A over a fine x grid, B through the diagonal D; the
    # grid only needs to resolve frequencies up to p, not the sample size
    xs = np.linspace(0.0, 1.0, 65537)
    r_of_x = (k[:, None] ** -beta) * np.sqrt(2.0) * np.cos(np.pi * k[:, None] * xs[None, :])
    A = float(np.sqrt(np.max(np.sum(r_of_x ** 2 / d2[:, None], axis=0))))
    B = float(eigh(R.T @ R, np.diag(d2), eigvals_only=True)[-1])
    upper = A * B
    e1 = np.zeros(p)
    e1[0] = 1.0
    witness_norm = math.sqrt(float(np.sum(d2 * (k ** beta / math.sqrt(m0bar * n)) ** 2
                                          * (np.arange(p) < m0bar))))
    return {"lower": lower, "upper": upper, "ratio": lower / upper,
            "m0bar": m0bar, "witness_Dnorm_unnorm": witness_norm,
            "identity_cubic_sum_e1": float(np.sum(np.abs(R @ e1) ** 3)), "n": n}


def omega_diagnostics(fit: LaplaceFit, prob: Problem, choice: WeightChoice,
                      r: float, samples: int, seed: int = 0) -> dict:
    """Monte-Carlo estimates of omega, omega_3, tau_3 over U(D, r).

    These are sampled lower estimates of the suprema; the certified tau3
    upper bound must dominate tau3_est, r*tau3 must dominate omega3_est, and
    (r/3)*tau3 must dominate omega_est.
    """
    if samples < 1:
        raise ValueError("samples >= 1")
    D2 = choice.D2
    L = cholesky(D2, lower=True)
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 7], dtype=np.uint64)))
    p = D2.shape[0]
    U = np.empty((samples, p))
    for i in range(samples):
        z = rng.standard_normal(p)
        s = r if i % 2 == 0 else r * rng.random()  # boundary and interior points
        U[i] = solve_triangular(L, z, lower=True, trans="T")
        U[i] *= s / math.sqrt(float(z @ z))
    DG2 = fit.DG2
    du = np.sqrt(np.einsum("ij,jk,ik->i", U, D2, U))
    quad = 0.5 * np.einsum("ij,jk,ik->i", U, DG2, U)
    num = np.abs(f_values(prob, fit.theta_hat + U) - fit.f_hat - quad)
    om = float(np.max(num / (0.5 * du ** 2)))
    om3 = t3 = 0.0
    for u, d in zip(U, du):
        Hd = derivatives(prob, fit.theta_hat + u)[1] + np.diag(prob.g2) - DG2
        W = solve_triangular(L, solve_triangular(L, Hd, lower=True).T, lower=True)
        w = float(np.linalg.norm(W, 2))
        om3 = max(om3, w)
        t3 = max(t3, w / d)
    tau_cert = tau3_certified(fit, prob, choice, r, tau3_parts(prob, choice))
    return {"omega_est": om, "omega3_est": om3, "tau3_est": t3,
            "tau3_cert": tau_cert, "radius": r,
            "chain_ok": (om <= (r / 3.0) * tau_cert + 1e-12
                         and om3 <= r * tau_cert + 1e-12
                         and t3 <= tau_cert + 1e-12)}


# --- the certificate theorem, assembled without lapcert.certification ---

def weighting_claims(D2: np.ndarray, DG2: np.ndarray) -> tuple:
    """(alpha, effdim, effdim by a second route) of D^2 against D_G^2 = L L^T.

    alpha^2 is the largest generalized eigenvalue of D^2 v = mu D_G^2 v, the
    top eigenvalue of W = L^{-1} D^2 L^{-T}; effdim is Tr(D_G^{-2} D^2) / alpha^2
    as a trace, and the eigenvalues of W summed over alpha^2 as the second route.
    """
    L = np.linalg.cholesky(DG2)
    W = np.linalg.solve(L, np.linalg.solve(L, D2).T)
    mu = np.linalg.eigvalsh(0.5 * (W + W.T))
    return (math.sqrt(mu[-1]), float(np.trace(np.linalg.solve(DG2, D2))) / mu[-1],
            float(np.sum(mu)) / mu[-1])


def theorem_claims(effdim: float, radius: float, tau3: float) -> dict:
    """Every number the theorem states for a weighting with alpha = 1 at radius r.

    TV <= tau3 dim + 2 exp(-(r - 3 sqrt(dim))^2 / 3) when r >= 3 sqrt(dim) + 3
    and r tau3 <= 1/2; outside {||D u|| <= r} the posterior mass is at most
    (1/3) exp(-(r - 3 sqrt(dim))^2 / 3) (1 below r = 3 + 3 sqrt(dim)) and the
    Laplace Gaussian's at most exp(-t^2 / 2), t = max(0, r - sqrt(dim)).
    """
    root = math.sqrt(effdim)
    e = math.exp(-((radius - 3.0 * root) ** 2) / 3.0)
    t = max(0.0, radius - root)
    return {"local_term": tau3 * effdim, "tail_term": 2.0 * e, "tv_bound": tau3 * effdim + 2.0 * e,
            "r_min": 3.0 * root + 3.0, "feasible": radius * tau3 <= 0.5,
            "posterior_tail": min(1.0, e / 3.0) if radius >= 3.0 + 3.0 * root else 1.0,
            "gaussian_tail": min(1.0, math.exp(-t * t / 2.0))}


def gaussian_mass_bracket(p: int, radius: float) -> tuple:
    """(erfc(r / sqrt 2), Q(p/2, r^2/2)): the ends of the Laplace Gaussian's
    mass outside {||D u|| <= r} for a weighting with alpha = 1, where
    ||D u||^2 = sum mu_i xi_i^2 with 0 < mu_i <= 1: the top direction alone
    gives the lower end and the chi^2_p tail (exact for D_G) the upper."""
    return (float(erfc(radius / math.sqrt(2.0))),
            float(gammaincc(p / 2.0, radius * radius / 2.0)))


def _outside_weights(fit: LaplaceFit, prob: Problem, D0_sq: np.ndarray, r: float,
                     n_samples: int, seed: int, stream: int) -> tuple:
    """(rng, w, outside): the importance pass's own draws as normalized weights w and
    the mask of ||D0 u|| > r in theta space, u = theta - theta_hat = L^{-T} z for each
    whitened draw z; rng continues the draws' stream."""
    rng, Z = laplace_draws(fit, n_samples, seed, stream=stream)
    U = solve_triangular(fit.L, Z.T, lower=True, trans="T").T
    outside = np.sqrt(np.sum(U * (U @ D0_sq), axis=1)) > r
    lp, lq = log_densities(fit, prob, Z)
    logw = lp - lq
    w = np.exp(logw - np.max(logw))
    return rng, w / np.sum(w), outside


def outside_mass_reference(fit: LaplaceFit, prob: Problem, D0_sq: np.ndarray, r: float,
                           n_samples: int, seed: int, stream: int) -> tuple:
    """(fraction, ci_low, ci_high) of the posterior mass outside {||D0 u|| <= r} in
    theta space from the importance pass's own draws: the normalized weights' sum
    outside, the delta-method interval of that ratio estimate (influence values
    M w_i (1_out,i - fraction)), widened by the Wilson interval at the ESS."""
    _, w, outside = _outside_weights(fit, prob, D0_sq, r, n_samples, seed, stream)
    frac, ess = float(np.sum(w[outside])), 1.0 / float(np.sum(w ** 2))
    hw = 1.96 * float(np.std(n_samples * w * (outside - frac))) / math.sqrt(n_samples)
    w_lo, w_hi = wilson_interval(frac * ess, ess)
    return frac, max(0.0, min(frac - hw, w_lo)), min(1.0, max(frac + hw, w_hi))


def outside_mass_bootstrap(fit: LaplaceFit, prob: Problem, D0_sq: np.ndarray, r: float,
                           n_samples: int, seed: int, n_boot: int, stream: int) -> tuple:
    """(lo, hi): 2.5% and 97.5% percentiles of the outside fraction of the importance
    pass's own draws over n_boot resamples, one masked sum per resample."""
    rng, w, outside = _outside_weights(fit, prob, D0_sq, r, n_samples, seed, stream)
    fracs = [np.sum(np.where(outside[i], w[i], 0.0)) / np.sum(w[i])
             for i in rng.integers(0, n_samples, size=(n_boot, n_samples))]
    lo, hi = np.percentile(fracs, [2.5, 97.5])
    return float(lo), float(hi)
