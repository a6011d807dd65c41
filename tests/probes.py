"""Assumption and tightness probes used only by the tests.

They estimate quantities the paper's assumptions and bounds are about (the
near-orthogonality constant, sampled omega / tau3, a witness lower bound on
the cosine surrogate, the third directional derivative) so the tests can
check the certified pipeline against them.  No CLI path reads them.
"""
import math

import numpy as np
from scipy.linalg import cholesky, eigh, solve_triangular

from lapcert.certification import WeightChoice, tau3_certified
from lapcert.model import sample_basis
from lapcert.posterior import LaplaceFit, Problem, f_values, hessian


def third_directional(prob: Problem, theta: np.ndarray, v: np.ndarray) -> float:
    """<nabla^3 f, v^(x3)> = sum_j h'''(R_j'theta) (R_j'v)^3; prior is quadratic."""
    s = prob.design.rows @ theta
    rv = prob.design.rows @ v
    return float(np.sum(prob.family.h3(s) * rv ** 3))


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
        Hd = hessian(prob, fit.theta_hat + u) - DG2
        W = solve_triangular(L, solve_triangular(L, Hd, lower=True).T, lower=True)
        w = float(np.linalg.norm(W, 2))
        om3 = max(om3, w)
        t3 = max(t3, w / d)
    tau_cert = tau3_certified(fit, prob, choice, r)
    return {"omega_est": om, "omega3_est": om3, "tau3_est": t3,
            "tau3_cert": tau_cert, "radius": r,
            "chain_ok": (om <= (r / 3.0) * tau_cert + 1e-12
                         and om3 <= r * tau_cert + 1e-12
                         and t3 <= tau_cert + 1e-12)}
