"""Certified total-variation bounds for the Laplace approximation.

For a weighting matrix D with alpha(D) = 1 the bound is

    TV <= tau3_cert * dim_A(D) + 2 exp(-(r - 3 sqrt(dim_A))^2 / 3),

valid whenever r >= 3 sqrt(dim_A) + 3 and r * tau3_cert <= 1/2, where
tau3_cert upper-bounds the D-weighted operator norm of the third
derivative of f over the ellipsoid of D-radius r.  The third-derivative
bound splits as D3(K_loc) * A * B with

    A = sup_x ||D^{-1} r(x)||,  r(x)_k = sqrt(lambda_k) psi_k(x)
    B = lambda_max(D^{-1} R^T R D^{-1})
    K_loc = ||R q_theta_hat||_inf + r * A,

except for the scaled-identity choice, where the coarser route
D3(K_loc) * n * A^3 is the tight one.

The sup over x is evaluated at the interpolation knots of the stored
eigenfunctions; since the fields are piecewise linear and the norm is
convex along segments, refining the grid cannot increase the value.  The
knot-to-continuum gap estimate 0.5 * h * sup_x ||D^{-1} r'(x)|| is
attached to every certificate.

The diagonal sums S_dim and S_tau of the optimized choice D(gamma0*)
(`s_sums`, double precision) are not inputs of any bound: they are
reported as diagnostics, propose one candidate radius 1/sqrt(S_tau) that
the tau3 chain certifies like every other radius, and give the
diagonal-surrogate bounds of `sweep_synthetic`.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_factor, cho_solve, eigh

from .posterior import LaplaceFit, Problem


class CertificationError(RuntimeError):
    pass


@dataclass(frozen=True)
class WeightChoice:
    kind: str                 # "DG" | "identity_scaled" | "gamma0_family"
    D2: np.ndarray
    gamma0: float | None = None
    label: str = ""


def choice_DG(fit: LaplaceFit) -> WeightChoice:
    return WeightChoice(kind="DG", D2=fit.DG2.copy(), label="DG")


def choice_identity(fit: LaplaceFit) -> WeightChoice:
    p = fit.DG2.shape[0]
    return WeightChoice(kind="identity_scaled", D2=np.eye(p), label="I/alpha(I)")


def choice_gamma0(fit: LaplaceFit, gamma0: float, gamma: float) -> WeightChoice:
    if gamma0 > gamma:
        raise ValueError("gamma0 must satisfy gamma0 <= gamma")
    p = fit.DG2.shape[0]
    g02 = np.arange(1, p + 1, dtype=float) ** (2.0 * gamma0)
    return WeightChoice(kind="gamma0_family", D2=fit.hess_L + np.diag(g02),
                        gamma0=gamma0, label="D(%.4g)" % gamma0)


@dataclass(frozen=True)
class Certificate:
    choice: WeightChoice
    alpha: float
    effdim: float
    tau3_sup: float
    radius: float
    local_term: float
    tail_term: float
    tv_bound: float
    feasible: bool
    diagnostics: dict = field(default_factory=dict)


def alpha_of(D2: np.ndarray, DG2: np.ndarray) -> float:
    """||D_G^{-1} D|| via the generalized eigenproblem D^2 v = lam D_G^2 v."""
    try:
        lam = eigh(D2, DG2, eigvals_only=True)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise CertificationError("ill-conditioned weighting pair") from exc
    return float(np.sqrt(lam[-1]))


def effdim_of(D2: np.ndarray, DG2: np.ndarray) -> float:
    """Tr(D_G^{-2} D^2) / alpha(D)^2."""
    c, low = cho_factor(DG2)
    tr = float(np.trace(cho_solve((c, low), D2)))
    return tr / alpha_of(D2, DG2) ** 2


def _sup_weighted(D2_chol, mat: np.ndarray) -> float:
    """max over columns x of sqrt(x^T D2^{-1} x) for columns of `mat` (p, M)."""
    Z = cho_solve(D2_chol, mat)
    return float(np.sqrt(np.max(np.sum(mat * Z, axis=0))))


def tau3_parts(prob: Problem, choice: WeightChoice) -> dict:
    """r-independent pieces of the certified third-derivative bound."""
    D2 = choice.D2
    c = cho_factor(D2)
    des = prob.design
    A = _sup_weighted(c, des.basis_rows)
    gap = 0.5 * (des.basis_x[1] - des.basis_x[0]) * _sup_weighted(c, des.basis_drows)
    RtR = des.rows.T @ des.rows
    B = float(eigh(RtR, D2, eigvals_only=True)[-1])
    return {"A": A, "B": B, "gap_est": gap}


def tau3_certified(fit: LaplaceFit, prob: Problem, choice: WeightChoice,
                   r: float, parts: dict | None = None) -> float:
    """Certified upper bound on sup_{||Du|| <= r} ||nabla^3 f(theta_hat + u)||_D."""
    if r <= 0:
        raise ValueError("r > 0 required")
    if parts is None:
        parts = tau3_parts(prob, choice)
    A, B = parts["A"], parts["B"]
    K_loc = fit.rq_sup + r * A
    d3 = prob.family.d3_envelope(K_loc)
    if choice.kind == "identity_scaled":
        return d3 * prob.design.n * A ** 3
    return d3 * A * B


def certify(fit: LaplaceFit, prob: Problem, choice: WeightChoice,
            beta: float = 1.0, n_r: int = 60) -> Certificate:
    """Best feasible certificate over the r grid (least-infeasible if none)."""
    alpha = alpha_of(choice.D2, fit.DG2)
    D2 = choice.D2 / alpha ** 2
    scaled = WeightChoice(kind=choice.kind, D2=D2, gamma0=choice.gamma0,
                          label=choice.label)
    dim = effdim_of(D2, fit.DG2)
    parts = tau3_parts(prob, scaled)

    r_lo = 3.0 * math.sqrt(dim) + 3.0
    r_hi = max(50.0 * math.sqrt(dim), 2.0 * r_lo)
    radii = list(np.geomspace(r_lo, r_hi, n_r))
    diag = {"A": parts["A"], "B": parts["B"], "gap_est": parts["gap_est"],
            "alpha_raw": alpha}
    if choice.kind == "gamma0_family":
        n, p = prob.design.n, prob.design.p
        s_dim, s_tau = s_sums(n, p, beta, prob.gamma, choice.gamma0)
        diag.update(S_dim=s_dim, S_tau=s_tau)
        g0s, m, m0s = gamma0_star(n, beta, prob.gamma)
        diag.update(gamma0star=g0s, m=m, m0star=m0s)
        if s_tau > 0 and 1.0 / math.sqrt(s_tau) >= r_lo:
            radii.append(1.0 / math.sqrt(s_tau))  # canonical r from the theorem

    alpha_scaled = alpha_of(D2, fit.DG2)
    best = None
    least_bad = None
    for r in sorted(radii):
        tau = tau3_certified(fit, prob, scaled, r, parts)
        local = tau * dim
        tail = 2.0 * math.exp(-((r - 3.0 * math.sqrt(dim)) ** 2) / 3.0)
        bound = local + tail
        feasible = r * tau <= 0.5
        cert = Certificate(choice=scaled, alpha=alpha_scaled, effdim=dim,
                           tau3_sup=tau, radius=r, local_term=local,
                           tail_term=tail, tv_bound=bound, feasible=feasible,
                           diagnostics=diag)
        if feasible:
            if best is None or bound < best.tv_bound:
                best = cert
        elif least_bad is None or r * tau < least_bad.radius * least_bad.tau3_sup:
            least_bad = cert
    return best if best is not None else least_bad


# --- diagonal S sums, optimized gamma0 ---

def s_sums(n: int, p: int, beta: float, gamma: float, gamma0: float) -> tuple:
    """S_dim = sum (n + k^{2g0+2b})/(n + k^{2g+2b}); S_tau = sqrt(sum 1/(n + k^{2g0+2b})).

    Each term is formed from u_e(k) = log(1 + k^e / n) = log(n + k^e) - log n,
    taken as logaddexp(0, e log k - log n), so k^e never overflows for large
    p and gamma and the small-k terms that dominate both sums keep full
    relative precision.
    """
    log_k = np.log(np.arange(1, p + 1, dtype=float))
    log_n = math.log(n)
    u0 = np.logaddexp(0.0, (2 * beta + 2 * gamma0) * log_k - log_n)
    u1 = np.logaddexp(0.0, (2 * beta + 2 * gamma) * log_k - log_n)
    s_dim = float(np.sum(np.exp(u0 - u1)))
    s_tau = math.sqrt(float(np.sum(np.exp(-u0))) / n)
    return s_dim, s_tau


def gamma0_star(n: int, beta: float, gamma: float) -> tuple:
    """(gamma0*, m, m0*) with m = n^{1/(2b+2g)}, gamma0* = g - 1/2 - 1/(2m)."""
    if 2 * beta + 2 * gamma <= 2:
        raise ValueError("requires 2*beta + 2*gamma > 2")
    m = n ** (1.0 / (2 * beta + 2 * gamma))
    g0 = gamma - 0.5 - 0.5 / m
    if n <= (beta + gamma - 1) ** (-2 * beta - 2 * gamma):
        warnings.warn("n below the bracket threshold (beta+gamma-1)^{-2b-2g}; "
                      "S-sum brackets are not guaranteed", stacklevel=2)
    m0s = n ** (1.0 / (2 * beta + 2 * g0))
    return g0, m, m0s


def compare_choices(fit: LaplaceFit, prob: Problem, beta: float = 1.0) -> dict:
    """Certificates for D_G, I/alpha(I), and D(gamma0*), plus improvement ratios."""
    g0s, m, m0s = gamma0_star(prob.design.n, beta, prob.gamma)
    certs = {
        "DG": certify(fit, prob, choice_DG(fit), beta=beta),
        "identity": certify(fit, prob, choice_identity(fit), beta=beta),
        "gamma0_star": certify(fit, prob, choice_gamma0(fit, g0s, prob.gamma), beta=beta),
    }
    ub = certs["gamma0_star"].tv_bound
    return {
        "certs": certs,
        "m": m, "m0_star": m0s, "gamma0_star": g0s,
        "ratio_DG": certs["DG"].tv_bound / ub if ub > 0 else math.inf,
        "ratio_identity": certs["identity"].tv_bound / ub if ub > 0 else math.inf,
    }


def sweep_synthetic(n: float, p_values, beta: float, gamma: float) -> list:
    """Diagonal-surrogate bounds over a p grid at fixed n (Table-style regimes).

    Uses the surrogate D_G^2 = diag(n k^{-2b} + k^{2g}) so arbitrary (n, beta)
    can be explored; the third-derivative constants are unitized.  The design
    rows carry k^{-b}, so the weighted tau3 sums involve n + k^{2b+2g}: the
    D(gamma0*) bound is S_tau * S_dim (its k = 1 ratio is 1, so S_dim is
    already the normalized dimension) and the D_G bound is p * S_tau at
    gamma0 = gamma.
    """
    rows = []
    g0s, m, m0s = gamma0_star(n, beta, gamma)
    for p in p_values:
        k = np.arange(1, p + 1, dtype=float)
        s_dim, s_tau = s_sums(n, p, beta, gamma, g0s)
        _, tau_DG = s_sums(n, p, beta, gamma, gamma)
        d = n * k ** (-2 * beta) + k ** (2 * gamma)
        alpha_I2 = float(np.max(1.0 / d))
        dim_I = float(np.sum(1.0 / d) / np.max(1.0 / d))
        tau_I = alpha_I2 ** 1.5 * n * float(np.sum(k ** (-2 * beta))) ** 1.5
        rows.append({
            "n": n, "p": p, "beta": beta, "gamma": gamma, "gamma0_star": g0s,
            "m": m, "m0_star": m0s,
            "bound_DG": p * tau_DG,
            "bound_identity": tau_I * dim_I,
            "bound_gamma0_star": s_tau * s_dim,
        })
    return rows
