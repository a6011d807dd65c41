"""Certified total-variation bounds for the Laplace approximation.

A weighting D is read through one `spectrum` mu of L^{-1} D^2 L^{-T}, L = fit.L
(D_G^2 = L L^T): alpha(D)^2 = max mu and dim_A(D) = sum mu / max mu.  Scaled
to alpha(D) = 1, D gives the bound

    TV <= tau3_cert * dim_A(D) + 2 exp(-(r - 3 sqrt(dim_A))^2 / 3),

valid whenever r >= 3 sqrt(dim_A) + 3 and r * tau3_cert <= 1/2, where
tau3_cert upper-bounds the D-weighted operator norm of the third
derivative of f over the ellipsoid of D-radius r.  At that radius the
certificate also claims the mass outside {||D u|| <= r}: at most
(1/3) exp(-(r - 3 sqrt(dim_A))^2 / 3) for the posterior, and at most
exp(-(r - sqrt(dim_A))^2 / 2) for the Laplace Gaussian
(`Certificate.posterior_tail`, `.gaussian_tail`, checked exactly by `.gaussian_mass`).
The third-derivative bound splits as D3(K_loc) * A * B with

    A = sup_x ||D^{-1} r(x)||,  r(x)_k = sqrt(lambda_k) psi_k(x)
    B = lambda_max(D^{-1} R^T R D^{-1})
    K_loc = ||R q_theta_hat||_inf + r * A,

except for the scaled-identity choice, which takes D3(K_loc) * n * A^3, never
the tighter route: B <= tr(D^{-1} R^T R D^{-1}) <= n A^2, so A B <= n A^3.
The sup over x is taken at the knots of the piecewise-linear eigenfunctions,
where the convex norm peaks; the knot-to-continuum gap estimate
0.5 * h * sup_x ||D^{-1} r'(x)|| is attached to every certificate.

The diagonal sums S_dim and S_tau of D(gamma0*) (`s_sums`) enter no bound:
they are diagnostics, and give the diagonal-surrogate bounds of `sweep_synthetic`.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .posterior import LaplaceFit, Problem, tri_solve, whiten

N_RADII = 60   # geometric grid of radii from r_lo to r_hi that certify tries
GAMMA0_LABEL = "gamma0=%g"   # the label of an extra gamma0 row of compare_choices


@dataclass(frozen=True)
class WeightChoice:
    kind: str                 # "DG" | "identity_scaled" | "gamma0_family"
    D2: np.ndarray
    gamma0: float | None = None


def choice_DG(fit: LaplaceFit) -> WeightChoice:
    return WeightChoice(kind="DG", D2=fit.DG2.copy())


def choice_identity(fit: LaplaceFit) -> WeightChoice:
    p = fit.DG2.shape[0]
    return WeightChoice(kind="identity_scaled", D2=np.eye(p))


def choice_gamma0(fit: LaplaceFit, gamma0: float, gamma: float) -> WeightChoice:
    if gamma0 > gamma:
        raise ValueError("gamma0 must satisfy gamma0 <= gamma")
    p = fit.DG2.shape[0]
    g02 = np.arange(1, p + 1, dtype=float) ** (2.0 * gamma0)
    return WeightChoice(kind="gamma0_family", D2=fit.hess_L + np.diag(g02), gamma0=gamma0)


@dataclass(frozen=True)
class Certificate:
    """The TV claim of one scaled weighting at one radius; feasibility, the
    bound and its two terms are derived from tau3_sup, effdim and radius."""
    choice: WeightChoice
    effdim: float
    tau3_sup: float
    radius: float
    diagnostics: dict = field(default_factory=dict)
    alpha = 1.0     # a class constant: certify scales every weighting to alpha(D) = 1

    @property
    def feasible(self) -> bool:
        return self.radius >= _r_lo(self.effdim) and self.radius * self.tau3_sup <= 0.5

    @property
    def local_term(self) -> float:
        return self.tau3_sup * self.effdim

    @property
    def tail_term(self) -> float:
        return 2.0 * _tail_exp(self.effdim, self.radius)

    @property
    def tv_bound(self) -> float:
        return self.local_term + self.tail_term

    @property
    def posterior_tail(self) -> float:
        """Claimed bound on the posterior mass outside {||D u|| <= radius}; 1 below r_lo."""
        if self.radius < _r_lo(self.effdim):
            return 1.0
        return min(1.0, _tail_exp(self.effdim, self.radius) / 3.0)

    @property
    def gaussian_tail(self) -> float:
        """Claimed bound on the Laplace Gaussian's mass outside {||D u|| <= radius}."""
        return math.exp(self.log_gaussian_tail)

    @property
    def log_gaussian_tail(self) -> float:
        """log of gaussian_tail, -t^2 / 2 at t = max(0, r - sqrt(dim)), finite where it is 0."""
        t = max(0.0, self.radius - math.sqrt(self.effdim))
        return -t * t / 2.0

    def gaussian_mass(self) -> tuple:
        """(lo, hi, refuted): the exact bracket of the Laplace Gaussian's mass outside {||D u||
        <= radius}, and whether lo exceeds gaussian_tail, in logs (so also where both are 0)."""
        lo, hi = _gaussian_tail_bracket(self.choice.D2.shape[0], self.radius)
        return lo, hi, _log_bracket_low(self.radius) > self.log_gaussian_tail


def spectrum(S: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of L^{-1} S L^{-T}, i.e. of S v = mu L L^T v, L lower triangular."""
    return np.linalg.eigvalsh(whiten(L, S))


def tau3_parts(prob: Problem, choice: WeightChoice) -> dict:
    """r-independent pieces of the certified third-derivative bound, on prob.eig's grid:
    with D^2 = L L^T, A and gap_est are largest column norms of L^{-1} r(x) and
    L^{-1} r'(x), and B is the top of spectrum(R^T R, L)."""
    L, eig, p = np.linalg.cholesky(choice.D2), prob.eig, prob.p
    root_lam = np.sqrt(eig.lambdas[:p])[:, None]
    A, sup_d = (float(np.sqrt(np.max(np.sum(tri_solve(L, root_lam * f[:p]) ** 2, axis=0))))
                for f in (eig.psi, eig.dpsi))
    return {"A": A, "B": float(spectrum(prob.design.rows.T @ prob.design.rows, L)[-1]),
            "gap_est": 0.5 * (eig.x[1] - eig.x[0]) * sup_d}


def tau3_certified(fit: LaplaceFit, prob: Problem, choice: WeightChoice,
                   r: float, parts: dict) -> float:
    """Certified bound on sup_{||Du|| <= r} ||nabla^3 f(theta_hat + u)||_D from tau3_parts."""
    if r <= 0:
        raise ValueError("r > 0 required")
    A = parts["A"]
    d3 = prob.family.d3_envelope(fit.rq_sup + r * A)   # D3(K_loc)
    if choice.kind == "identity_scaled":
        return d3 * prob.design.n * A ** 3
    return d3 * A * parts["B"]


def _r_lo(effdim: float) -> float:
    """3 sqrt(dim) + 3, the least radius at which the theorem holds."""
    return 3.0 * math.sqrt(effdim) + 3.0


def _tail_exp(effdim: float, r: float) -> float:
    """exp(-(r - 3 sqrt(dim))^2 / 3); the TV tail term is twice it, the posterior claim a third."""
    return math.exp(-((r - 3.0 * math.sqrt(effdim)) ** 2) / 3.0)


def _gaussian_tail_bracket(p: int, r: float) -> tuple:
    """(erfc(r/sqrt 2), Q(p/2, r^2/2)): exact ends of the Laplace Gaussian's mass outside
    {||D u|| <= r}, alpha(D) = 1, as ||D u||^2 = sum mu_i xi_i^2, 0 < mu_i <= 1 (all 1 for D_G)."""
    x, lo = r * r / 2.0, math.erfc(r / math.sqrt(2.0))
    # Q = (p odd) erfc(sqrt x) + sum of e^-x x^a / Gamma(a + 1) over a = p/2 - 1, p/2 - 2, ... >= 0
    return lo, min(1.0, math.fsum([(p % 2) * lo] + [
        math.exp(a * math.log(max(x, 1e-300)) - x - math.lgamma(a + 1.0))
        for a in (p / 2.0 - 1.0 - k for k in range(p // 2))]))


def _log_bracket_low(r: float) -> float:
    """log erfc(x), x = r/sqrt 2 (the bracket's lower end) while erfc is normal; past that the
    Abramowitz-Stegun 7.1.13 lower bound, erfc x > 2 e^{-x^2} / (sqrt(pi) (x + sqrt(x^2 + 2)))."""
    x = r / math.sqrt(2.0)
    return (math.log(math.erfc(x)) if math.erfc(x) >= np.finfo(float).tiny else
            math.log(2.0 / math.sqrt(math.pi)) - x * x - math.log(x + math.sqrt(x * x + 2.0)))


def certify(fit: LaplaceFit, prob: Problem, choice: WeightChoice, beta: float = 1.0) -> Certificate:
    """The feasible certificate of least tv_bound over the radius grid, or, if
    none is feasible, the one of least r * tau3 (the first of equals).

    Its diagnostics hold A, B and gap_est, plus S_dim, S_tau, m and m0star
    for the gamma0 family.
    """
    mu = spectrum(choice.D2, fit.L)      # alpha(D)^2 = mu[-1]
    scaled = replace(choice, D2=choice.D2 / mu[-1])
    dim = float(np.sum(mu)) / mu[-1]
    diag = tau3_parts(prob, scaled)

    r_lo = _r_lo(dim)
    r_hi = max(50.0 * math.sqrt(dim), 2.0 * r_lo)
    if choice.kind == "gamma0_family":
        s_dim, s_tau = s_sums(prob.design.n, prob.p, beta, prob.gamma, choice.gamma0)
        _, m, m0s = gamma0_star(prob.design.n, beta, prob.gamma)
        diag.update(S_dim=s_dim, S_tau=s_tau, m=m, m0star=m0s)

    cands = [Certificate(choice=scaled, effdim=dim, radius=r,
                         tau3_sup=tau3_certified(fit, prob, scaled, r, diag), diagnostics=diag)
             for r in np.geomspace(r_lo, r_hi, N_RADII)]
    feasible = [c for c in cands if c.feasible]
    return (min(feasible, key=lambda c: c.tv_bound) if feasible
            else min(cands, key=lambda c: c.radius * c.tau3_sup))


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
                      "S-sum brackets are not guaranteed")   # one location: once a run
    m0s = n ** (1.0 / (2 * beta + 2 * g0))
    return g0, m, m0s


def compare_choices(fit: LaplaceFit, prob: Problem, beta: float = 1.0, gamma0s=()) -> dict:
    """Certificates for D_G, I/alpha(I) and D(gamma0*), then D(g0) for each g0 of
    `gamma0s` under the label GAMMA0_LABEL % g0, in that order, by label."""
    g0s = gamma0_star(prob.design.n, beta, prob.gamma)[0]
    choices = {"DG": choice_DG(fit), "identity": choice_identity(fit),
               "gamma0_star": choice_gamma0(fit, g0s, prob.gamma),
               **{GAMMA0_LABEL % g0: choice_gamma0(fit, g0, prob.gamma) for g0 in gamma0s}}
    return {label: certify(fit, prob, choice, beta=beta) for label, choice in choices.items()}


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
        # alpha_I2^1.5 n underflows in its first factor past n ~ 1e205: raise alpha_I2 / 4^j,
        # near 1, and multiply by 2^(3j) after the product with n (both scalings exact)
        j = math.frexp(alpha_I2)[1] // 2
        tau_I = math.ldexp(math.ldexp(alpha_I2, -2 * j) ** 1.5 * n
                           * float(np.sum(k ** (-2 * beta))) ** 1.5, 3 * j)
        rows.append({
            "n": n, "p": p, "beta": beta, "gamma": gamma, "gamma0_star": g0s,
            "m": m, "m0_star": m0s,
            "bound_DG": p * tau_DG,
            "bound_identity": tau_I * dim_I,
            "bound_gamma0_star": s_tau * s_dim,
        })
    return rows
