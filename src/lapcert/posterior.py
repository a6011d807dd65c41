"""Negative log posterior f = L + ||G theta||^2/2, MAP, and Laplace fit.

L(theta) = sum_j [h(R_j'theta) - y_j R_j'theta] with the prior exponent
gamma entering through G^2 = diag(k^{2 gamma}).  f is strongly convex, so
damped Newton with Cholesky solves converges globally.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve, cholesky

from .model import ExpFamily, Dataset, signal_sup_norm


class OptimizationError(RuntimeError):
    pass


class EvaluationError(FloatingPointError):
    pass


@dataclass(frozen=True)
class Problem:
    design: "DesignMatrix"
    data: Dataset
    family: ExpFamily
    gamma: float
    eig: object = None  # for sup-norm reporting; optional

    def __post_init__(self):
        if self.design.n != self.data.n:
            raise ValueError("design rows and data length differ")
        if not np.isfinite(self.gamma) or self.gamma < 0:
            raise ValueError("gamma must be finite and >= 0")

    @property
    def p(self) -> int:
        return self.design.p

    @property
    def g2(self) -> np.ndarray:
        return np.arange(1, self.p + 1, dtype=float) ** (2.0 * self.gamma)


@dataclass(frozen=True)
class LaplaceFit:
    theta_hat: np.ndarray
    hess_L: np.ndarray      # nabla^2 L(theta_hat)
    DG2: np.ndarray         # hess_L + G^2
    grad_norm: float
    newton_iters: int
    rq_sup: float           # ||R q_theta_hat||_inf on the refined grid
    f_hat: float


def _signals(prob: Problem, theta: np.ndarray) -> np.ndarray:
    s = prob.design.rows @ theta
    if not np.all(np.isfinite(s)):
        raise EvaluationError("non-finite linear predictor")
    return s


def f_value(prob: Problem, theta: np.ndarray) -> float:
    s = _signals(prob, theta)
    hv = prob.family.h(s)
    if not np.all(np.isfinite(hv)):
        raise EvaluationError("overflow in cumulant h")
    return float(np.sum(hv - prob.data.y * s) + 0.5 * np.sum(prob.g2 * theta ** 2))


# entries of S = Theta R^T formed at a time: 2^16 doubles (512 KiB) stay in L2
_CHUNK_ENTRIES = 1 << 16


def f_values(prob: Problem, Theta: np.ndarray) -> np.ndarray:
    """f at every row of Theta, shape (m,): the batched form of `f_value`.

    S = Theta R^T is formed a row chunk at a time, and the data term uses the
    sufficient statistic Theta (R^T y) = sum_j y_j s_j, so only h(S) is
    reduced per chunk.  Raises the same `EvaluationError`s as `f_value`.
    """
    Rt = np.ascontiguousarray(prob.design.rows.T)   # contiguous: halves the product's time
    Rty, g2 = Rt @ prob.data.y, prob.g2
    out = np.empty(Theta.shape[0])
    rows = max(1, _CHUNK_ENTRIES // prob.design.n)
    for a in range(0, Theta.shape[0], rows):
        T = Theta[a:a + rows]
        S = T @ Rt
        if not np.all(np.isfinite(S)):
            raise EvaluationError("non-finite linear predictor")
        # a sum is finite iff every term is, unless the finite terms overflow it
        hsum = np.sum(prob.family.h(S), axis=1)
        if not np.all(np.isfinite(hsum)):
            raise EvaluationError("overflow in cumulant h")
        out[a:a + rows] = hsum - T @ Rty + 0.5 * (T * T) @ g2
    return out


def grad(prob: Problem, theta: np.ndarray) -> np.ndarray:
    s = _signals(prob, theta)
    return prob.design.rows.T @ (prob.family.h1(s) - prob.data.y) + prob.g2 * theta


def hessian_L(prob: Problem, theta: np.ndarray) -> np.ndarray:
    s = _signals(prob, theta)
    R = prob.design.rows
    return (R * prob.family.h2(s)[:, None]).T @ R


def hessian(prob: Problem, theta: np.ndarray) -> np.ndarray:
    return hessian_L(prob, theta) + np.diag(prob.g2)


def map_solve(prob: Problem, theta0: np.ndarray | None = None,
              grad_tol: float = 1e-9, max_iters: int = 200) -> LaplaceFit:
    """Damped Newton with Armijo backtracking from theta0 (default 0)."""
    p = prob.p
    theta = np.zeros(p) if theta0 is None else np.asarray(theta0, dtype=float).copy()
    fv = f_value(prob, theta)
    it = 0
    for it in range(1, max_iters + 1):
        g = grad(prob, theta)
        H = hessian(prob, theta)
        c, low = cho_factor(H)
        step = cho_solve((c, low), g)
        decrement2 = float(g @ step)
        gnorm = float(np.linalg.norm(g))
        if decrement2 <= 1e-18 or gnorm <= grad_tol * (1.0 + abs(fv)):
            break
        # a predicted decrease below the rounding of f cannot pass the Armijo
        # test; there the full Newton step is taken unless f visibly grows
        noise = 16.0 * np.finfo(float).eps * (1.0 + abs(fv))
        resolved = 0.25 * decrement2 > noise
        t = 1.0
        accepted = False
        for _ in range(60):
            try:
                f_new = f_value(prob, theta - t * step)
            except EvaluationError:
                t *= 0.5
                continue
            if f_new <= fv - 0.25 * t * decrement2 or (not resolved and f_new <= fv + noise):
                theta = theta - t * step
                fv = f_new
                accepted = True
                break
            t *= 0.5
        if not accepted:
            raise OptimizationError("line search failed at iter %d (f=%g, |g|=%g)"
                                    % (it, fv, gnorm))
    else:
        raise OptimizationError("Newton iteration cap (%d) exceeded" % max_iters)

    g = grad(prob, theta)
    gnorm = float(np.linalg.norm(g))
    if gnorm > 1e-9 * (1.0 + abs(fv)) * 10:
        raise OptimizationError("MAP gradient norm %g did not meet tolerance" % gnorm)
    hL = hessian_L(prob, theta)
    DG2 = hL + np.diag(prob.g2)
    cholesky(DG2, lower=True)  # SPD check
    rq = signal_sup_norm(prob.eig, theta) if prob.eig is not None else float("nan")
    return LaplaceFit(theta_hat=theta, hess_L=hL, DG2=DG2, grad_norm=gnorm,
                      newton_iters=it, rq_sup=rq, f_hat=fv)


def fit_to_dict(fit: LaplaceFit) -> dict:
    return {"theta_hat": fit.theta_hat.tolist(), "rq_sup": fit.rq_sup,
            "newton_iters": fit.newton_iters, "grad_norm": fit.grad_norm,
            "f_hat": fit.f_hat}
