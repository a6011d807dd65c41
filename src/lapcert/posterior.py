"""Negative log posterior f = L + ||G theta||^2/2, MAP, and Laplace fit.

L(theta) = sum_j [h(R_j'theta) - y_j R_j'theta] with the prior exponent
gamma entering through G^2 = diag(k^{2 gamma}).  f is strongly convex, so
damped Newton with Cholesky solves converges globally.
"""
from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass

import numpy as np

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
    eig: "EigenSystem"      # the basis sampled by the design rows

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

    @functools.cached_property
    def kernel_terms(self) -> tuple:
        """(R^T, R^T y, max|R|) for f_values; a contiguous R^T halves its GEMM time.  For a
        column-major design (`assemble_design`'s) R^T is a view of its rows, not a copy."""
        Rt = np.ascontiguousarray(self.design.rows.T)
        return Rt, Rt @ self.data.y, float(np.max(np.abs(Rt), initial=0.0))


@dataclass(frozen=True)
class LaplaceFit:
    theta_hat: np.ndarray
    hess_L: np.ndarray      # nabla^2 L(theta_hat)
    DG2: np.ndarray         # hess_L + G^2
    L: np.ndarray           # lower Cholesky factor of DG2
    grad_norm: float
    newton_iters: int
    rq_sup: float           # ||R q_theta_hat||_inf on the refined grid
    f_hat: float


def tri_solve(L: np.ndarray, B: np.ndarray, trans: bool = False) -> np.ndarray:
    """B <- L^{-1} B, or L^{-T} B with `trans`, in B's own memory, for lower triangular
    L (p, p) and B (p,) or (p, m) of any strides (the transpose of an (m, p) array too)."""
    for i in (range(len(L) - 1, -1, -1) if trans else range(len(L))):
        done = slice(i + 1, None) if trans else slice(0, i)
        B[i] -= (L[done, i] if trans else L[i, done]) @ B[done]
        B[i] /= L[i, i]
    return B


def whiten(L: np.ndarray, S: np.ndarray) -> np.ndarray:
    """L^{-1} S L^{-T} for symmetric S (p, p): the form u^T S u in z = L^T u, as z^T W z."""
    return tri_solve(L, tri_solve(L, S.copy()).T)


def f_value(prob: Problem, theta: np.ndarray) -> float:
    """f at theta: the one-row call of `f_values`, whose errors it raises."""
    return float(f_values(prob, np.asarray(theta)[None], 1)[0])


def f_rounding(prob: Problem, theta: np.ndarray, fv: float) -> float:
    """The rounding of f = fv at theta: the size of its terms, sum h and y's = theta R^T y."""
    return 16.0 * np.finfo(float).eps * (1.0 + abs(fv) + 2.0 * abs(theta @ prob.kernel_terms[1]))


def usable_cores() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def pool_map(fn, items, workers: int) -> list:
    """[fn(x) for x in items] on `workers` threads, the calling one among them.

    Each thread takes the next item from `items` under one lock and drops it
    before taking another: items (and an iterator's random draws) go in order,
    at most `workers` held at a time, results in item order.  Calls run under
    the caller's numpy error state, which is per-thread.  No item is taken once
    an item, the iterator or the caller (an interrupt) fails; the lowest-index
    failure is raised.  With one worker no thread is started: the plain loop.
    """
    err, lock, items, end = np.geterr(), threading.Lock(), iter(items), object()
    out, failed = [], {}

    def work():
        with np.errstate(**err):
            while True:
                try:
                    with lock:
                        i = len(out)
                        if failed or (x := next(items, end)) is end:
                            return
                        out.append(None)
                    out[i], x = fn(x), None   # not held while this thread draws the next
                except BaseException as e:   # fn's, or the iterator's at index i
                    with lock:
                        failed[i] = e
                    return

    threads = [threading.Thread(target=work) for _ in range(workers - 1)]
    for t in threads:
        t.start()
    work()
    for t in threads:
        t.join()
    if failed:
        raise failed[min(failed)]
    return out


# entries of S = Theta R^T formed at a time (512 KiB, in L2), and the widest tile of a row
_CHUNK_ENTRIES, _TILE_COLUMNS = 1 << 16, 4096


def f_values(prob: Problem, Theta: np.ndarray, workers: int | None = None) -> np.ndarray:
    """f at every row of Theta, shape (m,): the one evaluation of f.

    S = Theta R^T is formed a block of rows and one of ceil(n / _TILE_COLUMNS)
    balanced column tiles at a time, in one buffer per thread, and the family's
    `hsum` (the row sums of h(S), in S's own memory) added up over the tiles in
    column order.  The blocks are split into contiguous runs, one per thread, on
    min(workers (default: `usable_cores()`), blocks) threads, whose tile loop is
    the matmul, the scan of S for non-finite entries (only where the call's bound
    max|Theta| p max|R| on |S_ij| allows one), hsum (handed that bound, which lets
    Bernoulli's skip its clamp), and each block's finiteness test.  The data term
    Theta (R^T y) = sum_j y_j s_j and the prior term are added after, on the
    calling thread, over the same blocks.  Every row's arithmetic is
    the same for any count, so the result is too.  A non-finite S or sum of h(S)
    raises the lowest failing block's `EvaluationError`.
    """
    (Rt, Rty, r_max), g2, n = prob.kernel_terms, prob.g2, prob.design.n
    out = np.empty(Theta.shape[0])
    cols = -(-n // -(-n // _TILE_COLUMNS))   # ceil(n / tiles), tiles = ceil(n / _TILE_COLUMNS)
    rows = max(1, _CHUNK_ENTRIES // cols)
    starts = range(0, Theta.shape[0], rows)
    # S can hold a non-finite entry only if this bound reaches half the largest double or is NaN
    bound = float(max(Theta.max(initial=0.0), -Theta.min(initial=0.0))) * Theta.shape[1] * r_max
    scan = not bound < np.finfo(float).max / 2

    def run(block_starts):
        buf = np.empty((min(rows, Theta.shape[0]), cols))
        for a in block_starts:
            T = Theta[a:a + rows]
            total = 0.0
            for c in range(0, n, cols):
                S = np.matmul(T, Rt[:, c:c + cols], out=buf[:len(T), :min(cols, n - c)])
                if scan and not np.all(np.isfinite(S)):
                    raise EvaluationError("non-finite linear predictor")
                total = total + prob.family.hsum(S, bound)
            # a sum is finite iff every term is, unless the finite terms overflow it
            if not np.all(np.isfinite(total)):
                raise EvaluationError("overflow in cumulant h")
            out[a:a + rows] = total

    # no empty run, and one for an empty Theta
    k = max(1, min(usable_cores() if workers is None else workers, len(starts)))
    runs = [starts[i * len(starts) // k:(i + 1) * len(starts) // k] for i in range(k)]
    pool_map(run, runs, k)
    for a in starts:   # the data and prior terms, on the calling thread, over the same blocks
        T = Theta[a:a + rows]
        out[a:a + rows] = out[a:a + rows] - T @ Rty + 0.5 * (T * T) @ g2
    return out


def derivatives(prob: Problem, theta: np.ndarray) -> tuple:
    """(nabla f, nabla^2 L) at theta, both from one linear predictor s = R theta."""
    R = prob.design.rows
    s = R @ theta
    if not np.all(np.isfinite(s)):
        raise EvaluationError("non-finite linear predictor")
    return (R.T @ (prob.family.h1(s) - prob.data.y) + prob.g2 * theta,
            (R * prob.family.h2(s)[:, None]).T @ R)


def map_solve(prob: Problem, theta0: np.ndarray | None = None) -> LaplaceFit:
    """Damped Newton with Armijo backtracking from theta0 (default 0); the fit
    keeps the derivatives of the last iterate and the Cholesky factor of its D_G^2."""
    theta = np.zeros(prob.p) if theta0 is None else np.asarray(theta0, dtype=float).copy()
    fv = f_value(prob, theta)
    for it in range(1, 201):
        g, hL = derivatives(prob, theta)
        DG2 = hL + np.diag(prob.g2)
        L = np.linalg.cholesky(DG2)
        step = tri_solve(L, tri_solve(L, g.copy()), trans=True)
        decrement2 = float(g @ step)
        gnorm = float(np.linalg.norm(g))
        if decrement2 <= 1e-18 or gnorm <= 1e-9 * (1.0 + abs(fv)):
            break
        # a predicted decrease below the rounding of f cannot pass the Armijo test; there
        # the full Newton step is taken unless f visibly grows.  That rounding may far
        # exceed eps |f| = eps |sum h - y's + prior| (near-separable Bernoulli data)
        noise = f_rounding(prob, theta, fv)
        resolved = 0.25 * decrement2 > noise
        t = 1.0
        for _ in range(60):
            try:
                with np.errstate(over="ignore"):   # an overflowing trial step raises, and halves
                    f_new = f_value(prob, theta - t * step)
            except EvaluationError:
                t *= 0.5
                continue
            if f_new <= fv - 0.25 * t * decrement2 or (not resolved and f_new <= fv + noise):
                theta = theta - t * step
                fv = f_new
                break
            t *= 0.5
        else:
            raise OptimizationError("line search failed at iter %d (f=%g, |g|=%g)"
                                    % (it, fv, gnorm))
    else:
        raise OptimizationError("Newton iteration cap (200) exceeded")

    if gnorm > 1e-9 * (1.0 + abs(fv)) * 10:
        raise OptimizationError("MAP gradient norm %g did not meet tolerance" % gnorm)
    return LaplaceFit(theta_hat=theta, hess_L=hL, DG2=DG2, L=L,
                      grad_norm=gnorm, newton_iters=it,
                      rq_sup=signal_sup_norm(prob.eig, theta), f_hat=fv)
