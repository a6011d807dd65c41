"""Eigenpairs of R R^T via the equivalent Sturm-Liouville problem.

The composite operator inverts -(a^2 h')' + (b^2 - (ab)') h = mu h with
h(0) = 0 and a(1) h'(1) + b(1) h(1) = 0.  A Liouville change of variables
t(x) = int_0^x 1/a reduces this to -u'' + Q u = mu u on [0, T], which we
solve by shooting (vectorized RK4).  A scan in mu brackets each eigenvalue
by a sign change of the boundary function B(mu) = c1 u'(T) + c2 u(T); the
Illinois method (regula falsi with halving of the retained endpoint's B)
then refines every bracket at once, each iterate staying inside its own
bracket.  The oscillation count of the final eigenfunctions is verified,
so no mode can be silently skipped.  An independent cross-check,
`svd_oracle`, takes the top of the weighted SVD of R's discretization by
Lanczos iteration on its O(N) matrix-free apply.
"""
from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, fields

import numpy as np

from .operators import (CoefficientPair, _apply_R_transpose, apply_R, cumulative_trapezoid,
                        grid, trapezoid_weights)


class EigenSolverError(RuntimeError):
    pass


class BracketError(EigenSolverError):
    """Scan window failed to bracket an eigenvalue."""


@dataclass(frozen=True)
class LiouvilleForm:
    T: float
    t_of_x: np.ndarray   # on the uniform x grid
    x_of_t: np.ndarray   # on the uniform t grid [0, T]
    Q: np.ndarray        # on the uniform t grid
    c1: float
    c2: float
    N: int

    @property
    def Q_sup(self) -> float:
        return float(np.abs(self.Q).max())


def _q_potential(spec: CoefficientPair, x: np.ndarray) -> np.ndarray:
    # Q = b^2 - (ab)' + (a')^2/4 + a a''/2, evaluated with exact poly derivatives
    a, b = spec.a(x), spec.b(x)
    a1, a2, b1 = spec.a1(x), spec.a2(x), spec.b1(x)
    return b * b - (a1 * b + a * b1) + 0.25 * a1 * a1 + 0.5 * a * a2


def liouville_transform(spec: CoefficientPair, N: int) -> LiouvilleForm:
    x = grid(N)
    t_of_x = cumulative_trapezoid(1.0 / spec.a(x), 1.0 / N)
    T = float(t_of_x[-1])
    t = np.linspace(0.0, T, N + 1)
    x_of_t = np.interp(t, t_of_x, x)
    Q = _q_potential(spec, x_of_t)
    # right boundary of u from a(1) psi'(1) + b(1) psi(1) = 0 with psi = a^{-1/2} u(t(x))
    c1 = 1.0
    c2 = float(spec.b(1.0) - 0.5 * spec.a1(1.0))
    return LiouvilleForm(T=T, t_of_x=t_of_x, x_of_t=x_of_t, Q=Q, c1=c1, c2=c2, N=N)


@dataclass(frozen=True)
class EigenSystem:
    lambdas: np.ndarray          # strictly decreasing, positive
    x: np.ndarray                # uniform grid on [0,1]
    psi: np.ndarray              # (K, N+1), L2[0,1]-normalized, psi_k(0)=0
    dpsi: np.ndarray             # analytic derivative via the chain rule
    sup_norms: np.ndarray
    deriv_sup_norms: np.ndarray
    vk_inf: np.ndarray           # ||v_k||_inf with v_k = u_k / u_k'(0)
    dvk_inf: np.ndarray
    vk_l2: np.ndarray
    T: float = 1.0
    Q_sup: float = 0.0
    method: str = "shooting"

    def __post_init__(self):
        lam = self.lambdas
        if np.any(lam <= 0) or np.any(np.diff(lam) >= 0):
            raise EigenSolverError("eigenvalues must be positive and strictly decreasing")


def _rk4_shoot(Qh: np.ndarray, T: float, mu: np.ndarray, keep_path: bool = False):
    """Integrate u'' = (Q - mu) u, u(0)=0, u'(0)=1 on the uniform t grid.

    Qh holds Q on the half-step grid (2N+1 points).  Vectorized over the mu
    axis.  Returns (u_T, up_T); with keep_path, (u_T, up_T, interior zero
    counts, path, dpath).

    A classical RK4 step of this linear system is the 2x2 transfer matrix
    [[A, B], [C, D]] acting on (u, u').  Its entries are polynomials in mu
    of degree <= 2; only the coefficients that depend on Q are per-step
    (O(N) scalars), and the matrix itself is formed one step at a time for
    the columns being shot, so memory stays O(columns).
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    N = (Qh.size - 1) // 2
    h = T / N
    h2, h3, h4 = h * h, h ** 3, h ** 4
    q0, qm, q1 = Qh[0:-1:2], Qh[1::2], Qh[2::2]
    # With w = Q - mu at the step's start (w0), midpoint (wm) and end (w1):
    #   A = 1 + h^2/6 (w0 + 2 wm) + h^4/24 wm w0     B = h + h^3/6 wm
    #   C = h/6 (w0 + 4 wm + w1) + h^3/12 wm (w0 + w1)
    #   D = 1 + h^2/6 (2 wm + w1) + h^4/24 wm w1
    # expanded in powers of mu: A = a0 + a1 mu + (h^4/24) mu^2, and so on.
    a0 =1.0 + h2 / 6.0 * (q0 + 2.0 * qm) + h4 / 24.0 * qm * q0
    a1 = -0.5 * h2 - h4 / 24.0 * (q0 + qm)
    b0 = h + h3 / 6.0 * qm
    c0 = h / 6.0 * (q0 + 4.0 * qm + q1) + h3 / 12.0 * qm * (q0 + q1)
    c1 = -h - h3 / 12.0 * (q0 + 2.0 * qm + q1)
    d0 = 1.0 + h2 / 6.0 * (2.0 * qm + q1) + h4 / 24.0 * qm * q1
    d1 = -0.5 * h2 - h4 / 24.0 * (qm + q1)
    quad_ad = h4 / 24.0 * mu * mu      # mu^2 terms of A and D
    quad_c = h3 / 6.0 * mu * mu
    lin_b = -h3 / 6.0 * mu
    u = np.zeros_like(mu)
    up = np.ones_like(mu)
    path = np.empty((N + 1,) + mu.shape) if keep_path else None
    dpath = np.empty((N + 1,) + mu.shape) if keep_path else None
    if keep_path:
        path[0], dpath[0] = u, up
    # memoryviews yield Python floats (cheap to multiply an array by) one step
    # at a time; lists of all of them would add ~1 MB to the peak RSS
    steps = zip(*map(memoryview, (a0, a1, b0, c0, c1, d0, d1)))
    for i, (a0i, a1i, b0i, c0i, c1i, d0i, d1i) in enumerate(steps, 1):
        A = a1i * mu + quad_ad + a0i
        B = lin_b + b0i
        C = c1i * mu + quad_c + c0i
        D = d1i * mu + quad_ad + d0i
        u, up = A * u + B * up, C * u + D * up
        if keep_path:
            path[i], dpath[i] = u, up
    if keep_path:
        return u, up, _interior_zeros(path), path, dpath
    return u, up


def _interior_zeros(path: np.ndarray) -> np.ndarray:
    """Sign changes down each column of path[1:], with exact zeros skipped."""
    s = np.sign(path[1:])
    # carry the last non-zero sign over exact zeros
    last = np.where(s != 0, np.arange(s.shape[0])[:, None], 0)
    np.maximum.accumulate(last, axis=0, out=last)
    s = np.take_along_axis(s, last, axis=0)
    return np.count_nonzero(s[1:] * s[:-1] < 0, axis=0)


def _half_step_Q(spec: CoefficientPair, form: LiouvilleForm) -> np.ndarray:
    N = form.N
    t = np.linspace(0.0, form.T, 2 * N + 1)
    xh = np.interp(t, form.t_of_x, grid(N))
    return _q_potential(spec, xh)


def solve_eigs(form: LiouvilleForm, spec: CoefficientPair, K: int,
               rel_tol: float = 1e-10) -> EigenSystem:
    """First K eigenpairs by boundary shooting: mu scan brackets, Illinois refinement."""
    if K < 1:
        raise ValueError("K >= 1")
    N = form.N
    if N < 1024:
        raise ValueError("N >= 1024 required for eigen work")
    Qh = _half_step_Q(spec, form)
    T, c1, c2 = form.T, form.c1, form.c2

    def boundary(mu):
        u, up = _rk4_shoot(Qh, T, mu)
        return c1 * up + c2 * u

    unit = (np.pi / T) ** 2
    mu_hi = ((K + 2.0) ** 2) * unit + max(0.0, float(form.Q.max()))
    # geometric seed near zero, then linear at quarter-spacing of the asymptote
    scan = np.concatenate([
        unit * np.geomspace(1e-6, 0.25, 24),
        np.arange(0.25 * unit, mu_hi, 0.5 * unit),
    ])
    B = boundary(scan)
    sgn = np.sign(B)
    flips = np.nonzero(sgn[:-1] * sgn[1:] < 0)[0]
    if flips.size < K:
        raise BracketError("found %d brackets, need %d (index %d missing)"
                           % (flips.size, K, flips.size + 1))
    lo, hi = scan[flips[:K]], scan[flips[:K] + 1]
    Blo, Bhi = B[flips[:K]], B[flips[:K] + 1]
    # Illinois iteration, vectorized over the brackets not yet converged.
    # side: +1 if the last iterate replaced hi, -1 if it replaced lo.
    side = np.zeros(K, dtype=int)
    for _ in range(200):
        act = np.nonzero(hi - lo > rel_tol * hi)[0]
        if act.size == 0:
            break
        x0, x1, B0, B1 = lo[act], hi[act], Blo[act], Bhi[act]
        x = x1 - B1 * (x1 - x0) / (B1 - B0)
        # Stay half a tolerance inside the bracket: once the iterates reach a
        # root from one side, the next one lands past it and closes the bracket.
        gap = 0.5 * rel_tol * x0
        x = np.clip(x, x0 + gap, x1 - gap)
        Bx = boundary(x)
        new_hi = Bx * B1 > 0
        new_lo = Bx * B0 > 0
        root = ~(new_hi | new_lo)          # B(x) == 0 exactly
        hi[act] = np.where(new_hi | root, x, x1)
        lo[act] = np.where(new_lo | root, x, x0)
        # an endpoint retained twice in a row has its B halved
        Bhi[act] = np.where(new_hi, Bx, np.where(new_lo & (side[act] < 0), 0.5 * B1, B1))
        Blo[act] = np.where(new_lo, Bx, np.where(new_hi & (side[act] > 0), 0.5 * B0, B0))
        side[act] = new_hi.astype(int) - new_lo.astype(int)
    if np.any(hi - lo > rel_tol * hi):
        raise EigenSolverError("root finding did not converge in 200 iterations")
    mu = 0.5 * (lo + hi)

    _, _, zeros, upath, dupath = _rk4_shoot(Qh, T, mu, keep_path=True)
    if not np.array_equal(zeros, np.arange(K)):
        raise EigenSolverError("oscillation counts %s inconsistent with indices 1..%d"
                               % (zeros.tolist(), K))

    # v_k = u_k / u_k'(0) is the raw trajectory (u'(0) = 1 by construction)
    tgrid = np.linspace(0.0, T, N + 1)
    vk_inf = np.abs(upath).max(axis=0)
    dvk_inf = np.abs(dupath).max(axis=0)
    vk_l2 = np.sqrt(np.trapezoid(upath ** 2, tgrid, axis=0))

    # back-transform psi_k(x) = u_k(t(x)) a(x)^{-1/2}; chain rule for psi'
    x = grid(N)
    a = spec.a(x)
    a1 = spec.a1(x)
    # Column-major, so the K values at each grid point are adjacent.  Products
    # over k (e.g. theta @ psi[:p]) round differently in the other layout, and
    # every artifact is pinned to this one; the .npz cache keeps it.
    psi = np.empty((K, N + 1), order="F")
    dpsi = np.empty((K, N + 1), order="F")
    for k in range(K):
        uk = np.interp(form.t_of_x, tgrid, upath[:, k])
        duk = np.interp(form.t_of_x, tgrid, dupath[:, k])
        psi[k] = uk / np.sqrt(a)
        dpsi[k] = (duk - 0.5 * a1 * uk) * a ** -1.5
        nrm = np.sqrt(np.trapezoid(psi[k] ** 2, dx=1.0 / N))
        psi[k] /= nrm
        dpsi[k] /= nrm
    psi[:, 0] = 0.0

    return EigenSystem(
        lambdas=1.0 / mu, x=x, psi=psi, dpsi=dpsi,
        sup_norms=np.abs(psi).max(axis=1),
        deriv_sup_norms=np.abs(dpsi).max(axis=1),
        vk_inf=vk_inf, dvk_inf=dvk_inf, vk_l2=vk_l2,
        T=T, Q_sup=form.Q_sup, method="shooting",
    )


def svd_oracle(spec: CoefficientPair, N: int, K: int) -> EigenSystem:
    """Independent eigenpairs from the top of the weighted SVD of R's discretization.

    With M the matrix of apply_R and w the trapezoid weights, the K largest
    eigenpairs of B B^T, B = w^{1/2} M w^{-1/2}, come from implicitly
    restarted Lanczos (ARPACK) on the O(N) applies of M and M^T; no dense
    matrix is formed.  The start vector is fixed, so repeated calls agree
    bit for bit.
    """
    from scipy.sparse.linalg import LinearOperator, eigsh

    w = trapezoid_weights(N)
    rw = np.sqrt(w)

    def BBt(v):
        return rw * apply_R(spec, _apply_R_transpose(spec, rw * v) / w)

    op = LinearOperator((N + 1, N + 1), matvec=BBt, dtype=float)
    s2, U = eigsh(op, k=K, which="LA", v0=np.ones(N + 1))
    order = np.argsort(s2)[::-1]
    lam, U = s2[order], U[:, order]
    x = grid(N)
    psi = np.empty((K, N + 1))
    for k in range(K):
        v = U[:, k] / rw
        # sign convention: increasing at 0, matching u'(0) > 0
        if v[: max(4, N // 64)].sum() < 0:
            v = -v
        psi[k] = v / np.sqrt(np.trapezoid(v ** 2, dx=1.0 / N))
    dpsi = np.gradient(psi, 1.0 / N, axis=1)
    return EigenSystem(
        lambdas=lam, x=x, psi=psi, dpsi=dpsi,
        sup_norms=np.abs(psi).max(axis=1),
        deriv_sup_norms=np.abs(dpsi).max(axis=1),
        vk_inf=np.full(K, np.nan), dvk_inf=np.full(K, np.nan),
        vk_l2=np.full(K, np.nan), method="svd",
    )


def eig_diagnostics(eig: EigenSystem) -> dict:
    """Report the v_k and psi_k regularity quantities, with bound flags.

    Flags are evaluated for indices past k*, the first k with
    rho_k = lambda_k^{-1/2} > 2 T ||Q||_inf (the asymptotic regime).
    """
    K = eig.lambdas.size
    ks = np.arange(1, K + 1)
    rho = eig.lambdas ** -0.5
    active = rho > 2.0 * eig.T * eig.Q_sup
    root_lam = np.sqrt(eig.lambdas)
    with np.errstate(invalid="ignore", divide="ignore"):
        c_est = np.nanmin((eig.vk_l2 / root_lam)[active]) if active.any() else np.nan
    report = {
        "k": ks,
        "psi_sup": eig.sup_norms,
        "dpsi_sup_over_k": eig.deriv_sup_norms / ks,
        "vk_inf": eig.vk_inf,
        "dvk_inf": eig.dvk_inf,
        "vk_l2": eig.vk_l2,
        "active": active,
        "vk_inf_violations": int(np.sum(active & (eig.vk_inf > 2.0 * root_lam))),
        "dvk_inf_violations": int(np.sum(active & (eig.dvk_inf > 2.0))),
        "vk_l2_c_estimate": float(c_est),
    }
    return report


# --- cache: one eig_<key>.npz per (a, b, N, K, solver version) ---

# Bump whenever a solver change can alter the stored eigenpairs, so caches
# written by an older solver are never served.  1: bisection; 2: Illinois.
SOLVER_VERSION = 2


def _cache_key(spec: CoefficientPair, N: int, K: int) -> str:
    payload = {"spec": spec.to_dict(), "N": N, "K": K, "solver_version": SOLVER_VERSION}
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def _write_atomic(path: str, write) -> None:
    """Call write(tmp_path), then move the finished file into place."""
    tmp = "%s.%d.tmp" % (path, os.getpid())
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _cache_path(spec: CoefficientPair, N: int, K: int, cache_dir: str) -> str:
    return os.path.join(cache_dir, "eig_%s.npz" % _cache_key(spec, N, K))


def save_eigensystem(eig: EigenSystem, spec: CoefficientPair, cache_dir: str) -> str:
    """Write every EigenSystem field plus the solver version to one .npz; returns its path."""
    path = _cache_path(spec, eig.x.size - 1, eig.lambdas.size, cache_dir)
    os.makedirs(cache_dir, exist_ok=True)

    def write(tmp):
        # an open handle: given a name, np.savez would append ".npz" to it
        with open(tmp, "wb") as fh:
            np.savez(fh, solver_version=SOLVER_VERSION,
                     **{f.name: getattr(eig, f.name) for f in fields(EigenSystem)})

    _write_atomic(path, write)
    return path


def load_eigensystem(spec: CoefficientPair, N: int, K: int, cache_dir: str) -> EigenSystem | None:
    path = _cache_path(spec, N, K, cache_dir)
    if not os.path.exists(path):
        return None
    with np.load(path, allow_pickle=False) as npz:
        arrays = {f.name: npz[f.name] for f in fields(EigenSystem)}
    return EigenSystem(**dict(arrays, T=float(arrays["T"]), Q_sup=float(arrays["Q_sup"]),
                              method=str(arrays["method"])))


def cached_solve(spec: CoefficientPair, N: int, K: int, cache_dir: str | None = None) -> EigenSystem:
    if cache_dir is not None:
        eig = load_eigensystem(spec, N, K, cache_dir)
        if eig is not None:
            return eig
    form = liouville_transform(spec, N)
    eig = solve_eigs(form, spec, K)
    if cache_dir is not None:
        save_eigensystem(eig, spec, cache_dir)
    return eig
