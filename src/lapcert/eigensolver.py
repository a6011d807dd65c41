"""Eigenpairs of R R^T via the equivalent Sturm-Liouville problem.

The composite operator inverts -(a^2 h')' + (b^2 - (ab)') h = mu h with
h(0) = 0 and a(1) h'(1) + b(1) h(1) = 0.  A Liouville change of variables
t(x) = int_0^x 1/a reduces this to -u'' + Q u = mu u on [0, T], which we solve
by shooting: RK4 steps, cut into ~sqrt(N) groups of ~sqrt(N), multiplied as 2x2
transfer matrices, vectorized over groups and mu.  A scan in mu from a floor
below which no eigenvalue lies, uniform in sqrt(mu - max Q) above a knee, where
the eigenvalues are spaced evenly in it, brackets each eigenvalue by a sign change
of the boundary function B(mu) = u'(T) + c2 u(T); the Illinois method (regula falsi
with halving of the retained endpoint's B) refines every bracket at once, each
iterate staying inside its own bracket.  The oscillation count of the final
eigenfunctions is verified, so no mode can be silently skipped.  Scan, Illinois and count
take one sign rule, `_sign_flips`: two values differ in sign iff their sign bits do.  An
independent cross-check, `svd_oracle`, takes the top of the weighted SVD of R's
discretization by Lanczos iteration on its O(N) matrix-free apply.  `cached_solve` keeps
solves in .npz entries named by their key's crc32, each serving only its own stored key.
"""
from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, fields, replace
from pathlib import Path
from zipfile import BadZipFile, ZipFile
from zlib import crc32

import numpy as np

from .operators import (CoefficientPair, OperatorSpecError, _apply_R_transpose, apply_R,
                        cumulative_trapezoid, grid, poly, trapezoid_weights)


class EigenSolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class LiouvilleForm:
    T: float
    t_of_x: np.ndarray   # on the uniform x grid
    Qh: np.ndarray       # on the half-step t grid (2N+1 points); Qh[::2] is the t grid
    c2: float
    N: int

    @property
    def Q_sup(self) -> float:
        return float(np.abs(self.Qh[::2]).max())


def _q_potential(spec: CoefficientPair, x: np.ndarray) -> np.ndarray:
    # Q = b^2 - (ab)' + (a')^2/4 + a a''/2, evaluated with exact poly derivatives
    a, a1, a2 = (poly(spec.a, x, d) for d in range(3))
    b, b1 = poly(spec.b, x), poly(spec.b, x, 1)
    return b * b - (a1 * b + a * b1) + 0.25 * a1 * a1 + 0.5 * a * a2


def liouville_transform(spec: CoefficientPair, N: int) -> LiouvilleForm:
    """Liouville form on N steps; OperatorSpecError if T = int 1/a, Q or c2 is not finite."""
    x = grid(N)
    with np.errstate(all="ignore"):   # a non-finite form is refused below, by name
        t_of_x = cumulative_trapezoid(1.0 / poly(spec.a, x), 1.0 / N)
        T = float(t_of_x[-1])
        # linspace(0, T, 2N+1)[::2] equals linspace(0, T, N+1) exactly
        Qh = _q_potential(spec, np.interp(np.linspace(0.0, T, 2 * N + 1), t_of_x, x))
        # right boundary of u from a(1) psi'(1) + b(1) psi(1) = 0 with psi = a^{-1/2} u(t(x))
        c2 = float(poly(spec.b, 1.0) - 0.5 * poly(spec.a, 1.0, 1))
    for name, value in (("T = int 1/a", T), ("max |Q|", np.abs(Qh).max()), ("c2", c2)):
        if not np.isfinite(value):
            raise OperatorSpecError("Liouville form not finite: %s = %g" % (name, value))
    return LiouvilleForm(T=T, t_of_x=t_of_x, Qh=Qh, c2=c2, N=N)


@dataclass(frozen=True)
class EigenSystem:
    """The first K eigenpairs: psi and dpsi hold the leading modes, lambdas and norms all K."""
    lambdas: np.ndarray          # strictly decreasing, positive
    x: np.ndarray                # uniform grid on [0,1]
    psi: np.ndarray              # (modes, N+1), L2[0,1]-normalized, psi_k(0)=0
    dpsi: np.ndarray             # analytic derivative via the chain rule
    psi_sup: np.ndarray          # max |psi_k| on the grid
    dpsi_sup: np.ndarray         # max |psi_k'| on the grid
    vk_inf: np.ndarray           # ||v_k||_inf with v_k = u_k / u_k'(0)
    dvk_inf: np.ndarray
    vk_l2: np.ndarray
    T: float                     # the Liouville interval's length, int_0^1 1/a
    Q_sup: float                 # max |Q| on the t grid

    def __post_init__(self):
        lam = self.lambdas
        if np.any(lam <= 0) or np.any(np.diff(lam) >= 0):
            raise EigenSolverError("eigenvalues must be positive and strictly decreasing")

    def leading(self, m: int) -> EigenSystem:
        """This system with psi and dpsi cut to their first m rows, as column-major copies."""
        return replace(self, psi=np.asfortranarray(self.psi[:m]),
                       dpsi=np.asfortranarray(self.dpsi[:m]))


def _row_sups(f: np.ndarray) -> np.ndarray:   # np.abs(f).max(axis=1) to the bit, no |f| copy
    return np.maximum(f.max(axis=1), -f.min(axis=1))


def _shoot_table(Qh: np.ndarray, T: float) -> np.ndarray:
    N = (Qh.size - 1) // 2
    h = T / N
    h2, h3, h4 = h * h, h ** 3, h ** 4
    q0, qm, q1 = Qh[0:-1:2], Qh[1::2], Qh[2::2]
    g = math.isqrt(N - 1) + 1   # ceil(sqrt(N)) steps per group, in G = ceil(N / g) groups
    # With w = Q - mu at the step's start (w0), midpoint (wm) and end (w1):
    #   A = 1 + h^2/6 (w0 + 2 wm) + h^4/24 wm w0     B = h + h^3/6 wm
    #   C = h/6 (w0 + 4 wm + w1) + h^3/12 wm (w0 + w1)
    #   D = 1 + h^2/6 (2 wm + w1) + h^4/24 wm w1
    coef = np.zeros((3, 2, 2, -(-N // g) * g))   # coef[p, i, j, k, s]: the mu^p coefficients
    coef[..., :N] = np.reshape(np.broadcast_arrays(   # of entry (i, j), step s of group k
        1.0 + h2 / 6.0 * (q0 + 2.0 * qm) + h4 / 24.0 * qm * q0, h + h3 / 6.0 * qm,   # a0, b0
        h / 6.0 * (q0 + 4.0 * qm + q1) + h3 / 12.0 * qm * (q0 + q1),                  # c0
        1.0 + h2 / 6.0 * (2.0 * qm + q1) + h4 / 24.0 * qm * q1,                       # d0
        -0.5 * h2 - h4 / 24.0 * (q0 + qm), -h3 / 6.0,                                 # a1, b1
        -h - h3 / 12.0 * (q0 + 2.0 * qm + q1), -0.5 * h2 - h4 / 24.0 * (qm + q1),     # c1, d1
        h4 / 24.0, 0.0, h3 / 6.0, h4 / 24.0), (3, 2, 2, N))                           # a2 .. d2
    coef[0, 0, 0, N:] = coef[0, 1, 1, N:] = 1.0   # a pad step is the identity
    return coef.reshape(3, 2, 2, -1, g)   # A = (a2 mu + a1) mu + a0, and so on


def _rk4_shoot(Qh: np.ndarray, T: float, mu: np.ndarray, keep_path: bool = False, *, table=None):
    """Integrate u'' = (Q - mu) u, u(0)=0, u'(0)=1 on the uniform t grid.

    Qh holds Q on the half-step grid (2N+1 points).  Vectorized over the mu
    axis.  Returns (u_T, up_T); with keep_path, (path, dpath) instead, whose
    last rows are u_T and up_T.  table is _shoot_table(Qh, T), built if None.

    A classical RK4 step of this linear system is the 2x2 transfer matrix
    [[A, B], [C, D]] acting on (u, u'), whose entries are polynomials in mu of
    degree <= 2 with per-step coefficients.  The N steps are cut into G groups
    of g ~ sqrt(N), the last one padded with identity steps, and three passes,
    each vectorized over (groups, columns), step in Python g or G times: (1)
    every group's product of its g matrices; (2) the groups applied in turn to
    (0, 1), which ends at (u_T, up_T); (3) with keep_path only, every group
    stepped from its start state at once, into the path.  _SHOOT_COLUMNS
    columns at a time bound the memory.  A step forms its matrix in one buffer, E =
    (c2 mu + c1) mu + c0, whose c2 mu, the mu^2 row (h^4/24, 0, h^3/6, h^4/24) times mu,
    is taken once per block, and again with the last group's 0 for its pad steps, j >= N - (G-1) g.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    coef = _shoot_table(Qh, T) if table is None else table
    N, (G, g) = (Qh.size - 1) // 2, coef.shape[3:]

    def step(j, m, c2m, E, X):   # step j of each group at mu = m on X: (2, 1 or 2, G, m.size)
        np.add(c2m[j >= N - (G - 1) * g], coef[1, ..., j, None], out=E)   # c2m: (real, pad)
        E *= m
        E += coef[0, ..., j, None]
        return E[:, :1] * X[0] + E[:, 1:] * X[1]

    # a path's row 1 + k g + j: the state after step j of group k; pad steps copy row N exactly
    out = np.empty((2, G * g + 1 if keep_path else 1, mu.size))
    out[:, 0] = ((0.0,), (1.0,))
    for lo in range(0, mu.size, _SHOOT_COLUMNS):
        m = mu[lo:lo + _SHOOT_COLUMNS]
        c2m = coef[2, ..., :1, 0, None] * m, coef[2, ..., -1, None] * m if G * g > N else None
        E, P = np.empty((2, 2, G, m.size)), np.eye(2)[:, :, None, None]   # P broadcasts at step 0
        for j in range(g):
            P = step(j, m, c2m, E, P)
        S = np.empty((2, G + 1, m.size))   # the state at each group's start, and at T
        S[:, 0] = ((0.0,), (1.0,))
        for k in range(G):
            S[:, k + 1] = P[:, 0, k] * S[0, k] + P[:, 1, k] * S[1, k]
        out[:, -1, lo:lo + m.size] = S[:, G]
        if keep_path:
            X = S[:, None, :G]
            for j in range(g):
                X = step(j, m, c2m, E, X)
                out[:, 1 + j::g, lo:lo + m.size] = X[:, 0]
    return out[:, :N + 1] if keep_path else out[:, -1]


def _sign_flips(v: np.ndarray) -> np.ndarray:
    """Where v[i + 1] and v[i] differ in sign bit, down axis 0 (+0.0 positive, -0.0 negative)."""
    return np.diff(np.signbit(v), axis=0)


_MAX_ILLINOIS = 200   # cap on Illinois iterations; reaching it raises EigenSolverError
_MAX_SCAN = 1 << 20   # cap on a mu-uniform scan, which bounds ours; K = 50 on Volterra scans 232
_REL_TOL = 1e-10      # relative width at which an eigenvalue's bracket is converged
_SHOOT_COLUMNS = 64   # mu columns a shoot steps at a time: it bounds the (2, 2, G, 64) temporaries
# the sizes N and K for eigen work: path and dpath (then psi and dpsi) hold (N+1) K floats, and
# K = 722 is the largest whose mu-uniform scan at Q = 0 fits in _MAX_SCAN
MIN_N, MAX_N, MAX_K = 1024, 1 << 16, 722


def mu_scan_top(form: LiouvilleForm, K: int) -> float:
    """Top of the mu scan bracketing the first K <= MAX_K eigenvalues, (K + 2)^2 unit + max Q,
    unit = (pi / T)^2.  OperatorSpecError naming T or max |Q| if a mu-uniform scan up to it at
    unit / 2, which is at least as long as ours, is not finite or exceeds _MAX_SCAN points."""
    with np.errstate(all="ignore"):
        unit = (np.pi / np.float64(form.T)) ** 2
        t_fits = np.finfo(float).tiny <= unit and (K + 2) ** 2 * unit < np.inf   # else T's fault
        mu_hi = (K + 2) ** 2 * unit + np.maximum(0.0, form.Qh[::2].max())   # a NaN Q stays NaN
        fits = (mu_hi / unit - 0.25) / 0.5 <= _MAX_SCAN   # False on inf and NaN too
    if not (t_fits and fits):
        raise OperatorSpecError("mu scan for K = %d is not finite or exceeds %d points (%s)" % (
            K, _MAX_SCAN, "max |Q| = %g" % form.Q_sup if t_fits else "T = %g" % form.T))
    return float(mu_hi)


def solve_eigs(form: LiouvilleForm, spec: CoefficientPair, K: int) -> EigenSystem:
    """First K eigenpairs by boundary shooting: mu scan brackets, Illinois refinement."""
    if not 1 <= K <= MAX_K:
        raise ValueError("K in [1, %d] required" % MAX_K)
    N, Qh, T, c2 = form.N, form.Qh, form.T, form.c2
    if not MIN_N <= N <= MAX_N:
        raise ValueError("N in [%d, %d] required for eigen work" % (MIN_N, MAX_N))

    def boundary(mu):
        u, up = _rk4_shoot(Qh, T, mu, table=table)
        return up + c2 * u

    mu_hi = mu_scan_top(form, K)   # refuses first, so the float arithmetic below cannot raise
    table = _shoot_table(Qh, T)   # every shoot of this solve steps by one table
    unit = (np.pi / T) ** 2
    q = mu_hi - (K + 2) ** 2 * unit   # max(0, max Q), as mu_scan_top added it
    # mu |u|^2 = |u'|^2 + c2 u(T)^2 + int Q u^2 and u(T)^2 <= e |u'|^2 + |u|^2 / e, e = 1 / |c2|,
    # so mu_1 >= min Q - max(0, -c2)^2; one unit less covers RK4 error and Q between grid points
    floor = max(0.0, float(Qh.min()) - max(0.0, -c2) ** 2 - unit)
    # from it to the knee q + 4 unit, where Q can crowd the eigenvalues: a geometric seed, then
    # mu-uniform at unit / 2.  Above it, s = sqrt(mu - q) at sqrt(unit) / 4: mu - Q >= s^2, so
    # the phase int sqrt(mu - Q) grows by <= T per unit of s, and the s_k are >= sqrt(unit) apart
    scan = np.concatenate([
        floor + unit * np.geomspace(1e-6, 0.25, 24),
        np.arange(floor + 0.25 * unit, q + 4.0 * unit, 0.5 * unit),
        q + np.arange(2.0 * np.sqrt(unit), np.sqrt(mu_hi - q), 0.25 * np.sqrt(unit)) ** 2,
    ])
    B = boundary(scan)
    flips = np.flatnonzero(_sign_flips(B))
    if flips.size < K:
        raise EigenSolverError("found %d brackets, need %d (index %d missing)"
                               % (flips.size, K, flips.size + 1))
    lo, hi, Blo, Bhi = scan[flips[:K]], scan[flips[:K] + 1], B[flips[:K]], B[flips[:K] + 1]
    # Illinois iteration, vectorized over the brackets not yet converged.
    # side: 1 if the last iterate replaced hi, 0 if it replaced lo, -1 before the first.
    side = np.full(K, -1)
    for _ in range(_MAX_ILLINOIS):
        act = np.nonzero(hi - lo > _REL_TOL * hi)[0]
        if act.size == 0:
            break
        x0, x1, B0, B1 = lo[act], hi[act], Blo[act], Bhi[act]
        x = x1 - B1 * (x1 - x0) / (B1 - B0)
        # Stay half a tolerance inside the bracket: once the iterates reach a
        # root from one side, the next one lands past it and closes the bracket.
        gap = 0.5 * _REL_TOL * x0
        x = np.clip(x, x0 + gap, x1 - gap)
        Bx = boundary(x)
        new_hi = np.signbit(Bx) == np.signbit(B1)   # _sign_flips' rule: x replaces hi
        half = np.where(side[act] == new_hi, 0.5, 1.0)   # an end kept twice in a row: B halved
        hi[act] = np.where(new_hi, x, x1)
        lo[act] = np.where(new_hi, x0, x)
        Bhi[act] = np.where(new_hi, Bx, half * B1)
        Blo[act] = np.where(new_hi, half * B0, Bx)
        side[act] = new_hi
    if np.any(hi - lo > _REL_TOL * hi):
        raise EigenSolverError("root finding did not converge in %d iterations"
                               % _MAX_ILLINOIS)
    mu = 0.5 * (lo + hi)

    upath, dupath = _rk4_shoot(Qh, T, mu, keep_path=True, table=table)
    del table   # 12 N floats, not held through the back-transform
    # v_k = u_k / u_k'(0) is the raw trajectory (u'(0) = 1).  The path is read ~8 columns at a
    # time, with no (N+1, K) temporary; never 1 column (trapezoid sums it pairwise: other bits)
    tgrid = np.linspace(0.0, T, N + 1)
    dt = np.diff(tgrid)[:, None]
    vk_inf, dvk_inf = _row_sups(upath.T), _row_sups(dupath.T)   # whole: a reduction copies nothing
    zeros, vk_l2, nb = np.empty(K, dtype=int), np.empty(K), -(-K // 8)
    for i in range(nb):
        c = slice(i * K // nb, (i + 1) * K // nb)
        zeros[c] = np.count_nonzero(_sign_flips(upath[1:, c]), axis=0)
        u2 = upath[:, c] ** 2   # np.trapezoid(u2, tgrid, axis=0)'s arithmetic, in place
        s = u2[1:] + u2[:-1]
        s *= dt
        s /= 2.0
        vk_l2[c] = np.sqrt(s.sum(axis=0))
    if not np.array_equal(zeros, np.arange(K)):
        raise EigenSolverError("oscillation counts %s inconsistent with indices 1..%d"
                               % (zeros.tolist(), K))

    # back-transform psi_k(x) = u_k(t(x)) a(x)^{-1/2}; chain rule for psi'
    x = grid(N)
    ra, ha1, a_15 = np.sqrt(poly(spec.a, x)), 0.5 * poly(spec.a, x, 1), poly(spec.a, x) ** -1.5
    # Column-major, so the K values at each grid point are adjacent.  Products
    # over k (e.g. theta @ psi[:p]) round differently in the other layout, and
    # every artifact is pinned to this one; the .npz cache keeps it.  The path's
    # own memory: its column k is read before row k of psi is written over it.
    psi, dpsi = upath.T, dupath.T
    for k in range(K):
        uk = np.interp(form.t_of_x, tgrid, upath[:, k])
        duk = np.interp(form.t_of_x, tgrid, dupath[:, k])
        psi[k] = uk / ra
        dpsi[k] = (duk - ha1 * uk) * a_15
        nrm = np.sqrt(np.trapezoid(psi[k] ** 2, dx=1.0 / N))
        psi[k], dpsi[k] = psi[k] / nrm, dpsi[k] / nrm
    psi[:, 0] = 0.0

    return EigenSystem(lambdas=1.0 / mu, x=x, psi=psi, dpsi=dpsi, psi_sup=_row_sups(psi),
                       dpsi_sup=_row_sups(dpsi), vk_inf=vk_inf, dvk_inf=dvk_inf, vk_l2=vk_l2,
                       T=T, Q_sup=form.Q_sup)


def svd_oracle(spec: CoefficientPair, N: int, K: int) -> EigenSystem:
    """Independent eigenpairs from the top of the weighted SVD of R's discretization.

    With M the matrix of apply_R and w the trapezoid weights, the K largest
    eigenpairs of B B^T, B = w^{1/2} M w^{-1/2}, come from implicitly
    restarted Lanczos (ARPACK) on the O(N) applies of M and M^T; no dense
    matrix is formed.  The start vector is fixed, so repeated calls agree
    bit for bit.  Needs scipy, which the install's `test` extra brings.
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
    form = liouville_transform(spec, N)
    return EigenSystem(lambdas=lam, x=x, psi=psi, dpsi=dpsi, psi_sup=_row_sups(psi),
                       dpsi_sup=_row_sups(dpsi), vk_inf=np.full(K, np.nan),
                       dvk_inf=np.full(K, np.nan), vk_l2=np.full(K, np.nan),
                       T=form.T, Q_sup=form.Q_sup)


def eig_diagnostics(eig: EigenSystem) -> dict:
    """Report the v_k and psi_k regularity quantities, with bound flags.

    Flags are evaluated for indices past k*, the first k with
    rho_k = lambda_k^{-1/2} > 2 T ||Q||_inf (the asymptotic regime), whose v_k
    quantities are finite (`vk_checked` of them: the SVD oracle stores NaN).
    """
    ks = np.arange(1, eig.lambdas.size + 1)
    rho = eig.lambdas ** -0.5
    active = rho > 2.0 * eig.T * eig.Q_sup
    root_lam = np.sqrt(eig.lambdas)
    checked = active & np.isfinite(eig.vk_inf) & np.isfinite(eig.dvk_inf) & np.isfinite(eig.vk_l2)
    c_est = np.min(eig.vk_l2[checked] / root_lam[checked]) if checked.any() else np.nan
    return {
        "k": ks,
        "psi_sup": eig.psi_sup,
        "dpsi_sup_over_k": eig.dpsi_sup / ks,
        "vk_inf": eig.vk_inf,
        "dvk_inf": eig.dvk_inf,
        "vk_l2": eig.vk_l2,
        "active": active,
        "vk_checked": int(checked.sum()),
        "vk_inf_violations": int(np.sum(checked & (eig.vk_inf > 2.0 * root_lam))),
        "dvk_inf_violations": int(np.sum(checked & (eig.dvk_inf > 2.0))),
        "vk_l2_c_estimate": float(c_est),
    }


# --- cache: one eig_<crc32 of key>.npz per (a, b, N, K, solver code), holding its key ---

@functools.cache   # read once, at the first cache access
def _solver_source() -> bytes:
    return b"".join(Path(path).read_bytes()
                    for path in (__file__, Path(__file__).with_name("operators.py")))


def _cache_key(spec: CoefficientPair, N: int, K: int) -> bytes:
    # another operator, solver code or numpy gives another key, which the entry stores
    payload = {"spec": {"a": list(spec.a), "b": list(spec.b)}, "N": N, "K": K,
               "numpy": np.__version__}
    return json.dumps(payload, sort_keys=True).encode() + _solver_source()


def _cache_path(key: bytes, cache_dir: str) -> str:
    # a checksum, not a hash: two keys may share a name, and the stored key tells them apart
    return os.path.join(cache_dir, "eig_%08x.npz" % crc32(key))


def save_eigensystem(eig: EigenSystem, spec: CoefficientPair, cache_dir: str) -> str:
    """Write every EigenSystem field and the key to one .npz, over any entry of its name."""
    key = _cache_key(spec, eig.x.size - 1, eig.lambdas.size)
    path = _cache_path(key, cache_dir)
    os.makedirs(cache_dir, exist_ok=True)
    tmp = "%s.%d.tmp" % (path, os.getpid())   # moved into place once whole; a failure leaves none
    arrays = {"key": np.frombuffer(key, dtype=np.uint8),
              **{f.name: np.asarray(getattr(eig, f.name)) for f in fields(EigenSystem)}}
    try:
        # np.savez's archive, each member written from the array's own memory (savez copies it
        # whole): a column-major array's bytes are those of its C-contiguous transpose
        with ZipFile(tmp, "w") as zf:
            for name, a in arrays.items():
                header = np.lib.format.header_data_from_array_1_0(a)
                with zf.open(name + ".npy", "w", force_zip64=True) as fh:
                    np.lib.format.write_array_header_1_0(fh, header)
                    fh.write(memoryview(a.T if header["fortran_order"] else a))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return path


def load_eigensystem(spec: CoefficientPair, N: int, K: int, cache_dir: str) -> EigenSystem | None:
    """The entry of this key, or None: no entry, another key's, or one that cannot be read."""
    key = _cache_key(spec, N, K)
    path = _cache_path(key, cache_dir)
    if not os.path.exists(path):
        return None
    try:
        with np.load(path, allow_pickle=False) as npz:
            if "key" not in npz or npz["key"].tobytes() != key:
                return None
            arrays = {f.name: npz[f.name] for f in fields(EigenSystem)}
    except (BadZipFile, EOFError, ValueError):   # a damaged entry, which cached_solve rewrites
        return None
    return EigenSystem(**dict(arrays, T=float(arrays["T"]), Q_sup=float(arrays["Q_sup"])))


def cached_solve(spec: CoefficientPair, N: int, K: int, cache_dir: str | None = None) -> EigenSystem:
    if cache_dir is not None:
        eig = load_eigensystem(spec, N, K, cache_dir)
        if eig is not None:
            return eig
    eig = solve_eigs(liouville_transform(spec, N), spec, K)
    if cache_dir is not None:
        save_eigensystem(eig, spec, cache_dir)
    return eig
