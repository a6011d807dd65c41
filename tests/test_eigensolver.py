import math
import os
import tracemalloc
import zipfile
from dataclasses import fields

import numpy as np
import pytest
from scipy.optimize import brentq

import lapcert.eigensolver as eigensolver
from lapcert.eigensolver import (EigenSystem, _q_potential, _rk4_shoot, cached_solve,
                                 eig_diagnostics, liouville_transform,
                                 load_eigensystem, save_eigensystem,
                                 solve_eigs, svd_oracle)
from lapcert.operators import VOLTERRA, CoefficientPair, OperatorSpecError, grid, poly

from conftest import SPEC_CORPUS
from probes import l2_inner


def test_orthonormality(corpus_eigs):
    for eig in corpus_eigs:
        for i in (0, 3, 10):
            for j in (0, 3, 10):
                want = 1.0 if i == j else 0.0
                assert l2_inner(eig.psi[i], eig.psi[j]) == pytest.approx(want, abs=2e-4)


def test_eigenvalues_decreasing(corpus_eigs):
    for eig in corpus_eigs:
        assert np.all(np.diff(eig.lambdas) < 0)
        assert eig.lambdas[-1] > 0


def test_asymptote_rate(eig_cache):
    """k^2 lambda_k approaches pi^{-2} (int 1/a)^2 from above as k grows."""
    spec = CoefficientPair((1.0, 0.5), (0.1,))
    eig = cached_solve(spec, 4096, 50, eig_cache)
    k = np.arange(1, 51)
    limit = (2 * math.log(1.5)) ** 2 / math.pi ** 2
    ratio = k ** 2 * eig.lambdas / limit
    # the finite-index correction is (k/(k-1/2))^2 ~ 1 + 1/k
    corrected = ratio / (k / (k - 0.5)) ** 2
    assert np.max(np.abs(corrected[39:] - 1.0)) < 5e-3
    assert np.all(np.diff(np.abs(ratio - 1.0)[9:]) < 0)


def test_boundary_conditions(corpus_eigs):
    for eig in corpus_eigs:
        assert np.all(eig.psi[:, 0] == 0.0)


def test_robin_condition_at_one(corpus_eigs):
    """a(1) psi'(1) + b(1) psi(1) = 0 for each eigenfunction."""
    for spec, eig in zip(SPEC_CORPUS, corpus_eigs):
        a1, b1 = float(poly(spec.a, 1.0)), float(poly(spec.b, 1.0))
        for k in (0, 4, 14):
            resid = a1 * eig.dpsi[k, -1] + b1 * eig.psi[k, -1]
            scale = max(abs(eig.dpsi[k, -1]), abs(eig.psi[k, -1]), 1.0)
            assert abs(resid) / scale < 5e-3


def test_liouville_transform_fields():
    spec = CoefficientPair((1.0, 0.5), (0.1, 0.3))
    N = 2048
    form = liouville_transform(spec, N)
    assert form.T == pytest.approx(2 * math.log(1.5), rel=1e-8)
    # t(x) = 2 log(1 + x/2), inverted by x(t) = 2 (e^{t/2} - 1)
    xs = np.linspace(0, 1, N + 1)
    assert np.max(np.abs(form.t_of_x - 2 * np.log1p(xs / 2))) < 1e-8
    # Q = b^2 - (a'b + ab') + a'^2/4 + a a''/2 at x(t) on the half-step t grid
    x = 2 * (np.exp(np.linspace(0, form.T, 2 * N + 1) / 2) - 1)
    a, b = 1 + 0.5 * x, 0.1 + 0.3 * x
    assert np.max(np.abs(form.Qh - (b * b - (0.5 * b + 0.3 * a) + 0.0625))) < 1e-7
    assert form.c2 == pytest.approx(float(poly(spec.b, 1.0) - 0.5 * poly(spec.a, 1.0, 1)))


def test_half_step_potential_holds_the_grid_potential():
    """Qh[::2] is the potential on the N+1 point t grid, bit for bit."""
    for spec in SPEC_CORPUS:
        for N in (1024, 4096):
            form = liouville_transform(spec, N)
            t = np.linspace(0.0, form.T, N + 1)
            Q = _q_potential(spec, np.interp(t, form.t_of_x, grid(N)))
            assert np.array_equal(form.Qh[::2], Q), (spec, N)
            assert form.Q_sup == float(np.abs(Q).max())


def test_sturm_liouville_residual(eig_cache):
    """-(a^2 h')' + (b^2 - (ab)') h = lambda^{-1} h away from the endpoints."""
    spec = CoefficientPair((1.0, 0.0, 0.25), (0.2, 0.1))
    eig = cached_solve(spec, 4096, 20, eig_cache)
    x = eig.x
    a, a1, b, b1 = poly(spec.a, x), poly(spec.a, x, 1), poly(spec.b, x), poly(spec.b, x, 1)
    a2 = a ** 2
    q = b ** 2 - (a1 * b + a * b1)
    for k in (2, 9):
        h = eig.psi[k]
        # one numerical derivative only: the stored dpsi is analytic
        flux = a2 * eig.dpsi[k]
        lhs = -np.gradient(flux, x) + q * h
        rhs = h / eig.lambdas[k]
        core = slice(200, -200)
        assert np.max(np.abs(lhs[core] - rhs[core])) / np.max(np.abs(rhs)) < 5e-3


def test_diagnostics_bounds(volterra_eig):
    d = eig_diagnostics(volterra_eig)
    assert d["vk_inf_violations"] == 0
    assert d["dvk_inf_violations"] == 0
    assert d["vk_l2_c_estimate"] > 0.1
    assert np.all(d["psi_sup"] < 3.0)


def test_oracle_diagnostics_judge_its_own_operator():
    """The SVD oracle's system carries its operator's T and max |Q|, so its
    diagnostics flag the same modes active as the solver's: none at b = 30
    (Q = 900), where the Volterra regime would flag all ten."""
    spec = CoefficientPair((1.0,), (30.0,))
    form = liouville_transform(spec, 2048)
    sv, eig = svd_oracle(spec, 2048, 10), solve_eigs(spec, 2048, 10)
    assert (sv.T, sv.Q_sup) == (eig.T, eig.Q_sup) == (form.T, form.Q_sup)
    active = eig_diagnostics(eig)["active"]
    assert not active.any()
    assert np.array_equal(eig_diagnostics(sv)["active"], active)


def test_diagnostics_count_only_checked_modes(volterra_eig):
    """eig_diagnostics judges v_k only where it is finite, with no numpy warning:
    the SVD oracle stores NaN v_k, so of its five active Volterra modes none is
    checked (no violation counted, no c estimate); the solver's are."""
    sv = eig_diagnostics(svd_oracle(VOLTERRA, 1024, 5))
    d = eig_diagnostics(volterra_eig)
    assert sv["active"].sum() == 5
    assert sv["vk_inf_violations"] == sv["dvk_inf_violations"] == 0
    assert np.isnan(sv["vk_l2_c_estimate"])
    assert d["active"].sum() > 0 and np.isfinite(d["vk_l2_c_estimate"])


def test_stored_sup_norms_are_the_grid_maxima(volterra_eig):
    """The per-mode sup norms a solve stores, which eigen.csv reports, are
    np.abs(psi).max(axis=1) and np.abs(dpsi).max(axis=1) bit for bit: for
    eigen_cold's operator (a = 1 + 0.5x, b = 0.5), Volterra and b = -4 at
    N = 4096, K = 50, and for the SVD oracle."""
    eigs = [volterra_eig, svd_oracle(VOLTERRA, 2048, 10)] + [
        solve_eigs(spec, 4096, 50)
        for spec in (CoefficientPair((1.0, 0.5), (0.5,)), CoefficientPair((1.0,), (-4.0,)))]
    for eig in eigs:
        for sup, f in ((eig.psi_sup, eig.psi), (eig.dpsi_sup, eig.dpsi)):
            assert np.array_equal(sup.view(np.int64), np.abs(f).max(axis=1).view(np.int64))


def test_leading_keeps_every_eigenvalue(volterra_eig):
    """leading(m) holds the first m eigenfunctions as column-major copies, equal
    to the full system's rows, and every eigenvalue and per-mode norm of all K."""
    lead = volterra_eig.leading(8)
    for name in ("psi", "dpsi"):
        got = getattr(lead, name)
        assert got.shape == (8, 4097) and got.flags.f_contiguous, name
        assert np.array_equal(got, getattr(volterra_eig, name)[:8]), name
    for f in fields(EigenSystem):
        if f.name not in ("psi", "dpsi"):
            assert getattr(lead, f.name) is getattr(volterra_eig, f.name), f.name


def test_cache_roundtrip(tmp_path, monkeypatch):
    spec = CoefficientPair((1.0, 0.5), (0.1,))
    eig = cached_solve(spec, 1024, 5, None)
    # every field comes back with its dtype, shape, bits and layout: the solver's column-major
    # psi and dpsi (the layout the artifacts are pinned to), and the oracle's row-major ones
    # beside its NaN v_k norms
    for system in (svd_oracle(spec, 1024, 5), eig):
        path = save_eigensystem(system, spec, str(tmp_path))
        # one .npz per entry, moved into place: no temporaries are left behind
        assert os.listdir(tmp_path) == [os.path.basename(path)] and path.endswith(".npz")
        back = load_eigensystem(spec, 1024, 5, str(tmp_path))
        assert back is not None
        for f in fields(EigenSystem):
            a, b = getattr(system, f.name), getattr(back, f.name)
            if f.name in ("T", "Q_sup"):
                assert type(b) is float and b == a, f.name
                continue
            assert (b.dtype, b.shape, b.tobytes()) == (a.dtype, a.shape, a.tobytes()), f.name
            assert (b.flags.c_contiguous, b.flags.f_contiguous) == (
                a.flags.c_contiguous, a.flags.f_contiguous), f.name
    assert eig.psi.flags.f_contiguous and not eig.psi.flags.c_contiguous
    # key depends on the coefficients
    assert load_eigensystem(VOLTERRA, 1024, 5, str(tmp_path)) is None
    # the entry holds its key, which holds the solver's code and numpy's version: an
    # entry written by other code, or under another numpy, is a miss
    other = str(tmp_path / "other")
    source = eigensolver._solver_source()
    for obj, name, value in ((eigensolver, "_solver_source", lambda: source + b"\n"),  # a byte more
                             (np, "__version__", np.__version__ + ".post1")):
        with monkeypatch.context() as m:
            m.setattr(obj, name, value)
            save_eigensystem(eig, spec, other)
            assert load_eigensystem(spec, 1024, 5, other) is not None
        assert load_eigensystem(spec, 1024, 5, other) is None
    assert load_eigensystem(spec, 1024, 5, str(tmp_path)) is not None


def test_cache_name_collision_is_a_miss(tmp_path, monkeypatch):
    """With every key's checksum equal, two operators share one file name, yet neither
    loads the other's eigensystem: each re-solves and overwrites the entry."""
    specs = (CoefficientPair((1.0, 0.5), (0.1,)), VOLTERRA)
    direct = [cached_solve(spec, 1024, 3, None) for spec in specs]
    monkeypatch.setattr(eigensolver, "crc32", lambda key: 0)
    solves = []

    def counted(*args, **kwargs):
        solves.append(1)
        return solve_eigs(*args, **kwargs)

    monkeypatch.setattr(eigensolver, "solve_eigs", counted)
    for spec, want in zip(specs * 2, direct * 2):
        eig = cached_solve(spec, 1024, 3, str(tmp_path))
        for name in ("lambdas", "psi", "dpsi"):
            assert np.array_equal(getattr(eig, name), getattr(want, name)), name
        assert os.listdir(tmp_path) == ["eig_00000000.npz"]
    assert len(solves) == 4
    assert cached_solve(VOLTERRA, 1024, 3, str(tmp_path)) is not None and len(solves) == 4


def test_cache_entry_without_key_is_a_miss(tmp_path):
    """An entry in the earlier format, every EigenSystem array and no stored key, is a
    miss and not an error: the next cached_solve re-solves once and overwrites it."""
    spec = CoefficientPair((1.0, 0.5), (0.1,))
    eig = cached_solve(spec, 1024, 3, None)
    path = eigensolver._cache_path(eigensolver._cache_key(spec, 1024, 3), str(tmp_path))
    with open(path, "wb") as fh:
        np.savez(fh, **{f.name: getattr(eig, f.name) for f in fields(EigenSystem)})
    assert load_eigensystem(spec, 1024, 3, str(tmp_path)) is None
    assert cached_solve(spec, 1024, 3, str(tmp_path)) is not None
    assert os.listdir(tmp_path) == [os.path.basename(path)]
    back = load_eigensystem(spec, 1024, 3, str(tmp_path))
    assert back is not None and np.array_equal(back.psi, eig.psi)


@pytest.mark.parametrize("damage, error", [("truncated", zipfile.BadZipFile),
                                           ("empty", EOFError), ("random", ValueError)])
def test_damaged_cache_entry_is_a_miss(tmp_path, monkeypatch, damage, error):
    """An entry that np.load cannot read (a truncated archive, an empty file, random
    bytes) is a miss and not an error: the next cached_solve solves once and
    overwrites it, and the run after that loads the first solve's arrays."""
    spec = CoefficientPair((1.0, 0.5), (0.1,))
    first = cached_solve(spec, 1024, 3, str(tmp_path))
    path = eigensolver._cache_path(eigensolver._cache_key(spec, 1024, 3), str(tmp_path))
    with open(path, "rb") as fh:
        whole = fh.read()
    with open(path, "wb") as fh:
        fh.write({"truncated": whole[:len(whole) // 2], "empty": b"",
                  "random": np.random.default_rng(0).bytes(len(whole))}[damage])
    with open(path, "rb") as fh, pytest.raises(error):
        np.load(fh, allow_pickle=False)
    assert load_eigensystem(spec, 1024, 3, str(tmp_path)) is None
    solves = []

    def counted(*args, **kwargs):
        solves.append(1)
        return solve_eigs(*args, **kwargs)

    monkeypatch.setattr(eigensolver, "solve_eigs", counted)
    cached_solve(spec, 1024, 3, str(tmp_path))
    assert len(solves) == 1 and os.listdir(tmp_path) == [os.path.basename(path)]
    back = load_eigensystem(spec, 1024, 3, str(tmp_path))
    assert back is not None
    for f in fields(EigenSystem):
        assert np.array_equal(getattr(back, f.name), getattr(first, f.name)), f.name


def test_failed_save_leaves_nothing(tmp_path, monkeypatch):
    """A save that fails part-way leaves neither the cache entry nor its
    temporary file, so the next cached_solve solves again."""
    spec = CoefficientPair((1.0, 0.5), (0.1,))
    write_header = np.lib.format.write_array_header_1_0

    def disk_full(fh, header):   # psi's member: its header goes out, then the disk is full
        write_header(fh, header)
        if len(header["shape"]) == 2:
            raise OSError("disk full")

    with monkeypatch.context() as m:
        m.setattr(np.lib.format, "write_array_header_1_0", disk_full)
        with pytest.raises(OSError, match="disk full"):
            cached_solve(spec, 1024, 3, str(tmp_path))
    assert os.listdir(tmp_path) == []
    solves = []

    def counted(*args, **kwargs):
        solves.append(1)
        return solve_eigs(*args, **kwargs)

    monkeypatch.setattr(eigensolver, "solve_eigs", counted)
    cached_solve(spec, 1024, 3, str(tmp_path))
    assert len(solves) == 1
    assert [f.endswith(".npz") for f in os.listdir(tmp_path)] == [True]


def test_save_writes_from_the_arrays_memory(tmp_path):
    """Saving an N = 4096, K = 50 eigensystem allocates less than one psi array (tracemalloc):
    each member is written from the array's own memory, where np.savez copied it whole."""
    spec = CoefficientPair((1.0, 0.5), (0.5,))
    eig = cached_solve(spec, 4096, 50, None)
    tracemalloc.start()
    try:
        save_eigensystem(eig, spec, str(tmp_path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert eig.psi.nbytes == 4097 * 50 * 8
    assert peak < eig.psi.nbytes, peak
    assert load_eigensystem(spec, 4096, 50, str(tmp_path)) is not None


def _rk4_stage_form(Qh, T, mu):
    """Textbook RK4 stages for u'' = (Q - mu) u with a per-step sign-change count."""
    N = (Qh.size - 1) // 2
    h = T / N
    u, up = np.zeros_like(mu), np.ones_like(mu)
    zeros, prev_sign = np.zeros(mu.shape, dtype=int), np.zeros_like(mu)
    path = [u]
    for i in range(N):
        w0, wm, w1 = Qh[2 * i] - mu, Qh[2 * i + 1] - mu, Qh[2 * i + 2] - mu
        k1u, k1v = up, w0 * u
        k2u, k2v = up + 0.5 * h * k1v, wm * (u + 0.5 * h * k1u)
        k3u, k3v = up + 0.5 * h * k2v, wm * (u + 0.5 * h * k2u)
        k4u, k4v = up + h * k3v, w1 * (u + h * k3u)
        u = u + (h / 6.0) * (k1u + 2 * k2u + 2 * k3u + k4u)
        up = up + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
        path.append(u)
        s = np.sign(u)
        zeros += (s * prev_sign < 0) & (s != 0)
        prev_sign = np.where(s != 0, s, prev_sign)
    return u, up, zeros, np.array(path)


def test_rk4_shoot_matches_stage_form():
    """The transfer-matrix step is RK4 regrouped: equal up to rounding."""
    spec = CoefficientPair((1.0, 0.0, 0.25), (0.2, 0.1))
    form = liouville_transform(spec, 1024)
    Qh = form.Qh
    mu = np.array([1e-3, 3.0, 40.0, 900.0, 5e3])
    path, dpath = _rk4_shoot(Qh, form.T, mu, keep_path=True)
    _, ref_up, ref_zeros, ref_path = _rk4_stage_form(Qh, form.T, mu)
    scale = np.abs(ref_path).max(axis=0)
    assert np.max(np.abs(path - ref_path) / scale) < 1e-11
    assert np.max(np.abs(dpath[-1] - ref_up) / np.abs(dpath).max(axis=0)) < 1e-11
    zeros = np.count_nonzero(eigensolver._sign_flips(path[1:]), axis=0)
    assert np.array_equal(zeros, ref_zeros) and ref_zeros[-1] > 10
    # +0.0 counts as positive: 1, 0, 0 | -2 | 0, 3 changes sign twice
    flat = np.array([[0.0], [1.0], [0.0], [0.0], [-2.0], [0.0], [3.0]])
    assert np.count_nonzero(eigensolver._sign_flips(flat[1:]), axis=0).tolist() == [2]


def test_grouped_shoot_ends_where_its_path_does():
    """A pathless shoot, the product of its groups of steps applied in turn, ends
    where the path, stepped from the groups' start states, does; and that path is
    RK4's.  N = 1531 is prime, so the last group is padded with identity steps;
    two blocks of columns, the last one ragged; a varying potential, whose step
    matrices do not commute."""
    spec = CoefficientPair((1.0, 0.0, 0.25), (0.2, 0.1))
    form = liouville_transform(spec, 1531)
    mu = np.geomspace(1e-3, 5e3, eigensolver._SHOOT_COLUMNS + 9)
    u, up = _rk4_shoot(form.Qh, form.T, mu)
    path, dpath = _rk4_shoot(form.Qh, form.T, mu, keep_path=True)
    assert path.shape == dpath.shape == (1532, mu.size)
    assert np.max(np.abs(u - path[-1]) / np.abs(path).max(axis=0)) < 1e-12
    assert np.max(np.abs(up - dpath[-1]) / np.abs(dpath).max(axis=0)) < 1e-12
    _, _, ref_zeros, ref_path = _rk4_stage_form(form.Qh, form.T, mu)
    assert np.max(np.abs(path - ref_path) / np.abs(ref_path).max(axis=0)) < 1e-11
    assert np.array_equal(np.count_nonzero(eigensolver._sign_flips(path[1:]), axis=0), ref_zeros)


def _plain_shoot(Qh, T, mu, keep_path=False):
    """The grouped shoot with each step's matrix formed whole from its table column,
    E = (c2 mu + c1) mu + c0: the reference _rk4_shoot's in-place steps are pinned to."""
    N, coef = (Qh.size - 1) // 2, eigensolver._shoot_table(Qh, T)
    G, g = coef.shape[3:]

    def step(j, m, X):
        c = coef[..., j, None]
        E = (c[2] * m + c[1]) * m + c[0]
        return E[:, :1] * X[0] + E[:, 1:] * X[1]

    out = np.empty((2, G * g + 1 if keep_path else 1, mu.size))
    out[:, 0] = ((0.0,), (1.0,))
    for lo in range(0, mu.size, eigensolver._SHOOT_COLUMNS):
        m = mu[lo:lo + eigensolver._SHOOT_COLUMNS]
        P = np.eye(2)[:, :, None, None]
        for j in range(g):
            P = step(j, m, P)
        S = np.empty((2, G + 1, m.size))
        S[:, 0] = ((0.0,), (1.0,))
        for k in range(G):
            S[:, k + 1] = P[:, 0, k] * S[0, k] + P[:, 1, k] * S[1, k]
        out[:, -1, lo:lo + m.size] = S[:, G]
        if keep_path:
            X = S[:, None, :G]
            for j in range(g):
                X = step(j, m, X)
                out[:, 1 + j::g, lo:lo + m.size] = X[:, 0]
    return out[:, :N + 1] if keep_path else out[:, -1]


@pytest.mark.parametrize("N", [1531, 4096])
def test_in_place_steps_are_the_plain_steps(N):
    """_rk4_shoot's steps (the mu^2 row times mu taken once per column block, the matrix
    formed in one buffer) equal the plain step bit for bit, pathless and with the path,
    with the solve's table passed in or built.  N = 1531 pads its last group with 29
    identity steps, whose mu^2 row is 0 (the real steps' row there moves the pathless
    end); N = 4096 has no pad.  Two column blocks, the last ragged; mu < 0, -0.0 and 0
    too, where the pad's 0 * mu is a signed zero."""
    form = liouville_transform(CoefficientPair((1.0, 0.0, 0.25), (0.2, 0.1)), N)
    mu = np.concatenate([[-30.0, -0.0, 0.0],
                         np.geomspace(1e-3, 5e3, eigensolver._SHOOT_COLUMNS + 6)])
    table = eigensolver._shoot_table(form.Qh, form.T)
    for keep_path in (False, True):
        want = _plain_shoot(form.Qh, form.T, mu, keep_path)
        for got in (_rk4_shoot(form.Qh, form.T, mu, keep_path),
                    _rk4_shoot(form.Qh, form.T, mu, keep_path, table=table)):
            assert (got.shape, got.strides, got.dtype) == (want.shape, want.strides, want.dtype)
            assert got.tobytes() == want.tobytes(), (N, keep_path)


def test_sign_rule():
    """Two values differ in sign iff their sign bits do: +0.0 is positive and -0.0
    negative, so a path that touches +0.0 from above and turns back has no sign
    change, one that crosses through it has one, and a scan whose B is exactly 0
    at a scan point gets one bracket there."""
    flips = eigensolver._sign_flips
    assert flips(np.array([0.0, 1.0, -0.0, -1.0])).tolist() == [False, True, False]
    assert np.count_nonzero(flips(np.array([2.0, 0.0, 1.0]))) == 0   # a touch
    assert np.count_nonzero(flips(np.array([2.0, 0.0, -1.0]))) == 1  # a crossing
    assert flips(np.array([[1.0, -1.0], [-0.0, 0.0]])).tolist() == [[True, True]]
    # B = mu - 2 is +0.0 at the scan point mu = 2: a sign product (0 * -1) loses the bracket
    B = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    assert np.flatnonzero(np.sign(B[:-1]) * np.sign(B[1:]) < 0).size == 0
    assert np.flatnonzero(flips(B)).tolist() == [1]


def test_root_certificate(eig_cache):
    """Each returned mu_k = 1/lambda_k has a sign change of B within 2 rel_tol."""
    rel_tol = 1e-10
    for spec in SPEC_CORPUS:
        eig = cached_solve(spec, 2048, 20, eig_cache)
        form = liouville_transform(spec, 2048)
        mu = 1.0 / eig.lambdas
        u, up = _rk4_shoot(form.Qh, form.T, np.concatenate([mu * (1 - 2 * rel_tol),
                                                       mu * (1 + 2 * rel_tol)]))
        B = up + form.c2 * u
        assert np.all(B[:20] * B[20:] < 0)


def test_unreachable_tolerance_raises(monkeypatch):
    # a relative tolerance of 0 can never be met; a small cap reaches the same error quickly
    monkeypatch.setattr(eigensolver, "_REL_TOL", 0.0)
    monkeypatch.setattr(eigensolver, "_MAX_ILLINOIS", 5)
    spec = CoefficientPair((1.0, 0.5), (0.1,))
    with pytest.raises(eigensolver.EigenSolverError, match="did not converge"):
        solve_eigs(spec, 1024, 2)


def test_exact_root_closes_its_bracket(monkeypatch):
    """An iterate where B is exactly 0.0 is its bracket's root.  Here B reads 0 within 1e-7
    relative of mu_3, as a boundary mode's B does over a run of iterates (a = 1, b = -9 at
    N = 1024): the first iterate there is returned as mu_3, and no later shoot reaches that
    bracket.  Halving cannot move an end's B of 0, so the secant steps would land on that end,
    clipped half a tolerance inside, and walk to the iteration cap."""
    spec = CoefficientPair((1.0, 0.5), (0.5,))
    mu3 = 1.0 / solve_eigs(spec, 1024, 5).lambdas[2]
    zeros = []

    def plateau(Qh, T, mu, keep_path=False, **table):
        out = _rk4_shoot(Qh, T, mu, keep_path, **table)
        if not keep_path:
            flat = np.abs(mu / mu3 - 1.0) <= 1e-7
            out[:, flat] = 0.0   # u = u' = 0, so B = +0.0
            zeros.append(mu[flat])
        return out

    monkeypatch.setattr(eigensolver, "_rk4_shoot", plateau)
    lambdas = solve_eigs(spec, 1024, 5).lambdas
    first = next(i for i, z in enumerate(zeros) if z.size)
    assert zeros[first].size == 1 and 1.0 / lambdas[2] == zeros[first][0]
    assert sum(z.size for z in zeros[first + 1:]) == 0


def test_oversized_scan_refused(monkeypatch):
    """b = 1e6 (max Q = 1e12) would scan ~2e11 mu points, b = 1e300 has an
    infinite potential (b^2 overflows) and a = 1 + 1e200 x, b = 1e200 x a NaN
    one (inf - inf); a = 1e-320 makes T = int 1/a infinite, and a = 1e160
    and a = 1e-160 make (pi / T)^2 overflow and underflow; b = -9.02 puts a mode
    in a boundary layer at T that the shoot cannot resolve (c2 T < -9.01).  Each is
    the operator's fault, refused naming its culprit, before anything is shot."""
    def no_shoot(*args, **kwargs):
        raise AssertionError("shot an oversized scan")

    monkeypatch.setattr(eigensolver, "_rk4_shoot", no_shoot)
    for a, b, culprit in (((1.0,), (1e6,), r"max \|Q\| = 1e\+12"),
                          ((1.0,), (1e300,), r"max \|Q\| = inf"),
                          ((1.0, 1e200), (0.0, 1e200), r"max \|Q\| = nan"),
                          ((1e-320,), (0.0,), "T = int 1/a = inf"),
                          ((1e160,), (0.0,), "T = 1e-160"), ((1e-160,), (0.0,), r"T = 1e\+160"),
                          ((1.0,), (-9.02,), r"c2 T = -9.02 < -9.01$")):
        with pytest.raises(OperatorSpecError, match=culprit):
            solve_eigs(CoefficientPair(a, b), 1024, 10)


def test_boundary_mode_at_T(monkeypatch):
    """a = 1, b = -9 (Q = 81, c2 = -9, T = 1) has a mode in a boundary layer at T,
    mu_1 = 81 - kappa^2 with tanh kappa = kappa / 9, 4.93e-6: below the first scan point
    past the floor, 1e-6 (pi / T)^2.  The scan starts at the floor, so mu_1 is bracketed
    and found to the ~eps e^(-2 c2 T) = 1.5e-8 that B's cancellation leaves.  Without the
    floor's column mu_1 is missed, every mode found changes sign once too often, and the
    count names mode 1."""
    spec = CoefficientPair((1.0,), (-9.0,))
    kappa = brentq(lambda k: math.tanh(k) - k / 9.0, 4.5, 9.0)
    assert 1.0 / solve_eigs(spec, 1024, 5).lambdas[0] == pytest.approx(81 - kappa ** 2, rel=1.5e-8)

    def floorless(Qh, T, mu, keep_path=False, **table):   # the scan's floor reads as its next
        out = _rk4_shoot(Qh, T, mu, keep_path, **table)
        if np.size(mu) > 5:
            out[:, 0] = out[:, 1]
        return out

    monkeypatch.setattr(eigensolver, "_rk4_shoot", floorless)
    with pytest.raises(eigensolver.EigenSolverError,
                       match=r"^mode 1 changes sign 1 times on \(0, T\], not 0$"):
        solve_eigs(spec, 1024, 5)


def test_largest_K_at_its_least_N():
    """K = MAX_K = 722 solves at N = 2844, the least N that the 0.8-rad rule admits
    (N = 2843 is refused), oscillation counts checked: its Volterra lambda_K is within
    0.54% of ((K - 1/2) pi)^-2 (0.531% measured), as docs/formats.md states."""
    K = eigensolver.MAX_K
    with pytest.raises(ValueError, match="^K = 722 needs N >= 2844$"):
        eigensolver.mu_scan_top(liouville_transform(VOLTERRA, 2843), K)
    lambdas = solve_eigs(VOLTERRA, 2844, K).lambdas
    assert lambdas.size == K
    assert abs(lambdas[-1] * ((K - 0.5) * math.pi) ** 2 - 1) < 0.0054


def test_cold_solve_memory():
    """A cold solve at N = 4096, K = 50 allocates at most 1 MiB above its live result
    (tracemalloc): the path is read once in column blocks, with no (N+1) x K temporary
    beside it (the sign and index arrays of a whole-path zero count added ~1.5 MiB)."""
    spec = CoefficientPair((1.0, 0.5), (0.5,))
    tracemalloc.start()
    try:
        eig = solve_eigs(spec, 4096, 50)
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert live >= eig.psi.nbytes + eig.dpsi.nbytes
    assert peak - live <= 1 << 20, (live, peak)


def test_shoot_budget(monkeypatch):
    """Illinois refinement converges superlinearly: <= 14 shoots, scan and path
    included.  The scan is uniform in sqrt(mu - max Q) above its knee: <= 800
    mu columns over all shoots at K = 50, where a mu-uniform scan shoots
    ~5.6e3, also when max Q = 900 (b = 30) crowds the eigenvalues below the
    knee.  At b = 100 and 300 (max Q = 1e4, 9e4) the first eigenvalues above
    the knee are closer in sqrt(mu) than its step, but still >= sqrt(unit)
    apart in sqrt(mu - max Q), so every one is bracketed; below the knee the
    scan starts at min Q - max(0, -c2)^2 - unit, under which no eigenvalue
    lies, so its columns do not grow with Q.  a = 1, b = -4 (Q = 16, c2 = -4,
    mu_1 ~ 0.0216) has its first eigenvalue far below min Q: without the c2
    term that floor would pass it, and the oscillation count would refuse."""
    columns = []

    def counted(Qh, T, mu, keep_path=False, **table):
        columns.append(np.atleast_1d(mu).size)
        return _rk4_shoot(Qh, T, mu, keep_path, **table)

    monkeypatch.setattr(eigensolver, "_rk4_shoot", counted)
    for spec in SPEC_CORPUS + tuple(CoefficientPair((1.0,), (b,))
                                    for b in (30.0, 100.0, 300.0, -4.0)):
        columns.clear()
        eig = solve_eigs(spec, 2048, 50)   # oscillation counts checked
        assert eig.lambdas.size == 50
        assert len(columns) <= 14 and sum(columns) <= 800, (spec, columns)
    assert 1.0 / eig.lambdas[0] == pytest.approx(0.0216, rel=0.01)   # b = -4
    with pytest.raises(ValueError, match="K in"):
        solve_eigs(VOLTERRA, 1024, eigensolver.MAX_K + 1)
