"""Acceptance gate: twelve end-to-end criteria, one pass/fail line each.

Criterion 2 is expected to fail and is marked strict-xfail: the target
constant pi^{-2} (int 1/a)^2 is the k -> infinity limit of k^2 lambda_k,
but the finite-index correction factor (k/(k-1/2))^2 lies in
[1.020, 1.026] for k in [40, 50], outside the stated 2% tolerance for any
solver (the exact closed form of the constant-coefficient case violates it
identically).  The solver's values match the corrected asymptote to 0.5%.
"""
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from lapcert import certification as C
from lapcert import concentration as conc
from lapcert import validation as val
from lapcert.eigensolver import cached_solve, svd_oracle
from lapcert.model import TruthSpec, exp_family, generate
from lapcert.operators import CoefficientPair, VOLTERRA, assemble_design
from lapcert.posterior import Problem, derivatives, map_solve

from conftest import SPEC_CORPUS, make_problem
from probes import (f_reference, l2_inner, ortho_constant, third_directional,
                    tightness_probe, weighting_claims)


def _report(num, name, ok, detail=""):
    print("%s: criterion %d (%s)%s" % ("PASS" if ok else "FAIL", num, name,
                                       " - " + detail if detail else ""))
    return ok


# --- 1: constant-coefficient closed form ---

def test_criterion_01_closed_form(volterra_eig):
    t0 = time.time()
    eig = volterra_eig
    k = np.arange(1, 51)
    exact = ((k - 0.5) * np.pi) ** -2.0
    lam_err = float(np.max(np.abs(eig.lambdas[:50] - exact) / exact))
    psi_err = 0.0
    for kk in k:
        ref = np.sqrt(2.0) * np.sin((kk - 0.5) * np.pi * eig.x)
        d = eig.psi[kk - 1]
        e2 = min(l2_inner(d - ref, d - ref), l2_inner(d + ref, d + ref))
        psi_err = max(psi_err, math.sqrt(max(e2, 0.0)))
    elapsed = time.time() - t0
    ok = lam_err < 1e-6 and psi_err <= 1e-4 and elapsed <= 30
    assert _report(1, "closed-form eigenpairs", ok,
                   "lam rel err %.2e, psi L2 err %.2e, %.1fs" % (lam_err, psi_err, elapsed))


# --- 2: eigenvalue asymptote at the stated tolerance (strict xfail) ---

@pytest.mark.xfail(strict=True, reason=(
    "the 2% tolerance against the k->inf limit is unattainable for k<=50: "
    "the finite-index correction (k/(k-1/2))^2 alone is 2.0-2.6% there, and "
    "the exact constant-coefficient closed form violates the same check"))
def test_criterion_02_asymptote(eig_cache):
    t0 = time.time()
    spec = CoefficientPair((1.0, 0.5), (0.1,))
    eig = cached_solve(spec, 4096, 50, eig_cache)
    k = np.arange(40, 51)
    limit = (2 * math.log(1.5)) ** 2 / math.pi ** 2
    dev = float(np.max(np.abs(k ** 2 * eig.lambdas[39:50] / limit - 1.0)))
    elapsed = time.time() - t0
    ok = dev <= 0.02 and elapsed <= 60
    _report(2, "k^2 lambda_k asymptote at 2%", ok,
            "max deviation %.4f, %.1fs" % (dev, elapsed))
    assert ok


def test_criterion_02b_asymptote_with_index_correction(eig_cache):
    """Companion check: the solver does approach the limit at the expected rate."""
    spec = CoefficientPair((1.0, 0.5), (0.1,))
    eig = cached_solve(spec, 4096, 50, eig_cache)
    k = np.arange(40, 51)
    limit = (2 * math.log(1.5)) ** 2 / math.pi ** 2
    corrected = k ** 2 * eig.lambdas[39:50] / limit / (k / (k - 0.5)) ** 2
    dev = float(np.max(np.abs(corrected - 1.0)))
    assert _report(2, "asymptote with (k/(k-1/2))^2 correction", dev < 5e-3,
                   "max deviation %.2e" % dev)


# --- 3: eigenfunction regularity across the corpus ---

def test_criterion_03_regularity(corpus_eigs):
    ok = True
    details = []
    for spec, eig in zip(SPEC_CORPUS, corpus_eigs):
        ks = np.arange(10, 51)
        slope = np.polyfit(np.log(ks), np.log(np.abs(eig.psi[9:50]).max(axis=1)), 1)[0]
        ratio = np.abs(eig.dpsi[9:50]).max(axis=1) / ks
        ok = ok and -0.1 <= slope <= 0.1 and np.max(ratio) <= 2 * ratio[0]
        details.append("slope %.3f drift %.2f" % (slope, np.max(ratio) / ratio[0]))
    assert _report(3, "sup-norm flatness and derivative growth", ok,
                   "; ".join(details))


# --- 4: cross-method agreement ---

def test_criterion_04_cross_method(eig_cache):
    worst_lam, worst_align = 0.0, 1.0
    for spec in SPEC_CORPUS:
        sh = cached_solve(spec, 2048, 20, eig_cache)
        sv = svd_oracle(spec, 2048, 20)
        worst_lam = max(worst_lam, float(np.max(np.abs(sh.lambdas - sv.lambdas) / sh.lambdas)))
        for k in range(20):
            worst_align = min(worst_align, abs(l2_inner(sh.psi[k], sv.psi[k])))
    ok = worst_lam <= 1e-3 and worst_align >= 0.999
    assert _report(4, "shooting vs SVD", ok,
                   "max dlam %.2e, min align %.6f" % (worst_lam, worst_align))


# --- 5: S-sum brackets with an exact-rational spot check ---

def test_criterion_05_s_sum_brackets():
    t0 = time.time()
    beta, ok = 1.0, True
    for gamma in (1.5, 2.0, 3.0):
        for e in (8, 10, 12, 14, 16, 18, 20):
            n = 2 ** e
            if n <= (beta + gamma - 1) ** (-2 * beta - 2 * gamma):
                continue
            g0, m, m0 = C.gamma0_star(n, beta, gamma)
            for p in (4, 8, 16, 32, 64, 128, 256, 512):
                sd, stau = C.s_sums(n, p, beta, gamma, g0)
                mp, m0p = min(m, p), min(m0, p)
                ok = ok and mp / 2 <= sd <= (2 + 1 / (2 * beta + 2 * gamma - 1)) * mp
                ok = ok and m0p / (2 * n) <= stau ** 2 <= (1 + 1 / (beta + gamma - 1)) * m0p / n
    # integer-exponent instance against exact rational arithmetic
    sd_exact = sum(Fraction(4096 + k ** 4, 4096 + k ** 6) for k in range(1, 65))
    got, _ = C.s_sums(4096, 64, 1.0, 2.0, 1.0)
    ok = ok and abs(got - float(sd_exact)) < 1e-10
    elapsed = time.time() - t0
    assert _report(5, "S-sum brackets + rational oracle", ok and elapsed <= 10,
                   "%.1fs" % elapsed)


# --- 6: exactness for the quadratic-cumulant family ---

def test_criterion_06_gaussian_exactness(gaussian_fit):
    prob, fit = gaussian_fit
    cert = C.certify(fit, prob, C.choice_DG(fit))
    tv = val.tv_quadrature(fit, prob, per_axis=64)
    ok = cert.local_term == 0.0 and tv.value <= 1e-6
    assert _report(6, "quadratic family exactness", ok,
                   "local %.1e, TV %.2e" % (cert.local_term, tv.value))


# --- 7 and 8 share a seeded desk corpus ---

@pytest.fixture(scope="module")
def desk_corpus(volterra_eig):
    fam = exp_family("poisson")
    rows = []
    for n in (1000, 2000, 4000):
        for p in (2, 3, 4, 6):
            for seed in (1, 2):
                ds = generate(volterra_eig, fam, TruthSpec(p_star=8), n=n, seed=seed)
                des = assemble_design(volterra_eig, n, p)
                prob = Problem(design=des, data=ds, family=fam, gamma=2.0,
                               eig=volterra_eig)
                fit = map_solve(prob)
                res = C.compare_choices(fit, prob, beta=1.0)
                rows.append((n, p, seed, prob, fit, res))
    return rows


def test_criterion_07_certificate_dominance(desk_corpus):
    t0 = time.time()
    checks = ok_count = 0
    for n, p, seed, prob, fit, res in desk_corpus:
        tv = None
        for cert in res.values():
            if cert.feasible and cert.tv_bound < 1.0:
                if tv is None:
                    tv = val.tv_importance(fit, prob, n_samples=20000, seed=seed)
                checks += 1
                ok_count += tv.ci_high <= cert.tv_bound
    elapsed = time.time() - t0
    ok = checks > 0 and ok_count == checks and elapsed <= 600
    assert _report(7, "empirical TV below certified bound", ok,
                   "%d/%d dominance checks over %d instances, %.0fs"
                   % (ok_count, checks, len(desk_corpus), elapsed))


def test_criterion_08_optimized_weighting(desk_corpus):
    all3 = [(res["gamma0_star"].tv_bound,
             res["DG"].tv_bound,
             res["identity"].tv_bound)
            for *_, res in desk_corpus
            if all(c.feasible for c in res.values())]
    if all3:
        wins = sum(g <= d and g <= i for g, d, i in all3)
        ratio_ok = wins >= 0.9 * len(all3)
    else:
        # the scaled-identity route never certifies at desk sample sizes, so
        # the restriction is vacuous; reported, not silently skipped
        ratio_ok = True

    rows = C.sweep_synthetic(10 ** 6, [2, 4, 8, 16, 32, 64, 128, 256, 512],
                             beta=1.0, gamma=2.0)
    m, m0 = rows[0]["m"], rows[0]["m0_star"]
    plat = [(math.log(r["p"]), math.log(r["bound_gamma0_star"]))
            for r in rows if r["p"] > m0]
    plat_slope = (plat[-1][1] - plat[0][1]) / (plat[-1][0] - plat[0][0])
    grow = [(math.log(r["p"]), 2 * math.log(r["bound_DG"]))
            for r in rows if r["p"] < m]
    grow_slope = (grow[-1][1] - grow[0][1]) / (grow[-1][0] - grow[0][0])
    ratios_ok = all(r["bound_DG"] >= r["bound_gamma0_star"] - 1e-12
                    and r["bound_identity"] >= r["bound_gamma0_star"] - 1e-12
                    for r in rows)
    ok = (ratio_ok and abs(plat_slope) <= 0.1 and 2.7 <= grow_slope <= 3.3
          and ratios_ok)
    assert _report(8, "optimized weighting regimes", ok,
                   "all-three-feasible subset size %d, plateau slope %.3f, "
                   "growth slope %.2f" % (len(all3), plat_slope, grow_slope))


# --- 9: tail bounds hold empirically ---

def test_criterion_09_concentration(volterra_eig):
    fam = exp_family("poisson")
    violations = checks = 0
    for n, p, seed in [(1000, 3, 1), (2000, 4, 2), (4000, 6, 1), (2000, 2, 3)]:
        prob = make_problem(volterra_eig, "poisson", n=n, p=p, seed=seed)
        fit = map_solve(prob)
        dim = weighting_claims(fit.DG2, fit.DG2)[1]
        for r in np.linspace(math.sqrt(p), 3 + 3 * math.sqrt(p) + 3, 8):
            _, ci_low, _ = conc.empirical_outside_mass(fit, prob, fit.DG2, float(r),
                                                       n_samples=2000, seed=seed).outside[0]
            c = C.Certificate(choice=C.choice_DG(fit), effdim=dim, tau3_sup=0.0, radius=float(r))
            lo, hi, refuted = c.gaussian_mass()   # hi: the exact mass at D_G
            checks += 2
            violations += refuted or not lo <= hi <= c.gaussian_tail
            violations += ci_low > c.posterior_tail
    assert _report(9, "tail bounds dominate empirical mass", violations == 0,
                   "%d violations in %d checks" % (violations, checks))


# --- 10: near-orthogonality constant stays bounded ---

def test_criterion_10_ortho_constant(volterra_eig):
    vals = [ortho_constant(volterra_eig, n, p, 3.5)
            for n in (200, 400, 800, 1600, 3200)
            for p in (8, 16, 30, 50)]
    spread = max(vals) / min(vals)
    assert _report(10, "orthogonality constant boundedness", spread < 3,
                   "spread %.2f over %d (n, p) pairs" % (spread, len(vals)))


# --- 11: derivative correctness on randomized instances ---

def test_criterion_11_derivatives(volterra_eig_small):
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(100):
        family = str(rng.choice(["poisson", "gaussian", "bernoulli"]))
        prob = make_problem(volterra_eig_small, family,
                            n=int(rng.integers(20, 80)), p=int(rng.integers(1, 6)),
                            gamma=float(rng.uniform(0.5, 3.0)),
                            seed=int(rng.integers(0, 2 ** 31)))
        p = prob.design.p
        theta = rng.normal(scale=0.3, size=p)
        v = rng.normal(size=p)
        eps = 1e-5
        fd_g = np.array([(f_reference(prob, theta + eps * np.eye(p)[k])
                          - f_reference(prob, theta - eps * np.eye(p)[k])) / (2 * eps)
                         for k in range(p)])
        g, hL = derivatives(prob, theta)
        rel_g = np.max(np.abs(g - fd_g)) / (1 + np.max(np.abs(fd_g)))
        fd_H = np.array([(derivatives(prob, theta + eps * np.eye(p)[k])[0]
                          - derivatives(prob, theta - eps * np.eye(p)[k])[0]) / (2 * eps)
                         for k in range(p)])
        H = hL + np.diag(prob.g2)
        rel_H = np.max(np.abs(H - fd_H)) / (1 + np.max(np.abs(fd_H)))
        fd_t3 = float(v @ ((derivatives(prob, theta + eps * v)[1]
                            - derivatives(prob, theta - eps * v)[1]) / (2 * eps)) @ v)
        rel_3 = abs(third_directional(prob, theta, v) - fd_t3) / (1 + abs(fd_t3))
        worst = max(worst, rel_g, rel_H, rel_3)
    assert _report(11, "derivatives vs finite differences", worst < 1e-4,
                   "worst relative error %.2e over 100 instances" % worst)


# --- 12: tightness of the certified route on the cosine surrogate ---

def test_criterion_12_tightness():
    ratios = []
    for e in (10, 12, 14, 16, 18):
        out = tightness_probe(2 ** e, p=32, beta=1.0, gamma0=1.25)
        ratios.append(out["ratio"])
    ok = all(0.05 <= r <= 1.0 for r in ratios)
    assert _report(12, "witness-to-certificate ratio", ok,
                   "ratios %s" % ", ".join("%.3f" % r for r in ratios))
