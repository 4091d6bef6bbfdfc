"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion (a failed assertion marks the criterion FAIL).
"""

import math
import time

import numpy as np
import pytest

from thermoformal import certify as C
from thermoformal import cli
from thermoformal import curves as Cv
from thermoformal import maps as M
from thermoformal import observables as O
from thermoformal import operator as T
from thermoformal import statistics as S

COS = lambda x: np.cos(2 * np.pi * np.asarray(x))
COS1 = O.fourier_cos(1)


def _report(num, text):
    print(f"\nCRITERION {num} PASS: {text}")


@pytest.fixture(scope="module")
def doubling_1024():
    d = M.doubling_map()
    out = {}
    for scheme in ("collocation", "ulam"):
        t0 = time.perf_counter()
        tr = T.leading_triple(T.build_matrix(d, O.zero, scheme, 1024))
        out[scheme] = (tr, time.perf_counter() - t0)
    return d, out


@pytest.fixture(scope="module")
def cos_curves_512():
    d = M.doubling_map()
    c41 = Cv.free_energy_curve(d, O.zero, COS1, t_max=0.5, steps=41,
                               scheme="collocation", n=512)
    c81 = Cv.free_energy_curve(d, O.zero, COS1, t_max=0.5, steps=81,
                               scheme="collocation", n=512)
    return d, c41, c81


def test_criterion_01_doubling_flat_case(doubling_1024):
    d, out = doubling_1024
    for scheme, (tr, elapsed) in out.items():
        assert abs(tr.lam - 2.0) < 1e-10, scheme
        assert abs(tr.pressure - math.log(2.0)) < 1e-10, scheme
        assert np.max(np.abs(tr.h - 1.0)) < 1e-8, scheme
        assert np.max(np.abs(tr.mu - 1.0 / 1024)) < 1e-8, scheme
        assert elapsed < 5.0, f"{scheme} took {elapsed:.2f}s"
    _report(1, "doubling phi=0: lambda=2, pressure=log2, h and mu uniform, "
               f"runtimes {', '.join(f'{s}={t:.2f}s' for s, (_, t) in out.items())}")


def test_criterion_02_log_half_potential():
    d = M.doubling_map()
    for scheme in ("collocation", "ulam"):
        tr = T.leading_triple(T.build_matrix(d, O.constant(-math.log(2.0)), scheme, 1024))
        assert abs(tr.lam - 1.0) < 1e-10
    _report(2, "doubling phi=-log2: lambda=1 within 1e-10, both schemes")


def test_criterion_03_mp_equilibrium_two_schemes():
    mp = M.mp_like_map()
    triples = {}
    for scheme in ("collocation", "ulam"):
        tr = T.leading_triple(T.build_matrix(mp, O.zero, scheme, 2048))
        assert abs(tr.lam - 2.0) < 1e-8, scheme
        triples[scheme] = tr
    h_gap = float(np.max(np.abs(triples["ulam"].h - triples["collocation"].h)))
    assert h_gap < 1e-3
    # the nonconstant structure of the state sits in mu = h nu (the exact
    # operator pins h to the constant eigenfunction, since L1 = deg * 1)
    for tr in triples.values():
        dens = tr.density
        assert dens.max() - dens.min() > 1.0
    defects = {s: T.invariance_defect(mp, tr, T.fourier_testfns(5))
               for s, tr in triples.items()}
    assert all(v < 1e-3 for v in defects.values())
    _report(3, f"mp_like phi=0: lambda=2 within 1e-8, h scheme gap {h_gap:.2e} < 1e-3, "
               f"equilibrium density nonconstant, invariance defects "
               f"{ {s: float(f'{v:.2e}') for s, v in defects.items()} } < 1e-3")


def test_criterion_04_condition_c_certification():
    t0 = time.perf_counter()
    rep_d = C.check_condition_C(M.doubling_map(), N=1, gamma=0.6, resolution=256)
    t_d = time.perf_counter() - t0
    assert rep_d.passed and t_d < 10.0

    t0 = time.perf_counter()
    rep_mp = C.check_condition_C(M.mp_like_map(), N=1, gamma=0.99, resolution=1024)
    t_mp = time.perf_counter() - t0
    assert rep_mp.passed and t_mp < 10.0

    rot = M.rotation_map()
    for gamma in (0.3, 0.9, 0.99):
        t0 = time.perf_counter()
        rep_r = C.check_condition_C(rot, N=1, gamma=gamma, resolution=256)
        assert not rep_r.passed
        assert time.perf_counter() - t0 < 10.0
    _report(4, f"condition (C): doubling pass ({t_d:.2f}s), mp_like pass ({t_mp:.2f}s), "
               "rotation fails at gamma in {0.3, 0.9, 0.99}")


def test_criterion_05_covering_budget_arithmetic():
    # exact equivalence of the bad-branch count against an independent
    # transfer-recurrence oracle (and literal enumeration for small sizes)
    def dp_count(ell_k, base, k):
        dp = [1] + [0] * k
        for _ in range(ell_k):
            dp = [dp[c] * base + (dp[c - 1] if c > 0 else 0) for c in range(k + 1)]
        return sum(dp[:k])

    import itertools
    for base in (1, 2, 3):
        for ell_k in range(1, 13):
            for k in range(1, min(4, ell_k) + 1):
                assert C.bad_branch_count(ell_k, base, k) == dp_count(ell_k, base, k)
        for ell_k in range(1, 8):
            for k in (1, 2):
                want = sum(1 for w in itertools.product(range(base + 1), repeat=ell_k)
                           if sum(1 for s in w if s == 0) < k)
                assert C.bad_branch_count(ell_k, base, k) == want

    budget = C.covering_budget(gamma=0.5, L=1.0, N=1, G=2)
    assert budget.feasible
    ell0 = budget.ell
    assert all(C.estimate_32(1.0, 1, 2, 1, ell) for ell in range(ell0, ell0 + 50))
    assert not C.estimate_32(1.0, 1, 2, 1, ell0 - 1)
    _report(5, f"covering budget: B_k exact vs oracles, (3.2) at L=1 feasible for "
               f"ell >= {ell0}")


def test_criterion_06_clt_variance_and_ks():
    t0 = time.perf_counter()
    d = M.doubling_map()
    tr = T.leading_triple(T.build_matrix(d, O.zero, "ulam", 1024))
    var = S.clt_variance(d, tr, COS, lag_max=64)
    assert abs(var.sigma2 - 0.5) < 1e-6
    assert not var.coboundary

    tr4k = T.leading_triple(T.build_matrix(d, O.zero, "ulam", 4096))
    cob = O.coboundary(O.fourier_cos(1), d)
    var_cob = S.clt_variance(d, tr4k, cob.fn, lag_max=64)
    assert var_cob.sigma2 < 1e-6
    assert var_cob.coboundary

    rep = S.clt_empirical(d, tr.mu, COS, n=50, samples=100_000, seed=8, variance=var)
    assert rep.ks_statistic < 0.02
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(6, f"CLT: sigma2=0.5 within {abs(var.sigma2-0.5):.1e}, coboundary "
               f"sigma2={var_cob.sigma2:.2e} flagged, KS={rep.ks_statistic:.4f} < 0.02, "
               f"{elapsed:.1f}s < 60s")


def test_criterion_07_free_energy(cos_curves_512, grid_triples):
    d, c41, c81 = cos_curves_512
    i0 = int(np.flatnonzero(c41.t == 0.0)[0])
    assert c41.E[i0] == 0.0

    const_curve = Cv.free_energy_curve(d, O.zero, O.constant(0.9), t_max=0.5,
                                       steps=21, scheme="ulam", n=256)
    assert np.max(np.abs(const_curve.E - 0.9 * const_curve.t)) < 1e-12

    mc_gaps = {}
    for t in (-0.4, 0.2, 0.4):
        mc = Cv.free_energy_mc(d, c41.base.mu, COS, t, n=30, samples=100_000, seed=21)
        i = int(np.argmin(np.abs(c41.t - t)))
        mc_gaps[t] = abs(c41.E[i] - mc)
        assert mc_gaps[t] < 0.02

    tr81 = grid_triples(d, O.zero, COS1, 0.5, 81, "collocation", 512)
    resid = Cv.derivative_checks(c81, tr81, COS1).max_mean_residual
    assert resid < 1e-4
    _report(7, f"free energy: E(0)=0 exact, affine |E-tc|<1e-12, MC gaps "
               f"{ {k: float(f'{v:.4f}') for k, v in mc_gaps.items()} } < 0.02, "
               f"halved-step derivative residual {resid:.2e} < 1e-4")


def test_criterion_08_rate_function(cos_curves_512):
    d, c41, _ = cos_curves_512
    rate = Cv.rate_function(c41, 101)
    i_star = Cv.legendre_value(c41, rate.s_star)[0]
    assert i_star < 1e-8
    assert rate.eq5_residual < 1e-8

    shift_c = 0.3
    shifted = Cv.free_energy_curve(d, O.zero, O.shift(COS1, shift_c), t_max=0.5,
                                   steps=41, scheme="collocation", n=512)
    shift_err = max(
        abs(Cv.legendre_value(shifted, s + shift_c)[0] - Cv.legendre_value(c41, s)[0])
        for s in np.linspace(rate.s_star + 0.02, rate.s_star + 0.15, 7))
    assert shift_err < 1e-8

    rate_fine = Cv.rate_function(c41, 201)
    ds = rate_fine.s[1] - rate_fine.s[0]
    rec = Cv.double_legendre(rate_fine, c41.t[5:-5])
    dl_err = float(np.max(np.abs(rec - c41.E[5:-5])))
    assert dl_err < 2 * ds ** 2
    _report(8, f"rate function: I(s*)={i_star:.1e} < 1e-8, eq5 residual "
               f"{rate.eq5_residual:.1e} < 1e-8, shift {shift_err:.1e} < 1e-8, "
               f"double-Legendre {dl_err:.1e} < {2*ds**2:.1e}")


def test_criterion_09_ldp():
    t0 = time.perf_counter()
    d = M.doubling_map()
    curve = Cv.free_energy_curve(d, O.zero, COS1, t_max=2.0, steps=81,
                                 scheme="collocation", n=512)
    rate = Cv.rate_function(curve, 201)
    rep = Cv.ldp_empirical(d, curve.base.mu, COS, 0.3, 0.5, [20, 40, 80],
                           1_000_000, seed=42, rate=rate)
    assert not rep.censored
    assert abs(rep.gap) < 0.05
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(9, f"LDP: extrapolated {rep.extrapolated:.4f} vs bound {rep.rate_bound:.4f} "
               f"(gap {rep.gap:+.4f}, |gap| < 0.05), {elapsed:.0f}s < 300s")


def test_criterion_10_response_scan():
    fam = M.derived_expanding_map
    phi = O.fourier_cos(1, 0.1)
    obs = COS
    coarse = Cv.response_scan(fam, phi, obs, np.linspace(0.5, 1.5, 33),
                              "collocation", 512, guard=(1, 0.7, 512))
    fine = Cv.response_scan(fam, phi, obs, np.linspace(0.5, 1.5, 65),
                            "collocation", 512)
    assert coarse.guard_passed.all()
    jc = float(np.max(np.abs(np.diff(coarse.lam))))
    jf = float(np.max(np.abs(np.diff(fine.lam))))
    # a coarse jump is the sum of two fine jumps, so the ratio can approach
    # but never exceed 2 for a continuous lambda(v); 1.9 separates
    # continuity (ratio -> 2) from a jump discontinuity (ratio -> 1)
    assert jc / jf >= 1.9

    const = Cv.response_scan(lambda v: M.doubling_map(), phi, obs,
                             np.linspace(0.0, 1.0, 9), "ulam", 256)
    assert np.all(const.lam == const.lam[0])
    assert np.max(np.abs(const.dlam)) == 0.0
    assert np.nanmax(np.abs(const.d2lam)) == 0.0

    d = M.doubling_map()
    lam = {}
    for dt in (0.05, 0.025):
        for t in (-dt, 0.0, dt):
            key = (dt, t)
            pot = O.zero if t == 0.0 else O.combine(O.zero, COS1, t)
            lam[key] = T.leading_triple(T.build_matrix(d, pot, "collocation", 512)).lam
    d2 = {dt: (lam[(dt, dt)] - 2 * lam[(dt, 0.0)] + lam[(dt, -dt)]) / dt ** 2
          for dt in (0.05, 0.025)}
    rel = abs(d2[0.05] - d2[0.025]) / abs(d2[0.025])
    assert rel < 0.10
    _report(10, f"response: jump ratio {jc/jf:.3f} >= 1.9 under 2x refinement, "
                f"constant family identically zero, phi-direction second "
                f"differences Richardson-consistent ({100*rel:.2f}% < 10%)")


def test_criterion_11_bitwise_reproducibility():
    jobs = [
        {"schema_version": 1, "command": "spectrum",
         "params": {"scheme": "collocation", "n": 512}},
        {"schema_version": 1, "command": "clt", "seed": 8,
         "params": {"n": 512, "samples": 20_000, "orbit_n": 25}},
        {"schema_version": 1, "command": "ldp", "seed": 5,
         "params": {"n": 128, "steps": 21, "t_max": 1.5, "a": 0.3, "b": 0.5,
                    "n_list": [10, 20], "samples": 5000, "s_steps": 51}},
    ]
    for cfg in jobs:
        _, s1 = cli.run(cfg)
        _, s2 = cli.run(s1["resolved_config"])
        assert cli.dumps_summary(s1) == cli.dumps_summary(s2), cfg["command"]
    _report(11, "reproducibility: spectrum/clt/ldp summaries bitwise identical "
                "when re-run from their echoed configs")
