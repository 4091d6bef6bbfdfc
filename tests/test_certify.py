import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import brentq

from thermoformal import certify as C
from thermoformal import maps as M
from thermoformal import observables as O


def _mp_fprime(y):
    if y <= 0.0 or y >= 1.0:
        return 1.0
    a = math.exp(-1.0 / y)
    b = math.exp(-1.0 / (1.0 - y))
    return 1.0 + a * b * (y ** -2 + (1.0 - y) ** -2) / (a + b) ** 2


def _mp_lift(y):
    if y <= 0.0:
        return y
    if y >= 1.0:
        return y + 1.0
    a = math.exp(-1.0 / y)
    b = math.exp(-1.0 / (1.0 - y))
    return y + a / (a + b)


class TestConditionC:
    def test_doubling_passes(self):
        rep = C.check_condition_C(M.doubling_map(), N=1, gamma=0.6, resolution=64)
        assert rep.passed
        assert rep.mode == C.MODE_CERTIFIED
        assert np.allclose(rep.raw_bound, 0.5, atol=1e-14)
        assert rep.failures.size == 0

    def test_rotation_fails(self):
        rep = C.check_condition_C(M.rotation_map(), N=5, gamma=0.99, resolution=64)
        assert not rep.passed
        assert np.allclose(rep.raw_bound, 1.0, atol=1e-12)
        assert rep.failures.size == 64

    def test_mp_passes_with_core_witnesses(self):
        rep = C.check_condition_C(M.mp_like_map(), N=1, gamma=0.99, resolution=1024)
        assert rep.passed
        assert np.all(rep.witness_preimage >= 0.25 - 1e-9)
        assert np.all(rep.witness_preimage <= 0.75 + 1e-9)

    def test_mp_bound_against_bruteforce(self):
        # oracle: independent root-finding + closed-form derivative, per cell
        rep = C.check_condition_C(M.mp_like_map(), N=1, gamma=0.99, resolution=64)
        for i in (0, 7, 31, 48, 63):
            x = (i + 0.5) / 64
            pre = []
            for k in range(2):
                target = x + k
                y = brentq(lambda y: _mp_lift(y) - target, 0.0, 1.0, xtol=1e-14)
                pre.append(1.0 / _mp_fprime(y))
            assert rep.raw_bound[i] == pytest.approx(min(pre), abs=1e-9)

    def test_center_only_mode_for_holder_map(self):
        base = M.doubling_map()
        holder = M.MapSpec(name="h", degree=2, lift=base.lift, derivative=None, r=0)
        rep = C.check_condition_C(holder, N=1, gamma=0.6, resolution=32)
        assert rep.mode == C.MODE_CENTER_ONLY
        assert rep.passed
        rep2 = C.check_condition_C(holder, N=1, gamma=0.6, resolution=32, rho=0.0)
        assert rep2.mode == C.MODE_CERTIFIED

    def test_gamma_monotone(self):
        m = M.derived_expanding_map(1.5)
        passed = [C.check_condition_C(m, 1, g, 128).passed for g in (0.3, 0.45, 0.55, 0.7, 0.9)]
        # once passing, larger gamma keeps passing
        assert passed == sorted(passed)

    def test_refinement(self):
        m = M.mp_like_map()
        lo = C.check_condition_C(m, 1, 0.99, 256)
        hi = C.check_condition_C(m, 1, 0.99, 512)
        w = 1.0 / 256
        margin_ok = lo.bound < lo.gamma * math.exp(-lo.N * lo.rho * w / 2)
        children = hi.bound.reshape(256, 2).max(axis=1)
        assert np.all(children[margin_ok] < lo.gamma)

    @pytest.mark.parametrize("m", [M.mp_like_map(), M.derived_expanding_map(1.3),
                                   M.MapSpec(name="h", degree=2, lift=M.doubling_map().lift)],
                             ids=lambda m: m.name)
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_given_preimages_match_inverted(self, m, N):
        # the collocation geometry at n = resolution holds the level-1
        # preimages of the centres, reduced to [0, 1)
        from thermoformal import operator as T
        pre = T.map_geometry(m, "collocation", 64).points[:, 0]
        own = C.check_condition_C(m, N, 0.9, 64)
        given = C.check_condition_C(m, N, 0.9, 64, preimages=pre)
        for field in ("witness_branch", "witness_preimage", "bound", "raw_bound", "failures"):
            assert getattr(given, field).tobytes() == getattr(own, field).tobytes()
        assert (given.passed, given.mode) == (own.passed, own.mode)

    def test_preimages_shape_checked(self):
        with pytest.raises(ValueError, match="preimages must have shape"):
            C.check_condition_C(M.doubling_map(), 1, 0.9, 64, preimages=np.zeros((2, 32)))


# a derivative that is NaN on the last block only: the modulus must stay NaN
_NAN_TAIL = SimpleNamespace(name="nan_tail",
                            derivative=lambda x: np.where(x > 0.9, np.nan, 2.0 + x))


class TestLogDerivModulus:
    @pytest.mark.parametrize("m", [M.mp_like_map(), M.doubling_map(), _NAN_TAIL]
                             + [M.derived_expanding_map(v) for v in (0.5, 0.8, 1.0, 1.4)],
                             ids=lambda m: m.name)
    def test_blocks_match_one_shot(self, m):
        xs = np.arange(C.LOG_DERIV_SAMPLES + 1) / C.LOG_DERIV_SAMPLES
        one_shot = float(np.max(np.abs(np.diff(np.log(m.derivative(xs)))))
                         * C.LOG_DERIV_SAMPLES)
        assert np.array_equal(C._grid_log_deriv_modulus(m), one_shot, equal_nan=True)


class TestConditionCprime:
    def test_doubling_two_iterates(self):
        rep = C.check_condition_Cprime(M.doubling_map(), N=2, gamma=0.3, resolution=32)
        assert rep.passed
        assert np.allclose(rep.raw_bound, 0.25, atol=1e-13)

    def test_mp_threshold_gamma(self):
        fp14 = _mp_fprime(0.25)
        rep = C.check_condition_Cprime(M.mp_like_map(), N=1,
                                       gamma=1.0 / fp14 + 0.01, resolution=1024)
        assert rep.passed

    def test_derived_sink_passes_via_expanding_branch(self):
        m = M.derived_expanding_map(1.5)
        # gamma above the expanding-branch bound (~0.5) but far below the
        # sink-branch factor (2.0 at the fixed point)
        rep = C.check_condition_Cprime(m, N=1, gamma=0.7, resolution=256)
        assert rep.passed
        cell0 = 0  # cell containing the sink at x=0
        assert abs(rep.witness_preimage[cell0] - 0.5) < 0.05
        assert rep.raw_bound[cell0] == pytest.approx(0.5, abs=1e-3)

    def test_requires_derivative(self):
        base = M.doubling_map()
        holder = M.MapSpec(name="h", degree=2, lift=base.lift, derivative=None, r=0)
        with pytest.raises(ValueError):
            C.check_condition_Cprime(holder, 1, 0.6, 32)


class TestPointwiseToUniform:
    def test_identity_lipschitz(self):
        u = C.pointwise_to_uniform([("a", 3, 0.5)], L=1.0)
        assert (u.kappa, u.N_tilde) == (1, 3)
        assert u.rate == pytest.approx(0.5)

    def test_moderate(self):
        u = C.pointwise_to_uniform([("a", 4, 0.9)], L=1.05)
        assert u.kappa == 2
        assert u.rate == pytest.approx(0.9 ** 2 * 1.05 ** 4, rel=1e-12)
        assert u.rate < 1.0

    def test_slow(self):
        u = C.pointwise_to_uniform([("a", 1, 0.99)], L=2.0)
        assert u.kappa == 69

    def test_minimality(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            g = float(rng.uniform(0.2, 0.98))
            L = float(rng.uniform(1.0, 1.6))
            N = int(rng.integers(1, 6))
            u = C.pointwise_to_uniform([("r", N, g)], L)
            assert g ** u.kappa * L ** N < 1.0
            if u.kappa > 1:
                assert g ** (u.kappa - 1) * L ** N >= 1.0

    def test_max_over_regions(self):
        u = C.pointwise_to_uniform([("a", 2, 0.5), ("b", 4, 0.9)], L=1.05)
        assert u.gamma == 0.9 and u.N == 4


def _bk_dp(ell_k, base, k):
    # independent oracle: count words over an alphabet of base+1 symbols with
    # fewer than k occurrences of the designated contracting symbol, by the
    # transfer recurrence rather than the closed binomial form
    dp = [1] + [0] * k  # dp[c] = words so far with c contracting letters
    for _ in range(ell_k):
        nxt = [0] * (k + 1)
        for c in range(k + 1):
            nxt[c] = dp[c] * base
            if c > 0:
                nxt[c] += dp[c - 1]
        dp = nxt
    return sum(dp[:k])


def _bk_enumerate(ell_k, base, k):
    # literal enumeration of all words for tiny sizes
    import itertools
    count = 0
    for word in itertools.product(range(base + 1), repeat=ell_k):
        if sum(1 for s in word if s == 0) < k:
            count += 1
    return count


class TestCoveringBudget:
    def test_bk_single_term(self):
        assert C.bad_branch_count(4, 3, 1) == 81

    @pytest.mark.parametrize("base", [1, 2, 3])
    def test_bk_matches_dp_oracle(self, base):
        for ell_k in range(1, 13):
            for k in range(1, min(4, ell_k) + 1):
                assert C.bad_branch_count(ell_k, base, k) == _bk_dp(ell_k, base, k)

    def test_bk_matches_enumeration(self):
        for base in (1, 2, 3):
            for ell_k in range(1, 8):
                for k in (1, 2):
                    assert C.bad_branch_count(ell_k, base, k) == _bk_enumerate(ell_k, base, k)

    def test_estimate_32_at_L1(self):
        # scanner finds a finite ell0, and the estimate keeps holding beyond
        b = C.covering_budget(gamma=0.5, L=1.0, N=1, G=2)
        assert b.feasible
        ell0 = b.ell
        assert not C.estimate_32(1.0, 1, 2, 1, ell0 - 1)
        for ell in range(ell0, ell0 + 50):
            assert C.estimate_32(1.0, 1, 2, 1, ell)

    def test_concrete_budget(self):
        # oracle: independent brute-force scan with Fraction arithmetic
        got = C.covering_budget(gamma=0.5, L=1.001, N=2, G=2, dim_m=1, C=2.0)
        gamma, L, N, G = 0.5, 1.001, 2, 2

        def est1(ell):
            return gamma * L ** (N * (ell - 1)) < 1

        def est2(ell):
            return math.exp(1 / ell) * ell ** (1 / ell) * L ** N < 2 ** N / (2 ** N - 1)

        ell = next(l for l in range(1, 1000) if est1(l) and est2(l))
        k = None
        for kk in range(1, 50):
            dk = math.ceil(Fraction(2) * Fraction(L) ** (kk * N))
            bk = sum(math.comb(ell * kk, j) * (2 ** N - 1) ** (ell * kk - j) for j in range(kk))
            if dk * bk < 2 ** (ell * kk * N):
                k = kk
                break
        assert (got.ell, got.k) == (ell, k)
        assert got.feasible
        assert got.q_k == got.D_k * got.B_k
        assert got.q_k < got.threshold
        gt = gamma * L ** (N * (ell - 1))
        k0 = k
        while gt ** k0 * L ** (ell * N) >= 1:
            k0 += 1
        assert got.m0 == ell * k0 * N

    def test_L_monotonicity_at_fixed_ell_k(self):
        # increasing L only grows q_k while the threshold is fixed
        for ell, k in ((4, 1), (5, 2), (6, 3)):
            prev = None
            for L in (1.0, 1.01, 1.05, 1.2):
                q = C.ball_count(1.0, L, 2, 1, k) * C.bad_branch_count(ell * k, 3, k)
                if prev is not None:
                    assert q >= prev
                prev = q

    def test_infeasible_at_cap(self):
        b = C.covering_budget(gamma=0.99, L=1.5, N=1, G=2, ell_cap=50, k_cap=50)
        assert not b.feasible
        assert b.violated is not None

    def test_exactness_overflows_floats(self):
        # thresholds at modest k already exceed 2^63; exact ints required
        b = C.covering_budget(gamma=0.5, L=1.0, N=2, G=3, dim_m=1)
        assert b.feasible
        assert b.threshold > 2 ** 63 or b.q_k > 0


class TestPotentialAdmissibility:
    def test_zero_potential(self):
        rep = C.potential_admissible(O.zero, eps=0.05)
        assert rep.variation_ok and rep.seminorm_ok and rep.admissible
        assert rep.sup_phi == pytest.approx(0.0, abs=1e-12)
        assert rep.seminorm_exp_phi == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("t", [-0.7, 0.3, 2.0])
    def test_geometric_potential_on_doubling_is_constant(self, t):
        phi = O.neg_log_deriv(M.doubling_map(), scale=t)
        rep = C.potential_admissible(phi, eps=1e-6)
        assert rep.admissible

    def test_iterate_inequality_plugin(self):
        rep = C.potential_admissible(
            O.zero, eps=0.0,
            m_data=C.IterateData(deg_m=2, q_m=0, gamma_m=0.5, L_m=1.0, diam_m=0.5))
        assert rep.iterate_lhs == pytest.approx(0.5, abs=1e-12)
        assert rep.iterate_ok

    def test_partial_verdict_without_seminorm(self):
        rep = C.potential_admissible((0.1, 0.0, None, 1.0), eps=0.5)
        assert rep.partial
        assert rep.admissible is None
        assert rep.variation_ok

    def test_recompute_matches(self):
        rep = C.potential_admissible(O.fourier_cos(1, 0.01), eps=0.1)
        assert rep.recompute() == (rep.variation_ok, rep.seminorm_ok, rep.admissible)

    def test_inadmissible_large_variation(self):
        rep = C.potential_admissible(O.fourier_cos(1, 1.0), eps=0.1)
        assert not rep.variation_ok
        assert not rep.admissible
