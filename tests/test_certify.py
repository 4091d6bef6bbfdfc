import dataclasses
import math
import tracemalloc
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
        holder = M.MapSpec(name="h", degree=2, lift=base.lift, derivative=None)
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
        N, gamma = 1, 0.99
        lo = C.check_condition_C(m, N, gamma, 256)
        hi = C.check_condition_C(m, N, gamma, 512)
        w = 1.0 / 256
        margin_ok = lo.bound < gamma * math.exp(-N * lo.rho * w / 2)
        children = hi.bound.reshape(256, 2).max(axis=1)
        assert np.all(children[margin_ok] < gamma)

    @pytest.mark.parametrize("m", [M.mp_like_map(), M.derived_expanding_map(1.3),
                                   M.MapSpec(name="h", degree=2, lift=M.doubling_map().lift)],
                             ids=lambda m: m.name)
    @pytest.mark.parametrize("N, res", [(1, 64), (2, 64), (3, 64), (1, 96), (2, 96), (3, 96)],
                             ids=["1", "2", "3", "1-96", "2-96", "3-96"])
    def test_given_preimages_match_inverted(self, m, N, res):
        # the collocation geometry at n = resolution holds the level-1
        # preimages of the centres, reduced to [0, 1)
        from thermoformal import operator as T
        pre = T.map_geometry(m, "collocation", res).points[None, :, 0]
        own = C.check_condition_C(m, N, 0.9, res)
        given = C.check_condition_C(m, N, 0.9, res, preimages=pre)
        for field in ("witness_branch", "witness_preimage", "bound", "raw_bound", "failures"):
            assert getattr(given, field).tobytes() == getattr(own, field).tobytes()
        assert (given.passed, given.mode) == (own.passed, own.mode)

    def test_preimages_shape_checked(self):
        with pytest.raises(ValueError, match="preimages must have shape"):
            C.check_condition_C(M.doubling_map(), 1, 0.9, 64, preimages=np.zeros((1, 2, 32)))


# a derivative that is NaN on the last block only: the modulus must stay NaN
_NAN_TAIL = SimpleNamespace(name="nan_tail", members=1,
                            derivative=lambda x, member=0: np.where(x > 0.9, np.nan, 2.0 + x))


# a member block as the response guard certifies it
_SINK_BLOCK = M.derived_expanding_map(np.linspace(0.5, 1.5, 8))


class TestLogDerivModulus:
    @staticmethod
    def _one_shot(m):
        xs = np.arange(C.LOG_DERIV_SAMPLES + 1) / C.LOG_DERIV_SAMPLES
        member = np.arange(m.members)[:, None]
        logd = np.log(np.broadcast_to(m.derivative(xs, member), (m.members, xs.size)))
        return np.max(np.abs(np.diff(logd)), axis=-1) * C.LOG_DERIV_SAMPLES

    @pytest.mark.parametrize("m", [M.mp_like_map(), M.doubling_map(), _NAN_TAIL]
                             + [M.derived_expanding_map(v) for v in (0.5, 0.8, 1.0, 1.4)]
                             + [_SINK_BLOCK],
                             ids=lambda m: m.name)
    def test_blocks_match_one_shot(self, m):
        assert np.array_equal(C._grid_log_deriv_modulus(m), self._one_shot(m), equal_nan=True)

    # 7 takes ragged blocks of 7 differences, and of one for 8 members
    @pytest.mark.parametrize("block", [7, "whole"])
    @pytest.mark.parametrize("m", [_NAN_TAIL, _SINK_BLOCK], ids=["nan_tail", "8-members"])
    def test_any_block_size_matches_one_shot(self, monkeypatch, m, block):
        whole = C.LOG_DERIV_SAMPLES * m.members
        monkeypatch.setattr(C, "BLOCK", whole if block == "whole" else block)
        assert np.array_equal(C._grid_log_deriv_modulus(m), self._one_shot(m), equal_nan=True)


class TestConditionCprime:
    def test_doubling_two_iterates(self):
        rep = C.check_condition_C(M.doubling_map(), N=2, gamma=0.3, resolution=32)
        assert rep.passed
        assert np.allclose(rep.raw_bound, 0.25, atol=1e-13)

    def test_mp_threshold_gamma(self):
        fp14 = _mp_fprime(0.25)
        rep = C.check_condition_C(M.mp_like_map(), N=1,
                                  gamma=1.0 / fp14 + 0.01, resolution=1024)
        assert rep.passed

    def test_derived_sink_passes_via_expanding_branch(self):
        m = M.derived_expanding_map(1.5)
        # gamma above the expanding-branch bound (~0.5) but far below the
        # sink-branch factor (2.0 at the fixed point)
        rep = C.check_condition_C(m, N=1, gamma=0.7, resolution=256)
        assert rep.passed
        cell0 = 0  # cell containing the sink at x=0
        assert abs(rep.witness_preimage[cell0] - 0.5) < 0.05
        assert rep.raw_bound[cell0] == pytest.approx(0.5, abs=1e-3)


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
        got = C.covering_budget(gamma=0.5, L=1.001, N=2, G=2)
        gamma, L, N, G = 0.5, 1.001, 2, 2

        def est1(ell):
            return gamma * L ** (N * (ell - 1)) < 1

        def est2(ell):
            return math.exp(1 / ell) * ell ** (1 / ell) * L ** N < 2 ** N / (2 ** N - 1)

        ell = next(l for l in range(1, 1000) if est1(l) and est2(l))
        k = None
        for kk in range(1, 50):
            dk = math.ceil(Fraction(math.sqrt(2.0) * 0.5) * Fraction(L) ** (kk * N))
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
                q = C.ball_count(L, 2, k) * C.bad_branch_count(ell * k, 3, k)
                if prev is not None:
                    assert q >= prev
                prev = q

    def test_infeasible_at_cap(self):
        b = C.covering_budget(gamma=0.99, L=1.5, N=1, G=2, ell_cap=50, k_cap=50)
        assert not b.feasible
        assert b.violated is not None

    @pytest.mark.parametrize("args", [(0.5, 2.0, 1, 2),
                                      (0.9, 1.25, 3, 2)])   # derived_expanding at v = 1.2
    def test_estimate_31_failure_ends_the_scan(self, args):
        # scanning on to ell_cap would overflow L ** (N * (ell - 1)) near ell = 1000
        b = C.covering_budget(*args)
        assert not b.feasible
        assert "estimate_3_1" in b.violated.split("+")

    def test_empty_ell_scan_rejected(self):
        with pytest.raises(ValueError, match="ell_cap >= 1"):
            C.covering_budget(0.5, 1.0, 1, 2, ell_cap=0)

    def test_exactness_overflows_floats(self):
        # thresholds at modest k already exceed 2^63; exact ints required
        b = C.covering_budget(gamma=0.5, L=1.0, N=2, G=3)
        assert b.feasible
        assert b.threshold > 2 ** 63 or b.q_k > 0


class TestPotentialAdmissibility:
    @staticmethod
    def _dense_seminorm(phi):
        """The seminorm term of potential_stats from the full pair matrix."""
        w = 1.0 / C.STATS_GRID_N
        xs = M.cell_centers(C.STATS_GRID_N)
        e = np.exp(phi.fn(xs))
        d = np.abs(xs[None, :] - xs[:, None])
        d = np.minimum(d, 1.0 - d)
        np.fill_diagonal(d, 1.0)
        quot = np.abs(e[None, :] - e[:, None]) / d ** phi.alpha
        rho_e = float(np.max(np.abs(np.diff(np.concatenate([e, e[:1]]))))) / w
        return float(np.max(quot)) + rho_e * w ** (1.0 - phi.alpha)

    @pytest.mark.parametrize("phi", [
        O.fourier_cos(1, 1.0), O.fourier_sin(3, 0.4), O.constant(0.3),
        O.piecewise_poly([0.0, 0.3, 1.0], [[0.0, 2.0, -1.0], [0.5, 0.0, 3.0]]),
        dataclasses.replace(O.fourier_cos(2, 0.7), alpha=0.5),
    ])
    def test_stats_seminorm_blocks_equal_dense(self, phi):
        assert C.potential_stats(phi)[2] == self._dense_seminorm(phi)

    # 5 takes blocks of one row; the whole pair matrix is one block
    @pytest.mark.parametrize("block", [5, C.STATS_GRID_N ** 2], ids=["one-row", "whole"])
    def test_stats_any_block_size_equal_dense(self, monkeypatch, block):
        phi = O.fourier_sin(3, 0.4)
        want = C.potential_stats(phi)
        monkeypatch.setattr(C, "BLOCK", block)
        assert C.potential_stats(phi) == want
        assert want[2] == self._dense_seminorm(phi)

    def test_stats_hold_no_pair_matrix(self):
        phi = O.fourier_cos(1, 1.0)
        C.potential_stats(phi)
        tracemalloc.start()
        try:
            C.potential_stats(phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one float64 pair matrix alone is 8 MiB; a call held three of them
        assert peak < 4 * 2 ** 20

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
            m_data=C.IterateData(deg_m=2, q_m=0, gamma_m=0.5, L_m=1.0))
        assert rep.iterate_lhs == pytest.approx(0.5, abs=1e-12)
        assert rep.iterate_ok

    def test_recompute_matches(self):
        # the verdicts follow from the stored numbers
        eps = 0.1
        rep = C.potential_admissible(O.fourier_cos(1, 0.01), eps=eps)
        var_ok = rep.sup_phi - rep.inf_phi < eps
        s_ok = rep.seminorm_exp_phi < eps * math.exp(rep.inf_phi)
        assert (var_ok, s_ok, var_ok and s_ok) == (rep.variation_ok, rep.seminorm_ok,
                                                   rep.admissible)

    def test_inadmissible_large_variation(self):
        rep = C.potential_admissible(O.fourier_cos(1, 1.0), eps=0.1)
        assert not rep.variation_ok
        assert not rep.admissible
