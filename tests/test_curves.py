import tracemalloc

import numpy as np
import pytest

from thermoformal import certify as C
from thermoformal import curves as Cv
from thermoformal import maps as M
from thermoformal import observables as O
from thermoformal import operator as T
from thermoformal.errors import (ConvergenceError, LegendreDegenerateError,
                                 ReducibleMatrixError, ThermoformalError)

COS1 = O.fourier_cos(1)


@pytest.fixture(scope="module")
def doubling_cos_curve():
    return Cv.free_energy_curve(M.doubling_map(), O.zero, COS1,
                                t_max=0.5, steps=41, scheme="collocation",
                                n=512)


class TestFreeEnergyCurve:
    def test_zero_at_origin_exact(self, doubling_cos_curve):
        c = doubling_cos_curve
        i0 = int(np.flatnonzero(c.t == 0.0)[0])
        assert c.E[i0] == 0.0

    def test_constant_observable_affine(self):
        c = Cv.free_energy_curve(M.doubling_map(), O.zero, O.constant(0.7),
                                 t_max=0.5, steps=21, scheme="ulam", n=256)
        assert c.verdict == "affine"
        assert np.max(np.abs(c.E - 0.7 * c.t)) < 1e-12

    def test_strict_convexity(self, doubling_cos_curve):
        c = doubling_cos_curve
        assert c.verdict == "strict"
        assert np.nanmin(c.E2) > -1e-8
        # curvature at 0 approximates the Green-Kubo variance 1/2
        i0 = int(np.flatnonzero(c.t == 0.0)[0])
        assert c.E2[i0] == pytest.approx(0.5, abs=2e-3)

    def test_derivative_is_central_difference(self, doubling_cos_curve):
        c = doubling_cos_curve
        manual = (c.E[2:] - c.E[:-2]) / (2 * c.step)
        assert np.allclose(c.E1[1:-1], manual, atol=1e-14)

    def test_scheme_agreement(self):
        es = {}
        for scheme in ("collocation", "ulam"):
            c = Cv.free_energy_curve(M.doubling_map(), O.zero, COS1, t_max=0.4,
                                     steps=5, scheme=scheme, n=1024)
            es[scheme] = c.E
        assert np.max(np.abs(es["collocation"] - es["ulam"])) < 1e-3

    def test_tilting_identity_same_code_path(self, doubling_cos_curve):
        # the curve's lambda at grid t equals a batched solve of that t alone,
        # from the matrix built with the tilted weights, bitwise
        c = doubling_cos_curve
        t = c.t[7]
        pot = O.combine(O.zero, COS1, t)
        g = T.map_geometry(M.doubling_map(), "collocation", 512)
        W = g.weights(pot.fn(g.points))
        A = T.build_matrix(M.doubling_map(), pot, "collocation", 512).A
        assert np.array_equal(T.TransferMatrix(geometry=g, weights=W, potential=pot).A, A)
        A0 = T.build_matrix(M.doubling_map(), O.zero, "collocation", 512).A
        assert np.array_equal(c.base.matrix.A, A0)
        [tr] = T.leading_triples(g, W[None], [pot])
        assert tr.lam == c.lam[7]

    def test_t_grid_keeps_only_the_base_triple(self):
        n = 256
        tracemalloc.start()
        try:
            c = Cv.free_energy_curve(M.doubling_map(), O.zero, COS1, t_max=0.5,
                                     steps=21, n=n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 21 dense n x n matrices would take 21 * n^2 * 8 bytes
        assert peak < 4 * n * n * 8
        i0 = int(np.flatnonzero(c.t == 0.0)[0])
        assert c.base.lam == c.lam[i0]

    def test_base_is_the_t0_triple(self, doubling_cos_curve):
        c = doubling_cos_curve
        ref = T.leading_triple(T.build_matrix(M.doubling_map(), O.zero, "collocation", 512))
        assert c.base.matrix.potential is O.zero
        assert c.base.lam == ref.lam and c.base.iterations == ref.iterations
        assert np.array_equal(c.base.h, ref.h) and np.array_equal(c.base.nu, ref.nu)

    def test_admissibility_guard_warns(self):
        with pytest.warns(UserWarning):
            Cv.free_energy_curve(M.doubling_map(), O.zero, COS1, t_max=1.0,
                                 steps=5, scheme="ulam", n=64, eps_guard=0.01)

    def test_default_t_max_dyadic(self):
        t = Cv.default_t_max(M.doubling_map(), O.zero, O.constant(0.0), eps=0.5)
        assert t == 4.0  # zero direction is admissible at the ladder top
        t2 = Cv.default_t_max(M.doubling_map(), O.zero, COS1, eps=0.5)
        assert t2 in {4.0 / 2 ** k for k in range(22)}
        rep = Cv.potential_admissible(O.combine(O.zero, COS1, t2), 0.5)
        assert rep.admissible


def _tilted(m, phi, psi, t_max, steps):
    return [(t, phi if t == 0.0 else O.combine(phi, psi, t))
            for t in Cv.symmetric_grid(t_max, steps)]


def _record_solves(monkeypatch):
    """Record ``(W, potentials, triples)`` of each ``leading_triples`` call
    that ``free_energy_curve`` makes."""
    calls = []

    def spy(g, W, potentials):
        calls.append((W, potentials, T.leading_triples(g, W, potentials)))
        return calls[-1][2]

    monkeypatch.setattr(Cv, "leading_triples", spy)
    return calls


_MP = M.mp_like_map()
BATCH_CASES = [(M.doubling_map(), O.zero, COS1, 0.5),
               (_MP, O.zero, O.neg_log_deriv(_MP), 0.25)]


class TestBatchedSolve:
    """The t-grid's batched solve against per-t build_matrix + leading_triple."""

    @pytest.mark.parametrize("scheme", ["collocation", "ulam"])
    @pytest.mark.parametrize("m, phi, psi, t_max", BATCH_CASES, ids=["doubling", "mp_like"])
    def test_matches_per_t_solve(self, monkeypatch, m, phi, psi, t_max, scheme):
        n = 256
        calls = _record_solves(monkeypatch)
        c = Cv.free_energy_curve(m, phi, psi, t_max, 9, scheme=scheme, n=n)
        [(W, pots, triples)] = calls
        for k, (t, pot) in enumerate(_tilted(m, phi, psi, t_max, 9)):
            ref = T.leading_triple(T.build_matrix(m, pot, scheme, n))
            tr = triples[k]
            assert np.array_equal(W[k], ref.matrix.weights)
            assert pots[k].name == pot.name == tr.matrix.potential_name
            assert c.lam[k] == tr.lam == ref.lam
            assert tr.iterations == ref.iterations
            assert np.array_equal(tr.h, ref.h) and np.array_equal(tr.nu, ref.nu)
            assert np.array_equal(tr.mu, ref.mu)

    @pytest.mark.parametrize("scheme", ["collocation", "ulam"])
    @pytest.mark.parametrize("m, phi, psi, t_max", BATCH_CASES, ids=["doubling", "mp_like"])
    def test_column_does_not_depend_on_its_batch(self, m, phi, psi, t_max, scheme):
        g = T.map_geometry(m, scheme, 128)
        grid = _tilted(m, phi, psi, t_max, 7)
        W = np.stack([g.weights(pot.fn(g.points)) for _, pot in grid])
        pots = [pot for _, pot in grid]
        triples = T.leading_triples(g, W, pots)
        assert all(isinstance(tr, T.SpectralTriple) for tr in triples)
        # columns retire at different steps
        assert len({tr.iterations for tr in triples}) > 1
        for k, tr in enumerate(triples):
            [one] = T.leading_triples(g, W[k:k + 1], pots[k:k + 1])
            assert one.lam == tr.lam and one.iterations == tr.iterations
            assert np.array_equal(one.h, tr.h) and np.array_equal(one.nu, tr.nu)

    def test_blocks_do_not_change_the_curve(self, monkeypatch):
        args = (_MP, O.zero, O.neg_log_deriv(_MP), 0.25, 11)
        calls = _record_solves(monkeypatch)
        whole = Cv.free_energy_curve(*args, n=128)
        monkeypatch.setattr(Cv, "GRID_BLOCK", 3)
        blocks = Cv.free_energy_curve(*args, n=128)
        assert [W.shape[0] for W, _, _ in calls] == [11, 3, 3, 3, 2]
        assert np.array_equal(whole.lam, blocks.lam)
        assert np.array_equal(whole.E, blocks.E)
        assert blocks.base.lam == whole.base.lam == blocks.lam[5]
        assert np.array_equal(blocks.base.h, whole.base.h)
        its = [[tr.iterations for tr in out] for _, _, out in calls]
        assert its[0] == sum(its[1:], [])

    @pytest.mark.parametrize("scheme, inverter", [("collocation", "branch_preimages"),
                                                  ("ulam", "_invert_lift")])
    def test_grid_inverts_the_map_once(self, monkeypatch, scheme, inverter):
        calls = []
        for name in ("branch_preimages", "_invert_lift"):
            real = getattr(T, name)
            monkeypatch.setattr(T, name, lambda *a, real=real, name=name, **k:
                                calls.append(name) or real(*a, **k))
        Cv.free_energy_curve(_MP, O.zero, O.neg_log_deriv(_MP), 0.25, 41,
                             scheme=scheme, n=64)
        assert calls == [inverter]

    def test_zero_row_fails_its_column_only(self):
        g = T.map_geometry(M.doubling_map(), "ulam", 32)
        W = np.stack([g.weights(np.zeros(g.points.shape))] * 3)
        W[1, g.rows == 5] = 0.0
        pots = [O.PotentialSpec(name=name, fn=O.zero.fn) for name in "abc"]
        out = T.leading_triples(g, W, pots)
        assert isinstance(out[0], T.SpectralTriple) and isinstance(out[2], T.SpectralTriple)
        assert isinstance(out[1], ReducibleMatrixError)
        assert "doubling/b has a zero row or column" in str(out[1])

    def test_failing_column_names_first_failing_t(self, monkeypatch, grid_triples):
        args = (_MP, O.zero, O.neg_log_deriv(_MP), 0.25, 11)
        its = [tr.iterations for tr in grid_triples(*args, "collocation", 128)]
        cap = max(its) - 1
        first = Cv.symmetric_grid(0.25, 11)[int(np.argmax(np.array(its) > cap))]
        assert first != -0.25                   # not simply the first column
        monkeypatch.setattr(Cv, "GRID_BLOCK", 4)
        monkeypatch.setattr(T, "MAX_ITER", cap)
        with pytest.raises(ConvergenceError, match=f"^eigen-solve failed at t={first}: "):
            Cv.free_energy_curve(*args, n=128)


def _holed(lo, hi):
    """A potential that is -inf on [lo, hi]: rows whose preimages all lie
    there have zero weight."""
    return O.PotentialSpec(name=f"hole[{lo},{hi}]",
                           fn=lambda x: np.where((x >= lo) & (x <= hi), -np.inf, 0.0))


SINK_VS = np.linspace(0.5, 1.5, 7)


class TestPerMemberSolve:
    """leading_triples with one geometry per column, against
    leading_triple(build_matrix(...)) on each member alone."""

    @staticmethod
    def _members(scheme, n, pots):
        ms = [M.derived_expanding_map(v) for v in SINK_VS]
        geoms = [T.map_geometry(m, scheme, n) for m in ms]
        ws = [g.weights(p.fn(g.points)) for g, p in zip(geoms, pots)]
        return ms, geoms, ws

    @staticmethod
    def _reference(m, pot, scheme, n):
        try:
            return T.leading_triple(T.build_matrix(m, pot, scheme, n))
        except (ReducibleMatrixError, ConvergenceError) as exc:
            return exc

    @pytest.mark.parametrize("scheme", ["collocation", "ulam"])
    @pytest.mark.parametrize("cap", [None, "median"])
    def test_columns_match_members_alone(self, monkeypatch, scheme, cap):
        n, phi = 128, O.fourier_cos(1, 0.1)
        pots = [phi] * SINK_VS.size
        pots[3] = _holed(0.2, 0.8)                 # a zero-row member mid-block
        ms, geoms, ws = self._members(scheme, n, pots)
        assert len({g.col_table.shape[0] for g in geoms}) > 1   # tables padded
        if cap is not None:                     # some members fail to converge
            its = [self._reference(m, phi, scheme, n).iterations for m in ms]
            monkeypatch.setattr(T, "MAX_ITER", int(np.median(its)))
        out = T.leading_triples(geoms, ws, pots)
        kinds = set()
        for k, (m, pot) in enumerate(zip(ms, pots)):
            ref = self._reference(m, pot, scheme, n)
            if isinstance(ref, Exception):
                assert type(out[k]) is type(ref) and str(out[k]) == str(ref)
                kinds.add(type(ref))
                continue
            assert isinstance(out[k], T.SpectralTriple)
            assert out[k].lam == ref.lam and out[k].iterations == ref.iterations
            assert np.array_equal(out[k].h, ref.h) and np.array_equal(out[k].nu, ref.nu)
        assert ReducibleMatrixError in kinds
        assert (ConvergenceError in kinds) == (cap is not None)

    def test_shared_geometry_as_a_list(self):
        # a list of one geometry repeated gives what the shared tables give
        g = T.map_geometry(M.mp_like_map(), "collocation", 128)
        grid = _tilted(M.mp_like_map(), O.zero, COS1, 0.5, 5)
        W = np.stack([g.weights(pot.fn(g.points)) for _, pot in grid])
        pots = [pot for _, pot in grid]
        shared = T.leading_triples(g, W, pots)
        listed = T.leading_triples([g] * len(grid), list(W), pots)
        for a, b in zip(shared, listed):
            assert a.lam == b.lam and a.iterations == b.iterations
            assert np.array_equal(a.h, b.h) and np.array_equal(a.nu, b.nu)

    def test_geometries_must_share_n(self):
        gs = [T.map_geometry(M.doubling_map(), "collocation", n) for n in (32, 64)]
        with pytest.raises(ValueError, match="share n"):
            T.leading_triples(gs, [g.weights(np.zeros(g.points.shape)) for g in gs],
                              [O.zero, O.zero])


class TestFreeEnergyMc:
    def test_zero_t_exact(self, doubling_cos_curve):
        mu = doubling_cos_curve.base.mu
        assert Cv.free_energy_mc(M.doubling_map(), mu, COS1.fn, 0.0, 10, 100, seed=1) == 0.0

    def test_constant_observable(self, doubling_cos_curve):
        mu = doubling_cos_curve.base.mu
        val = Cv.free_energy_mc(M.doubling_map(), mu,
                                lambda x: np.full_like(np.asarray(x), 0.8),
                                0.5, 17, 500, seed=3)
        assert val == pytest.approx(0.4, abs=1e-12)

    def test_matches_spectral(self, doubling_cos_curve):
        c = doubling_cos_curve
        mu = c.base.mu
        for t in (-0.4, 0.2, 0.4):
            mc = Cv.free_energy_mc(M.doubling_map(), mu, COS1.fn, t,
                                   n=30, samples=100_000, seed=21)
            i = int(np.argmin(np.abs(c.t - t)))
            assert abs(c.E[i] - mc) < 0.02


class TestDerivativeChecks:
    def test_zero_observable_all_zero(self, grid_triples):
        args = (M.doubling_map(), O.zero, O.constant(0.0), 0.1, 5, "ulam", 64)
        c = Cv.free_energy_curve(*args[:5], scheme="ulam", n=64)
        rep = Cv.derivative_checks(c, grid_triples(*args), O.constant(0.0))
        assert rep.max_mean_residual == 0.0
        assert rep.e1_zero_residual == 0.0
        assert rep.bounds_ok

    def test_doubling_cos_narrow_grid(self, grid_triples):
        # narrow t-window makes the central-difference error at 0 negligible
        args = (M.doubling_map(), O.zero, COS1, 0.05, 41, "collocation", 512)
        c = Cv.free_energy_curve(*args[:5], scheme="collocation", n=512)
        rep = Cv.derivative_checks(c, grid_triples(*args), COS1)
        assert rep.e1_zero_residual < 1e-6
        assert rep.bounds_ok

    def test_residual_shrinks_with_step(self, doubling_cos_curve, grid_triples):
        c41 = doubling_cos_curve
        args = (M.doubling_map(), O.zero, COS1, 0.5)
        tr41 = grid_triples(*args, 41, "collocation", 512)
        r41 = Cv.derivative_checks(c41, tr41, COS1).max_mean_residual
        c81 = Cv.free_energy_curve(*args, 81, scheme="collocation", n=512)
        tr81 = grid_triples(*args, 81, "collocation", 512)
        r81 = Cv.derivative_checks(c81, tr81, COS1).max_mean_residual
        assert r81 < r41
        assert r81 < 5 * c81.step ** 2 + 1e-5


class TestRateFunction:
    def test_zero_at_mean(self, doubling_cos_curve):
        rf = Cv.rate_function(doubling_cos_curve, 101)
        assert Cv.legendre_value(doubling_cos_curve, rf.s_star)[0] < 1e-8
        assert rf.I.min() > -1e-12

    def test_variational_identity(self, doubling_cos_curve):
        rf = Cv.rate_function(doubling_cos_curve, 101)
        assert rf.eq5_residual < 1e-8

    def test_convex_and_monotone_argmax(self, doubling_cos_curve):
        rf = Cv.rate_function(doubling_cos_curve, 101)
        assert np.min(np.diff(rf.I, 2)) > -1e-8
        assert np.all(np.diff(rf.t_of_s) >= -1e-12)

    def test_shift_property(self, doubling_cos_curve):
        base = doubling_cos_curve
        c = 0.3
        shifted = Cv.free_energy_curve(M.doubling_map(), O.zero, O.shift(COS1, c),
                                       t_max=0.5, steps=41, scheme="collocation", n=512)
        rf = Cv.rate_function(base, 51)
        for s in np.linspace(rf.s_star + 0.02, rf.s_star + 0.15, 5):
            v_shift = Cv.legendre_value(shifted, s + c)[0]
            v_base = Cv.legendre_value(base, s)[0]
            assert abs(v_shift - v_base) < 1e-8

    def test_quadratic_toy_exact_pair(self):
        ts = Cv.symmetric_grid(1.0, 41)
        E = 0.5 * ts ** 2
        toy = Cv.FreeEnergyCurve(
            psi_name="toy", t=ts, E=E, E1=np.gradient(E, ts),
            E2=np.full_like(ts, 1.0), verdict="strict", lam=np.exp(E),
            scheme="none", n=0, admissible_at_endpoints=True)
        rf = Cv.rate_function(toy, 81)
        inner = (rf.s > -0.9) & (rf.s < 0.9)
        assert np.max(np.abs(rf.I[inner] - 0.5 * rf.s[inner] ** 2)) < 1e-12

    def test_affine_rejected(self):
        c = Cv.free_energy_curve(M.doubling_map(), O.zero, O.constant(1.0),
                                 t_max=0.5, steps=11, scheme="ulam", n=64)
        with pytest.raises(LegendreDegenerateError):
            Cv.rate_function(c, 11)

    def test_double_legendre_recovery(self, doubling_cos_curve):
        rf = Cv.rate_function(doubling_cos_curve, 201)
        ds = rf.s[1] - rf.s[0]
        inner = doubling_cos_curve.t[5:-5]
        rec = Cv.double_legendre(rf, inner)
        assert np.max(np.abs(rec - doubling_cos_curve.E[5:-5])) < 2 * ds ** 2


class TestLdp:
    def test_interval_containing_mean(self, doubling_cos_curve):
        rf = Cv.rate_function(doubling_cos_curve, 101)
        mu = doubling_cos_curve.base.mu
        rep = Cv.ldp_empirical(M.doubling_map(), mu, COS1.fn, -0.15, 0.15,
                               [20, 40], 20_000, seed=9, rate=rf)
        assert abs(rep.rate_bound) < 1e-4
        assert abs(rep.extrapolated) < 0.05
        assert not rep.censored

    def test_reproducible(self, doubling_cos_curve):
        rf = Cv.rate_function(doubling_cos_curve, 101)
        mu = doubling_cos_curve.base.mu
        reps = [Cv.ldp_empirical(M.doubling_map(), mu, COS1.fn, 0.25, 0.45,
                                 [20, 30], 20_000, seed=3, rate=rf)
                for _ in range(2)]
        assert np.array_equal(reps[0].counts, reps[1].counts)

    def test_smallest_n_keeps_its_stream(self, doubling_cos_curve):
        # the smallest n counts the orbits a one-horizon run would draw
        rf = Cv.rate_function(doubling_cos_curve, 101)
        mu = doubling_cos_curve.base.mu
        args = (M.doubling_map(), mu, COS1.fn, 0.25, 0.45)
        many = Cv.ldp_empirical(*args, [30, 10, 20], 20_000, seed=6, rate=rf,
                                batch_size=4096)
        one = Cv.ldp_empirical(*args, [10], 20_000, seed=6, rate=rf, batch_size=4096)
        assert many.counts[0] == one.counts[0] > 0

    def test_repeated_n_counts_equal(self, doubling_cos_curve):
        rf = Cv.rate_function(doubling_cos_curve, 101)
        mu = doubling_cos_curve.base.mu
        rep = Cv.ldp_empirical(M.doubling_map(), mu, COS1.fn, 0.25, 0.45,
                               [20, 20, 40], 20_000, seed=2, rate=rf)
        assert rep.n_values.tolist() == [20, 20, 40]
        assert rep.counts[0] == rep.counts[1] > 0

    def test_small_sample_keeps_sign(self, doubling_cos_curve):
        # shrinking m inflates variance but the decay rate stays negative
        rf = Cv.rate_function(doubling_cos_curve, 101)
        mu = doubling_cos_curve.base.mu
        big = Cv.ldp_empirical(M.doubling_map(), mu, COS1.fn, 0.25, 0.45,
                               [10, 20], 200_000, seed=4, rate=rf)
        small = Cv.ldp_empirical(M.doubling_map(), mu, COS1.fn, 0.25, 0.45,
                                 [10, 20], 2_000, seed=4, rate=rf)
        assert np.all(big.rates < 0) and np.all(small.rates < 0)


class TestResponseScan:
    def test_constant_family_identically_zero(self):
        fam = lambda v: M.doubling_map()
        sc = Cv.response_scan(fam, O.fourier_cos(1, 0.1),
                              lambda x: np.cos(2 * np.pi * np.asarray(x)),
                              np.linspace(0.0, 1.0, 9), "ulam", 128)
        assert np.all(sc.lam == sc.lam[0])
        assert np.max(np.abs(sc.dlam)) == 0.0
        assert np.nanmax(np.abs(sc.d2lam)) == 0.0
        assert np.all(np.exp(sc.pressure) == sc.lam)

    def test_derived_family_jump_shrinks(self):
        fam = M.derived_expanding_map
        phi = O.fourier_cos(1, 0.1)
        obs = lambda x: np.cos(2 * np.pi * np.asarray(x))
        coarse = Cv.response_scan(fam, phi, obs, np.linspace(0.5, 1.5, 9), "collocation", 256)
        fine = Cv.response_scan(fam, phi, obs, np.linspace(0.5, 1.5, 17), "collocation", 256)
        jc = np.max(np.abs(np.diff(coarse.lam)))
        jf = np.max(np.abs(np.diff(fine.lam)))
        assert jc / jf > 1.7

    def test_guard_flags(self):
        fam = M.derived_expanding_map
        sc = Cv.response_scan(fam, O.zero, lambda x: np.asarray(x),
                              np.linspace(0.5, 1.5, 5), "ulam", 64,
                              guard=(1, 0.7, 512))
        assert sc.guard_passed.all()

    def test_map_bound_potential(self):
        fam = M.derived_expanding_map
        phi = lambda mv: O.neg_log_deriv(mv, 0.1)
        sc = Cv.response_scan(fam, phi, lambda x: np.asarray(x),
                              np.linspace(0.0, 1.0, 5), "collocation", 64)
        assert np.all(np.isfinite(sc.lam))


def _per_member_scan(family, phi, obs, vs, scheme, n, guard):
    """The response scan solved one member at a time: guard, then
    leading_triple(build_matrix(...)), a NaN row when the solve fails."""
    lam, mean, ok, failed = [], [], [], []
    for v in vs:
        mv = family(float(v))
        pot = phi(mv) if not isinstance(phi, O.PotentialSpec) else phi
        if guard is not None:
            ok.append(C.check_condition_C(mv, *guard).passed)
        try:
            triple = T.leading_triple(T.build_matrix(mv, pot, scheme, n))
        except ThermoformalError:
            lam.append(np.nan), mean.append(np.nan), failed.append(True)
            continue
        lam.append(triple.lam)
        mean.append(float(np.asarray(obs(triple.grid), dtype=float) @ triple.mu))
        failed.append(False)
    return (np.array(lam), np.array(mean), np.array(ok, dtype=bool) if guard else None,
            np.array(failed))


class TestResponseBatches:
    """response_scan against the per-member path, bit for bit."""

    @pytest.mark.parametrize("scheme, n, guard, phi", [
        ("collocation", 64, (1, 0.7, 64), O.fourier_cos(1, 0.1)),
        ("collocation", 64, (2, 0.7, 64), O.fourier_cos(1, 0.1)),
        ("collocation", 64, (1, 0.7, 128), O.fourier_cos(1, 0.1)),
        ("collocation", 64, None, lambda mv: O.neg_log_deriv(mv, 0.1)),
        ("ulam", 64, (2, 0.7, 64), O.fourier_cos(1, 0.1)),
    ], ids=["guard-n", "guard-depth-2", "guard-resolution-2n", "no-guard", "ulam"])
    def test_matches_per_member_path(self, scheme, n, guard, phi):
        vs = np.linspace(0.5, 1.5, 11)             # blocks 4, 4, 3
        sc = Cv.response_scan(M.derived_expanding_map, phi, COS1.fn, vs, scheme, n, guard)
        lam, mean, ok, failed = _per_member_scan(M.derived_expanding_map, phi, COS1.fn,
                                                 vs, scheme, n, guard)
        assert sc.lam.tobytes() == lam.tobytes()
        assert sc.mean_obs.tobytes() == mean.tobytes()
        assert np.array_equal(sc.solve_failed, failed)
        if guard is None:
            assert sc.guard_passed is None
        else:
            assert np.array_equal(sc.guard_passed, ok)

    def test_failed_members_give_nan_rows(self, monkeypatch):
        vs, phi = np.linspace(0.5, 1.5, 9), O.fourier_cos(1, 0.1)
        its = [T.leading_triple(T.build_matrix(M.derived_expanding_map(v), phi,
                                               "collocation", 64)).iterations for v in vs]
        monkeypatch.setattr(T, "MAX_ITER", int(np.median(its)))
        sc = Cv.response_scan(M.derived_expanding_map, phi, COS1.fn, vs, n=64,
                              guard=(1, 0.7, 64))
        lam, mean, _, failed = _per_member_scan(M.derived_expanding_map, phi, COS1.fn,
                                                vs, "collocation", 64, None)
        assert 0 < failed.sum() < vs.size
        assert np.array_equal(sc.solve_failed, failed)
        assert np.isnan(sc.lam[failed]).all() and np.isnan(sc.mean_obs[failed]).all()
        assert sc.lam.tobytes() == lam.tobytes() and sc.mean_obs.tobytes() == mean.tobytes()

    @pytest.mark.parametrize("guard, guard_calls", [((1, 0.7, 64), 0), ((2, 0.7, 64), 1),
                                                    ((1, 0.7, 128), 1)])
    def test_each_member_inverted_once(self, monkeypatch, guard, guard_calls):
        # the guard at resolution n reads the geometry's level-1 preimages
        calls = {"operator": 0, "certify": 0}

        def counted(name, real):
            def inverse(*args):
                calls[name] += 1
                return real(*args)
            return inverse

        for mod, name in ((T, "operator"), (C, "certify")):
            monkeypatch.setattr(mod, "branch_preimages", counted(name, mod.branch_preimages))
        vs = np.linspace(0.5, 1.5, 5)
        Cv.response_scan(M.derived_expanding_map, O.fourier_cos(1, 0.1), COS1.fn, vs,
                         n=64, guard=guard)
        assert calls == {"operator": vs.size, "certify": guard_calls * vs.size}


class TestSymmetricGrid:
    def test_contains_exact_zero(self):
        for steps in (3, 21, 41, 81):
            g = Cv.symmetric_grid(0.7, steps)
            assert np.count_nonzero(g == 0.0) == 1
            assert np.allclose(g, -g[::-1])

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            Cv.symmetric_grid(1.0, 10)


def test_grid_solves_skip_gap_and_primitivity(monkeypatch, tmp_path):
    # E(t), lambda(v) and the LDP rate need only the leading eigenvalue, so
    # the gap estimate and the primitivity check must stay off grid solves
    from thermoformal import cli
    from thermoformal import statistics as S

    def boom(*args, **kwargs):
        raise AssertionError("diagnostic called on a grid solve")

    for mod in (T, cli, S):
        monkeypatch.setattr(mod, "gap_ratio", boom)
    for mod in (T, cli):
        monkeypatch.setattr(mod, "dominant_class", boom)

    curve = Cv.free_energy_curve(M.doubling_map(), O.zero, COS1, t_max=0.4, steps=5,
                                 scheme="collocation", n=64)
    assert np.all(np.isfinite(curve.E))
    scan = Cv.response_scan(M.derived_expanding_map, O.fourier_cos(1, 0.1), COS1.fn,
                            np.linspace(0.5, 1.5, 5), n=64, guard=(1, 0.7, 64))
    assert not scan.solve_failed.any()
    code, _ = cli.run({"schema_version": 1, "command": "ldp", "seed": 3,
                       "params": {"n": 64, "steps": 9, "s_steps": 11,
                                  "n_list": [5, 10], "samples": 1000}}, tmp_path)
    assert code == cli.EXIT_OK
