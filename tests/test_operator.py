import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoformal import maps as M
from thermoformal import observables as O
from thermoformal import operator as T
from thermoformal.errors import ReducibleMatrixError


@pytest.fixture(scope="module")
def doubling_triples():
    d = M.doubling_map()
    out = {}
    for scheme in ("collocation", "ulam"):
        tm = T.build_matrix(d, O.zero, scheme, 256)
        out[scheme] = T.leading_triple(tm)
    return out


class TestBuildMatrix:
    @pytest.mark.parametrize("scheme", ["collocation", "ulam"])
    def test_constant_vector_counts_preimages(self, scheme):
        for mk, deg in ((M.doubling_map, 2), (M.mp_like_map, 2),
                        (lambda: M.derived_expanding_map(0.8), 2)):
            tm = T.build_matrix(mk(), O.zero, scheme, 128)
            assert np.max(np.abs(tm.A @ np.ones(128) - deg)) < 1e-12

    def test_nonnegative_entries(self):
        for scheme in ("collocation", "ulam"):
            tm = T.build_matrix(M.mp_like_map(), O.fourier_cos(1, 0.1), scheme, 64)
            assert tm.A.min() >= 0.0

    def test_log_half_potential(self):
        tm = T.build_matrix(M.doubling_map(), O.constant(-np.log(2.0)), "collocation", 64)
        assert np.max(np.abs(tm.A @ np.ones(64) - 1.0)) < 1e-12

    def test_ulam_transport_columns(self):
        for mk in (M.doubling_map, M.mp_like_map, lambda: M.derived_expanding_map(1.3)):
            tm = T.build_matrix(mk(), O.zero, "ulam", 128)
            assert np.max(np.abs(tm.transport.sum(axis=0) - 1.0)) < 1e-12

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            T.build_matrix(M.doubling_map(), O.zero, "spectral", 64)
        with pytest.raises(ValueError):
            T.build_matrix(M.doubling_map(), O.zero, "ulam", 8)


class TestLeadingTriple:
    @pytest.mark.parametrize("scheme", ["collocation", "ulam"])
    def test_doubling_flat_triple(self, doubling_triples, scheme):
        tr = doubling_triples[scheme]
        assert tr.lam == pytest.approx(2.0, abs=1e-10)
        assert np.max(np.abs(tr.h - 1.0)) < 1e-10
        assert np.max(np.abs(tr.nu - 1.0 / 256)) < 1e-12
        assert T.primitivity_power(tr.matrix.csr) is not None

    def test_doubling_log_half(self):
        tm = T.build_matrix(M.doubling_map(), O.constant(-np.log(2.0)), "ulam", 64)
        assert T.leading_triple(tm).lam == pytest.approx(1.0, abs=1e-10)

    def test_normalizations(self, doubling_triples):
        for tr in doubling_triples.values():
            assert abs(tr.nu.sum() - 1.0) < 1e-12
            assert abs(float(tr.h @ tr.nu) - 1.0) < 1e-10
            assert 0.0 <= T.gap_ratio(tr) < 1.0
            assert tr.lam > 0 and tr.h.min() > 0 and tr.nu.min() >= 0

    def test_eigen_residuals(self):
        tm = T.build_matrix(M.mp_like_map(), O.fourier_cos(1, 0.1), "collocation", 256)
        tr = T.leading_triple(tm)
        A = tm.A
        assert np.max(np.abs(A @ tr.h - tr.lam * tr.h)) / np.max(np.abs(tr.h)) < 1e-9 * tr.lam
        assert np.max(np.abs(A.T @ tr.nu - tr.lam * tr.nu)) / np.max(np.abs(tr.nu)) < 1e-9 * tr.lam

    def test_mp_flat_eigenfunction_two_schemes(self):
        # Eq.-(3)-type operator at zero potential maps 1 to degree * 1, so
        # the eigenfunction is flat in both schemes; the interesting
        # structure sits in nu (see equilibrium tests)
        hs = {}
        for scheme in ("collocation", "ulam"):
            tr = T.leading_triple(T.build_matrix(M.mp_like_map(), O.zero, scheme, 1024))
            assert tr.lam == pytest.approx(2.0, abs=1e-10)
            hs[scheme] = tr.h
        assert np.max(np.abs(hs["ulam"] - hs["collocation"])) < 1e-4

    def test_constant_shift_scales_lambda(self):
        d = M.mp_like_map()
        base = T.leading_triple(T.build_matrix(d, O.fourier_cos(1, 0.1), "collocation", 256))
        for c in (0.3, -0.9):
            phi = O.combine(O.fourier_cos(1, 0.1), O.constant(1.0), c)
            tr = T.leading_triple(T.build_matrix(d, phi, "collocation", 256))
            assert abs(tr.lam - np.exp(c) * base.lam) < 1e-10 * base.lam

    def test_grid_refinement_monotone(self):
        phi = O.fourier_cos(1, 0.1)
        mp = M.mp_like_map()
        lam = {n: T.leading_triple(T.build_matrix(mp, phi, "collocation", n)).lam
               for n in (256, 512, 1024, 2048)}
        diffs = [abs(lam[256] - lam[512]), abs(lam[512] - lam[1024]),
                 abs(lam[1024] - lam[2048])]
        assert diffs[0] > diffs[1] > diffs[2]

    def test_iterate_identity(self):
        d = M.doubling_map()
        phi = O.fourier_cos(1, 0.1)
        phi2 = O.PotentialSpec(
            name="phi+phi.f",
            fn=lambda x: phi.fn(x) + phi.fn(M.map_eval(d, x)))
        lam1 = T.leading_triple(T.build_matrix(d, phi, "collocation", 1024)).lam
        lam2 = T.leading_triple(T.build_matrix(M.iterate_map(d, 2), phi2, "collocation", 1024)).lam
        assert abs(lam2 - lam1 ** 2) < 1e-3 * lam1 ** 2

    def test_scheme_consistency(self):
        # lambda agreement across schemes at n=1024 for the builtin maps in
        # the contraction class and the three reference potentials; the
        # rotation (negative control, no spectral gap) only has a leading
        # eigenvalue for constant potentials
        for mk in (M.doubling_map, M.mp_like_map,
                   lambda: M.derived_expanding_map(0.8)):
            m = mk()
            for phi in (O.zero, O.neg_log_deriv(m, 0.1), O.fourier_cos(1, 0.1)):
                lams = [T.leading_triple(T.build_matrix(m, phi, s, 1024)).lam
                        for s in ("collocation", "ulam")]
                assert abs(lams[0] - lams[1]) < 1e-3, (m.name, phi.name)
        rot = M.rotation_map()
        lams = [T.leading_triple(T.build_matrix(rot, O.zero, s, 1024)).lam
                for s in ("collocation", "ulam")]
        assert abs(lams[0] - lams[1]) < 1e-3

    def test_rotation_nonconstant_potential_diverges(self):
        # no spectral gap for an isometry with non-constant weight: the
        # iteration must report non-convergence carrying its last iterate
        from thermoformal.errors import ConvergenceError
        tm = T.build_matrix(M.rotation_map(), O.fourier_cos(1, 0.1), "ulam", 256)
        with pytest.raises(ConvergenceError) as exc:
            T.leading_triple(tm, max_iter=2000)
        assert exc.value.last_iterate is not None

    def test_rotation_not_primitive(self):
        tm = T.build_matrix(M.rotation_map(), O.zero, "ulam", 64)
        tr = T.leading_triple(tm)
        assert T.primitivity_power(tr.matrix.csr) is None
        assert tr.lam == pytest.approx(1.0, abs=1e-10)

    def test_zero_row_rejected(self):
        tm = T.build_matrix(M.doubling_map(), O.zero, "ulam", 32)
        A = tm.A.copy()
        A[5] = 0.0
        bad = T.TransferMatrix(scheme="ulam", n=32, A=A, grid=tm.grid,
                               map=tm.map, potential=tm.potential)
        with pytest.raises(ReducibleMatrixError):
            T.leading_triple(bad)


def _dense_primitivity_power(A, max_power=8):
    """Reference: smallest k in {1,2,4,8} with (pattern of A)^k > 0, by
    dense float32 squaring of the pattern."""
    P = (A > 0).astype(np.float32)
    k = 1
    while k <= max_power:
        if P.min() > 0:
            return k
        if 2 * k > max_power:
            return None
        P = (P @ P > 0).astype(np.float32)
        k *= 2
    return None


@st.composite
def _patterns(draw):
    # random 0/1 entries of a drawn density on top of a permutation, which
    # keeps every row and column nonzero; every k in {1,2,4,8} and None occur
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    P = rng.random((n, n)) < draw(st.floats(0.0, 0.6))
    P[np.arange(n), draw(st.permutations(range(n)))] = True
    return P.astype(float)


class TestPrimitivityPower:
    @pytest.mark.parametrize("scheme", ["collocation", "ulam"])
    def test_builtin_maps_match_dense(self, scheme):
        cases = [(mk(), n) for mk in (M.doubling_map, M.mp_like_map, M.rotation_map)
                 for n in (16, 32, 64, 128, 256, 512, 1024)]
        cases += [(M.derived_expanding_map(v), n) for v in (0.5, 0.8, 1.0, 1.4)
                  for n in (16, 64, 256, 512)]
        powers = set()
        for m, n in cases:
            A = T.build_matrix(m, O.zero, scheme, n).A
            expect = _dense_primitivity_power(A)
            assert T.primitivity_power(T._csr(A)) == expect, (m.name, n)
            powers.add(expect)
        assert {4, 8, None} <= powers

    @settings(max_examples=300, deadline=None)
    @given(_patterns())
    def test_random_patterns_match_dense(self, P):
        assert T.primitivity_power(T._csr(P)) == _dense_primitivity_power(P)

    def test_csr_copy_is_exact(self):
        tm = T.build_matrix(M.mp_like_map(), O.fourier_cos(1, 0.1), "ulam", 128)
        Ac = T._csr(tm.A)
        assert Ac.nnz == np.count_nonzero(tm.A)
        assert np.array_equal(Ac.toarray(), tm.A)


class TestEquilibrium:
    def test_doubling_uniform(self, doubling_triples):
        for tr in doubling_triples.values():
            st = T.equilibrium_measure(tr)
            assert np.max(np.abs(st.mu - 1.0 / 256)) < 1e-12
            assert abs(st.mu.sum() - 1.0) < 1e-12

    def test_mp_nonuniform_density(self):
        tr = T.leading_triple(T.build_matrix(M.mp_like_map(), O.zero, "ulam", 512))
        st = T.equilibrium_measure(tr)
        d = st.density
        assert d.max() - d.min() > 1.0
        assert abs(st.mu.sum() - 1.0) < 1e-10

    def test_normalization_gate(self, doubling_triples):
        tr = doubling_triples["ulam"]
        bad = T.SpectralTriple(matrix=tr.matrix, lam=tr.lam, h=2.0 * tr.h, nu=tr.nu,
                               iterations=tr.iterations)
        with pytest.raises(ValueError):
            T.equilibrium_measure(bad)


class TestInvarianceDefect:
    def test_doubling_exact(self, doubling_triples):
        st = T.equilibrium_measure(doubling_triples["ulam"])
        d = M.doubling_map()
        defect = T.invariance_defect(d, st, [lambda x: np.cos(2 * np.pi * np.asarray(x))])
        assert defect < 1e-10

    def test_constant_testfn(self, doubling_triples):
        st = T.equilibrium_measure(doubling_triples["collocation"])
        defect = T.invariance_defect(M.doubling_map(), st,
                                     [lambda x: np.full_like(np.asarray(x), 4.2)])
        assert defect == 0.0

    def test_mp_small_defect(self):
        mp = M.mp_like_map()
        tr = T.leading_triple(T.build_matrix(mp, O.zero, "collocation", 1024))
        st = T.equilibrium_measure(tr)
        assert T.invariance_defect(mp, st, T.fourier_testfns(5)) < 1e-3
