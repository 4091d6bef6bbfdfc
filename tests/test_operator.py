import json
import math

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


def _reference_collocation(m, phi, n):
    # The per-branch collocation assembly the loop-free one replaced.
    centers = (np.arange(n) + 0.5) / n
    A = np.zeros((n, n))
    rows = np.arange(n)
    pre = M.branch_preimages(m, centers)
    for b in range(m.degree):
        y = M.wrap01(pre[b])
        wgt = np.exp(phi.fn(y))
        p = y * n - 0.5
        j0 = np.floor(p).astype(np.int64)
        w_hi = p - j0
        np.add.at(A, (rows, np.mod(j0, n)), wgt * (1.0 - w_hi))
        np.add.at(A, (rows, np.mod(j0 + 1, n)), wgt * w_hi)
    return A


def _reference_ulam(m, phi, n):
    # The per-branch Ulam assembly the loop-free one replaced, without its
    # mass-transport matrix, which did not feed A.
    A = np.zeros((n, n))
    c = float(np.asarray(m.lift(0.0)).ravel()[0])
    g = m.degree
    lattice = [np.arange(math.floor((c + b) * n) + 1, math.ceil((c + b + 1.0) * n)) / n
               for b in range(g)]
    inv = M._invert_lift(m, np.concatenate([[c + b for b in range(g + 1)], *lattice]))
    s = inv[:g + 1]
    s[0], s[-1] = 0.0, 1.0
    pre = np.split(inv[g + 1:], np.cumsum([ts.size for ts in lattice])[:-1])
    for b in range(g):
        lo_val, hi_val = c + b, c + b + 1.0
        ts, ys = lattice[b], pre[b]
        js = np.arange(math.floor(s[b] * n) + 1, math.ceil(s[b + 1] * n))
        src = js / n
        f_src = np.asarray(m.lift(src), dtype=float) if src.size else np.empty(0)
        dom = np.concatenate(([s[b]], ys, src, [s[b + 1]]))
        img = np.concatenate(([lo_val], ts, f_src, [hi_val]))
        order = np.argsort(dom, kind="stable")
        dom, img = dom[order], img[order]
        g_len = np.maximum(img[1:] - img[:-1], 0.0)
        mid_dom = 0.5 * (dom[:-1] + dom[1:])
        mid_img = 0.5 * (img[:-1] + img[1:])
        i_idx = np.mod(np.floor(np.mod(mid_img, 1.0) * n).astype(np.int64), n)
        j_idx = np.mod(np.floor(mid_dom * n).astype(np.int64), n)
        np.add.at(A, (i_idx, j_idx), n * np.exp(phi.fn(M.wrap01(mid_dom))) * g_len)
    return A


_REFERENCE = {"collocation": _reference_collocation, "ulam": _reference_ulam}


def _c1_map(holder_only=False):
    return M.piecewise_poly_map("c1_pw", [0.0, 0.5, 1.0],
                                [[0.0, 1.5, 1.0], [1.0, 2.5, -1.0]], 2,
                                holder_only=holder_only)


_ASSEMBLY_MAPS = {
    "doubling": M.doubling_map,
    "rotation": M.rotation_map,
    "mp_like": M.mp_like_map,
    "derived_expanding(0.5)": lambda: M.derived_expanding_map(0.5),
    "derived_expanding(1.5)": lambda: M.derived_expanding_map(1.5),
    "mp_like^3": lambda: M.iterate_map(M.mp_like_map(), 3),
    "c1_pw": _c1_map,
    "holder_pw": lambda: _c1_map(holder_only=True),
    "negative_lift0_pw": lambda: M.piecewise_poly_map(
        "neg_pw", [0.0, 1.0], [[-0.3, 1.2, 0.8]], 2),
    "negative_lift0_linear": lambda: M.piecewise_poly_map(
        "neg_lin", [0.0, 1.0], [[-0.3, 2.0]], 2),
}


@st.composite
def _monotone_pw_maps(draw):
    # A piecewise-quadratic lift whose derivative is linear and positive on
    # each piece, rescaled to span exactly `degree`, from lift(0) = c.
    degree = draw(st.integers(1, 3))
    cuts = draw(st.lists(st.floats(0.05, 0.95), max_size=3, unique=True))
    bp = np.array([0.0, *sorted(cuts), 1.0])
    if np.any(np.diff(bp) < 0.01):
        bp = np.array([0.0, 1.0])
    ends = [draw(st.floats(0.05, 8.0)) for _ in range(bp.size)]
    widths = np.diff(bp)
    rise = sum(0.5 * (ends[p] + ends[p + 1]) * widths[p] for p in range(widths.size))
    scale = degree / rise
    value = draw(st.floats(-0.9, 0.9))
    coefs = []
    for p, w in enumerate(widths):
        d0, d1 = scale * ends[p], scale * ends[p + 1]
        coefs.append([value, d0, 0.5 * (d1 - d0) / w])
        value += 0.5 * (d0 + d1) * w
    return M.piecewise_poly_map("random_pw", bp.tolist(), coefs, degree,
                                holder_only=draw(st.booleans()))


class TestAssemblyMatchesReference:
    """The loop-free assembly against the per-branch reference: bit for bit
    on the fixed maps, and to rounding on random lifts."""

    @pytest.mark.parametrize("name", sorted(_ASSEMBLY_MAPS))
    def test_fixed_maps(self, name):
        m = _ASSEMBLY_MAPS[name]()
        for phi in (O.zero, O.fourier_cos(1, 0.1), O.fourier_sin(3, 0.7)):
            for n in (16, 100, 128, 1000, 1024, 4096):
                for scheme, ref in _REFERENCE.items():
                    A = T.build_matrix(m, phi, scheme, n).A
                    assert A.tobytes() == ref(m, phi, n).tobytes(), (phi.name, n, scheme)

    @settings(max_examples=150, deadline=None)
    @given(_monotone_pw_maps(), st.sampled_from([16, 17, 100, 128]))
    def test_random_piecewise_lifts(self, m, n):
        # Collocation is bit-equal.  Ulam agrees to a few ulps of the image
        # values, times n: the reference reads the top of slice b as
        # (c + b) + 1.0 where the one pass uses c + (b + 1), and it drops the
        # lattice values k/n and cell edges j/n whose product with n is an
        # integer at a slice boundary, where the one pass drops those equal
        # to the boundary value.
        phi = O.fourier_cos(2, 0.5)
        A = T.build_matrix(m, phi, "collocation", n).A
        assert A.tobytes() == _reference_collocation(m, phi, n).tobytes()
        tm = T.build_matrix(m, phi, "ulam", n)
        ref = _reference_ulam(m, phi, n)
        assert np.max(np.abs(tm.A - ref)) <= 16 * n * np.finfo(float).eps * np.max(ref)
        assert tm.transport is None


class TestRandomLifts:
    """Properties of the phi = 0 matrices and of the JSON form on random lifts."""

    @settings(max_examples=150, deadline=None)
    @given(_monotone_pw_maps(), st.sampled_from([16, 17, 100, 128]))
    def test_collocation_rows_sum_to_degree(self, m, n):
        # each preimage of a centre enters two hats with weights 1 - w and w
        A = T.build_matrix(m, O.zero, "collocation", n).A
        assert np.max(np.abs(A.sum(axis=1) - m.degree)) <= 8 * np.finfo(float).eps * m.degree

    @settings(max_examples=150, deadline=None)
    @given(_monotone_pw_maps(), st.sampled_from([16, 17, 100, 128]))
    def test_ulam_columns_are_image_lengths(self, m, n):
        # column j sums the image lengths of the pieces of source cell j
        A = T.build_matrix(m, O.zero, "ulam", n).A
        expect = n * np.diff(m.lift(np.arange(n + 1) / n))
        assert np.max(np.abs(A.sum(axis=0) - expect)) <= 16 * n * np.finfo(float).eps * m.degree

    @settings(max_examples=150, deadline=None)
    @given(_monotone_pw_maps())
    def test_json_roundtrip(self, m):
        obj = M.map_to_json(m)
        m2 = M.map_from_json(json.loads(json.dumps(obj)))
        assert M.map_to_json(m2) == obj
        xs = np.linspace(-1.0, 2.0, 301)
        assert np.array_equal(m.lift(xs), m2.lift(xs))


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

    def test_ulam_columns_are_image_lengths(self):
        # At phi = 0, column j sums the image lengths of the pieces of
        # source cell j: n (lift((j+1)/n) - lift(j/n)).
        n = 128
        edges = np.arange(n + 1) / n
        for mk in (M.doubling_map, M.mp_like_map, lambda: M.derived_expanding_map(1.3)):
            m = mk()
            tm = T.build_matrix(m, O.zero, "ulam", n)
            expect = n * np.diff(m.lift(edges))
            assert np.max(np.abs(tm.A.sum(axis=0) / expect - 1.0)) < 1e-12

    @pytest.mark.parametrize("make", [M.mp_like_map, lambda: M.derived_expanding_map(1.3)],
                             ids=["mp_like", "derived_expanding(1.3)"])
    def test_ulam_inverts_once(self, make, monkeypatch):
        # One _invert_lift call per assembly; the matrices equal those of
        # one call for the slice boundaries and one per branch.
        m, n = make(), 256
        invert = T._invert_lift
        calls = []

        def counted(mm, t):
            calls.append(np.size(t))
            return invert(mm, t)

        def per_branch(mm, t):
            g = mm.degree
            c = float(np.asarray(mm.lift(0.0)).ravel()[0])
            out = np.empty_like(t)
            out[:g + 1] = invert(mm, t[:g + 1])
            rest = t[g + 1:]
            branch = np.floor(rest - c)
            for b in range(g):
                out[g + 1:][branch == b] = invert(mm, rest[branch == b])
            return out

        pot = O.fourier_cos(1, 0.1)
        monkeypatch.setattr(T, "_invert_lift", counted)
        tm = T.build_matrix(m, pot, "ulam", n)
        assert calls == [m.degree + 1 + m.degree * (n - 1)]
        monkeypatch.setattr(T, "_invert_lift", per_branch)
        ref = T.build_matrix(m, pot, "ulam", n)
        assert tm.A.tobytes() == ref.A.tobytes()

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
        assert T.primitivity_power(tr.matrix) is not None

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

    def test_rotation_nonconstant_potential_diverges(self, monkeypatch):
        # no spectral gap for an isometry with non-constant weight: the
        # iteration must report non-convergence carrying its last iterate
        from thermoformal.errors import ConvergenceError
        tm = T.build_matrix(M.rotation_map(), O.fourier_cos(1, 0.1), "ulam", 256)
        monkeypatch.setattr(T, "MAX_ITER", 2000)
        with pytest.raises(ConvergenceError) as exc:
            T.leading_triple(tm)
        assert exc.value.last_iterate is not None

    def test_rotation_not_primitive(self):
        tm = T.build_matrix(M.rotation_map(), O.zero, "ulam", 64)
        tr = T.leading_triple(tm)
        assert T.primitivity_power(tr.matrix) is None
        assert tr.lam == pytest.approx(1.0, abs=1e-10)

    def test_zero_row_rejected(self):
        tm = T.build_matrix(M.doubling_map(), O.zero, "ulam", 32)
        A = tm.A.copy()
        A[5] = 0.0
        bad = T.from_dense(A, tm.potential)
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
            tm = T.build_matrix(m, O.zero, scheme, n)
            expect = _dense_primitivity_power(tm.A)
            assert T.primitivity_power(T.from_dense(tm.A)) == expect, (m.name, n)
            # the built matrix's unmerged entries give the same pattern
            assert T.primitivity_power(tm) == expect, (m.name, n)
            powers.add(expect)
        assert {4, 8, None} <= powers

    @settings(max_examples=300, deadline=None)
    @given(_patterns())
    def test_random_patterns_match_dense(self, P):
        assert T.primitivity_power(T.from_dense(P)) == _dense_primitivity_power(P)

    def test_from_dense_is_exact(self):
        import scipy.sparse as sp
        tm = T.build_matrix(M.mp_like_map(), O.fourier_cos(1, 0.1), "ulam", 128)
        assert T.from_dense(tm.A).A.tobytes() == tm.A.tobytes()
        v = np.random.default_rng(3).random(128)       # no cancellation
        assert np.allclose(tm @ v, sp.csr_array(tm.A) @ v, rtol=1e-14, atol=0.0)


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
