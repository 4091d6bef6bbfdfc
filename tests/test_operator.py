import dataclasses
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

        def counted(mm, t, member=0):
            calls.append(np.size(t))
            return invert(mm, t, member)

        def per_branch(mm, t, member=0):
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
        assert T.dominant_class(tr.matrix, tr.mu).primitive

    def test_doubling_log_half(self):
        tm = T.build_matrix(M.doubling_map(), O.constant(-np.log(2.0)), "ulam", 64)
        assert T.leading_triple(tm).lam == pytest.approx(1.0, abs=1e-10)

    def test_normalizations(self, doubling_triples):
        for tr in doubling_triples.values():
            assert abs(tr.nu.sum() - 1.0) < 1e-12
            assert abs(float(tr.h @ tr.nu) - 1.0) < 1e-10
            assert 0.0 <= T.gap_ratio(tr).ratio < 1.0
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
        # A rotation by 1/4 permutes the 64 Ulam cells in 4-cycles: the
        # class of the leading cell is one cycle, of period 4.
        quarter = T.leading_triple(T.build_matrix(M.rotation_map(0.25), O.zero, "ulam", 64))
        cls = T.dominant_class(quarter.matrix, quarter.mu)
        assert (cls.primitive, cls.size, cls.period) == (False, 4, 4)
        assert cls.mass_outside == pytest.approx(60 / 64, abs=1e-12)
        # The golden rotation spreads each cell over two neighbours, which
        # makes its matrix primitive although the map has no spectral gap:
        # the gap estimate sits near 1 and is not resolved.
        tr = T.leading_triple(T.build_matrix(M.rotation_map(), O.zero, "ulam", 64))
        assert T.dominant_class(tr.matrix, tr.mu).primitive
        gap = T.gap_ratio(tr)
        assert gap.ratio > 0.99 and not gap.resolved
        assert tr.lam == pytest.approx(1.0, abs=1e-10)

    def test_zero_row_rejected(self):
        tm = T.build_matrix(M.doubling_map(), O.zero, "ulam", 32)
        A = tm.A.copy()
        A[5] = 0.0
        bad = T.from_dense(A, tm.potential)
        with pytest.raises(ReducibleMatrixError):
            T.leading_triple(bad)


def _slot_reference(weights, index, v):
    """sum_r weights[r] * v[:, index[r]], added slot by slot in r order;
    a (width, K, n) index reads ``v`` flat."""
    take = (lambda i: v[:, i]) if index.ndim == 2 else (lambda i: v.ravel()[i])
    ref = weights[0] * take(index[0])
    for w, i in zip(weights[1:], index[1:]):
        ref = ref + w * take(i)
    return ref


def _gather_cases():
    mp = M.mp_like_map()
    g = T.map_geometry(mp, "collocation", 128)
    W = np.stack([g.weights(O.fourier_cos(1, a).fn(g.points)) for a in (-0.3, 0.0, 0.2, 0.5)])
    geoms = [T.map_geometry(M.derived_expanding_map(v), "collocation", 64)
             for v in (0.5, 1.0, 1.5)]
    ws = [gk.weights(O.fourier_cos(1, 0.1).fn(gk.points)) for gk in geoms]
    return {"shared": (T._batch_tables(g, W), g.n), "per-column": (T._batch_tables(geoms, ws), 64),
            "one-column": (T._batch_tables(g, W[:1]), g.n)}


class TestGatherSum:
    """One slot loop serves every batch shape and equals the plain per-slot
    sum bit for bit, with or without caller buffers."""

    @pytest.mark.parametrize("case", ["shared", "per-column", "one-column"])
    def test_matches_slot_reference(self, case):
        (WR, CR, WC, RC), n = _gather_cases()[case]
        if case == "per-column":
            assert CR.ndim == RC.ndim == 3
        v = np.random.default_rng(3).standard_normal((WR.shape[1], n))
        for weights, index in ((WR, CR), (WC, RC)):
            ref = _slot_reference(weights, index, v)
            assert T._gather_sum(weights, index, v).tobytes() == ref.tobytes()
            out, tmp = np.full_like(v, np.nan), np.full_like(v, np.nan)
            assert T._gather_sum(weights, index, v, out, tmp) is out
            assert out.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("make", [
        lambda: T.build_matrix(M.mp_like_map(), O.fourier_cos(1, 0.25), "collocation", 256),
        lambda: T.build_matrix(M.mp_like_map(), O.fourier_cos(1, 0.25), "ulam", 256),
        lambda: T.from_dense(np.random.default_rng(5).random((40, 40))
                             * (np.random.default_rng(6).random((40, 40)) < 0.2)),
    ], ids=["collocation", "ulam", "from_dense"])
    def test_matvec_matches_one_step_formula(self, make):
        # The one-step product that single columns used before the slot loop.
        tm = make()
        w, idx = tm._row_weights[:, 0], tm.geometry.row_cols
        v = np.random.default_rng(4).standard_normal(tm.n)
        assert (tm @ v).tobytes() == (w * v.take(idx)).sum(axis=0).tobytes()


def _dense_primitive(A):
    """Reference: the pattern P of A > 0 is primitive when P^k > 0 for some
    k, and then for every k above Wielandt's bound (n-1)^2 + 1.  Dense
    float32 squaring of the pattern, stopped early once P^k > 0 or once a
    square repeats its pattern (every later square then repeats it too)."""
    n = A.shape[0]
    P = (A > 0).astype(np.float32)
    k = 1
    while P.min() == 0 and k <= (n - 1) ** 2 + 1:
        Q = (P @ P > 0).astype(np.float32)
        if np.array_equal(Q, P):
            break
        P, k = Q, 2 * k
    return bool(P.min() > 0)


def _dense_class(A, s):
    """Reference: the size and period of the class of cell s in the pattern
    of A > 0.  The class is the cells that s reaches and that reach s; its
    period is the gcd of the lengths k <= 4n of closed walks through s,
    which covers a walk from s around each simple cycle of the class once
    and twice."""
    n = A.shape[0]
    P = (A > 0).astype(np.float32)
    fwd = np.zeros(n, dtype=bool)
    back = np.zeros(n, dtype=bool)
    fwd[s] = back[s] = True
    for _ in range(n):
        fwd |= fwd.astype(np.float32) @ P > 0
        back |= P @ back.astype(np.float32) > 0
    walk = np.zeros(n, dtype=np.float32)
    walk[s] = 1.0
    period = 0
    for k in range(1, 4 * n + 1):
        walk = (walk @ P > 0).astype(np.float32)
        if walk[s]:
            period = math.gcd(period, k)
    return int(np.count_nonzero(fwd & back)), period


@st.composite
def _patterns(draw):
    # random 0/1 entries of a drawn density on top of a permutation, which
    # keeps every row and column nonzero; primitive, reducible and periodic
    # patterns all occur
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    P = rng.random((n, n)) < draw(st.floats(0.0, 0.6))
    P[np.arange(n), draw(st.permutations(range(n)))] = True
    return P.astype(float), draw(st.integers(0, n - 1))


class TestPrimitivityPower:
    @pytest.mark.parametrize("scheme", ["collocation", "ulam"])
    def test_builtin_maps_match_dense(self, scheme):
        cases = [(mk(), n) for mk in (M.doubling_map, M.mp_like_map, M.rotation_map)
                 for n in (16, 32, 64, 128, 256, 512, 1024)]
        cases += [(M.derived_expanding_map(v), n) for v in (0.5, 0.8, 1.0, 1.4)
                  for n in (16, 64, 256, 512)]
        verdicts = set()
        for m, n in cases:
            tm = T.build_matrix(m, O.zero, scheme, n)
            mu = np.random.default_rng(n).random(n)
            expect = _dense_primitive(tm.A)
            assert T.dominant_class(T.from_dense(tm.A), mu).primitive == expect, (m.name, n)
            # the built matrix's unmerged entries give the same pattern
            assert T.dominant_class(tm, mu).primitive == expect, (m.name, n)
            verdicts.add(expect)
        assert verdicts == {True, False}

    @settings(max_examples=300, deadline=None)
    @given(_patterns())
    def test_random_patterns_match_dense(self, case):
        P, s = case
        n = P.shape[0]
        mu = np.full(n, 0.5 / n)
        mu[s] = 1.0
        cls = T.dominant_class(T.from_dense(P), mu)
        size, period = _dense_class(P, s)
        assert (cls.size, cls.period) == (size, period)
        assert cls.mass_outside == pytest.approx((n - size) * 0.5 / n, abs=1e-12)
        assert cls.primitive == _dense_primitive(P)

    def test_from_dense_is_exact(self):
        import scipy.sparse as sp
        tm = T.build_matrix(M.mp_like_map(), O.fourier_cos(1, 0.1), "ulam", 128)
        assert T.from_dense(tm.A).A.tobytes() == tm.A.tobytes()
        v = np.random.default_rng(3).random(128)       # no cancellation
        assert np.allclose(tm @ v, sp.csr_array(tm.A) @ v, rtol=1e-14, atol=0.0)


class TestGapRatio:
    """The Arnoldi gap estimate.  For doubling with phi = cos 2 pi x the
    Ruelle-Fredholm determinant's second zero gives |lambda_2| / lambda =
    0.4154475 (its period-p points are k / (2^p - 1))."""

    @staticmethod
    def _triple(m, phi, scheme, n):
        return T.leading_triple(T.build_matrix(m, phi, scheme, n))

    def test_collocation_matches_determinant(self):
        d, cos = M.doubling_map(), O.fourier_cos(1)
        fine = T.gap_ratio(self._triple(d, cos, "collocation", 4096))
        assert fine.resolved and abs(fine.ratio - 0.4154475) < 1e-6
        assert T.gap_ratio(self._triple(d, cos, "collocation", 1024)).resolved

    def test_whole_deflated_space_gives_dense_eigenvalue(self):
        # with n - 1 <= GAP_KRYLOV the Krylov space is the whole deflated
        # space, so the ratio is the dense second eigenvalue
        for m, phi, scheme, n in ((M.mp_like_map(), O.fourier_cos(1, 0.1), "collocation", 32),
                                  (M.derived_expanding_map(0.8), O.fourier_cos(1, 0.5), "ulam", 40)):
            tr = self._triple(m, phi, scheme, n)
            ev = np.sort(np.abs(np.linalg.eigvals(tr.matrix.A)))
            gap = T.gap_ratio(tr)
            assert gap.resolved and abs(gap.ratio - ev[-2] / tr.lam) < 1e-12, m.name

    def test_ulam_essential_bound_unresolved(self):
        # Ulam's ratio sits on e^{max phi} / lambda = 0.93551, its bound on
        # the essential spectrum, although its Ritz residual is tiny
        tr = self._triple(M.doubling_map(), O.fourier_cos(1), "ulam", 1024)
        gap = T.gap_ratio(tr)
        assert abs(gap.ratio - 0.93512) < 1e-5 and abs(np.e / tr.lam - 0.93551) < 1e-5
        assert gap.residual < 1e-8 * tr.lam and not gap.resolved

    def test_unresolved_cases(self):
        # mp_like's deflated operator has not converged in 40 steps
        gap = T.gap_ratio(self._triple(M.mp_like_map(), O.zero, "ulam", 4096))
        assert not gap.resolved and gap.residual > 1e-3
        # doubling at phi = 0: the deflated operator is nilpotent, so any
        # ratio is rounding noise
        for scheme in ("collocation", "ulam"):
            assert not T.gap_ratio(self._triple(M.doubling_map(), O.zero, scheme, 1024)).resolved
        # doubling at phi = 0.25 cos: a converged Ritz value of the matrix
        # (0.15816, the determinant gives 0.1262) that moved between 20 and
        # 40 steps
        gap = T.gap_ratio(self._triple(M.doubling_map(), O.fourier_cos(1, 0.25),
                                       "collocation", 1024))
        assert abs(gap.ratio - 0.15816) < 1e-5 and gap.residual < 1e-12
        assert not gap.resolved

    def test_random_start_agrees(self):
        n = 1024
        tr = self._triple(M.doubling_map(), O.fourier_cos(1), "collocation", n)
        weyl = T.gap_ratio(tr)
        rand = T._krylov_gap(tr, np.random.default_rng(1).standard_normal(n))
        assert weyl.resolved and rand.resolved
        assert abs(weyl.ratio - rand.ratio) < 1e-9


class TestEquilibrium:
    def test_doubling_uniform(self, doubling_triples):
        for tr in doubling_triples.values():
            assert np.max(np.abs(tr.mu - 1.0 / 256)) < 1e-12
            assert abs(tr.mu.sum() - 1.0) < 1e-12

    def test_mp_nonuniform_density(self):
        tr = T.leading_triple(T.build_matrix(M.mp_like_map(), O.zero, "ulam", 512))
        d = tr.density
        assert d.max() - d.min() > 1.0
        assert abs(tr.mu.sum() - 1.0) < 1e-10

    def test_normalization_gate(self, doubling_triples):
        bad = dataclasses.replace(doubling_triples["ulam"], h=2.0 * doubling_triples["ulam"].h)
        with pytest.raises(ValueError):
            bad.mu


class TestGeometricPressureOracle:
    """P(-log f') = 0: with phi = -log f' the operator is the Perron-Frobenius
    operator, which preserves Lebesgue integrals, so lambda = 1 exactly."""

    # v = 1 makes f'(0) = 1, a neutral fixed point where the solve stalls
    @pytest.mark.parametrize("scheme", ["ulam", "collocation"])
    @pytest.mark.parametrize("v", [0.25, 0.5])
    def test_lambda_is_one(self, scheme, v):
        m = M.derived_expanding_map(v)
        err = [abs(T.leading_triple(T.build_matrix(m, O.neg_log_deriv(m, 1.0), scheme, n)).lam
                   - 1.0) for n in (256, 1024)]
        assert err[1] <= 1e-6
        assert err[0] >= 4 * err[1]      # the error shrinks with the cells


class TestInvarianceDefect:
    def test_doubling_exact(self, doubling_triples):
        d = M.doubling_map()
        defect = T.invariance_defect(d, doubling_triples["ulam"],
                                     [lambda x: np.cos(2 * np.pi * np.asarray(x))])
        assert defect < 1e-10

    def test_constant_testfn(self, doubling_triples):
        defect = T.invariance_defect(M.doubling_map(), doubling_triples["collocation"],
                                     [lambda x: np.full_like(np.asarray(x), 4.2)])
        assert defect == 0.0

    def test_mp_small_defect(self):
        mp = M.mp_like_map()
        tr = T.leading_triple(T.build_matrix(mp, O.zero, "collocation", 1024))
        assert T.invariance_defect(mp, tr, T.fourier_testfns(5)) < 1e-3
