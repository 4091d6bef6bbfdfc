import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from thermoformal import maps as M
from thermoformal.errors import BranchInversionError


def _mp_bump(x):
    # independent rewrite of the smooth step used by the MP-like lift
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    a = math.exp(-1.0 / x)
    b = math.exp(-1.0 / (1.0 - x))
    return a / (a + b)


def _mp_bump_deriv(x):
    if x <= 0.0 or x >= 1.0:
        return 0.0
    a = math.exp(-1.0 / x)
    b = math.exp(-1.0 / (1.0 - x))
    return a * b * (x ** -2 + (1.0 - x) ** -2) / (a + b) ** 2


class TestEval:
    def test_doubling(self):
        d = M.doubling_map()
        assert M.map_eval(d, 0.3) == pytest.approx(0.6, abs=1e-15)

    def test_mp_fixed_point(self):
        mp = M.mp_like_map()
        assert M.map_eval(mp, 0.0) == 0.0
        assert M.deriv_at(mp, 0.0) == 1.0

    def test_rotation(self):
        rot = M.rotation_map(0.25)
        assert M.map_eval(rot, 0.9) == pytest.approx(0.15, abs=1e-15)


    def test_wrap01_never_returns_one(self):
        # x - floor(x) rounds to 1.0 for tiny negative x
        x = np.array([-1e-17, -2.0 ** -54, -0.0, 0.25, 1.0, -1.0, -0.75, 2.5])
        y = M.wrap01(x)
        assert np.all((0.0 <= y) & (y < 1.0))
        assert y[0] == y[1] == 0.0
        keep = np.mod(x, 1.0) != 1.0
        assert y[keep].tobytes() == np.mod(x, 1.0)[keep].tobytes()

    def test_tiny_negative_lift_wraps_to_zero(self):
        # lift(x) = -0.3 + 2x is -2^-54 here
        m = M.piecewise_poly_map("neg_lift0", [0.0, 1.0], [[-0.3, 2.0]], 2)
        assert np.all(M.map_eval(m, 0.15 - 2.0 ** -55) == 0.0)


def _circle_dist(x, y):
    d = np.abs(np.mod(x, 1.0) - np.mod(y, 1.0))
    return np.minimum(d, 1.0 - d)


def _preimages(m, x, depth):
    """All G^depth depth-``depth`` preimages of x in [0, 1), parent-major,
    with their contraction factors: the products of the depth-1 branch
    Lipschitz factors along each preimage's orbit."""
    ys, contr = M.wrap01(np.array([x], dtype=float)), np.ones(1)
    for _ in range(depth):
        pre = M.branch_preimages(m, ys)              # (G, len(ys))
        contr = (contr * M.branch_lipschitz(m, pre)).T.ravel()
        ys = M.wrap01(pre).T.ravel()
    return ys, contr


class TestInverseBranches:
    def test_doubling_depth1(self):
        d = M.doubling_map()
        ys, contr = _preimages(d, 0.0, 1)
        assert sorted(ys) == [0.0, 0.5]
        assert all(c == pytest.approx(0.5, abs=1e-14) for c in contr)

    def test_doubling_depth3(self):
        d = M.doubling_map()
        ys, contr = _preimages(d, 0.4321, 3)
        assert len(ys) == 8
        assert all(c == pytest.approx(0.125, abs=1e-14) for c in contr)
        assert min(np.diff(np.sort(ys))) > 1e-6  # pairwise distinct

    def test_mp_witness_contraction(self):
        # oracle: invert the explicit lift with an independent root-finder
        # and evaluate 1/f' from the closed-form bump derivative
        mp = M.mp_like_map()
        ys, contr = _preimages(mp, 0.5, 1)
        assert len(ys) == 2
        inside = (0.25 <= ys) & (ys <= 0.75)
        assert inside.any(), "at least one preimage must lie in [1/4, 3/4]"
        lift = lambda y: y + _mp_bump(y)
        y_oracle = brentq(lambda y: lift(y) - 0.5, 0.0, 0.5, xtol=1e-14)
        contraction_oracle = 1.0 / (1.0 + _mp_bump_deriv(y_oracle))
        b0 = np.argmin(ys)
        assert ys[b0] == pytest.approx(y_oracle, abs=1e-10)
        assert contr[b0] == pytest.approx(contraction_oracle, abs=1e-10)
        assert np.all(contr[inside] < 1.0)

    @pytest.mark.parametrize("mapname", ["doubling", "mp_like", "rotation"])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_forward_recovery(self, mapname, depth):
        m = M.builtin_maps()[mapname]()
        rng = np.random.default_rng(7)
        for x in rng.random(12):
            for y in _preimages(m, x, depth)[0]:
                for _ in range(depth):
                    y = M.map_eval(m, y)
                assert _circle_dist(y, x) < 1e-9

    def test_degree_count(self):
        m = M.derived_expanding_map(1.2)
        rng = np.random.default_rng(3)
        for x in rng.random(100):
            assert len(_preimages(m, x, 2)[0]) == 4

    def test_contraction_is_product_of_depth1_factors(self):
        # brute-force composition oracle for n <= 3
        m = M.mp_like_map()
        x = 0.37
        for n in (2, 3):
            got = sorted(_preimages(m, x, n)[1])
            # compose depth-1 enumerations by hand
            frontier = [(x, 1.0)]
            for _ in range(n):
                nxt = []
                for z, c in frontier:
                    for y in M.branch_preimages(m, z)[:, 0]:
                        nxt.append((float(M.wrap01(y)), c * float(M.branch_lipschitz(m, y))))
                frontier = nxt
            want = sorted(c for _, c in frontier)
            assert np.allclose(got, want, rtol=1e-9)


def _oracle_invert_lift(m, t):
    # Reference kernel: 60 halvings of [0, 1], then two Newton steps when
    # the map has derivative data (the range check is left out).
    t = np.asarray(t, dtype=float)
    lo = np.zeros_like(t)
    hi = np.ones_like(t)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = m.lift(mid)
        left = fm < t
        lo = np.where(left, mid, lo)
        hi = np.where(left, hi, mid)
    y = 0.5 * (lo + hi)
    if m.derivative is not None:
        for _ in range(2):
            d = m.derivative(np.clip(y, 0.0, 1.0))
            step = np.where(d > 0, (m.lift(y) - t) / np.where(d > 0, d, 1.0), 0.0)
            y = np.clip(y - step, 0.0, 1.0)
    return y


def _holder_map():
    # lift 1.5u + u^2 on [0, 1/2], 1 + 2.5u - u^2 (u = x - 1/2) on [1/2, 1]
    return M.piecewise_poly_map("holder_pw", [0.0, 0.5, 1.0],
                                [[0.0, 1.5, 1.0], [1.0, 2.5, -1.0]], 2,
                                holder_only=True)


_FIXED_MAPS = {
    "mp_like": M.mp_like_map,
    "doubling": M.doubling_map,
    "rotation": M.rotation_map,
    "mp_like^3": lambda: M.iterate_map(M.mp_like_map(), 3),
    "holder": _holder_map,
}

_MAPS = st.one_of(
    st.sampled_from(sorted(_FIXED_MAPS)).map(lambda name: _FIXED_MAPS[name]()),
    st.floats(0.0, 1.99).map(M.derived_expanding_map),
)


def _lift_range(m):
    return tuple(float(np.asarray(m.lift(v)).ravel()[0]) for v in (0.0, 1.0))


def _edge_targets(m):
    """Branch ends (offsets 0, 1e-300 and 1 - 2^-53 from lift(0) + k), the
    targets c + j/1024 and the exact table values lift(j/1024)."""
    c, top = _lift_range(m)
    ends = [c + k + e for k in range(m.degree) for e in (0.0, 1e-300, 1.0 - 2.0 ** -53)]
    nodes = np.arange(M.LIFT_TABLE_CELLS + 1) / M.LIFT_TABLE_CELLS
    steps = c + np.arange(m.degree * M.LIFT_TABLE_CELLS + 1) / M.LIFT_TABLE_CELLS
    t = np.concatenate([ends, steps, np.asarray(m.lift(nodes), dtype=float)])
    return np.minimum(t, top)


def _check_against_oracle(m, t):
    y = M._invert_lift(m, t)
    ref = _oracle_invert_lift(m, t)
    assert y.shape == t.shape
    assert np.all((y >= 0.0) & (y <= 1.0))
    if m.derivative is None:
        assert y.tobytes() == ref.tobytes()
    else:
        res = np.abs(m.lift(y) - t)
        ref_res = np.abs(m.lift(ref) - t)
        worst = res - (ref_res + 2.0 * np.abs(np.spacing(t)))
        assert np.all(worst <= 0.0), (t[np.argmax(worst)], worst.max())


class TestInvertLift:
    @settings(max_examples=150, deadline=None)
    @given(m=_MAPS, strip=st.booleans(),
           u=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=64))
    def test_matches_oracle(self, m, strip, u):
        if strip:
            m = dataclasses.replace(m, derivative=None)
        c, top = _lift_range(m)
        t = np.minimum(c + np.asarray(u) * m.degree, top)
        _check_against_oracle(m, t)

    @pytest.mark.parametrize("strip", [False, True])
    @pytest.mark.parametrize("name", sorted(_FIXED_MAPS) + ["derived_expanding"])
    def test_edge_targets(self, name, strip):
        makers = dict(_FIXED_MAPS, derived_expanding=lambda: M.derived_expanding_map(1.99))
        m = makers[name]()
        if strip:
            m = dataclasses.replace(m, derivative=None)
        _check_against_oracle(m, _edge_targets(m))

    @settings(max_examples=40, deadline=None)
    @given(m=_MAPS, x=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=12))
    def test_branch_preimages_batch_independent(self, m, x):
        x = np.asarray(x)
        pre = M.branch_preimages(m, x)
        assert pre.shape == (m.degree, x.size)
        for j in range(x.size):
            assert pre[:, j].tobytes() == M.branch_preimages(m, x[j:j + 1])[:, 0].tobytes()

    @pytest.mark.parametrize("bad", [-0.5, 2.5])
    def test_target_outside_lift_range_raises(self, bad):
        t = np.array([[0.25, 1.0], [bad, 1.5]])
        with pytest.raises(BranchInversionError) as info:
            M._invert_lift(M.mp_like_map(), t)
        assert info.value.slice_index == 2
        assert info.value.target == bad

    @pytest.mark.parametrize("strip", [False, True], ids=["newton", "bisection"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_target_raises(self, bad, strip):
        m = M.mp_like_map()
        if strip:
            m = dataclasses.replace(m, derivative=None)
        t = np.array([[0.25, 1.0], [bad, 0.5]])
        with pytest.raises(BranchInversionError, match="not finite") as info:
            M._invert_lift(m, t)
        assert info.value.slice_index == 2
        assert np.array_equal([info.value.target], [bad], equal_nan=True)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf mod 1
    @pytest.mark.parametrize("x", [np.nan, np.inf])
    def test_inverse_branches_rejects_non_finite(self, x):
        for m in (M.mp_like_map(), _holder_map()):
            with pytest.raises(BranchInversionError):
                _preimages(m, x, 1)

    @pytest.mark.parametrize("make", [M.mp_like_map, lambda: M.derived_expanding_map(1.2)],
                             ids=["mp_like", "derived_expanding(1.2)"])
    def test_lift_evaluation_budget(self, make):
        # Full bisection would evaluate the lift at ~60 points per preimage;
        # the table plus Newton stays far below that.
        m = make()
        counts = {"lift": 0, "derivative": 0}

        def counted(name, fn):
            def wrapped(x, member=0):
                counts[name] += np.size(x)
                return fn(x, member)
            return wrapped

        mc = dataclasses.replace(m, lift=counted("lift", m.lift),
                                 derivative=counted("derivative", m.derivative))
        counts.update(lift=0, derivative=0)
        centers = (np.arange(1024) + 0.5) / 1024
        pre = M.branch_preimages(mc, centers)
        assert counts["lift"] <= 16384
        assert counts["derivative"] <= 8192
        assert pre.tobytes() == M.branch_preimages(m, centers).tobytes()


class TestBirkhoff:
    def test_constant(self):
        d = M.doubling_map()
        assert M.orbit_birkhoff_samples(d, 0.123, 7, lambda x: 2.5 * np.ones_like(x)) == pytest.approx(17.5, abs=1e-12)

    def test_fixed_point(self):
        d = M.doubling_map()
        assert M.orbit_birkhoff_samples(d, 0.0, 11, lambda x: x) == 0.0

    def test_period_two(self):
        d = M.doubling_map()
        val = M.orbit_birkhoff_samples(d, 1.0 / 3.0, 2, lambda x: np.cos(2 * np.pi * x))
        assert val == pytest.approx(-1.0, abs=1e-12)


class TestBuiltins:
    def test_mp_derivative_shape(self):
        mp = M.mp_like_map()
        xs = np.linspace(0.05, 0.95, 19)
        assert np.all(M.deriv_at(mp, xs) > 1.0)
        left = np.linspace(0.05, 0.5, 200)
        right = np.linspace(0.5, 0.95, 200)
        assert np.all(np.diff(M.deriv_at(mp, left)) >= -1e-12)
        assert np.all(np.diff(M.deriv_at(mp, right)) <= 1e-12)

    def test_mp_min_on_core_interval(self):
        mp = M.mp_like_map()
        g = np.linspace(0.25, 0.75, 10_000)
        fp = M.deriv_at(mp, g)
        assert fp.min() > 1.0
        assert fp.min() == pytest.approx(M.deriv_at(mp, 0.25), rel=1e-6)
        assert M.deriv_at(mp, 0.25) == pytest.approx(M.deriv_at(mp, 0.75), rel=1e-12)

    def test_derived_at_zero_is_doubling(self):
        d0 = M.derived_expanding_map(0.0)
        d = M.doubling_map()
        xs = np.linspace(0.0, 1.0, 2001)
        assert np.array_equal(d0.lift(xs), d.lift(xs))

    def test_derived_sink_threshold(self):
        assert M.deriv_at(M.derived_expanding_map(0.5), 0.0) == pytest.approx(1.5)
        assert M.deriv_at(M.derived_expanding_map(1.5), 0.0) == pytest.approx(0.5)
        # expansion untouched outside the bump support
        m = M.derived_expanding_map(1.5)
        xs = np.linspace(0.126, 0.874, 500)
        assert np.allclose(M.deriv_at(m, xs), 2.0)

    def test_derived_rejects_nonhomeomorphism(self):
        with pytest.raises(ValueError):
            M.derived_expanding_map(2.0)

    def test_smooth_step_deriv_underflow_is_exact_zero(self):
        # exp(-1/x) underflows to 0 there, while 1/x^2 (and for subnormal x
        # also 1/x) overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert M.smooth_step_deriv(np.array([1e-200, 1e-160, 5e-324])).tolist() == [0.0] * 3
            assert M.smooth_step(np.array([1e-200, 5e-324])).tolist() == [0.0, 0.0]
            assert M.deriv_at(M.mp_like_map(), 1e-200) == 1.0
            d = M.derived_expanding_map(1.2).derivative(np.array([1e-200, -1e-200]))
            assert d.tolist() == [2.0 - 1.2, 2.0 - 1.2]

    @pytest.mark.parametrize("fn", [M.smooth_step, M.smooth_step_deriv])
    def test_smooth_step_elementwise(self, fn):
        # the exponentials run on the in-range elements only: every element
        # must get what it gets alone, out-of-range and underflowing ones too
        rng = np.random.default_rng(11)
        x = np.concatenate([rng.uniform(-1.0, 2.0, 200), rng.uniform(0.0, 2e-3, 50),
                            [0.0, -0.0, 1.0, np.nextafter(1.0, 0.0), np.nextafter(0.0, 1.0),
                             1e-301, 1e-310, 5e-324, -1e-300, 1.0 + 1e-15, 3.0, -np.inf, np.inf]])
        rng.shuffle(x)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = fn(x)
            alone = np.array([fn(v) for v in x])
            assert isinstance(fn(0.25), float)
            assert fn(x[:250].reshape(25, 10)).shape == (25, 10)
        assert batch.tobytes() == alone.tobytes()

    def test_catalog_contents(self):
        cat = M.builtin_maps()
        assert {"doubling", "rotation", "mp_like", "derived_expanding"} <= set(cat)


class TestLiftValidation:
    def test_degree_span_enforced(self):
        with pytest.raises(ValueError):
            M.MapSpec(name="bad", degree=2, lift=lambda x, member=0: 3.0 * np.asarray(x))

    def test_iterate_map(self):
        d = M.doubling_map()
        d2 = M.iterate_map(d, 2)
        assert d2.degree == 4
        assert M.map_eval(d2, 0.3) == pytest.approx(M.map_eval(d, M.map_eval(d, 0.3)), abs=1e-14)
        assert M.deriv_at(d2, 0.2) == pytest.approx(4.0)


class TestJson:
    def test_builtin_roundtrip(self):
        m = M.derived_expanding_map(0.7)
        obj = M.map_to_json(m)
        m2 = M.map_from_json(obj)
        xs = np.linspace(0, 1, 101)
        assert np.array_equal(m.lift(xs), m2.lift(xs))

    def test_piecewise_poly(self):
        # doubling written as a 2-piece polynomial lift
        obj = {
            "name": "poly-doubling",
            "kind": "piecewise_poly",
            "degree": 2,
            "params": {
                "breakpoints": [0.0, 0.5, 1.0],
                "coefficients": [[0.0, 2.0], [1.0, 2.0]],
            },
        }
        m = M.map_from_json(obj)
        xs = np.linspace(0, 1, 101, endpoint=False)
        assert np.allclose(M.map_eval(m, xs), M.map_eval(M.doubling_map(), xs), atol=1e-12)

    @pytest.mark.parametrize("base", [
        M.mp_like_map(),
        M.piecewise_poly_map("poly", [0.0, 0.5, 1.0],
                             [[0.0, 1.5, 0.2], [0.8, 2.0, 0.8]], 2),
    ])
    def test_iterate_roundtrip(self, base):
        m = M.iterate_map(base, 2)
        obj = M.map_to_json(m)
        m2 = M.map_from_json(json.loads(json.dumps(obj)))
        assert M.map_to_json(m2) == obj
        xs = np.linspace(0, 1, 101)
        assert np.array_equal(m.lift(xs), m2.lift(xs))
        assert np.array_equal(m.derivative(xs), m2.derivative(xs))

    def test_unknown_builtin_rejected(self):
        from thermoformal.errors import SchemaError
        with pytest.raises(SchemaError):
            M.map_from_json({"kind": "builtin", "name": "nope"})


class TestOrbitSampler:
    def test_dither_reproducible(self):
        d = M.doubling_map()
        psi = lambda x: np.cos(2 * np.pi * x)
        x0 = np.random.default_rng(1).random(64)
        a = M.orbit_birkhoff_samples(d, x0, 30, psi, rng=np.random.default_rng(9))
        b = M.orbit_birkhoff_samples(d, x0, 30, psi, rng=np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_dither_breaks_dyadic_collapse(self):
        # without dither every float64 orbit of the doubling map hits the
        # fixed point 0 by step 53 and stays there
        d = M.doubling_map()
        x0 = np.random.default_rng(2).random(128)
        x = x0.copy()
        for _ in range(60):
            x = M.wrap01(d.lift(x))
        assert np.all(x == 0.0)
        last = M.orbit_birkhoff_samples(d, x0, 60, lambda x: x, rng=np.random.default_rng(3))
        x = x0.copy()
        rng = np.random.default_rng(3)
        tot = np.zeros_like(x)
        for _ in range(60):
            tot += x
            x = M.wrap01(d.lift(x) + 2.0 ** -48 * rng.random(x.shape))
        assert np.array_equal(last, tot)
        assert np.all(x > 0.0)

    @pytest.mark.parametrize("seeded", [True, False], ids=["rng", "no_rng"])
    def test_segments_continue_one_orbit(self, seeded):
        # 20 + 20 + 40 steps, each from the last one's end, against one
        # 80-step call: the same end points bit for bit, the same S_80 up
        # to rounding.
        m = M.derived_expanding_map(0.5)
        psi = lambda x: np.cos(2 * np.pi * x)
        x0 = np.random.default_rng(4).random(256)
        rng = (lambda: np.random.default_rng(8)) if seeded else (lambda: None)
        end = np.empty_like(x0)
        whole = M.orbit_birkhoff_samples(m, x0, 80, psi, rng=rng(), end=end)
        x = x0.copy()
        seg_rng = rng()
        total = np.zeros_like(x)
        for steps in (20, 20, 40):
            total += M.orbit_birkhoff_samples(m, x, steps, psi, rng=seg_rng, end=x)
        assert x.tobytes() == end.tobytes()
        assert np.max(np.abs(total - whole)) < 1e-12

    @pytest.mark.parametrize("c, x", [(-0.3, 0.15 - 2.0 ** -55),
                                      (-0.1, np.nextafter(0.05, 0.0))])
    def test_segments_continue_through_wrapped_point(self, c, x):
        # The first step lands on a tiny negative lift value, which wraps to
        # 0.0 both inside one call and at the start of the next segment.
        m = M.piecewise_poly_map("neg_lift0", [0.0, 1.0], [[c, 2.0]], 2)
        psi = lambda y: y.copy()
        x0 = np.array([x, 0.2, 0.7])
        end = np.empty_like(x0)
        whole = M.orbit_birkhoff_samples(m, x0, 10, psi, end=end)
        x = x0.copy()
        first = M.orbit_birkhoff_samples(m, x, 1, psi, end=x)
        assert x[0] == 0.0
        rest = M.orbit_birkhoff_samples(m, x, 9, psi, end=x)
        assert x.tobytes() == end.tobytes()
        assert np.max(np.abs(first + rest - whole)) < 1e-12

    def test_end_may_alias_start(self):
        d = M.doubling_map()
        psi = lambda x: np.cos(2 * np.pi * x)
        x0 = np.random.default_rng(5).random(64)
        want = M.orbit_birkhoff_samples(d, x0, 12, psi, rng=np.random.default_rng(6))
        x = x0.copy()
        got = M.orbit_birkhoff_samples(d, x, 12, psi, rng=np.random.default_rng(6), end=x)
        assert got.tobytes() == want.tobytes()
        y = x0.copy()
        for _ in range(12):
            y = M.wrap01(d.lift(y))
        assert np.max(_circle_dist(x, y)) < 1e-9


def _whole_array_orbit(m, x0, n, psi, rng=None, end=None):
    """The orbit kernel before it ran in blocks: each step over every orbit
    at once, with one scratch buffer of the batch's size."""
    x = M.wrap01(np.asarray(x0, dtype=float))
    total = np.zeros_like(x)
    buf = np.empty_like(total)
    for _ in range(n):
        total += psi(x)
        x = m.lift(x)
        if rng is not None:
            rng.random(out=buf)
            buf *= M.ORBIT_DITHER
            x += buf
        x -= np.floor(x, out=buf)
        x -= x == 1.0
    if end is not None:
        end[...] = x
    return total


def _kernel_cases():
    from thermoformal import observables as O
    maps = [M.doubling_map(), M.rotation_map(), M.mp_like_map(),
            M.derived_expanding_map(0.5), M.derived_expanding_map(1.0)]
    poly = O.piecewise_poly([0.0, 0.5, 1.0], [[0.0, 1.0, -1.0], [0.25, 0.0, -1.0]])
    for m in maps:
        for psi in (O.fourier_cos(1), O.neg_log_deriv(m), poly):
            yield pytest.param(m, psi.fn, id=f"{m.name}-{psi.json_obj['kind']}")


class TestOrbitBlocks:
    """The block-wise kernel against the whole-array loop, bit for bit."""

    SIZES = (1, M.BLOCK - 1, M.BLOCK, M.BLOCK + 1, 2 ** 17 + 5)

    @pytest.mark.parametrize("m, psi", _kernel_cases())
    def test_matches_whole_array_loop(self, m, psi):
        for size in self.SIZES:
            x0 = np.random.default_rng(size).random(size)
            for seed in (17, None):
                rng = lambda: None if seed is None else np.random.default_rng(seed)
                for aliased in (False, True):
                    want_rng, want_end = rng(), np.empty_like(x0)
                    want = _whole_array_orbit(m, x0, 3, psi, rng=want_rng, end=want_end)
                    got_rng, x = rng(), x0.copy()
                    got = M.orbit_birkhoff_samples(m, x, 3, psi, rng=got_rng,
                                                   end=x if aliased else None)
                    assert got.tobytes() == want.tobytes()
                    assert x.tobytes() == (want_end if aliased else x0).tobytes()
                    if seed is not None:    # both drew the same dither stream
                        assert got_rng.random() == want_rng.random()

    @pytest.mark.parametrize("m, psi", _kernel_cases())
    def test_zero_dimensional_start(self, m, psi):
        x0, want_end = 0.3183098861837907, np.empty(1)
        want = _whole_array_orbit(m, np.array([x0]), 7, psi, end=want_end)
        assert M.orbit_birkhoff_samples(m, np.float64(x0), 7, psi) == want[0]
        end = np.empty(())
        got = M.orbit_birkhoff_samples(m, np.array(x0), 7, psi, end=end)
        assert got.shape == () and got == want[0]
        assert end.tobytes() == want_end.tobytes()

    def test_strided_end_receives_end_points(self):
        d = M.doubling_map()
        psi = lambda x: np.cos(2 * np.pi * x)
        x0 = np.random.default_rng(6).random(M.BLOCK + 3)
        want_end = np.empty_like(x0)
        want = _whole_array_orbit(d, x0, 5, psi, rng=np.random.default_rng(2), end=want_end)
        end = np.empty((x0.size, 2))[:, 0]
        got = M.orbit_birkhoff_samples(d, x0, 5, psi, rng=np.random.default_rng(2), end=end)
        assert got.tobytes() == want.tobytes()
        assert end.tobytes() == want_end.tobytes()

    def test_memory_stays_flat(self):
        # One ldp batch's kernel call, in place on its starts, allocates its
        # output and a few blocks, not the batch-sized temporaries of a
        # whole-array step (about 8 MB at this size).
        import tracemalloc
        from thermoformal import observables as O
        size = 2 ** 17
        x = np.random.default_rng(1).random(size)
        psi, rng = O.fourier_cos(1).fn, np.random.default_rng(2)
        block = M.BLOCK * 8
        tracemalloc.start()
        try:
            M.orbit_birkhoff_samples(M.doubling_map(), x, 8, psi, rng=rng, end=x)
            in_place = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            M.orbit_birkhoff_samples(M.doubling_map(), x, 8, psi, rng=rng)
            copied = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert in_place <= size * 8 + 8 * block
        assert copied <= 2 * size * 8 + 8 * block
