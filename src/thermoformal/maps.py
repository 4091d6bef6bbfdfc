"""Circle maps as lifts with exact inverse-branch enumeration.

A map of the circle R/Z is represented by a lift ``F: R -> R`` with
``F(x+1) = F(x) + G`` for an integer degree ``G >= 1``, continuous and
strictly increasing on ``[0, 1]``.  Points live in ``[0, 1)``; all mod-1
reduction happens here and nowhere else.

Inverse branches are found by inverting the lift: one table of the lift at
``LIFT_TABLE_CELLS + 1`` nodes brackets every target, then a safeguarded
Newton iteration (plain halving for maps without derivative data) closes
the bracket; see ``_invert_lift``.

Every map is a block of ``MapSpec.members`` members of a map family (see
:func:`derived_expanding_map`), one for a single map: its lift and
derivative take each point's member index as a second argument, and the
inversion and branch functions here take that index as ``member``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import BranchInversionError, SchemaError

#: Branch inversion tabulates the lift at the nodes k / LIFT_TABLE_CELLS; one
#: binary search in the table brackets each target in a cell of width 2^-10.
LIFT_TABLE_CELLS = 1024
#: Halvings after the table cell: 2^-10 * 2^-50 = 2^-60 < 1e-18, far below
#: the 1e-12 preimage tolerance.  For maps without derivative data these are
#: the only steps, bit-identical to 60 halvings from [0, 1].
BISECT_STEPS = 50
#: Iterations in which a Newton step may replace the halving.  Later
#: iterations only halve, so after NEWTON_STEPS + BISECT_STEPS iterations
#: every bracket is at most 2^-60 wide.
NEWTON_STEPS = 10

#: An ``iterate`` map composes its innermost lift at most MAX_ITERATE_STEPS
#: times (nested powers multiply), and its degree, which the span check
#: compares with a float, is at most 2**53.
MAX_ITERATE_STEPS = 64

#: Amplitude of the seeded low-order dither the orbit sampler adds per step.
ORBIT_DITHER = 2.0 ** -48
#: Floats per block (64 KiB, under glibc's 128 KiB mmap threshold) of the
#: orbit kernel and of the certificate's exact maxima.
BLOCK = 8192


def wrap01(x):
    """Reduce float x to the fundamental domain [0, 1).

    Bit-equal to ``np.mod(x, 1.0)`` for finite x (x - floor(x) is exact or
    rounds the same real number), at a fraction of its cost, except that a
    result of 1.0 (from tiny negative x, say -1e-17) is returned as 0.0.
    """
    y = x - np.floor(x)
    return y - (y == 1.0)


@dataclass(frozen=True)
class MapSpec:
    """A degree-G local homeomorphism of the circle given by its lift.

    ``lift`` and ``derivative`` must accept numpy arrays; a Hölder-only map
    has no ``derivative``.  ``members`` is the number K of family members of
    one degree that the map holds, 1 for a single map: ``lift(x, member=0)``
    and ``derivative(x, member=0)`` evaluate member ``member[i]`` at
    ``x[i]``, the two broadcast together.  A one-member map ignores
    ``member`` and returns ``x``'s shape, so a caller that shares one ``x``
    among the members (a (K, 1) ``member``) broadcasts the result to the
    (K, ...) shape it needs; every other caller passes ``x`` at the shape
    of the result.
    """

    name: str
    degree: int
    lift: Callable[..., np.ndarray]
    derivative: Optional[Callable[..., np.ndarray]] = None
    json_kind: str = "builtin"
    json_params: dict = field(default_factory=dict)
    members: int = 1

    def __post_init__(self):
        if self.degree < 1 or self.degree != int(self.degree):
            raise ValueError(f"degree must be a positive integer, got {self.degree}")
        span = lift_each(self, 1.0) - lift_each(self, 0.0)
        off = np.abs(span - self.degree) > 1e-9
        if np.any(off):
            raise ValueError(f"lift({self.name}) spans {span[np.argmax(off)]} "
                             f"over [0,1], expected degree {self.degree}")


def lift_each(m: MapSpec, x=0.0):
    """Each member's lift at the one point x: an array of one value per member."""
    return m.lift(np.full(m.members, x), np.arange(m.members))


def cell_centers(n):
    """The centres (i + 1/2) / n of the n equal cells of [0, 1)."""
    return (np.arange(n) + 0.5) / n


def map_eval(m: MapSpec, x):
    """Forward evaluation f(x) = lift(x) mod 1 on [0, 1)."""
    return wrap01(m.lift(wrap01(np.asarray(x, dtype=float))))


def deriv_at(m: MapSpec, x):
    """f'(x) with the argument reduced to the fundamental domain."""
    if m.derivative is None:
        raise ValueError(f"map {m.name} has no derivative data")
    return m.derivative(wrap01(np.asarray(x, dtype=float)))


def branch_preimages(m: MapSpec, x, member=0):
    """All depth-1 preimages of the points ``x``, ordered by slice index.

    Returns an array of shape (G, len(x)): row k holds the branch-k
    preimage of each point, where branch k solves lift(y) = x + ceil(c - x)
    + k with c = lift(0).  The ordering is increasing in y, which is the
    deterministic per-level slice order used for branch ids.  All G rows
    are inverted in one ``_invert_lift`` call on a (G, len(x)) target array.
    ``member`` gives each point's member index.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    member = np.broadcast_to(member, x.shape)
    targets = x + np.ceil(lift_each(m)[member] - x)
    return _invert_lift(m, targets[None, :] + np.arange(m.degree)[:, None], member)


def _invert_lift(m: MapSpec, t, member=0):
    """Solve lift(y) = t for y in [0, 1], elementwise over any shape of t.

    The lift is evaluated once on the table nodes k / LIFT_TABLE_CELLS, and a
    binary search brackets each target in one cell: lift(lo) < t <= lift(hi).
    Every point evaluated after that replaces the bracket end on its side of
    the target, and an element retires when its bracket ends are adjacent
    floats.

    With derivative data each element runs a safeguarded Newton iteration
    (rtsafe in Press et al., Numerical Recipes, 3rd ed., 9.4) from the linear
    interpolant of the table: the Newton point is taken only when the
    derivative is finite and positive and the point stays in the bracket,
    otherwise the bracket is halved.  A Newton point that rounds to the
    current point moves one ulp toward the target instead, so a converged
    element closes its bracket on the next step; it also retires when
    lift(y) == t.  The result is the bracket end with the smaller residual.
    Newton points are allowed in the first NEWTON_STEPS iterations only, so
    the loop ends after NEWTON_STEPS + BISECT_STEPS iterations with every
    bracket at most 2^-60 wide.

    Maps without derivative data only halve, BISECT_STEPS times from the
    table cell, and return the midpoint of the bracket: bit-identical to 60
    halvings from [0, 1].  Every element's path depends only on the map and
    its own target, so results do not depend on how targets are batched.

    ``member`` (broadcast to t's shape) gives each target's member index:
    every member gets a table row of its own, and the index retires with
    the rest of its element, so each element takes the path it takes when
    its member is inverted alone.

    A target that is not finite, or lies outside [lift(0), lift(1)] by more
    than 1e-9, raises ``BranchInversionError`` with its flat index
    (``slice_index``) and value (``target``).
    """
    t = np.asarray(t, dtype=float)
    tt = t.ravel()
    nodes = np.arange(LIFT_TABLE_CELLS + 1) / LIFT_TABLE_CELLS
    mem = np.broadcast_to(member, t.shape).ravel()
    table = np.broadcast_to(m.lift(nodes, np.arange(m.members)[:, None]),
                            (m.members, nodes.size))
    t_min, t_max = table[mem, 0], table[mem, -1]
    finite = np.isfinite(tt)
    bad = ~finite | (t_min - 1e-9 > tt) | (t_max + 1e-9 < tt)
    if np.any(bad):
        i = int(np.argmax(bad))
        msg = (f"target {tt[i]} outside lift range [{t_min[i]}, {t_max[i]}] "
               f"for map {m.name}: lift violates monotone-degree invariants"
               if finite[i] else f"target {tt[i]} is not finite (map {m.name})")
        raise BranchInversionError(
            msg,
            slice_index=i,
            target=float(tt[i]),
        )
    k = np.empty(tt.size, dtype=np.intp)
    for j in range(m.members):
        sel = mem == j
        k[sel] = np.searchsorted(table[j, 1:-1], tt[sel])
    flo, fhi = table[mem, k], table[mem, k + 1]
    lo, hi = nodes[k], nodes[k + 1]
    newton = m.derivative is not None
    if newton:
        x = lo + np.clip((tt - flo) / (fhi - flo), 0.0, 1.0) * (hi - lo)
    else:
        x = 0.5 * (lo + hi)
    out = np.empty_like(tt)
    todo = np.arange(tt.size)
    newton_steps = NEWTON_STEPS if newton else 0
    last = newton_steps + BISECT_STEPS - 1
    for it in range(last + 1):
        if not todo.size:
            break
        fx = m.lift(x, mem)
        left = fx < tt
        lo, flo = np.where(left, x, lo), np.where(left, fx, flo)
        hi, fhi = np.where(left, hi, x), np.where(left, fhi, fx)
        done = (hi - lo <= np.spacing(lo)) | (it == last)
        if newton:
            done |= fx == tt
        if done.any():
            y = np.where(tt - flo <= fhi - tt, lo, hi) if newton else 0.5 * (lo + hi)
            out[todo[done]] = y[done]
            keep = ~done
            todo, tt, x, fx, lo, hi, flo, fhi, mem = (
                a[keep] for a in (todo, tt, x, fx, lo, hi, flo, fhi, mem))
        mid = 0.5 * (lo + hi)
        if it < newton_steps:
            d = m.derivative(x, mem)
            good = np.isfinite(d) & (d > 0.0)
            yn = x - (fx - tt) / np.where(good, d, 1.0)
            yn = np.where(yn == x, np.nextafter(x, np.where(x == lo, hi, lo)), yn)
            x = np.where(good & (lo < yn) & (yn < hi), yn, mid)
        else:
            x = mid
    return out.reshape(t.shape)


def branch_lipschitz(m: MapSpec, y, cell_width=None, member=0):
    """Depth-1 branch Lipschitz factor at preimage y of member ``member``.

    1/f'(y) when the map is C^1; otherwise a symmetric difference quotient
    of the lift over the discretization cell of width ``cell_width`` (the
    cell stands in for the neighborhood U_x of the branch-domain bound).
    """
    y = np.asarray(y, dtype=float)
    if m.derivative is not None:
        return 1.0 / m.derivative(wrap01(y), member)
    h = 0.5 * cell_width
    yy = wrap01(y)
    return (2.0 * h) / (m.lift(yy + h, member) - m.lift(yy - h, member))


def orbit_birkhoff_samples(m: MapSpec, x0, n, psi, rng=None, end=None):
    """Birkhoff sums S_n(psi) over a batch of orbits, with low-order dither.

    With an ``rng``, each step adds ``ORBIT_DITHER * u`` (u uniform in
    [0,1)) before reduction.  For binary-shift maps the float64 mantissa is
    exhausted after ~53 iterations and orbits collapse onto dyadic points;
    the dither injects fresh low-order entropy at amplitude far below any
    observable scale.  Without an ``rng`` there is no dither.  Deterministic
    given ``rng``.

    Each step runs over the orbits in blocks of ``BLOCK`` points:
    ``psi``, the lift, the dither and the wrap see one block at a time, and
    the dither and the wrap reuse one block-sized scratch buffer.  ``psi``
    and the lift act pointwise and the dither stream is drawn in point
    order, so the sums and end points are bit-identical to one step over
    the whole batch at once.

    ``end``, an array of ``x0``'s shape, receives the end points f^n(x0); it
    may be ``x0`` itself.  A C-contiguous ``end`` holds the orbit while it
    runs, so no copy of it is made.  The reduction leaves points of [0, 1)
    unchanged, so n1 steps and then n2 steps from ``end`` with the same
    ``rng`` end where one call of n1 + n2 steps does, bit for bit, and the
    two sums add up to its S_n (up to rounding).  The return value is S_n,
    of ``x0``'s shape.
    """
    x0 = np.asarray(x0, dtype=float)
    in_place = end is not None and end.dtype == float and end.flags.c_contiguous
    x = end.reshape(-1) if in_place else np.empty(x0.size)
    start = x0.reshape(-1)
    for lo in range(0, x.size, BLOCK):
        x[lo:lo + BLOCK] = wrap01(start[lo:lo + BLOCK])
    total = np.zeros(x0.shape)
    flat = total.reshape(-1)
    buf = np.empty(min(x.size, BLOCK))
    for _ in range(n):
        for lo in range(0, x.size, BLOCK):
            xb = x[lo:lo + BLOCK]
            scratch = buf[:xb.size]
            flat[lo:lo + BLOCK] += psi(xb)
            y = m.lift(xb)
            if rng is not None:
                rng.random(out=scratch)
                scratch *= ORBIT_DITHER
                y += scratch
            y -= np.floor(y, out=scratch)
            np.subtract(y, y == 1.0, out=xb)    # 1.0 -> 0.0, as in wrap01
    if end is not None and not in_place:
        end[...] = x.reshape(x0.shape)
    return total


def iterate_map(m: MapSpec, power):
    """MapSpec for f^power: composed lift, chain-rule derivative."""
    if power < 1:
        raise ValueError("power must be >= 1")
    if power == 1:
        return m

    def lift(x, member=0):
        y = np.asarray(x, dtype=float)
        for _ in range(power):
            y = m.lift(y, member)
        return y

    deriv = None
    if m.derivative is not None:
        def deriv(x, member=0):
            y = wrap01(np.asarray(x, dtype=float))
            d = np.ones_like(y)
            for _ in range(power):
                d = d * m.derivative(y, member)
                y = wrap01(m.lift(y, member))
            return d

    return MapSpec(
        name=f"{m.name}^{power}",
        degree=m.degree ** power,
        lift=lift,
        derivative=deriv,
        json_kind="iterate",
        json_params={"base": map_to_json(m), "power": power},
        members=m.members,
    )


# ---------------------------------------------------------------------------
# Builtin maps
# ---------------------------------------------------------------------------

def smooth_step(x):
    """C-infinity step: 0 for x<=0, 1 for x>=1, exp(-1/x)-weighted blend inside.

    The exponentials are evaluated only inside (0, 1).
    """
    x0 = np.asarray(x, dtype=float)
    x = np.atleast_1d(x0)
    out = np.where(x <= 0.0, 0.0, np.minimum(x, 1.0))   # NaN stays NaN
    inside = (x > 0.0) & (x < 1.0)
    xs = x[inside]
    with np.errstate(over="ignore"):        # 1/x = inf below ~5.6e-309: a = 0
        a = np.exp(-1.0 / xs)
    b = np.exp(-1.0 / (1.0 - xs))
    out[inside] = a / (a + b)
    return out.reshape(x0.shape) if x0.shape else float(out[0])


def smooth_step_deriv(x):
    """Derivative of :func:`smooth_step`; zero outside (0, 1).

    Exactly zero where exp(-1/x) underflows (x below about 1.3e-3), where
    1/x^2 may overflow and the product would be 0 * inf.  The exponentials
    are evaluated only inside (0, 1).
    """
    x0 = np.asarray(x, dtype=float)
    x = np.atleast_1d(x0)
    out = np.zeros(x.shape)
    inside = (x > 0.0) & (x < 1.0)
    with np.errstate(over="ignore"):
        a = np.exp(-1.0 / x[inside])
    inside[inside] = a > 0.0
    a, xs = a[a > 0.0], x[inside]
    b = np.exp(-1.0 / (1.0 - xs))
    out[inside] = a * b * (1.0 / xs ** 2 + 1.0 / (1.0 - xs) ** 2) / (a + b) ** 2
    return out.reshape(x0.shape) if x0.shape else float(out[0])


def doubling_map():
    return MapSpec(
        name="doubling",
        degree=2,
        lift=lambda x, member=0: 2.0 * np.asarray(x, dtype=float),
        derivative=lambda x, member=0: np.full_like(np.asarray(x, dtype=float), 2.0),
        json_params={"name": "doubling"},
    )


def rotation_map(theta=0.381966011250105):
    """Rigid rotation: degree-1 isometry, the negative control for (C)."""
    th = float(theta)
    return MapSpec(
        name="rotation",
        degree=1,
        lift=lambda x, member=0: np.asarray(x, dtype=float) + th,
        derivative=lambda x, member=0: np.ones_like(np.asarray(x, dtype=float)),
        json_params={"name": "rotation", "theta": th},
    )


def mp_like_map():
    """Degree-2 map with a neutral fixed point at 0: lift(x) = x + step(x).

    f(0)=0, f'(0)=1, f'(x)>1 elsewhere; f' increases on [0,1/2] and
    decreases on [1/2,1], so min f' over [1/4,3/4] sits at the endpoints.
    """
    return MapSpec(
        name="mp_like",
        degree=2,
        lift=lambda x, member=0: _periodic_lift(x, lambda u: u + smooth_step(u), 2),
        derivative=lambda x, member=0: 1.0 + smooth_step_deriv(wrap01(np.asarray(x, dtype=float))),
        json_params={"name": "mp_like"},
    )


_BUMP_HALFWIDTH = 0.125


def _sink_bump(x):
    """Odd C-infinity bump: x near 0, vanishing outside |x| < 1/8."""
    x = np.asarray(x, dtype=float)
    u = np.abs(x) / _BUMP_HALFWIDTH
    return x * (1.0 - smooth_step(u))


def _sink_bump_deriv(x):
    x = np.asarray(x, dtype=float)
    u = np.abs(x) / _BUMP_HALFWIDTH
    return (1.0 - smooth_step(u)) - u * smooth_step_deriv(u)


def _periodic_lift(x, lift01, degree):
    """Extend a lift given on [0,1] periodically with the stated degree."""
    x = np.asarray(x, dtype=float)
    k = np.floor(x)
    return lift01(x - k) + degree * k


def derived_expanding_map(v):
    """Doubling map deformed near its fixed point 0 by a v-scaled bump.

    lift(x) = 2x - v*g(x mod_pm 1) with g odd, g'(0)=1, supported in
    [-1/8, 1/8] (cutoff by the same smooth step as the MP-like map).
    v=0 is exactly the doubling map; f'(0) = 2 - v, so v>1 turns the fixed
    point into a sink while the map stays expanding outside the bump.
    Requires v < 2 to keep the lift strictly increasing.

    An array of v gives one map of those members (``MapSpec.members``), a
    scalar v a map of one: its lift and derivative read each point's v
    through its member index and then do the float operations of the
    member's own map, so every value is bit-equal to the member's.
    """
    vs = np.asarray(v, dtype=float).ravel()
    bad = ~((0.0 <= vs) & (vs < 2.0))
    if bad.any():
        raise ValueError(f"derived_expanding requires 0 <= v < 2, got {vs[np.argmax(bad)]}")
    return MapSpec(
        name=f"derived_expanding(v={','.join(f'{x:g}' for x in vs)})",
        degree=2,
        lift=lambda x, member=0: _derived_lift(x, vs[member]),
        derivative=lambda x, member=0: _derived_deriv(x, vs[member]),
        json_params={"name": "derived_expanding",
                     "v": vs.tolist() if np.ndim(v) else float(v)},
        members=vs.size,
    )


def _derived_lift(x, v):
    x = np.asarray(x, dtype=float)
    w = x - np.round(x)
    return 2.0 * x - v * _sink_bump(w)


def _derived_deriv(x, v):
    x = np.asarray(x, dtype=float)
    w = x - np.round(x)
    return 2.0 - v * _sink_bump_deriv(w)


def builtin_maps():
    """Catalog of the example maps, keyed by name."""
    return {
        "doubling": doubling_map,
        "rotation": rotation_map,
        "mp_like": mp_like_map,
        "derived_expanding": derived_expanding_map,
    }


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

def map_to_json(m: MapSpec):
    if m.json_kind == "builtin":
        return {"name": m.json_params.get("name", m.name), "degree": m.degree,
                "kind": "builtin", "params": {k: val for k, val in m.json_params.items() if k != "name"}}
    return {"name": m.name, "degree": m.degree, "kind": m.json_kind,
            "params": dict(m.json_params)}


def is_number(val):
    """Whether ``val`` is a real number (True is no number)."""
    return isinstance(val, numbers.Real) and not isinstance(val, bool)


def whole_number(val):
    """``val`` as an int if it is an integer-valued number (2.0 is taken as
    2; True is no number), else None."""
    if isinstance(val, numbers.Integral) and not isinstance(val, bool):
        return int(val)
    if isinstance(val, float) and val.is_integer():
        return int(val)
    return None


def number_row(row):
    """``row`` as a float array if it is a nonempty flat list (tuple, 1-d
    array) of real numbers, else None."""
    if isinstance(row, np.ndarray):
        row = row.tolist()
    if not isinstance(row, (list, tuple)) or not row or not all(is_number(c) for c in row):
        return None
    return np.asarray(row, dtype=float)


def number_rows(rows):
    """``rows`` as a list of float arrays if it is a list (tuple) of rows
    that :func:`number_row` takes, else None."""
    rows = [number_row(r) for r in rows] if isinstance(rows, (list, tuple)) else [None]
    return None if any(r is None for r in rows) else rows


def check_keys(obj, allowed, path):
    """Raise SchemaError unless ``obj`` is an object with keys in ``allowed``."""
    if not isinstance(obj, dict):
        raise SchemaError("expected an object", path)
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"unknown key {key!r}", f"{path}.{key}" if path else key)


def map_from_json(obj):
    """Build a MapSpec from {name, degree?, kind, params}."""
    if not isinstance(obj, dict):
        raise SchemaError("map spec must be an object", "map")
    check_keys(obj, {"kind", "name", "degree", "params"}, "map")
    kind = obj.get("kind", "builtin")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise SchemaError("map params must be an object", "map.params")
    if kind == "builtin":
        name = obj.get("name")
        catalog = builtin_maps()
        if not isinstance(name, str) or name not in catalog:
            raise SchemaError(f"unknown builtin map {name!r}", "map.name")
        if not all(is_number(val) for val in params.values()):
            raise SchemaError(f"params of builtin map {name!r} must be numbers", "map.params")
        try:
            m = catalog[name](**params)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"bad params for builtin map {name!r}: {exc}", "map.params") from exc
        if "degree" in obj and obj["degree"] != m.degree:
            raise SchemaError(f"declared degree {obj['degree']} != {m.degree}", "map.degree")
        return m
    if kind == "iterate":
        check_keys(params, {"base", "power"}, "map.params")
        power = whole_number(params.get("power"))
        if power is None or power < 1:
            raise SchemaError("power must be an integer >= 1", "map.params.power")
        base = map_from_json(params.get("base"))
        steps, inner = power, map_to_json(base)
        while inner["kind"] == "iterate":
            steps, inner = steps * inner["params"]["power"], inner["params"]["base"]
        if steps > MAX_ITERATE_STEPS or base.degree ** power > 2 ** 53:
            raise SchemaError(f"an iterate composes at most {MAX_ITERATE_STEPS} lifts (nested "
                              "powers multiply), and its degree is at most 2**53",
                              "map.params.power")
        return iterate_map(base, power)
    if kind == "piecewise_poly":
        degree = whole_number(obj.get("degree", 0))
        if degree is None or degree < 0:
            raise SchemaError("degree must be an integer >= 0", "map.degree")
        check_keys(params, {"breakpoints", "coefficients", "smoothness"}, "map.params")
        if params.get("smoothness", "holder") != "holder":
            raise SchemaError('smoothness must be "holder" when given',
                              "map.params.smoothness")
        return piecewise_poly_map(obj.get("name", "piecewise_poly"),
                                  params.get("breakpoints"),
                                  params.get("coefficients"),
                                  degree,
                                  holder_only=params.get("smoothness") == "holder")
    raise SchemaError(f"unknown map kind {kind!r}", "map.kind")


def piecewise_polyval(bp, coefs, u):
    """Piecewise polynomial at the points u: piece p (bp[p] <= u < bp[p+1])
    evaluates sum_k coefs[p][k] * (u - bp[p])^k; points outside the
    breakpoints use the nearest end piece.  A value that overflows is inf or
    nan, without a warning: the callers check the values they use."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    p = np.clip(np.searchsorted(bp, u, side="right") - 1, 0, len(coefs) - 1)
    out = np.zeros_like(u)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, c in enumerate(coefs):
            sel = p == i
            if np.any(sel):
                out[sel] = np.polyval(c[::-1], u[sel] - bp[i])
    return out


def piecewise_poly_map(name, breakpoints, coefficients, degree, holder_only=False):
    """Lift given as a piecewise polynomial on [0,1].

    ``breakpoints`` are the piece edges (first 0, last 1); piece p evaluates
    sum_k coefficients[p][k] * (x - breakpoints[p])^k.  Validated for
    continuity, a finite and strictly increasing lift on a sample grid, and
    exact degree span.
    ``holder_only`` drops the derivative, declaring the map as Hölder data
    only (certification then runs in center-value mode).
    """
    bp = number_row(breakpoints)
    if bp is None or bp.size < 2 or abs(bp[0]) > 1e-12 or abs(bp[-1] - 1.0) > 1e-12:
        raise SchemaError("breakpoints must be numbers running from 0 to 1",
                          "map.params.breakpoints")
    if np.any(np.diff(bp) <= 0):
        raise SchemaError("breakpoints must be strictly increasing", "map.params.breakpoints")
    coefs = number_rows(coefficients)
    if coefs is None:
        raise SchemaError("coefficients must be a list of flat rows of numbers",
                          "map.params.coefficients")
    if len(coefs) != bp.size - 1:
        raise SchemaError("need one coefficient row per piece", "map.params.coefficients")

    # an overflow gives inf or nan, which the checks below reject
    with np.errstate(over="ignore", invalid="ignore"):
        dcoefs = [c[1:] * np.arange(1, len(c)) for c in coefs]
        for i in range(1, len(coefs)):          # continuity across pieces
            left = np.polyval(coefs[i - 1][::-1], bp[i] - bp[i - 1])
            if not abs(left - coefs[i][0]) <= 1e-9:
                raise SchemaError(f"discontinuity at breakpoint {bp[i]}",
                                  "map.params.coefficients")
    lift01 = lambda u: piecewise_polyval(bp, coefs, u)
    d01 = lambda u: piecewise_polyval(bp, dcoefs, u)
    grid = np.linspace(0.0, 1.0, 4097)
    lift, deriv = lift01(grid), d01(grid)
    if not (np.all(np.isfinite(lift)) and np.all(np.isfinite(deriv))):
        raise SchemaError("piecewise lift and its derivative must be finite on [0, 1]",
                          "map.params.coefficients")
    if np.any(deriv <= 0):
        raise SchemaError("piecewise lift must be strictly increasing", "map.params.coefficients")
    span = float(lift[-1] - lift[0])
    nearest = float(np.rint(span))          # unlike round(), takes inf and nan
    if not (nearest >= 1 and abs(span - nearest) <= 1e-9):
        raise SchemaError(f"lift span {span:g} over [0, 1] is not a positive integer",
                          "map.params.coefficients")
    if degree not in (0, nearest):
        raise SchemaError(f"declared degree {degree} != lift span {span:g}", "map.degree")
    degree = int(nearest)
    json_params = {"breakpoints": bp.tolist(),
                   "coefficients": [c.tolist() for c in coefs]}
    if holder_only:
        json_params["smoothness"] = "holder"
    return MapSpec(
        name=name,
        degree=degree,
        lift=lambda x, member=0: _periodic_lift(x, lift01, degree),
        derivative=None if holder_only else (
            lambda x, member=0: d01(wrap01(np.asarray(x, dtype=float)))),
        json_kind="piecewise_poly",
        json_params=json_params,
    )
