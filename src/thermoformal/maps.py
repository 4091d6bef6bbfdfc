"""Circle maps as lifts with exact inverse-branch enumeration.

A map of the circle R/Z is represented by a lift ``F: R -> R`` with
``F(x+1) = F(x) + G`` for an integer degree ``G >= 1``, continuous and
strictly increasing on ``[0, 1]``.  Points live in ``[0, 1)``; all mod-1
reduction happens here and nowhere else.

Inverse branches are found by inverting the lift: one table of the lift at
``LIFT_TABLE_CELLS + 1`` nodes brackets every target, then a safeguarded
Newton iteration (plain halving for maps without derivative data) closes
the bracket; see ``_invert_lift``.
"""

from __future__ import annotations

import math
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

DEFAULT_CELL_WIDTH = 2.0 ** -20

#: Amplitude of the seeded low-order dither the orbit sampler adds per step.
ORBIT_DITHER = 2.0 ** -48
#: The orbit sampler advances its orbits ORBIT_BLOCK points at a time, so
#: each temporary is 64 KiB, below glibc's 128 KiB mmap threshold.
ORBIT_BLOCK = 8192


def circle_dist(x, y):
    """Distance on R/Z: min(|x-y|, 1-|x-y|) after mod-1 reduction."""
    d = np.abs(np.mod(x, 1.0) - np.mod(y, 1.0))
    return np.minimum(d, 1.0 - d)


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

    ``lift`` and ``derivative`` must accept numpy arrays.  ``r`` is the C^r
    degree (``math.inf`` for smooth builtins, 0 for Hölder-only maps without
    derivative data).
    """

    name: str
    degree: int
    lift: Callable[[np.ndarray], np.ndarray]
    derivative: Optional[Callable[[np.ndarray], np.ndarray]] = None
    r: float = math.inf
    json_kind: str = "builtin"
    json_params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.degree < 1 or self.degree != int(self.degree):
            raise ValueError(f"degree must be a positive integer, got {self.degree}")
        g = float(np.asarray(self.lift(1.0)).ravel()[0]) - float(np.asarray(self.lift(0.0)).ravel()[0])
        if abs(g - self.degree) > 1e-9:
            raise ValueError(
                f"lift({self.name}) spans {g} over [0,1], expected degree {self.degree}"
            )

    def __call__(self, x):
        return map_eval(self, x)


def map_eval(m: MapSpec, x):
    """Forward evaluation f(x) = lift(x) mod 1 on [0, 1)."""
    return wrap01(m.lift(wrap01(np.asarray(x, dtype=float))))


def deriv_at(m: MapSpec, x):
    """f'(x) with the argument reduced to the fundamental domain."""
    if m.derivative is None:
        raise ValueError(f"map {m.name} has no derivative data")
    return m.derivative(wrap01(np.asarray(x, dtype=float)))


@dataclass(frozen=True)
class InverseBranchPoint:
    """One depth-n preimage y of x with its accumulated contraction factor.

    ``contraction`` is L_n(y): the product of depth-1 branch Lipschitz
    factors (1/f' for C^1 maps) along the orbit y, f(y), ..., f^{n-1}(y).
    """

    x: float
    branch_id: int
    depth: int
    y: float
    contraction: float


@dataclass(frozen=True)
class OrbitSample:
    start: float
    length: int
    birkhoff_value: float


def branch_preimages(m: MapSpec, x):
    """All depth-1 preimages of the points ``x``, ordered by slice index.

    Returns an array of shape (G, len(x)): row k holds the branch-k
    preimage of each point, where branch k solves lift(y) = x + ceil(c - x)
    + k with c = lift(0).  The ordering is increasing in y, which is the
    deterministic per-level slice order used for branch ids.  All G rows
    are inverted in one ``_invert_lift`` call on a (G, len(x)) target array.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    c = float(np.asarray(m.lift(0.0)).ravel()[0])
    targets = x + np.ceil(c - x)
    return _invert_lift(m, targets[None, :] + np.arange(m.degree)[:, None])


def _invert_lift(m: MapSpec, t):
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

    A target that is not finite, or lies outside [lift(0), lift(1)] by more
    than 1e-9, raises ``BranchInversionError`` with its flat index
    (``slice_index``) and value (``target``).
    """
    t = np.asarray(t, dtype=float)
    nodes = np.arange(LIFT_TABLE_CELLS + 1) / LIFT_TABLE_CELLS
    table = np.asarray(m.lift(nodes), dtype=float)
    finite = np.isfinite(t)
    bad = ~finite | (table[0] - 1e-9 > t) | (table[-1] + 1e-9 < t)
    if np.any(bad):
        i = int(np.argmax(bad))
        msg = (f"target {t.flat[i]} outside lift range [{table[0]}, {table[-1]}] "
               f"for map {m.name}: lift violates monotone-degree invariants"
               if finite.flat[i] else f"target {t.flat[i]} is not finite (map {m.name})")
        raise BranchInversionError(
            msg,
            slice_index=i,
            target=float(t.flat[i]),
        )
    tt = t.ravel()
    k = np.searchsorted(table[1:-1], tt)
    lo, hi, flo, fhi = nodes[k], nodes[k + 1], table[k], table[k + 1]
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
        fx = m.lift(x)
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
            todo, tt, x, fx, lo, hi, flo, fhi = (
                a[keep] for a in (todo, tt, x, fx, lo, hi, flo, fhi))
        mid = 0.5 * (lo + hi)
        if it < newton_steps:
            d = m.derivative(x)
            good = np.isfinite(d) & (d > 0.0)
            yn = x - (fx - tt) / np.where(good, d, 1.0)
            yn = np.where(yn == x, np.nextafter(x, np.where(x == lo, hi, lo)), yn)
            x = np.where(good & (lo < yn) & (yn < hi), yn, mid)
        else:
            x = mid
    return out.reshape(t.shape)


def branch_lipschitz(m: MapSpec, y, cell_width=None):
    """Depth-1 branch Lipschitz factor at preimage y.

    1/f'(y) when the map is C^1; otherwise a symmetric difference quotient
    of the lift over the discretization cell (the cell stands in for the
    neighborhood U_x of the branch-domain bound).
    """
    y = np.asarray(y, dtype=float)
    if m.derivative is not None:
        return 1.0 / m.derivative(wrap01(y))
    h = 0.5 * (cell_width if cell_width is not None else DEFAULT_CELL_WIDTH)
    yy = wrap01(y)
    return (2.0 * h) / (m.lift(yy + h) - m.lift(yy - h))


def inverse_branches(m: MapSpec, x, depth):
    """Enumerate all G^depth preimages of x with contraction factors.

    Branch ids are lexicographic in the per-level slice index: the first
    inversion level (applied to x itself) is the most significant digit of
    the base-G id.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    x0 = float(wrap01(np.asarray(x, dtype=float)))
    pts = np.array([x0])
    contr = np.array([1.0])
    ids = np.array([0], dtype=np.int64)
    g = m.degree
    for _ in range(depth):
        pre = branch_preimages(m, pts)          # (g, len(pts))
        fac = branch_lipschitz(m, pre)
        pts = pre.T.reshape(-1)                 # parent-major, slice-minor
        contr = (contr[:, None] * fac.T).reshape(-1)
        ids = (ids[:, None] * g + np.arange(g)[None, :]).reshape(-1)
    return [
        InverseBranchPoint(x=x0, branch_id=int(i), depth=depth,
                           y=float(wrap01(p)), contraction=float(cval))
        for i, p, cval in zip(ids, pts, contr)
    ]


def birkhoff_sum(m: MapSpec, psi, x, n):
    """S_n(psi)(x) = sum_{j<n} psi(f^j x); x may be an array."""
    if n < 1:
        raise ValueError("n must be >= 1")
    total = orbit_birkhoff_samples(m, x, n, psi)
    if total.shape == ():
        return float(total)
    return total


def orbit_sample(m: MapSpec, psi, x, n) -> OrbitSample:
    """Birkhoff sum packaged with its orbit metadata."""
    return OrbitSample(start=float(wrap01(np.asarray(x, dtype=float))),
                       length=int(n),
                       birkhoff_value=float(birkhoff_sum(m, psi, x, n)))


def orbit_birkhoff_samples(m: MapSpec, x0, n, psi, rng=None, end=None):
    """Birkhoff sums S_n(psi) over a batch of orbits, with low-order dither.

    With an ``rng``, each step adds ``ORBIT_DITHER * u`` (u uniform in
    [0,1)) before reduction.  For binary-shift maps the float64 mantissa is
    exhausted after ~53 iterations and orbits collapse onto dyadic points;
    the dither injects fresh low-order entropy at amplitude far below any
    observable scale.  Without an ``rng`` there is no dither.  Deterministic
    given ``rng``.

    Each step runs over the orbits in blocks of ``ORBIT_BLOCK`` points:
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
    for lo in range(0, x.size, ORBIT_BLOCK):
        x[lo:lo + ORBIT_BLOCK] = wrap01(start[lo:lo + ORBIT_BLOCK])
    total = np.zeros(x0.shape)
    flat = total.reshape(-1)
    buf = np.empty(min(x.size, ORBIT_BLOCK))
    for _ in range(n):
        for lo in range(0, x.size, ORBIT_BLOCK):
            xb = x[lo:lo + ORBIT_BLOCK]
            scratch = buf[:xb.size]
            flat[lo:lo + ORBIT_BLOCK] += psi(xb)
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

    def lift(x):
        y = np.asarray(x, dtype=float)
        for _ in range(power):
            y = m.lift(y)
        return y

    deriv = None
    if m.derivative is not None:
        def deriv(x):
            y = wrap01(np.asarray(x, dtype=float))
            d = np.ones_like(y)
            for _ in range(power):
                d = d * m.derivative(y)
                y = wrap01(m.lift(y))
            return d

    return MapSpec(
        name=f"{m.name}^{power}",
        degree=m.degree ** power,
        lift=lift,
        derivative=deriv,
        r=m.r,
        json_kind="iterate",
        json_params={"base": map_to_json(m), "power": power},
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
        lift=lambda x: 2.0 * np.asarray(x, dtype=float),
        derivative=lambda x: np.full_like(np.asarray(x, dtype=float), 2.0),
        json_params={"name": "doubling"},
    )


def rotation_map(theta=0.381966011250105):
    """Rigid rotation: degree-1 isometry, the negative control for (C)."""
    th = float(theta)
    return MapSpec(
        name="rotation",
        degree=1,
        lift=lambda x, t=th: np.asarray(x, dtype=float) + t,
        derivative=lambda x: np.ones_like(np.asarray(x, dtype=float)),
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
        lift=lambda x: _periodic_lift(x, lambda u: u + smooth_step(u), 2),
        derivative=lambda x: 1.0 + smooth_step_deriv(wrap01(np.asarray(x, dtype=float))),
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
    """
    v = float(v)
    if not 0.0 <= v < 2.0:
        raise ValueError(f"derived_expanding requires 0 <= v < 2, got {v}")

    def lift(x, v=v):
        x = np.asarray(x, dtype=float)
        w = x - np.round(x)
        return 2.0 * x - v * _sink_bump(w)

    def deriv(x, v=v):
        x = np.asarray(x, dtype=float)
        w = x - np.round(x)
        return 2.0 - v * _sink_bump_deriv(w)

    return MapSpec(
        name=f"derived_expanding(v={v:g})",
        degree=2,
        lift=lift,
        derivative=deriv,
        json_params={"name": "derived_expanding", "v": v},
    )


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


def map_from_json(obj):
    """Build a MapSpec from {name, degree?, kind, params}."""
    if not isinstance(obj, dict):
        raise SchemaError("map spec must be an object", "map")
    kind = obj.get("kind", "builtin")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise SchemaError("map params must be an object", "map.params")
    if kind == "builtin":
        name = obj.get("name")
        catalog = builtin_maps()
        if name not in catalog:
            raise SchemaError(f"unknown builtin map {name!r}", "map.name")
        try:
            m = catalog[name](**params)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"bad params for builtin map {name!r}: {exc}", "map.params") from exc
        if "degree" in obj and obj["degree"] != m.degree:
            raise SchemaError(f"declared degree {obj['degree']} != {m.degree}", "map.degree")
        return m
    if kind == "iterate":
        power = params.get("power")
        if not isinstance(power, int) or isinstance(power, bool) or power < 1:
            raise SchemaError("power must be an integer >= 1", "map.params.power")
        return iterate_map(map_from_json(params.get("base")), power)
    if kind == "piecewise_poly":
        degree = obj.get("degree", 0)
        if (not isinstance(degree, (int, float)) or isinstance(degree, bool)
                or not float(degree).is_integer() or degree < 0):
            raise SchemaError("degree must be an integer >= 0", "map.degree")
        return piecewise_poly_map(obj.get("name", "piecewise_poly"),
                                  params.get("breakpoints"),
                                  params.get("coefficients"),
                                  int(degree),
                                  holder_only=params.get("smoothness") == "holder")
    raise SchemaError(f"unknown map kind {kind!r}", "map.kind")


def piecewise_polyval(bp, coefs, u):
    """Piecewise polynomial at the points u: piece p (bp[p] <= u < bp[p+1])
    evaluates sum_k coefs[p][k] * (u - bp[p])^k; points outside the
    breakpoints use the nearest end piece."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    p = np.clip(np.searchsorted(bp, u, side="right") - 1, 0, len(coefs) - 1)
    out = np.zeros_like(u)
    for i, c in enumerate(coefs):
        sel = p == i
        if np.any(sel):
            out[sel] = np.polyval(c[::-1], u[sel] - bp[i])
    return out


def piecewise_poly_map(name, breakpoints, coefficients, degree, holder_only=False):
    """Lift given as a piecewise polynomial on [0,1].

    ``breakpoints`` are the piece edges (first 0, last 1); piece p evaluates
    sum_k coefficients[p][k] * (x - breakpoints[p])^k.  Validated for
    continuity, strict increase on a sample grid, and exact degree span.
    ``holder_only`` drops the derivative, declaring the map as Hölder data
    only (certification then runs in center-value mode).
    """
    bp = np.asarray(breakpoints, dtype=float)
    if bp.ndim != 1 or bp.size < 2 or abs(bp[0]) > 1e-12 or abs(bp[-1] - 1.0) > 1e-12:
        raise SchemaError("breakpoints must run from 0 to 1", "map.params.breakpoints")
    if np.any(np.diff(bp) <= 0):
        raise SchemaError("breakpoints must be strictly increasing", "map.params.breakpoints")
    try:
        coefs = [np.asarray(c, dtype=float) for c in coefficients]
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"coefficients must be rows of numbers ({exc})",
                          "map.params.coefficients") from exc
    if len(coefs) != bp.size - 1:
        raise SchemaError("need one coefficient row per piece", "map.params.coefficients")

    dcoefs = [c[1:] * np.arange(1, len(c)) for c in coefs]
    lift01 = lambda u: piecewise_polyval(bp, coefs, u)
    d01 = lambda u: piecewise_polyval(bp, dcoefs, u)

    # continuity across pieces
    for i in range(1, len(coefs)):
        left = np.polyval(coefs[i - 1][::-1], bp[i] - bp[i - 1])
        right = coefs[i][0]
        if abs(left - right) > 1e-9:
            raise SchemaError(f"discontinuity at breakpoint {bp[i]}", "map.params.coefficients")
    grid = np.linspace(0.0, 1.0, 4097)
    if np.any(d01(grid) <= 0):
        raise SchemaError("piecewise lift must be strictly increasing", "map.params.coefficients")
    span = float((lift01(np.array(1.0)) - lift01(np.array(0.0))).ravel()[0])
    if degree == 0:
        degree = int(round(span))
    elif abs(span - degree) > 1e-9:
        raise SchemaError(f"declared degree {degree} != lift span {span:g}", "map.degree")
    json_params = {"breakpoints": bp.tolist(),
                   "coefficients": [c.tolist() for c in coefs]}
    if holder_only:
        json_params["smoothness"] = "holder"
    return MapSpec(
        name=name,
        degree=degree,
        lift=lambda x: _periodic_lift(x, lift01, degree),
        derivative=None if holder_only else (
            lambda x: d01(wrap01(np.asarray(x, dtype=float)))),
        r=0 if holder_only else math.inf,
        json_kind="piecewise_poly",
        json_params=json_params,
    )
