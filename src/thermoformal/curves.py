"""Free-energy curves, Legendre-transform rate functions, LDP checks, and
parameter-response scans."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .certify import check_condition_C, potential_admissible
from .errors import LegendreDegenerateError, NonFiniteWeightsError
from .maps import MapSpec, cell_centers, orbit_birkhoff_samples
from .observables import PotentialSpec, combine, finite_values
from .operator import SpectralTriple, leading_triples, map_geometry, member_geometries
# Unused here since every grid is solved in batches, but the benchmark's
# layer tracer (``benchmarks/layertrace.py``) rebinds these names.
from .operator import build_matrix, leading_triple  # noqa: F401
from .statistics import birkhoff_sums, block_streams, mc_map, sample_from_state

AFFINE_TOL = 1e-6
STRICT_TOL = 1e-8
#: free_energy_curve solves a grid of K columns of nnz entry weights in
#: ceil(K nnz / GRID_ENTRIES) even blocks, so the memory of the batched solve
#: grows neither with the number of grid points nor, beyond one column per
#: block, with n.
GRID_ENTRIES = 2 ** 17
#: response_scan inverts, certifies and solves its v-grid MEMBER_BLOCK family
#: members at a time; each member holds the rows and columns of its own
#: geometry, and its weights, until its block is solved.
MEMBER_BLOCK = 8


def ordered_map(fn, items):
    """``[fn(x) for x in items]``: the family members of a response block,
    weighted in order on one thread.

    A module-level name so that the benchmark's layer tracer
    (``benchmarks/layertrace.py``) can rebind ``curves.ordered_map``.
    """
    return [fn(x) for x in items]


def symmetric_grid(t_max, steps):
    """Symmetric grid containing 0.0 exactly; steps must be odd."""
    if steps < 3 or steps % 2 == 0:
        raise ValueError("steps must be odd and >= 3")
    half = (steps - 1) // 2
    pos = t_max * np.arange(1, half + 1) / half
    return np.concatenate([-pos[::-1], [0.0], pos])


@dataclass(frozen=True)
class FreeEnergyCurve:
    psi_name: str
    t: np.ndarray
    E: np.ndarray
    E1: np.ndarray                 # central first differences
    E2: np.ndarray                 # central second differences
    verdict: str                   # strict | affine | indeterminate
    lam: np.ndarray                # leading eigenvalue per grid point
    admissible_at_endpoints: bool
    base: Optional[SpectralTriple] = None   # the t=0 triple


def _central_differences(y, x):
    """``np.gradient`` of y on the uniform grid x, and central second differences (NaN ends)."""
    d2 = np.full_like(y, np.nan)
    d2[1:-1] = (y[2:] - 2 * y[1:-1] + y[:-2]) / (x[1] - x[0]) ** 2
    return np.gradient(y, x), d2


def _convexity_verdict(E2):
    interior = E2[1:-1]
    if interior.size == 0:
        return "indeterminate"
    if np.max(np.abs(interior)) < AFFINE_TOL:
        return "affine"
    if np.min(interior) > STRICT_TOL:
        return "strict"
    return "indeterminate"


def free_energy_curve(m: MapSpec, phi: PotentialSpec, psi: PotentialSpec,
                      t_max: float, steps: int, scheme="collocation", n=512,
                      eps_guard=None) -> FreeEnergyCurve:
    """E(t) = log lambda(phi + t psi) - log lambda(phi) on a symmetric grid.

    E(0) is exactly zero since both terms come from the same matrix.
    Derivatives are central differences at the grid step; the convexity
    verdict uses the declared affine/strict bands.  When ``eps_guard`` is
    set, admissibility of phi +- t_max psi is checked and a failure only
    warns.  An observable psi that is not finite on the entry points
    raises ``NonFiniteWeightsError`` naming it.

    The map is inverted once for the whole grid (:func:`map_geometry`), and
    phi and psi are evaluated once on its entry points.  Each grid point's
    entry weights are ``scale * exp(phi + t psi) * coef`` (``exp(phi)`` at
    t=0), the same float operations as ``build_matrix(m, combine(phi, psi,
    t), scheme, n)``.  The K grid points of nnz entries each are solved in
    ceil(K nnz / ``GRID_ENTRIES``) blocks (at most K) of even size, split
    by ``np.array_split``, so the blocks depend only on the map, the
    scheme, n and ``steps``; :func:`leading_triples` solves each point of
    a block exactly as ``leading_triple`` would.  A failing grid point
    raises for the first failing t in grid order.

    Of the grid's triples only the t=0 one is kept (``base``), holding its
    entry weights over the shared geometry in arrays of its own; the others
    give only lambda, and nothing else of a block outlives its solve.
    """
    ts = symmetric_grid(t_max, steps)
    g = map_geometry(m, scheme, n)
    phi_vals = phi.fn(g.points)
    psi_vals = finite_values(psi, g.points, NonFiniteWeightsError)
    admissible = True
    if eps_guard is not None:
        for t_end in (-t_max, t_max):
            rep = potential_admissible(combine(phi, psi, t_end), eps_guard)
            if not rep.admissible:
                admissible = False
        if not admissible:
            warnings.warn(
                f"potential {phi.name} +- {t_max}*{psi.name} fails the "
                f"admissibility guard at eps={eps_guard}; curve computed anyway",
                stacklevel=2)

    # At most K blocks: a column over the budget is a block of its own.
    blocks = min(ts.size, -(-ts.size * g.rows.size // GRID_ENTRIES))
    lams = np.empty(ts.size)
    for idx in np.array_split(np.arange(ts.size), blocks):
        lams[idx], kept = _solve_block(g, ts[idx], phi, psi, phi_vals, psi_vals)
        if kept is not None:
            base = kept

    i0 = int(np.flatnonzero(ts == 0.0)[0])
    E = np.log(lams) - math.log(lams[i0])
    E[i0] = 0.0
    E1, E2 = _central_differences(E, ts)
    return FreeEnergyCurve(
        psi_name=psi.name, t=ts, E=E, E1=E1, E2=E2,
        verdict=_convexity_verdict(E2),
        lam=lams, admissible_at_endpoints=admissible,
        base=base,
    )


def _solve_block(g, block, phi, psi, phi_vals, psi_vals):
    """Lambda at each t of ``block``, and the t=0 triple if the block holds
    t=0 (else None), with arrays of its own: the block's weights and
    eigenvectors die on return.  Raises for the first failing t."""
    pots = [phi if t == 0.0 else combine(phi, psi, t) for t in block]
    # A weight that is not finite is reported by the solve.
    with np.errstate(over="ignore", invalid="ignore"):
        vals = phi_vals + block.reshape((-1,) + (1,) * g.points.ndim) * psi_vals
    vals[block == 0.0] = phi_vals
    W = g.weights(vals)
    del vals                        # the solve reads only the weights
    triples = leading_triples(g, W, pots)
    for t, tr in zip(block, triples):
        if isinstance(tr, Exception):       # the column's own error, with its attributes
            tr.args = (f"eigen-solve failed at t={t}: {tr}",) + tr.args[1:]
            raise tr
    base = None
    for k in np.flatnonzero(block == 0.0):
        tr = triples[k]
        base = replace(tr, matrix=replace(tr.matrix, weights=tr.matrix.weights.copy()),
                       h=tr.h.copy(), nu=tr.nu.copy())
    return [tr.lam for tr in triples], base


def free_energy_mc(m: MapSpec, mu, psi: Callable,
                   ts: Sequence[float], n: int, samples: int, seed: int,
                   batch_size=1 << 16) -> list:
    """(1/n) log int e^(t S_n psi) dmu at each t of ``ts``, by Monte Carlo
    over samples of the cell masses ``mu``: one draw of :func:`birkhoff_sums`
    serves every t, and t = 0 gives exactly 0.0 (no draw if every t is 0).

    log-sum-exp throughout; the estimator is (logsumexp_i t*S_n(x_i) -
    log m)/n, bitwise reproducible under the seed-splitting rule.
    """
    if not any(ts):
        return [0.0] * len(ts)
    # Imported here: scipy.special costs every job its start-up time and memory.
    from scipy.special import logsumexp

    sums = birkhoff_sums(m, mu, psi, n, samples, seed, batch_size)
    return [float((logsumexp(t * sums) - math.log(samples)) / n) if t else 0.0 for t in ts]


# ---------------------------------------------------------------------------
# Legendre transform
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateFunction:
    s: np.ndarray
    I: np.ndarray
    t_of_s: np.ndarray
    s_star: float                  # zero of I (= int psi dmu at t=0)
    eq5_residual: float            # max over grid of the variational identity
    curve: FreeEnergyCurve


def legendre_value(curve: FreeEnergyCurve, s):
    """I(s) = sup_t (s t - E(t)) over the grid with local quadratic
    refinement; also returns t(s)."""
    ts = curve.t
    vals = float(s) * ts - curve.E
    i = int(np.argmax(vals))
    if i == 0 or i == ts.size - 1:
        return float(vals[i]), float(ts[i])
    # parabola through the three points around the argmax
    t0, t1, t2 = ts[i - 1], ts[i], ts[i + 1]
    v0, v1, v2 = vals[i - 1], vals[i], vals[i + 1]
    denom = v0 - 2 * v1 + v2
    if denom >= -1e-300:          # flat or convex-up: keep the grid point
        return float(v1), float(t1)
    dt = t1 - t0
    shift = 0.5 * dt * (v0 - v2) / denom
    shift = float(np.clip(shift, -dt, dt))
    t_star = t1 + shift
    v_star = v1 - 0.25 * (v0 - v2) * shift / dt
    return float(v_star), float(t_star)


def rate_function(curve: FreeEnergyCurve, s_steps: int) -> RateFunction:
    """Legendre transform of a strictly convex free-energy curve.

    The s-grid spans [E'(-t_max), E'(t_max)]; each I(s) stores its
    maximizing t.  The variational identity I(E'(t)) = t E'(t) - E(t) is
    validated at every interior grid t and the worst residual reported.
    Affine curves are rejected (degenerate transform).
    """
    if curve.verdict == "affine":
        raise LegendreDegenerateError(
            f"free-energy curve for {curve.psi_name} is affine; "
            "its Legendre transform degenerates to a point")
    if curve.verdict != "strict":
        warnings.warn("convexity verdict is indeterminate; rate function may be unreliable",
                      stacklevel=2)
    s_lo, s_hi = curve.E1[0], curve.E1[-1]
    ss = np.linspace(s_lo, s_hi, s_steps)
    Is = np.empty(s_steps)
    t_of_s = np.empty(s_steps)
    for i, s in enumerate(ss):
        Is[i], t_of_s[i] = legendre_value(curve, s)

    resid = 0.0
    for i in range(1, curve.t.size - 1):
        s = curve.E1[i]
        val, _ = legendre_value(curve, s)
        target = s * curve.t[i] - curve.E[i]
        resid = max(resid, abs(val - target))

    i0 = int(np.flatnonzero(curve.t == 0.0)[0])
    s_star = float(curve.E1[i0])
    return RateFunction(s=ss, I=Is, t_of_s=t_of_s, s_star=s_star,
                        eq5_residual=float(resid), curve=curve)


# ---------------------------------------------------------------------------
# Large deviations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LdpReport:
    n_values: np.ndarray
    rates: np.ndarray              # r_hat(n) = (1/n) log(count/m)
    counts: np.ndarray
    extrapolated: float            # linear-in-1/n extrapolation of r_hat
    rate_bound: float              # -inf_{[a,b]} I
    gap: float
    censored: bool


def ldp_empirical(m: MapSpec, mu, psi: Callable,
                  a: float, b: float, n_list: Sequence[int], samples: int,
                  seed: int, rate: RateFunction,
                  batch_size=1 << 17) -> LdpReport:
    """Empirical decay rate of mu(S_n psi / n in [a,b]) vs the rate bound.

    Every n in ``n_list`` reads the same orbits: each batch runs its orbits
    to the largest n and counts S_n at each n on the way, so the orbits
    cost max(n_list) steps, not sum(n_list).  The counts at different n are
    therefore correlated, but each is still an unbiased estimate of its
    mu-probability (as far as the starts are mu-distributed), and the
    smallest n draws the stream it drew when every n had orbits of its own.
    A batch runs one block of :func:`block_streams` at a time, sample to
    counts, and adds up the blocks' counts: they do not depend on the block.

    r_hat(n) is extrapolated linearly in 1/n, so the n must be distinct
    (``ValueError`` otherwise); the comparison value is
    -inf over [a,b] of the rate function (endpoints and interior s-grid).
    Zero counts at the largest n yield a censored (lower-bound-only) report.
    """
    if not a < b:
        raise ValueError("need a < b")
    if len(set(n_list)) < len(n_list):
        raise ValueError("n_list must not repeat an n: the rate is fitted through them")
    n_values = np.asarray(sorted(n_list), dtype=int)
    steps = np.diff(n_values, prepend=0)

    def batch(_, take, rng):
        counts = np.zeros(n_values.size, dtype=np.int64)
        for _, size, stream in block_streams(take, rng):
            x = sample_from_state(mu, size, stream)
            total = np.zeros(size)
            for ni, n in enumerate(n_values):
                s = orbit_birkhoff_samples(m, x, int(steps[ni]), psi, rng=stream, end=x)
                total += s
                np.divide(total, n, out=s)      # S_n / n, in the segment's array
                counts[ni] += np.count_nonzero((s >= a) & (s <= b))
        return counts

    # Counter 0 is the one the smallest n used when each n drew its own
    # orbits, so its count keeps that stream.
    counts = np.zeros(n_values.size, dtype=np.int64)
    for batch_counts in mc_map(batch, samples, batch_size, seed, 0):
        counts += batch_counts

    censored = bool(counts[-1] == 0)
    with np.errstate(divide="ignore"):
        rates = np.where(counts > 0, np.log(counts / samples) / n_values, -np.inf)

    usable = counts > 0
    if np.count_nonzero(usable) >= 2:
        coeff = np.polyfit(1.0 / n_values[usable], rates[usable], 1)
        extrapolated = float(coeff[1])
    elif np.any(usable):
        extrapolated = float(rates[usable][0])
    else:
        extrapolated = -math.inf

    sel = (rate.s >= a) & (rate.s <= b)
    candidates = list(rate.I[sel])
    for endpoint in (a, b):
        if rate.s[0] <= endpoint <= rate.s[-1]:
            candidates.append(legendre_value(rate.curve, endpoint)[0])
    inf_I = float(min(candidates)) if candidates else math.inf
    bound = -inf_I
    return LdpReport(
        n_values=n_values, rates=rates, counts=counts,
        extrapolated=extrapolated, rate_bound=bound,
        gap=float(extrapolated - bound), censored=censored,
    )


# ---------------------------------------------------------------------------
# Response scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResponseScan:
    v: np.ndarray
    lam: np.ndarray
    pressure: np.ndarray
    mean_obs: np.ndarray
    dlam: np.ndarray
    d2lam: np.ndarray
    richardson_first: float        # max |D(step) - D(2*step)| over shared points
    richardson_second: float
    guard_passed: Optional[np.ndarray]


def response_scan(family: Callable[[np.ndarray], MapSpec], phi, obs: Callable,
                  v_grid, scheme="collocation", n=512,
                  guard=None) -> ResponseScan:
    """lambda, pressure, and int obs dmu along a one-parameter map family.

    ``family`` takes an array of v: it returns a map of those members
    (``MapSpec.members``, as :func:`derived_expanding_map` does), or a map
    of fewer members for a family that does not depend on v; a float v
    gives that member alone.  ``phi`` is a PotentialSpec or a callable map ->
    PotentialSpec for map-bound potentials.  ``guard`` = (N, gamma,
    resolution) runs the contraction certificate on every family member
    and flags failures without stopping the scan.  Derivatives are central
    differences at the grid step; the Richardson diagnostics compare them
    with the double-step estimates on the shared interior points.

    The v-grid runs ``MEMBER_BLOCK`` members at a time, one
    :func:`_response_block` call per block, and a map that does not depend
    on v is one block of one member for the whole grid.  Every member's
    numbers equal those of ``leading_triple(build_matrix(...))`` on that
    member alone.  A member whose solve fails gets NaN in ``lam`` and
    ``mean_obs``; an inversion error is raised.
    """
    vs = np.asarray(v_grid, dtype=float)
    if vs.size < 5:
        raise ValueError("need at least 5 grid points")
    obs_vals = finite_values(obs, cell_centers(n))
    args = (phi, obs_vals, scheme, n, guard)

    m = family(vs[:MEMBER_BLOCK])
    if m.members < min(MEMBER_BLOCK, vs.size):     # one map for every v: one column for all
        cols = _response_block(family, m, vs[:m.members], *args)
        lams, means, guard_ok = (np.full(vs.size, a[0]) for a in cols)
    else:
        blocks = [vs[start:start + MEMBER_BLOCK] for start in range(0, vs.size, MEMBER_BLOCK)]
        cols = [_response_block(family, m if i == 0 else family(b), b, *args)
                for i, b in enumerate(blocks)]
        lams, means, guard_ok = (np.concatenate(a) for a in zip(*cols))

    dv = vs[1] - vs[0]
    dlam, d2lam = _central_differences(lams, vs)

    # double-step estimates on points 2..n-3
    inner = slice(2, vs.size - 2)
    d1_wide = (lams[4:] - lams[:-4]) / (4 * dv)
    d2_wide = (lams[4:] - 2 * lams[2:-2] + lams[:-4]) / (2 * dv) ** 2
    rich1 = float(np.max(np.abs(dlam[inner] - d1_wide)))
    rich2 = float(np.max(np.abs(d2lam[inner] - d2_wide)))
    return ResponseScan(
        v=vs, lam=lams, pressure=np.log(lams), mean_obs=means,
        dlam=dlam, d2lam=d2lam,
        richardson_first=rich1, richardson_second=rich2,
        guard_passed=guard_ok if guard is not None else None,
    )


def _response_block(family, m, block, phi, obs_vals, scheme, n, guard):
    """(lambda, int obs dmu, guard verdict) of each member of ``m``, the map
    of the v in ``block``; NaN lambda and mean where the solve fails.  The
    members are inverted in one call, certified in one call, which at a
    collocation guard of resolution n reads the geometries' level-1
    preimages, and solved in one :func:`leading_triples` call on the lean
    geometries of :func:`_weigh`.
    """
    lam, mean = np.full((2, block.size), math.nan)
    passed = np.ones(block.size, dtype=bool)
    geoms = member_geometries(m, scheme, n)
    pots = ([phi] * block.size if isinstance(phi, PotentialSpec)
            else [phi(family(float(v))) for v in block])
    if guard is not None:
        gN, ggamma, gres = guard
        # The collocation points at n = gres are the guard's level-1 preimages.
        shared = scheme == "collocation" and gres == n
        passed[:] = check_condition_C(
            m, gN, ggamma, gres,
            preimages=np.stack([g.points[:, 0] for g in geoms]) if shared else None).passed
    lean, ws = zip(*ordered_map(_weigh, zip(geoms, pots)))
    del geoms                       # the solve reads only the lean geometries
    for i, tr in enumerate(leading_triples(lean, ws, pots)):
        if not isinstance(tr, Exception):
            lam[i] = tr.lam
            mean[i] = float(obs_vals @ tr.mu)
    return lam, mean, passed


def _weigh(member):
    """The (lean geometry, entry weights) of a (geometry, potential) pair:
    the lean geometry keeps only the rows and columns that the solve
    reads."""
    g, pot = member
    return replace(g, points=None, coef=None), g.weights(pot.fn(g.points))
