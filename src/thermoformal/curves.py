"""Free-energy curves, Legendre-transform rate functions, LDP checks, and
parameter-response scans."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .certify import check_condition_C, potential_admissible
from .errors import LegendreDegenerateError, ThermoformalError
from .maps import MapSpec, orbit_birkhoff_samples
from .observables import PotentialSpec, combine
from .operator import SpectralTriple, leading_triples, map_geometry
# Unused here since every grid is solved in batches, but the benchmark's
# layer tracer (``benchmarks/layertrace.py``) rebinds these names.
from .operator import build_matrix, leading_triple  # noqa: F401
from .statistics import mc_map, sample_from_state

AFFINE_TOL = 1e-6
STRICT_TOL = 1e-8
#: Largest t tried by :func:`default_t_max`; the ladder halves from here.
T_MAX_LADDER = 4.0
#: free_energy_curve solves its grid GRID_BLOCK potentials at a time, so the
#: memory of the batched solve does not grow with the number of grid points.
GRID_BLOCK = 64
#: response_scan prepares and solves its v-grid MEMBER_BLOCK family members
#: at a time; each member holds a geometry of its own until its block is solved.
MEMBER_BLOCK = 4


def ordered_map(fn, items):
    """``[fn(x) for x in items]``: the family members of a response block,
    prepared in order on one thread.

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
    scheme: str
    n: int
    admissible_at_endpoints: bool
    base: Optional[SpectralTriple] = None   # the t=0 triple

    @property
    def step(self):
        return float(self.t[1] - self.t[0])


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
    warns.

    The map is inverted once for the whole grid (:func:`map_geometry`), and
    phi and psi are evaluated once on its entry points.  Each grid point's
    entry weights are ``scale * exp(phi + t psi) * coef`` (``exp(phi)`` at
    t=0), the same float operations as ``build_matrix(m, combine(phi, psi,
    t), scheme, n)``, and :func:`leading_triples` solves ``GRID_BLOCK``
    grid points at a time, each exactly as ``leading_triple`` would.  A
    failing grid point raises for the first failing t in grid order.

    Of the grid's triples only the t=0 one is kept (``base``), holding its
    entry weights over the shared geometry; the others give only lambda.
    """
    ts = symmetric_grid(t_max, steps)
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

    g = map_geometry(m, scheme, n)
    phi_vals, psi_vals = phi.fn(g.points), psi.fn(g.points)
    lams = np.empty(ts.size)
    for start in range(0, ts.size, GRID_BLOCK):
        block = ts[start:start + GRID_BLOCK]
        pots = [phi if t == 0.0 else combine(phi, psi, t) for t in block]
        vals = phi_vals + block.reshape((-1,) + (1,) * g.points.ndim) * psi_vals
        vals[block == 0.0] = phi_vals
        triples = leading_triples(g, g.weights(vals), pots)
        for t, tr in zip(block, triples):
            if isinstance(tr, Exception):
                raise type(tr)(f"eigen-solve failed at t={t}: {tr}") from tr
        lams[start:start + block.size] = [tr.lam for tr in triples]
        for k in np.flatnonzero(block == 0.0):
            base = triples[k]

    i0 = int(np.flatnonzero(ts == 0.0)[0])
    E = np.log(lams) - math.log(lams[i0])
    E[i0] = 0.0
    E1, E2 = _central_differences(E, ts)
    return FreeEnergyCurve(
        psi_name=psi.name, t=ts, E=E, E1=E1, E2=E2,
        verdict=_convexity_verdict(E2),
        lam=lams, scheme=scheme, n=n,
        admissible_at_endpoints=admissible,
        base=base,
    )


def default_t_max(m: MapSpec, phi: PotentialSpec, psi: PotentialSpec, eps):
    """Largest dyadic t <= T_MAX_LADDER with phi +- t psi admissible at bound eps."""
    t = T_MAX_LADDER
    while t > 1e-6:
        ok = all(
            potential_admissible(combine(phi, psi, s), eps).admissible
            for s in (-t, t)
        )
        if ok:
            return t
        t /= 2.0
    return t


def free_energy_mc(m: MapSpec, mu, psi: Callable,
                   t: float, n: int, samples: int, seed: int,
                   batch_size=1 << 16) -> float:
    """(1/n) log int e^(t S_n psi) dmu by Monte Carlo over samples of the
    cell masses ``mu``.

    log-sum-exp throughout; the estimator is (logsumexp_i t*S_n(x_i) -
    log m)/n, bitwise reproducible under the seed-splitting rule.
    """
    if t == 0.0:
        return 0.0
    # Imported here: scipy.special costs every job its start-up time and memory.
    from scipy.special import logsumexp

    vals = np.empty(samples)

    def batch(start, take, rng):
        x0 = sample_from_state(mu, take, rng)
        vals[start:start + take] = t * orbit_birkhoff_samples(m, x0, n, psi, rng=rng)

    mc_map(batch, samples, batch_size, seed)
    return float((logsumexp(vals) - math.log(samples)) / n)


@dataclass(frozen=True)
class DerivativeCheckReport:
    max_mean_residual: float       # max_t |E'(t) - int psi dmu_t|
    e1_zero_residual: float        # |E'(0) - int psi dmu_phi|
    bounds_ok: bool                # centered inf/sup envelope holds
    bound_violation: float
    mean_values: np.ndarray


def derivative_checks(curve: FreeEnergyCurve, triples: Sequence[SpectralTriple],
                      psi: PotentialSpec) -> DerivativeCheckReport:
    """Identity and envelope checks for the free-energy derivative.

    Verifies E'(t) = int psi dmu_{phi+t psi} pointwise (central differences
    on the curve grid), E'(0) against the base triple, and the centered
    envelope t*inf(psi_c) <= E_c(t) <= t*sup(psi_c) for t>0 (reversed for
    t<0), where psi_c = psi - int psi dmu_phi and E_c(t) = E(t) - t * that
    mean.
    """
    ts = curve.t
    if len(triples) != ts.size:
        raise ValueError("need one spectral triple per grid point")
    means = np.array([float(np.asarray(psi.fn(tr.grid)) @ tr.mu) for tr in triples])
    interior = slice(1, ts.size - 1)
    max_resid = float(np.max(np.abs(curve.E1[interior] - means[interior])))
    i0 = int(np.flatnonzero(ts == 0.0)[0])
    e1_zero = float(abs(curve.E1[i0] - means[i0]))

    base = triples[i0]
    c = means[i0]
    psi_vals = np.asarray(psi.fn(base.grid), dtype=float) - c
    lo, hi = float(np.min(psi_vals)), float(np.max(psi_vals))
    Ec = curve.E - ts * c
    viol = 0.0
    for t, e in zip(ts, Ec):
        if t > 0:
            viol = max(viol, t * lo - e, e - t * hi)
        elif t < 0:
            viol = max(viol, t * hi - e, e - t * lo)
    return DerivativeCheckReport(
        max_mean_residual=max_resid,
        e1_zero_residual=e1_zero,
        bounds_ok=bool(viol <= 1e-10),
        bound_violation=viol,
        mean_values=means,
    )


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


def _legendre_sup(ts, E, s):
    """sup_t (s t - E(t)) over the grid with local quadratic refinement."""
    vals = s * ts - E
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


def legendre_value(curve: FreeEnergyCurve, s):
    """I(s) = sup_t (s t - E(t)) with quadratic refinement; also returns t(s)."""
    return _legendre_sup(curve.t, curve.E, float(s))


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
        Is[i], t_of_s[i] = _legendre_sup(curve.t, curve.E, s)

    resid = 0.0
    for i in range(1, curve.t.size - 1):
        s = curve.E1[i]
        val, _ = _legendre_sup(curve.t, curve.E, s)
        target = s * curve.t[i] - curve.E[i]
        resid = max(resid, abs(val - target))

    i0 = int(np.flatnonzero(curve.t == 0.0)[0])
    s_star = float(curve.E1[i0])
    return RateFunction(s=ss, I=Is, t_of_s=t_of_s, s_star=s_star,
                        eq5_residual=float(resid), curve=curve)


def double_legendre(rate: RateFunction, ts):
    """sup_s (t s - I(s)) over the stored s-grid (involution check)."""
    out = np.empty(len(ts))
    for i, t in enumerate(ts):
        out[i], _ = _legendre_sup(rate.s, rate.I, float(t))
    return out


# ---------------------------------------------------------------------------
# Large deviations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LdpReport:
    a: float
    b: float
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

    r_hat(n) is extrapolated linearly in 1/n; the comparison value is
    -inf over [a,b] of the rate function (endpoints and interior s-grid).
    Zero counts at the largest n yield a censored (lower-bound-only) report.
    """
    if not a < b:
        raise ValueError("need a < b")
    n_values = np.asarray(sorted(n_list), dtype=int)
    steps = np.diff(n_values, prepend=0)

    def batch(_, take, rng):
        x = sample_from_state(mu, take, rng)
        total = np.zeros(take)
        counts = np.zeros(n_values.size, dtype=np.int64)
        for ni, n in enumerate(n_values):
            s = orbit_birkhoff_samples(m, x, int(steps[ni]), psi, rng=rng, end=x)
            total += s
            np.divide(total, n, out=s)      # S_n / n, in the segment's array
            counts[ni] = np.count_nonzero((s >= a) & (s <= b))
            del s                           # freed before the next segment runs
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
        a=a, b=b, n_values=n_values, rates=rates, counts=counts,
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
    solve_failed: Optional[np.ndarray] = None


def response_scan(family: Callable[[float], MapSpec], phi, obs: Callable,
                  v_grid, scheme="collocation", n=512,
                  guard=None) -> ResponseScan:
    """lambda, pressure, and int obs dmu along a one-parameter map family.

    ``phi`` is a PotentialSpec or a callable map -> PotentialSpec for
    map-bound potentials.  ``guard`` = (N, gamma, resolution) runs the
    contraction certificate per family member and flags failures without
    stopping the scan.  Derivatives are central differences at the grid
    step; the Richardson diagnostics compare them with the double-step
    estimates on the shared interior points.

    Each member's map is inverted once (:func:`map_geometry`); a collocation
    guard at resolution n reads the level-1 preimages of that geometry
    rather than inverting the centres again.  :func:`leading_triples`
    solves ``MEMBER_BLOCK`` members at a time, each on its own geometry and
    exactly as ``leading_triple(build_matrix(...))`` would.  A member whose
    assembly or solve fails gets NaN in ``lam`` and ``mean_obs`` and True
    in ``solve_failed``.
    """
    vs = np.asarray(v_grid, dtype=float)
    if vs.size < 5:
        raise ValueError("need at least 5 grid points")

    def prepare(v):
        """The member's geometry, entry weights, potential and guard verdict;
        geometry and weights are None when the assembly fails."""
        mv = family(float(v))
        pot = phi(mv) if callable(phi) and not isinstance(phi, PotentialSpec) else phi
        try:
            g = map_geometry(mv, scheme, n)
            w = g.weights(pot.fn(g.points))
        except ThermoformalError:
            g = w = None
        ok = True
        if guard is not None:
            gN, ggamma, gres = guard
            # The collocation points at n = gres are the guard's level-1 preimages.
            share = g is not None and scheme == "collocation" and gres == n
            ok = check_condition_C(mv, gN, ggamma, gres,
                                   preimages=g.points[:, 0] if share else None).passed
        return g, w, pot, ok

    lams = np.full(vs.size, math.nan)
    means = np.full(vs.size, math.nan)
    guard_ok = np.ones(vs.size, dtype=bool)
    failed = np.ones(vs.size, dtype=bool)
    obs_vals = np.asarray(obs((np.arange(n) + 0.5) / n), dtype=float)

    # A function, so that a block's geometries are freed before the next
    # block is prepared.
    def solve_block(start):
        block = ordered_map(prepare, vs[start:start + MEMBER_BLOCK])
        guard_ok[start:start + len(block)] = [ok for _, _, _, ok in block]
        built = [(i, g, w, pot) for i, (g, w, pot, _) in enumerate(block, start) if g is not None]
        if not built:
            return
        idx, geoms, ws, pots = zip(*built)
        for i, tr in zip(idx, leading_triples(geoms, ws, pots)):
            if not isinstance(tr, Exception):
                lams[i] = tr.lam
                means[i] = float(obs_vals @ tr.mu)
                failed[i] = False

    for start in range(0, vs.size, MEMBER_BLOCK):
        solve_block(start)

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
        solve_failed=failed,
    )
