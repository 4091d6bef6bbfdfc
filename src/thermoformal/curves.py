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
from .operator import (EquilibriumState, SpectralTriple, build_matrix, equilibrium_measure,
                       leading_triple)
from .parallel import ordered_map
from .statistics import mc_batches, sample_from_state

AFFINE_TOL = 1e-6
STRICT_TOL = 1e-8


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
    triples: Optional[tuple] = None
    base: Optional[SpectralTriple] = None   # the t=0 triple

    @property
    def step(self):
        return float(self.t[1] - self.t[0])


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
                      eps_guard=None, keep_triples=False, workers=1) -> FreeEnergyCurve:
    """E(t) = log lambda(phi + t psi) - log lambda(phi) on a symmetric grid.

    E(0) is exactly zero since both terms come from the same matrix build.
    Derivatives are central differences at the grid step; the convexity
    verdict uses the declared affine/strict bands.  When ``eps_guard`` is
    set, admissibility of phi +- t_max psi is checked and a failure only
    warns.  Per-t eigen-solves are independent; ``workers`` > 1 runs them
    on a thread pool with ordered collection (identical output).

    Only the t=0 triple (``base``) is kept, unless ``keep_triples`` asks
    for every grid point's, each holding a dense n x n matrix.
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

    def solve(t):
        pot = phi if t == 0.0 else combine(phi, psi, t)
        try:
            triple = leading_triple(build_matrix(m, pot, scheme, n))
        except ThermoformalError as exc:
            raise type(exc)(f"eigen-solve failed at t={t}: {exc}") from exc
        return triple.lam, triple if keep_triples or t == 0.0 else None

    solved = ordered_map(solve, ts, workers)
    lams = np.array([lam for lam, _ in solved])
    i0 = int(np.flatnonzero(ts == 0.0)[0])
    E = np.log(lams) - math.log(lams[i0])
    E[i0] = 0.0
    E1 = np.gradient(E, ts)
    dt = ts[1] - ts[0]
    E2 = np.full_like(E, np.nan)
    E2[1:-1] = (E[2:] - 2 * E[1:-1] + E[:-2]) / dt ** 2
    return FreeEnergyCurve(
        psi_name=psi.name, t=ts, E=E, E1=E1, E2=E2,
        verdict=_convexity_verdict(E2),
        lam=lams, scheme=scheme, n=n,
        admissible_at_endpoints=admissible,
        triples=tuple(tr for _, tr in solved) if keep_triples else None,
        base=solved[i0][1],
    )


def default_t_max(m: MapSpec, phi: PotentialSpec, psi: PotentialSpec, eps,
                  ladder_max=4.0):
    """Largest dyadic t with phi +- t psi admissible at bound eps."""
    t = ladder_max
    while t > 1e-6:
        ok = all(
            potential_admissible(combine(phi, psi, s), eps).admissible
            for s in (-t, t)
        )
        if ok:
            return t
        t /= 2.0
    return t


def free_energy_mc(m: MapSpec, state: EquilibriumState, psi: Callable,
                   t: float, n: int, samples: int, seed: int,
                   batch_size=1 << 16) -> float:
    """(1/n) log int e^(t S_n psi) dmu by Monte Carlo over mu-samples.

    log-sum-exp throughout; the estimator is (logsumexp_i t*S_n(x_i) -
    log m)/n, bitwise reproducible under the seed-splitting rule.
    """
    if t == 0.0:
        return 0.0
    # Imported here: scipy.special costs every job its start-up time and memory.
    from scipy.special import logsumexp

    vals = np.empty(samples)
    for start, take, rng in mc_batches(samples, batch_size, seed):
        x0 = sample_from_state(state, take, rng)
        vals[start:start + take] = t * orbit_birkhoff_samples(m, x0, n, psi, rng=rng)
    return float((logsumexp(vals) - math.log(samples)) / n)


@dataclass(frozen=True)
class DerivativeCheckReport:
    max_mean_residual: float       # max_t |E'(t) - int psi dmu_t|
    e1_zero_residual: float        # |E'(0) - int psi dmu_phi|
    bounds_ok: bool                # centered inf/sup envelope holds
    bound_violation: float
    mean_values: np.ndarray


def derivative_checks(curve: FreeEnergyCurve, equilibria: Sequence[EquilibriumState],
                      psi: PotentialSpec) -> DerivativeCheckReport:
    """Identity and envelope checks for the free-energy derivative.

    Verifies E'(t) = int psi dmu_{phi+t psi} pointwise (central differences
    on the curve grid), E'(0) against the base state, and the centered
    envelope t*inf(psi_c) <= E_c(t) <= t*sup(psi_c) for t>0 (reversed for
    t<0), where psi_c = psi - int psi dmu_phi and E_c(t) = E(t) - t * that
    mean.
    """
    ts = curve.t
    if len(equilibria) != ts.size:
        raise ValueError("need one equilibrium state per grid point")
    means = np.array([float(np.asarray(psi.fn(st.grid)) @ st.mu) for st in equilibria])
    interior = slice(1, ts.size - 1)
    max_resid = float(np.max(np.abs(curve.E1[interior] - means[interior])))
    i0 = int(np.flatnonzero(ts == 0.0)[0])
    e1_zero = float(abs(curve.E1[i0] - means[i0]))

    base = equilibria[i0]
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


def ldp_empirical(m: MapSpec, state: EquilibriumState, psi: Callable,
                  a: float, b: float, n_list: Sequence[int], samples: int,
                  seed: int, rate: RateFunction,
                  batch_size=1 << 17) -> LdpReport:
    """Empirical decay rate of mu(S_n psi / n in [a,b]) vs the rate bound.

    r_hat(n) is extrapolated linearly in 1/n; the comparison value is
    -inf over [a,b] of the rate function (endpoints and interior s-grid).
    Zero counts at the largest n yield a censored (lower-bound-only) report.
    """
    if not a < b:
        raise ValueError("need a < b")
    n_values = np.asarray(sorted(n_list), dtype=int)
    counts = np.zeros(n_values.size, dtype=np.int64)
    for ni, n in enumerate(n_values):
        for _, take, rng in mc_batches(samples, batch_size, seed, ni):
            x0 = sample_from_state(state, take, rng)
            s = orbit_birkhoff_samples(m, x0, int(n), psi, rng=rng) / n
            counts[ni] += int(np.count_nonzero((s >= a) & (s <= b)))

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
                  guard=None, workers=1) -> ResponseScan:
    """lambda, pressure, and int obs dmu along a one-parameter map family.

    ``phi`` is a PotentialSpec or a callable map -> PotentialSpec for
    map-bound potentials.  ``guard`` = (N, gamma, resolution) runs the
    contraction certificate per family member and flags failures without
    stopping the scan.  Derivatives are central differences at the grid
    step; the Richardson diagnostics compare them with the double-step
    estimates on the shared interior points.
    """
    vs = np.asarray(v_grid, dtype=float)
    if vs.size < 5:
        raise ValueError("need at least 5 grid points")

    def solve(v):
        mv = family(float(v))
        pot = phi(mv) if callable(phi) and not isinstance(phi, PotentialSpec) else phi
        ok = True
        if guard is not None:
            gN, ggamma, gres = guard
            ok = check_condition_C(mv, gN, ggamma, gres).passed
        try:
            triple = leading_triple(build_matrix(mv, pot, scheme, n))
        except ThermoformalError:
            return math.nan, math.nan, ok, True
        state = equilibrium_measure(triple)
        mean = float(np.asarray(obs(state.grid), dtype=float) @ state.mu)
        return triple.lam, mean, ok, False

    solved = ordered_map(solve, vs, workers)
    lams = np.array([s[0] for s in solved])
    means = np.array([s[1] for s in solved])
    guard_ok = None if guard is None else np.array([s[2] for s in solved], dtype=bool)
    failed = np.array([s[3] for s in solved], dtype=bool)

    dv = vs[1] - vs[0]
    dlam = np.gradient(lams, vs)
    d2lam = np.full_like(lams, np.nan)
    d2lam[1:-1] = (lams[2:] - 2 * lams[1:-1] + lams[:-2]) / dv ** 2

    # double-step estimates on points 2..n-3
    rich1 = rich2 = math.nan
    if vs.size >= 5:
        inner = slice(2, vs.size - 2)
        d1_wide = (lams[4:] - lams[:-4]) / (4 * dv)
        d2_wide = (lams[4:] - 2 * lams[2:-2] + lams[:-4]) / (2 * dv) ** 2
        rich1 = float(np.max(np.abs(dlam[inner] - d1_wide)))
        rich2 = float(np.max(np.abs(d2lam[inner] - d2_wide)))
    return ResponseScan(
        v=vs, lam=lams, pressure=np.log(lams), mean_obs=means,
        dlam=dlam, d2lam=d2lam,
        richardson_first=rich1, richardson_second=rich2,
        guard_passed=guard_ok,
        solve_failed=failed,
    )
