"""Certification of the contraction condition and related arithmetic.

Two independent checkers live here:

* grid certification that every point admits a depth-N inverse branch
  contracting below gamma; for a C^1 map the branch contracts at y by
  1/|(f^N)'(y)|, so the same certificate is also condition (C'),
* the covering-budget feasibility arithmetic (exact big integers) and the
  potential admissibility inequalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .maps import BLOCK, MapSpec, branch_preimages, branch_lipschitz, cell_centers, wrap01
from .observables import PotentialSpec

MODE_CERTIFIED = "certified"
MODE_CENTER_ONLY = "center_only"

#: Cells on which potential_stats samples a potential.
STATS_GRID_N = 1024
#: Cells on which the inflation modulus rho = max |(log f')'| is estimated.
LOG_DERIV_SAMPLES = 16384
#: The circle's diameter, in the admissibility inequality of an iterate.
CIRCLE_DIAMETER = 0.5
#: The cover constant of the covering arithmetic, sqrt(2) times the diameter.
COVER_CONSTANT = math.sqrt(2.0) * CIRCLE_DIAMETER


@dataclass(frozen=True)
class ConditionCReport:
    """A certificate's per-cell witnesses and verdict; for a map of several
    members the per-cell arrays have a leading member axis, and ``rho`` and
    ``passed`` are arrays with one entry per member (see
    :func:`check_condition_C`)."""
    resolution: int
    mode: str                         # certified | center_only
    rho: float                        # log-Lipschitz modulus used for inflation
    witness_branch: np.ndarray        # per-cell argmin branch id
    witness_preimage: np.ndarray      # per-cell witness preimage point
    bound: np.ndarray                 # per-cell certified (inflated) min contraction
    raw_bound: np.ndarray             # per-cell min contraction at the center
    passed: bool
    failures: np.ndarray              # indices of cells with bound >= gamma


def _grid_log_deriv_modulus(m: MapSpec):
    """max |d log f' / dx| estimated from adjacent grid differences, one per
    member.

    The members share each block of ``BLOCK // members`` differences (at
    least one), so a block's temporaries hold about ``BLOCK`` floats
    whatever the member count.  The max is exact, so the blocks give the
    one-shot result bit for bit.
    """
    member = np.arange(m.members)[:, None]
    step = max(1, BLOCK // m.members)
    block_max = []
    for start in range(0, LOG_DERIV_SAMPLES, step):
        stop = min(start + step, LOG_DERIV_SAMPLES)
        x = np.arange(start, stop + 1) / LOG_DERIV_SAMPLES
        logd = np.log(np.broadcast_to(m.derivative(x, member), (m.members, x.size)))
        block_max.append(np.max(np.abs(np.diff(logd)), axis=-1))
    return np.max(block_max, axis=0) * LOG_DERIV_SAMPLES      # NaN propagates


def _depth_n_contractions(m: MapSpec, centers, N, cell_width, preimages=None):
    """Contraction of every depth-N branch at every center.

    Returns (contr, pts): arrays of shape (members, G^N, n_centers); rows
    are in lexicographic branch-id order, base G in the slice index of
    :func:`thermoformal.maps.branch_preimages` at each level, with the
    first inversion (of the centers themselves) as the most significant
    digit.  ``preimages``, when given, are the (members, G, n_centers)
    level-1 preimages of the centers, used instead of inverting them.  Each
    level inverts the points of every member in one call.
    """
    K, g = m.members, m.degree
    member = np.arange(K).reshape(K, 1, 1)
    pts = np.broadcast_to(centers, (K, 1, centers.size))
    contr = np.ones(pts.shape)
    for level in range(N):
        n_words, n_c = pts.shape[-2:]
        if level or preimages is None:
            pre = branch_preimages(m, pts.ravel(), np.broadcast_to(member, pts.shape).ravel())
        else:
            pre = np.moveaxis(preimages, 0, 1)
        pre = pre.reshape((g, K, n_words, n_c))
        pts = np.moveaxis(pre, 0, -2).reshape((K, n_words * g, n_c))     # parent-major
        contr = np.repeat(contr, g, axis=-2) * branch_lipschitz(m, pts, cell_width, member)
    return contr, pts


def check_condition_C(m: MapSpec, N, gamma, resolution, rho=None, preimages=None):
    """Grid certificate for condition (C) at iterate N and target gamma.

    Each of ``resolution`` equal cells is witnessed at its center by the
    minimum depth-N branch contraction, inflated by exp(N * rho * cellwidth)
    to cover the whole cell.  Falls back to a flagged center-value mode when
    no modulus is available (Hölder-only map, no user rho).  For a map with
    a derivative the branch contraction at y is 1/|(f^N)'(y)|, so a passing
    certificate is also one for condition (C').

    ``preimages`` lets a caller that has already inverted the centers (the
    collocation geometry at n = ``resolution`` holds them, reduced to
    [0, 1)) hand them in: they are the first level of every depth, so the
    certificate then inverts only from level 2 on.

    The certificate runs on every member of ``m`` at once, and
    ``preimages`` has shape (``m.members``, G, resolution).  For a map of
    K > 1 members each per-cell array of the report has a leading member
    axis, ``rho`` and ``passed`` hold one value per member, and
    ``failures`` indexes the flattened (K, resolution) bounds; a
    one-member map's report has no member axis.  Every member's numbers
    equal those of its own certificate.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if resolution < 16:
        raise ValueError("resolution must be >= 16")
    if N < 1:
        raise ValueError("N must be >= 1")
    K = m.members
    if preimages is not None and np.shape(preimages) != (K, m.degree, resolution):
        raise ValueError(f"preimages must have shape (members, degree, resolution) = "
                         f"({K}, {m.degree}, {resolution})")

    w = 1.0 / resolution

    if rho is None and m.derivative is not None:
        rho = _grid_log_deriv_modulus(m)
    if rho is not None:
        mode = MODE_CERTIFIED
        rho = np.broadcast_to(np.asarray(rho, dtype=float), (K,))
        inflation = np.array([[_inflation(N, float(r), w)] for r in rho])
    else:
        mode = MODE_CENTER_ONLY
        rho = np.full(K, math.nan)
        inflation = 1.0

    contr, pts = _depth_n_contractions(m, cell_centers(resolution), N, w, preimages)
    idx = np.argmin(contr, axis=-2)[..., None, :]
    raw = np.take_along_axis(contr, idx, axis=-2)[..., 0, :]
    bound = raw * inflation
    witness_y = wrap01(np.take_along_axis(pts, idx, axis=-2)[..., 0, :])
    fail = bound >= gamma
    per_member = dict(rho=rho.copy(), witness_branch=idx[..., 0, :].astype(np.int64),
                      witness_preimage=witness_y, bound=bound, raw_bound=raw,
                      passed=~fail.any(axis=-1))
    if K == 1:          # one map: no member axis
        per_member = {key: val[0] for key, val in per_member.items()}
        per_member["rho"] = float(per_member["rho"])
        per_member["passed"] = bool(per_member["passed"])
    return ConditionCReport(resolution=resolution, mode=mode,
                            failures=np.flatnonzero(fail), **per_member)


def _inflation(N, rho, w):
    """exp(N * rho * w), infinite where that overflows (no cell can pass)."""
    try:
        return math.exp(N * rho * w)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# Covering-budget arithmetic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoveringBudget:
    ell: Optional[int]
    k: Optional[int]
    D_k: Optional[int]
    B_k: Optional[int]
    q_k: Optional[int]
    threshold: Optional[int]
    feasible: bool
    violated: Optional[str]
    gamma_tilde: Optional[float]
    gamma_m: Optional[float]
    m0: Optional[int]


def estimate_31(gamma, L, N, ell):
    """Composite-rate estimate: gamma * L^(N*(ell-1)) < 1."""
    return gamma * L ** (N * (ell - 1)) < 1.0


def estimate_32(L, N, G, dim_m, ell):
    """Counting estimate: e^(1/ell) * ell^(1/ell) * L^(N*dim) < G^N/(G^N-1)."""
    lhs = math.exp(1.0 / ell) * ell ** (1.0 / ell) * L ** (N * dim_m)
    gn = G ** N
    return lhs < gn / (gn - 1.0)


def bad_branch_count(ell_k, G_pow_N_minus_1, k):
    """B_k: branch words of length ell*k with at most k-1 contracting letters."""
    return sum(
        math.comb(ell_k, j) * G_pow_N_minus_1 ** (ell_k - j) for j in range(k)
    )


def ball_count(L, N, k):
    """D_k = ceil(C * L^(k*N)): cover cardinality at the depth-k scale, C =
    COVER_CONSTANT.

    Exact Fraction arithmetic; the scale constant delta^(-1) is absorbed
    into C (the raw per-level formula in the source is dimensionally off and
    is not used).
    """
    val = Fraction(COVER_CONSTANT) * Fraction(L) ** (k * N)
    return -((-val.numerator) // val.denominator)  # ceil for positive Fraction


def _log_bk_lower(ell_k, base, k):
    """Lower bound on log B_k via the endpoint terms (O(1) prescreen)."""
    if base <= 0:
        return float("-inf")

    def log_term(j):
        return (math.lgamma(ell_k + 1) - math.lgamma(j + 1)
                - math.lgamma(ell_k - j + 1) + (ell_k - j) * math.log(base))

    return max(log_term(0), log_term(k - 1))


def covering_budget(gamma, L, N, G, ell_cap=10_000, k_cap=100_000):
    """Feasibility arithmetic for the covering construction on the circle.

    Finds the smallest ell satisfying both scan estimates, then the smallest
    k with D_k * B_k < G^(ell*k*N), all in exact integer arithmetic (a float
    log prescreen only skips hopeless k).  The ell scan stops where estimate 3.1 first fails
    (for L >= 1 it fails at every larger ell); that or a cap yields an infeasible verdict, not
    an exception.  m0 is ell*k0*N for the smallest k0 >= k that also keeps the composite tail
    rate gamma_tilde^k0 * L^(ell*N) below 1: the iterate from which every larger m works.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if L < 1.0 or N < 1 or G < 2 or ell_cap < 1:
        raise ValueError("need L >= 1, N >= 1, G >= 2, ell_cap >= 1")

    ell = None
    for last in range(1, ell_cap + 1):
        if not estimate_31(gamma, L, N, last):
            break                   # and so at every larger ell
        if estimate_32(L, N, G, 1, last):
            ell = last
            break
    if ell is None:
        violated = []
        if not estimate_31(gamma, L, N, last):
            violated.append("estimate_3_1")
        if not estimate_32(L, N, G, 1, last):
            violated.append("estimate_3_2")
        return CoveringBudget(None, None, None, None, None, None, False,
                              "+".join(violated) or "ell_cap", None, None, None)

    gamma_tilde = gamma * L ** (N * (ell - 1))
    base = G ** N - 1
    log_G_N = N * math.log(G)
    log_C = math.log(COVER_CONSTANT)
    log_L = math.log(L)

    found_k = None
    for k in range(1, k_cap + 1):
        ell_k = ell * k
        log_q_lower = log_C + k * N * log_L + _log_bk_lower(ell_k, base, k)
        log_threshold = ell_k * log_G_N
        if log_q_lower > log_threshold + 1.0:
            continue
        D_k = ball_count(L, N, k)
        B_k = bad_branch_count(ell_k, base, k)
        if D_k * B_k < G ** (ell_k * N):
            found_k = k
            break
    if found_k is None:
        return CoveringBudget(ell, None, None, None, None, None, False, "k_cap",
                              gamma_tilde, None, None)

    k = found_k
    D_k = ball_count(L, N, k)
    B_k = bad_branch_count(ell * k, base, k)
    k0 = k
    while gamma_tilde ** k0 * L ** (ell * N) >= 1.0:
        k0 += 1
    return CoveringBudget(
        ell=ell, k=k, D_k=D_k, B_k=B_k, q_k=D_k * B_k,
        threshold=G ** (ell * k * N),
        feasible=True, violated=None,
        gamma_tilde=gamma_tilde,
        gamma_m=gamma_tilde ** k,
        m0=ell * k0 * N,
    )


# ---------------------------------------------------------------------------
# Potential admissibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IterateData:
    """Constants of a covering iterate m for the admissibility inequality.

    ``deg_m`` is deg(f^m); q_m, gamma_m, L_m as produced by the covering
    construction.
    """
    deg_m: int
    q_m: int
    gamma_m: float
    L_m: float


@dataclass(frozen=True)
class PotentialAdmissibility:
    sup_phi: float
    inf_phi: float
    seminorm_exp_phi: float
    variation_ok: bool
    seminorm_ok: bool
    admissible: bool
    iterate_lhs: Optional[float] = None
    iterate_ok: Optional[bool] = None


def potential_stats(phi: PotentialSpec):
    """(sup, inf, Hölder seminorm of e^phi) from sampling on STATS_GRID_N cells.

    Cell inflation: sup/inf widened by the local slope over half a cell;
    the seminorm gets the within-cell bound rho_e * w^(1-alpha) added, where
    rho_e is the largest adjacent difference quotient of e^phi.  The max
    over cell pairs is exact, taken ``BLOCK // STATS_GRID_N`` rows at a time.
    """
    w = 1.0 / STATS_GRID_N
    xs = cell_centers(STATS_GRID_N)
    vals = phi.fn(xs)
    slopes = np.abs(np.diff(np.concatenate([vals, vals[:1]]))) / w
    rho_phi = float(np.max(slopes))
    sup = float(np.max(vals)) + 0.5 * rho_phi * w
    inf = float(np.min(vals)) - 0.5 * rho_phi * w

    e = np.exp(vals)
    rows = max(1, BLOCK // STATS_GRID_N)
    block_max = []
    for i in range(0, STATS_GRID_N, rows):
        d = np.abs(xs - xs[i:i + rows, None])
        d = np.minimum(d, 1.0 - d)
        np.fill_diagonal(d[:, i:], 1.0)        # the pairs (x, x)
        block_max.append(np.max(np.abs(e - e[i:i + rows, None]) / d ** phi.alpha))
    rho_e = float(np.max(np.abs(np.diff(np.concatenate([e, e[:1]]))))) / w
    seminorm = float(np.max(block_max)) + rho_e * w ** (1.0 - phi.alpha)
    return sup, inf, seminorm


def potential_admissible(phi: PotentialSpec, eps, m_data: Optional[IterateData] = None):
    """Admissibility verdicts for a potential at bound eps.

    Checks sup-inf < eps and |e^phi|_alpha < eps*e^(inf phi) on the sampled
    stats (:func:`potential_stats`); with iterate data also evaluates the
    covering inequality verbatim and reports its left-hand side.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    sup, inf, seminorm = potential_stats(phi)
    alpha = phi.alpha
    variation_ok = sup - inf < eps
    seminorm_ok = seminorm < eps * math.exp(inf)

    iterate_lhs = None
    iterate_ok = None
    if m_data is not None:
        d = m_data
        main = ((d.deg_m - d.q_m) * d.gamma_m ** alpha
                + d.q_m * d.L_m ** alpha * (1.0 + (d.L_m - 1.0) ** alpha)) / d.deg_m
        iterate_lhs = ((1.0 + eps) * math.exp(eps) * main
                       + 2.0 * eps * d.L_m ** alpha * CIRCLE_DIAMETER ** alpha)
        iterate_ok = iterate_lhs < 1.0

    return PotentialAdmissibility(
        sup_phi=sup, inf_phi=inf, seminorm_exp_phi=seminorm,
        variation_ok=variation_ok, seminorm_ok=seminorm_ok,
        admissible=variation_ok and seminorm_ok,
        iterate_lhs=iterate_lhs, iterate_ok=iterate_ok,
    )
