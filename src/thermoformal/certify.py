"""Certification of the contraction condition and related arithmetic.

Three independent checkers live here:

* grid certification that every point admits a depth-N inverse branch
  contracting below gamma (derivative variant included),
* the pointwise-to-uniform upgrade producing a single iterate and rate,
* the covering-budget feasibility arithmetic (exact big integers) and the
  potential admissibility inequalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .maps import MapSpec, branch_preimages, branch_lipschitz, wrap01
from .observables import PotentialSpec

MODE_CERTIFIED = "certified"
MODE_CENTER_ONLY = "center_only"

#: Cells on which potential_stats samples a potential.
STATS_GRID_N = 1024
#: Cells on which the inflation modulus rho = max |(log f')'| is estimated.
LOG_DERIV_SAMPLES = 16384
#: It is evaluated in blocks of at most LOG_DERIV_BLOCK grid differences.
LOG_DERIV_BLOCK = 4096


@dataclass(frozen=True)
class ConditionCReport:
    map_name: str
    variant: str                      # "C" or "Cprime"
    N: int
    gamma: float
    resolution: int
    mode: str                         # certified | center_only
    rho: float                        # log-Lipschitz modulus used for inflation
    witness_branch: np.ndarray        # per-cell argmin branch id
    witness_preimage: np.ndarray      # per-cell witness preimage point
    bound: np.ndarray                 # per-cell certified (inflated) min contraction
    raw_bound: np.ndarray             # per-cell min contraction at the center
    passed: bool
    failures: np.ndarray              # indices of cells with bound >= gamma

    @property
    def cell_width(self):
        return 1.0 / self.resolution


def _grid_log_deriv_modulus(m: MapSpec):
    """max |d log f' / dx| estimated from adjacent grid differences.

    The max is exact, so blocks of LOG_DERIV_BLOCK differences give the
    one-shot result bit for bit, and no temporary grows past the
    allocator's mmap threshold (128 KiB in glibc), which would page-fault
    on every call.
    """
    block_max = []
    for start in range(0, LOG_DERIV_SAMPLES, LOG_DERIV_BLOCK):
        stop = min(start + LOG_DERIV_BLOCK, LOG_DERIV_SAMPLES)
        logd = np.log(m.derivative(np.arange(start, stop + 1) / LOG_DERIV_SAMPLES))
        block_max.append(np.max(np.abs(np.diff(logd))))
    return float(np.max(block_max) * LOG_DERIV_SAMPLES)      # NaN propagates


def _depth_n_contractions(m: MapSpec, centers, N, cell_width, preimages=None):
    """Contraction of every depth-N branch at every center.

    Returns (contr, pts): arrays of shape (G^N, n_centers); rows are in
    lexicographic branch-id order, base G in the slice index of
    :func:`thermoformal.maps.branch_preimages` at each level, with the first
    inversion (of the centers themselves) as the most significant digit.
    ``preimages``, when given, are the (G, n_centers) level-1 preimages of
    the centers, used instead of inverting them.
    """
    pts = centers[None, :]
    contr = np.ones_like(pts)
    g = m.degree
    for level in range(N):
        n_words, n_c = pts.shape
        pre = branch_preimages(m, pts.ravel()) if level or preimages is None else preimages
        pre = pre.reshape(g, n_words, n_c)
        pts = pre.swapaxes(0, 1).reshape(n_words * g, n_c)    # parent-major
        contr = np.repeat(contr, g, axis=0) * branch_lipschitz(m, pts, cell_width)
    return contr, pts


def _check_condition(m, N, gamma, resolution, variant, rho=None, preimages=None):
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if resolution < 16:
        raise ValueError("resolution must be >= 16")
    if N < 1:
        raise ValueError("N must be >= 1")
    if variant == "Cprime" and m.derivative is None:
        raise ValueError(f"condition (C') needs derivative data; map {m.name} has none")
    if preimages is not None and np.shape(preimages) != (m.degree, resolution):
        raise ValueError(f"preimages must have shape (degree, resolution) = "
                         f"({m.degree}, {resolution})")

    w = 1.0 / resolution
    centers = (np.arange(resolution) + 0.5) * w

    if rho is None and m.derivative is not None:
        rho = _grid_log_deriv_modulus(m)
    if rho is not None:
        mode = MODE_CERTIFIED
        try:
            inflation = math.exp(N * rho * w)
        except OverflowError:           # so large that no cell can pass
            inflation = math.inf
    else:
        mode = MODE_CENTER_ONLY
        inflation = 1.0

    contr, pts = _depth_n_contractions(m, centers, N, w, preimages)
    idx = np.argmin(contr, axis=0)
    cols = np.arange(resolution)
    raw = contr[idx, cols]
    bound = raw * inflation
    witness_y = wrap01(pts[idx, cols])
    failures = np.flatnonzero(bound >= gamma)
    return ConditionCReport(
        map_name=m.name,
        variant=variant,
        N=N,
        gamma=gamma,
        resolution=resolution,
        mode=mode,
        rho=float(rho) if rho is not None else float("nan"),
        witness_branch=idx.astype(np.int64),
        witness_preimage=witness_y,
        bound=bound,
        raw_bound=raw,
        passed=bool(failures.size == 0),
        failures=failures,
    )


def check_condition_C(m: MapSpec, N, gamma, resolution, rho=None, preimages=None):
    """Grid certificate for condition (C) at iterate N and target gamma.

    Each of ``resolution`` equal cells is witnessed at its center by the
    minimum depth-N branch contraction, inflated by exp(N * rho * cellwidth)
    to cover the whole cell.  Falls back to a flagged center-value mode when
    no modulus is available (Hölder-only map, no user rho).

    ``preimages`` lets a caller that has already inverted the centers (the
    collocation geometry at n = ``resolution`` holds them, reduced to
    [0, 1)) hand them in: they are the first level of every depth, so the
    certificate then inverts only from level 2 on.
    """
    return _check_condition(m, N, gamma, resolution, "C", rho, preimages)


def check_condition_Cprime(m: MapSpec, N, gamma, resolution, rho=None):
    """Condition (C') variant: contraction factor 1/|(f^N)'(y)|."""
    return _check_condition(m, N, gamma, resolution, "Cprime", rho)


# ---------------------------------------------------------------------------
# Pointwise-to-uniform upgrade
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniformExpansion:
    kappa: int
    N_tilde: int
    rate: float
    gamma: float
    N: int
    L: float


def pointwise_to_uniform(regions: Sequence, L: float):
    """Upgrade per-region contraction data to a single iterate and rate.

    ``regions`` holds (label, n_j, gamma_j) triples; with gamma = max gamma_j
    and N = max n_j, returns the smallest integer kappa with
    gamma^kappa * L^N < 1, the iterate N_tilde = kappa * N, and the certified
    rate gamma^kappa * L^N.
    """
    if L < 1.0:
        raise ValueError("L must be >= 1")
    gammas = [float(r[2]) for r in regions]
    ns = [int(r[1]) for r in regions]
    if not gammas:
        raise ValueError("need at least one region")
    if any(g >= 1.0 for g in gammas):
        raise ValueError("all region rates must be < 1")
    gamma = max(gammas)
    N = max(ns)
    ln_target = -N * math.log(L)
    kappa = max(1, math.ceil(ln_target / math.log(gamma) + 1e-15))
    while gamma ** kappa * L ** N >= 1.0:
        kappa += 1
    while kappa > 1 and gamma ** (kappa - 1) * L ** N < 1.0:
        kappa -= 1
    return UniformExpansion(
        kappa=kappa,
        N_tilde=kappa * N,
        rate=gamma ** kappa * L ** N,
        gamma=gamma,
        N=N,
        L=float(L),
    )


# ---------------------------------------------------------------------------
# Covering-budget arithmetic
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoveringBudget:
    gamma: float
    L: float
    N: int
    G: int
    dim_m: int
    C: float
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


def ball_count(C, L, N, dim_m, k):
    """D_k = ceil(C * L^(k*N*dim)): cover cardinality at the depth-k scale.

    Exact Fraction arithmetic; the scale constant delta^(-dim) is absorbed
    into C (the raw per-level formula in the source is dimensionally off and
    is not used).
    """
    val = Fraction(C) * Fraction(L) ** (k * N * dim_m)
    return -((-val.numerator) // val.denominator)  # ceil for positive Fraction


def _log_bk_lower(ell_k, base, k):
    """Lower bound on log B_k via the endpoint terms (O(1) prescreen)."""
    if base <= 0:
        return float("-inf")

    def log_term(j):
        return (math.lgamma(ell_k + 1) - math.lgamma(j + 1)
                - math.lgamma(ell_k - j + 1) + (ell_k - j) * math.log(base))

    return max(log_term(0), log_term(k - 1))


def covering_budget(gamma, L, N, G, dim_m=1, C=None, diam_m=0.5,
                    ell_cap=10_000, k_cap=100_000):
    """Feasibility arithmetic for the covering construction.

    Finds the smallest ell satisfying both scan estimates, then the smallest
    k with D_k * B_k < G^(ell*k*N), all in exact integer arithmetic (a float
    log prescreen only skips hopeless k).  Hitting a cap yields an
    infeasible verdict, not an exception.  m0 is ell*k0*N for the smallest
    k0 >= k that also keeps the composite tail rate gamma_tilde^k0 * L^(ell*N)
    below 1, which is the iterate from which every larger m works.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if L < 1.0 or N < 1 or G < 2 or dim_m < 1:
        raise ValueError("need L >= 1, N >= 1, G >= 2, dim_m >= 1")
    if C is None:
        C = (math.sqrt(2.0) * diam_m) ** dim_m
    if C <= 0:
        raise ValueError("C must be positive")

    ell = None
    for cand in range(1, ell_cap + 1):
        if estimate_31(gamma, L, N, cand) and estimate_32(L, N, G, dim_m, cand):
            ell = cand
            break
    if ell is None:
        last = ell_cap
        violated = []
        if not estimate_31(gamma, L, N, last):
            violated.append("estimate_3_1")
        if not estimate_32(L, N, G, dim_m, last):
            violated.append("estimate_3_2")
        return CoveringBudget(gamma, L, N, G, dim_m, C, None, None, None, None,
                              None, None, False, "+".join(violated) or "ell_cap",
                              None, None, None)

    gamma_tilde = gamma * L ** (N * (ell - 1))
    base = G ** N - 1
    log_G_N = N * math.log(G)
    log_C = math.log(C)
    log_L = math.log(L)

    found_k = None
    for k in range(1, k_cap + 1):
        ell_k = ell * k
        log_q_lower = (log_C + k * N * dim_m * log_L
                       + _log_bk_lower(ell_k, base, k))
        log_threshold = ell_k * log_G_N
        if log_q_lower > log_threshold + 1.0:
            continue
        D_k = ball_count(C, L, N, dim_m, k)
        B_k = bad_branch_count(ell_k, base, k)
        if D_k * B_k < G ** (ell_k * N):
            found_k = k
            break
    if found_k is None:
        return CoveringBudget(gamma, L, N, G, dim_m, C, ell, None, None, None,
                              None, None, False, "k_cap",
                              gamma_tilde, None, None)

    k = found_k
    D_k = ball_count(C, L, N, dim_m, k)
    B_k = bad_branch_count(ell * k, base, k)
    k0 = k
    while gamma_tilde ** k0 * L ** (ell * N) >= 1.0:
        k0 += 1
    return CoveringBudget(
        gamma=gamma, L=L, N=N, G=G, dim_m=dim_m, C=C,
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
    construction; diam_m the manifold diameter.
    """
    deg_m: int
    q_m: int
    gamma_m: float
    L_m: float
    diam_m: float = 0.5


@dataclass(frozen=True)
class PotentialAdmissibility:
    name: str
    alpha: float
    eps: float
    sup_phi: float
    inf_phi: float
    seminorm_exp_phi: Optional[float]
    variation_ok: bool
    seminorm_ok: Optional[bool]
    admissible: Optional[bool]
    partial: bool
    iterate_lhs: Optional[float] = None
    iterate_ok: Optional[bool] = None

    def recompute(self):
        """Verdicts re-derived from the stored numbers (determinism check)."""
        var_ok = self.sup_phi - self.inf_phi < self.eps
        if self.seminorm_exp_phi is None:
            return var_ok, None, None
        s_ok = self.seminorm_exp_phi < self.eps * math.exp(self.inf_phi)
        return var_ok, s_ok, var_ok and s_ok


def potential_stats(phi: PotentialSpec):
    """(sup, inf, Hölder seminorm of e^phi) from sampling on STATS_GRID_N cells.

    Cell inflation: sup/inf widened by the local slope over half a cell;
    the seminorm gets the within-cell bound rho_e * w^(1-alpha) added, where
    rho_e is the largest adjacent difference quotient of e^phi.
    """
    w = 1.0 / STATS_GRID_N
    xs = (np.arange(STATS_GRID_N) + 0.5) * w
    vals = phi.fn(xs)
    slopes = np.abs(np.diff(np.concatenate([vals, vals[:1]]))) / w
    rho_phi = float(np.max(slopes))
    sup = float(np.max(vals)) + 0.5 * rho_phi * w
    inf = float(np.min(vals)) - 0.5 * rho_phi * w

    e = np.exp(vals)
    d = np.abs(xs[None, :] - xs[:, None])
    d = np.minimum(d, 1.0 - d)
    np.fill_diagonal(d, 1.0)
    quot = np.abs(e[None, :] - e[:, None]) / d ** phi.alpha
    rho_e = float(np.max(np.abs(np.diff(np.concatenate([e, e[:1]]))))) / w
    seminorm = float(np.max(quot)) + rho_e * w ** (1.0 - phi.alpha)
    return sup, inf, seminorm


def potential_admissible(phi, eps, m_data: Optional[IterateData] = None):
    """Admissibility verdicts for a potential at bound eps.

    ``phi`` is a PotentialSpec (sampled) or a (sup, inf, seminorm|None,
    alpha) tuple of precomputed stats.  Checks sup-inf < eps and
    |e^phi|_alpha < eps*e^(inf phi); with iterate data also evaluates the
    covering inequality verbatim and reports its left-hand side.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if isinstance(phi, PotentialSpec):
        sup, inf, seminorm = potential_stats(phi)
        name, alpha = phi.name, phi.alpha
    else:
        sup, inf, seminorm, alpha = phi
        name = "stats"
    variation_ok = sup - inf < eps
    if seminorm is None:
        seminorm_ok = None
        admissible = None
        partial = True
    else:
        seminorm_ok = seminorm < eps * math.exp(inf)
        admissible = variation_ok and seminorm_ok
        partial = False

    iterate_lhs = None
    iterate_ok = None
    if m_data is not None:
        d = m_data
        main = ((d.deg_m - d.q_m) * d.gamma_m ** alpha
                + d.q_m * d.L_m ** alpha * (1.0 + (d.L_m - 1.0) ** alpha)) / d.deg_m
        iterate_lhs = ((1.0 + eps) * math.exp(eps) * main
                       + 2.0 * eps * d.L_m ** alpha * d.diam_m ** alpha)
        iterate_ok = iterate_lhs < 1.0

    return PotentialAdmissibility(
        name=name, alpha=alpha, eps=eps,
        sup_phi=sup, inf_phi=inf, seminorm_exp_phi=seminorm,
        variation_ok=variation_ok, seminorm_ok=seminorm_ok,
        admissible=admissible, partial=partial,
        iterate_lhs=iterate_lhs, iterate_ok=iterate_ok,
    )
