"""Finite discretizations of the weighted transfer operator.

Both schemes share the uniform cell-center grid x_i = (i + 1/2)/n and
discretize the weighted counting operator

    (L v)(x) = sum_{f(y)=x} e^{phi(y)} v(y),

so at phi = 0 the matrix maps the constant vector to degree * constant.

* collocation: rows sample L at grid points, preimage values interpolated
  by periodic piecewise-linear hats (keeps the matrix nonnegative).
* ulam: cell-indicator Galerkin.  Entries come from exact branch preimage
  intervals of the cell partition: the image-side length of each piece is
  its operator weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import ConvergenceError, ReducibleMatrixError
from .maps import MapSpec, branch_preimages, map_eval, wrap01, _invert_lift
from .observables import PotentialSpec

MAX_DENSE_N = 4096

#: Power iteration stops when lambda's relative change is at most POWER_TOL
#: and both eigenvector residuals are below RESIDUAL_TOL * lambda.
POWER_TOL = 1e-12
RESIDUAL_TOL = 1e-9
#: The deflated gap estimate runs GAP_ITERS fixed-seed steps and averages the
#: log norm ratios of the last GAP_WINDOW.
GAP_ITERS = 400
GAP_WINDOW = 50
GAP_SEED = 0x5EED
#: primitivity_power tries the powers 1, 2, 4, ... up to MAX_PRIMITIVITY_POWER.
MAX_PRIMITIVITY_POWER = 8


@dataclass(frozen=True)
class TransferMatrix:
    scheme: str
    n: int
    A: np.ndarray
    grid: np.ndarray
    map: MapSpec
    potential: PotentialSpec
    # Always None: no scheme builds a second matrix.  Kept only because the
    # benchmark's layer tracer reads ``tm.transport``.
    transport: Optional[np.ndarray] = None

    @cached_property
    def csr(self):
        """CSR copy of ``A``, made once and shared by every solve and diagnostic."""
        return _csr(self.A)

    @property
    def map_name(self):
        return self.map.name

    @property
    def potential_name(self):
        return self.potential.name


@dataclass(frozen=True)
class SpectralTriple:
    matrix: TransferMatrix
    lam: float
    h: np.ndarray
    nu: np.ndarray
    iterations: int

    @property
    def grid(self):
        return self.matrix.grid

    @property
    def pressure(self):
        return math.log(self.lam)


@dataclass(frozen=True)
class EquilibriumState:
    triple: SpectralTriple
    mu: np.ndarray

    @property
    def grid(self):
        return self.triple.grid

    @property
    def density(self):
        """Density of mu with respect to Lebesgue at grid resolution."""
        return self.mu * self.mu.size


@dataclass(frozen=True)
class MapGeometry:
    """The map-only part of an n x n discretization, shared by every potential.

    ``points`` is where a potential phi is evaluated; it broadcasts against
    ``coef``.  Entry k of ``scale * exp(phi(points)) * coef``, flattened, is
    added to ``A[rows[k], cols[k]]`` in entry order; ``scale`` is n for Ulam
    and 1 for collocation.
    """
    scheme: str
    n: int
    map: MapSpec
    rows: np.ndarray
    cols: np.ndarray
    points: np.ndarray
    coef: np.ndarray
    scale: int

    def weights(self, values):
        """Entry weights for potential values at ``points``; leading axes of
        ``values`` beyond the shape of ``points`` index potentials, so the
        result has shape ``(..., nnz)``."""
        w = self.scale * np.exp(values) * self.coef
        return w.reshape(w.shape[:w.ndim - self.coef.ndim] + (-1,))

    def matrix(self, weights, potential: PotentialSpec) -> TransferMatrix:
        """The dense matrix of one potential's entry weights."""
        A = np.zeros((self.n, self.n))
        np.add.at(A, (self.rows, self.cols), weights)
        grid = (np.arange(self.n) + 0.5) / self.n
        return TransferMatrix(scheme=self.scheme, n=self.n, A=A, grid=grid,
                              map=self.map, potential=potential)

    @cached_property
    def row_table(self):
        return _gather_table(self.rows, self.n)

    @cached_property
    def col_table(self):
        return _gather_table(self.cols, self.n)


def map_geometry(m: MapSpec, scheme: str, n: int) -> MapGeometry:
    """The entries of the n x n discretization of L_f in the given scheme."""
    if n < 16:
        raise ValueError("n must be >= 16")
    if n > MAX_DENSE_N:
        raise ValueError(f"dense schemes are capped at n={MAX_DENSE_N}")
    if scheme == "collocation":
        (rows, cols, points, coef), scale = _collocation_entries(m, n), 1
    elif scheme == "ulam":
        (rows, cols, points, coef), scale = _ulam_entries(m, n), n
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return MapGeometry(scheme=scheme, n=n, map=m,
                       rows=np.broadcast_to(rows, coef.shape).ravel(), cols=cols.ravel(),
                       points=points, coef=coef, scale=scale)


def build_matrix(m: MapSpec, phi: PotentialSpec, scheme: str, n: int) -> TransferMatrix:
    """Assemble the n x n discretization of L_{f,phi} in the given scheme.

    Each scheme lists its map-only entries (:func:`map_geometry`); entry k
    adds ``scale * exp(phi(points[k])) * coef[k]`` to ``A[rows[k], cols[k]]``
    in order, where ``scale`` is n for Ulam and 1 for collocation.
    """
    g = map_geometry(m, scheme, n)
    return g.matrix(g.weights(phi.fn(g.points)), phi)


def _collocation_entries(m: MapSpec, n: int):
    """Row i samples L at the centre x_i: each preimage y of x_i enters the
    two hats around it, with weights 1 - w and w.  Entries are ordered by
    branch, then lower/upper hat, then row; points has shape (G, 1, n)."""
    centers = (np.arange(n) + 0.5) / n
    y = wrap01(branch_preimages(m, centers))[:, None, :]
    p = y * n - 0.5
    j0 = np.floor(p).astype(np.int64)
    w_hi = p - j0
    cols = np.mod(np.concatenate([j0, j0 + 1], axis=1), n)
    coef = np.concatenate([1.0 - w_hi, w_hi], axis=1)
    return np.arange(n), cols, y, coef


def _ulam_entries(m: MapSpec, n: int):
    """Cut [0, 1] at the slice boundaries s_b (lift(s_b) = c + b, c = lift(0)),
    at the preimages of the lattice values k/n and at the source-cell edges
    j/n.  Each piece lies in one source cell j and maps into one image cell
    i; its image length is its entry at (i, j), its midpoint its point."""
    c = float(np.asarray(m.lift(0.0)).ravel()[0])
    bounds = c + np.arange(m.degree + 1)
    # One inversion for the slice boundaries and the lattice values; lattice
    # values and cell edges on a slice boundary would add only empty pieces.
    lattice = np.arange(math.floor(c * n) + 1, math.ceil(bounds[-1] * n)) / n
    lattice = lattice[~np.isin(lattice, bounds)]
    inv = _invert_lift(m, np.concatenate([bounds, lattice]))
    s = inv[:bounds.size]
    s[0], s[-1] = 0.0, 1.0          # endpoints exact
    edges = np.arange(1, n) / n
    edges = edges[~np.isin(edges, s)]
    dom = np.concatenate([s, inv[bounds.size:], edges])
    img = np.concatenate([bounds, lattice, m.lift(edges)])
    order = np.argsort(dom, kind="stable")
    dom, img = dom[order], img[order]
    mid_dom = 0.5 * (dom[:-1] + dom[1:])
    mid_img = 0.5 * (img[:-1] + img[1:])
    rows = np.mod(np.floor(np.mod(mid_img, 1.0) * n).astype(np.int64), n)
    cols = np.mod(np.floor(mid_dom * n).astype(np.int64), n)
    return rows, cols, wrap01(mid_dom), np.maximum(img[1:] - img[:-1], 0.0)


def _csr(A: np.ndarray):
    """CSR copy of a dense matrix (its nonzero entries, in row order)."""
    n_cols = A.shape[1]
    flat = np.flatnonzero(A != 0)
    indptr = np.searchsorted(flat, np.arange(A.shape[0] + 1) * n_cols)
    return sp.csr_array((A.ravel()[flat], flat % n_cols, indptr), shape=A.shape)


def primitivity_power(A):
    """Smallest k in {1,2,4,8} with (pattern of A)^k > 0, else None.

    Exact on the sparse pattern P of A > 0.  P^k > 0 needs every row and
    every column of P^k full, hence at least n length-k paths out of each
    cell and into each cell; those path counts (capped at n) cost k sparse
    matvecs, and only when they all reach n is P^k formed, by boolean
    sparse squaring, and tested for n^2 nonzeros.
    """
    P = sp.csr_array(A > 0)
    PT = P.T.tocsr()
    n = P.shape[0]
    out_paths = in_paths = np.ones(n, dtype=np.int64)
    Pk, k_formed, k = P, 1, 1
    while k <= MAX_PRIMITIVITY_POWER:
        for _ in range(k - k // 2):          # path length k // 2 -> k
            out_paths = np.minimum(P @ out_paths, n)
            in_paths = np.minimum(PT @ in_paths, n)
        if min(out_paths.min(), in_paths.min()) >= n:
            while k_formed < k:
                Pk = Pk @ Pk
                k_formed *= 2
            if Pk.nnz == n * n:
                return k
        k *= 2
    return None


def _gather_table(lines, n):
    """(width, n) entry indices of each line (row or column) of ``n`` lines,
    in entry order, padded with the index ``lines.size``."""
    order = np.argsort(lines, kind="stable")
    counts = np.bincount(lines, minlength=n)
    slot = np.arange(lines.size) - np.repeat(np.cumsum(counts) - counts, counts)
    table = np.full((counts.max(), n), lines.size)
    table[slot, lines[order]] = order
    return table


# The rule that ends the two-sided power iteration, shared by leading_triple
# and leading_triples.  Each function takes one matrix's values or, column
# by column, arrays of them (the grid on the last axis).

def _has_zero_line(row_sums, col_sums):
    """A zero row or column leaves the leading eigendata ill-defined."""
    return np.any(row_sums == 0.0, axis=-1) | np.any(col_sums == 0.0, axis=-1)


def _residual(Av, lam, v):
    return np.max(np.abs(Av - lam * v), axis=-1) / np.max(np.abs(v), axis=-1)


def _settled(lam, lam_prev):
    """lambda's relative change is at most POWER_TOL; the residuals are
    computed, and :func:`_resolved` asked, only then."""
    return abs(lam - lam_prev) <= POWER_TOL * abs(lam)


def _resolved(lam, res_h, res_nu):
    """Both eigenvector residuals are below RESIDUAL_TOL * lambda."""
    tol = RESIDUAL_TOL * abs(lam)
    return (res_h < tol) & (res_nu < tol)


def _not_positive(mass, x_min):
    return (mass <= 0) | (x_min <= 0)


def _zero_line_error(map_name, potential_name):
    return ReducibleMatrixError(
        f"matrix for {map_name}/{potential_name} has a zero row or column")


def _no_convergence_error(max_iter, lam, x, y):
    return ConvergenceError(
        f"power iteration did not converge in {max_iter} iterations "
        f"(lambda ~ {lam})", last_iterate=(lam, x, y))


def _not_positive_error():
    return ReducibleMatrixError(
        "leading right vector is not strictly positive; "
        "discretization is not primitive enough for a spectral triple")


def leading_triple(tm: TransferMatrix, max_iter=20000) -> SpectralTriple:
    """Leading eigendata by two-sided power iteration.

    Right vector h and left vector nu are iterated together; lambda is the
    two-sided Rayleigh quotient, declared converged when its relative change
    drops below ``POWER_TOL`` and both residuals below ``RESIDUAL_TOL``.
    Every step runs on ``tm.csr`` and its transpose; ``tm.A`` itself stays
    dense.  The gap and the primitivity power are not computed here: their
    readers call :func:`gap_ratio` and :func:`primitivity_power`.
    """
    A = tm.csr
    AT = A.T.tocsr()
    n = A.shape[0]
    if _has_zero_line(A.sum(axis=1), A.sum(axis=0)):
        raise _zero_line_error(tm.map_name, tm.potential_name)

    x = np.full(n, 1.0 / n)
    y = np.full(n, 1.0 / n)
    lam_prev = math.nan
    lam = None
    its = 0
    for its in range(1, max_iter + 1):
        Ax = A @ x
        ATy = AT @ y
        lam = float(y @ Ax) / float(y @ x)
        x = Ax / np.sum(np.abs(Ax))
        y = ATy / np.sum(np.abs(ATy))
        if _settled(lam, lam_prev) and _resolved(
                lam, _residual(A @ x, lam, x), _residual(AT @ y, lam, y)):
            break
        lam_prev = lam
    else:
        raise _no_convergence_error(max_iter, lam, x, y)

    nu = y / np.sum(y)
    mass = float(x @ nu)
    if _not_positive(mass, np.min(x)):
        raise _not_positive_error()
    return SpectralTriple(matrix=tm, lam=lam, h=x / mass, nu=nu, iterations=its)


def _gather_sum(weights, index, v):
    """sum_r weights[r] * v[:, index[r]], added in the order of r."""
    out = weights[0] * np.take(v, index[0], axis=1)
    for w, i in zip(weights[1:], index[1:]):
        out += w * np.take(v, i, axis=1)
    return out


def leading_triples(g: MapGeometry, W, names, max_iter=20000):
    """:func:`leading_triple` for the K matrices ``g.matrix(W[k])`` at once.

    ``W`` is a (K, nnz) array of entry weights (:meth:`MapGeometry.weights`)
    and ``names[k]`` names column k's potential in its error message.  The
    products run on fixed-width gather tables of the unmerged entries, per
    row for ``A x`` and per column for ``A^T y``, so no matrix is formed.
    Each column stops under leading_triple's rule and is then retired from
    the batch; every operation acts on one column alone, so a column's
    result does not depend on the batch it is solved in.

    Returns ``(lam, h, nu, iterations, errors)``: arrays over the columns,
    and per column None or the error leading_triple would raise for it
    (its ``lam``, ``h`` and ``nu`` are then meaningless).
    """
    K, n = W.shape[0], g.n
    Wp = np.concatenate([W, np.zeros((K, 1))], axis=1)      # weight 0 for padding
    rt, ct = g.row_table, g.col_table
    WR = np.ascontiguousarray(np.moveaxis(Wp[:, rt], 1, 0))  # (width, K, n)
    WC = np.ascontiguousarray(np.moveaxis(Wp[:, ct], 1, 0))
    CR = np.append(g.cols, 0)[rt]
    RC = np.append(g.rows, 0)[ct]

    lam_out = np.full(K, math.nan)
    X_out = np.full((K, n), math.nan)
    Y_out = np.full((K, n), math.nan)
    its_out = np.zeros(K, dtype=np.int64)
    errors = [None] * K
    for k in np.flatnonzero(_has_zero_line(WR.sum(axis=0), WC.sum(axis=0))):
        errors[k] = _zero_line_error(g.map.name, names[k])

    active = np.flatnonzero([e is None for e in errors])
    WR, WC = WR[:, active], WC[:, active]
    X = np.full((active.size, n), 1.0 / n)
    Y = np.full((active.size, n), 1.0 / n)
    AX, ATY = _gather_sum(WR, CR, X), _gather_sum(WC, RC, Y)
    lam_prev = np.full(active.size, math.nan)
    for its in range(1, max_iter + 1):
        if active.size == 0:
            break
        lam = np.sum(Y * AX, axis=1) / np.sum(Y * X, axis=1)
        X = AX / np.sum(np.abs(AX), axis=1, keepdims=True)
        Y = ATY / np.sum(np.abs(ATY), axis=1, keepdims=True)
        AX, ATY = _gather_sum(WR, CR, X), _gather_sum(WC, RC, Y)
        s = _settled(lam, lam_prev)
        if s.any():
            done = s.copy()
            done[s] = _resolved(lam[s], _residual(AX[s], lam[s, None], X[s]),
                                _residual(ATY[s], lam[s, None], Y[s]))
            if done.any():
                k, keep = active[done], ~done
                lam_out[k], X_out[k], Y_out[k], its_out[k] = lam[done], X[done], Y[done], its
                active, lam, X, Y = active[keep], lam[keep], X[keep], Y[keep]
                AX, ATY, WR, WC = AX[keep], ATY[keep], WR[:, keep], WC[:, keep]
        lam_prev = lam
    for j, k in enumerate(active):
        errors[k] = _no_convergence_error(max_iter, float(lam[j]), X[j], Y[j])

    NU = Y_out / np.sum(Y_out, axis=1, keepdims=True)
    mass = np.sum(X_out * NU, axis=1)
    for k in np.flatnonzero(_not_positive(mass, np.min(X_out, axis=1))):
        if errors[k] is None:
            errors[k] = _not_positive_error()
    return lam_out, X_out / mass[:, None], NU, its_out, errors


def gap_ratio(t: SpectralTriple) -> float:
    """|lambda_2| / lambda, |lambda_2| by fixed-seed power iteration on
    A - lambda h (x) nu, read off as a windowed geometric mean of norm ratios
    (robust to complex pairs)."""
    A, lam, h, nu = t.matrix.csr, t.lam, t.h, t.nu
    rng = np.random.default_rng(GAP_SEED)
    v = rng.standard_normal(A.shape[0])
    v -= h * float(nu @ v)
    nrm = np.linalg.norm(v)
    if nrm == 0:
        return 0.0
    v /= nrm
    ratios = []
    for _ in range(GAP_ITERS):
        w = A @ v - lam * h * float(nu @ v)
        nrm = np.linalg.norm(w)
        if nrm < 1e-300:
            return 0.0
        ratios.append(nrm)
        v = w / nrm
    tail = ratios[-GAP_WINDOW:]
    return float(np.exp(np.mean(np.log(tail)))) / lam


def equilibrium_measure(t: SpectralTriple) -> EquilibriumState:
    """mu_i = h_i nu_i, checked to be within 1e-10 of unit mass already."""
    raw = t.h * t.nu
    total = float(raw.sum())
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"h,nu normalization defect {total - 1.0:.3e} exceeds 1e-10")
    return EquilibriumState(triple=t, mu=raw / total)


def invariance_defect(m: MapSpec, state: EquilibriumState,
                      testfns: Sequence[Callable]) -> float:
    """max over test functions g of |int g(f x) dmu - int g dmu|."""
    x = state.grid
    fx = map_eval(m, x)
    worst = 0.0
    for g in testfns:
        defect = abs(float(g(fx) @ state.mu) - float(g(x) @ state.mu))
        worst = max(worst, defect)
    return worst


def fourier_testfns(modes=5):
    """cos/sin test functions for the first ``modes`` frequencies."""
    fns = []
    for k in range(1, modes + 1):
        fns.append(lambda x, k=k: np.cos(2 * np.pi * k * np.asarray(x)))
        fns.append(lambda x, k=k: np.sin(2 * np.pi * k * np.asarray(x)))
    return fns
