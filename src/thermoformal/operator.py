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

from .errors import ConvergenceError, NonFiniteWeightsError, ReducibleMatrixError
from .maps import (MapSpec, branch_preimages, cell_centers, lift_each, map_eval, wrap01,
                   _invert_lift)
from .observables import PotentialSpec, fourier_cos, fourier_sin

#: Largest n accepted.  Solves and diagnostics read only the entries, but
#: ``TransferMatrix.A`` is still formed as a dense 8 n^2-byte array when it is
#: read (tests, and the benchmark's traced runs, which count its bytes).
MAX_DENSE_N = 4096

#: Power iteration stops when lambda's relative change is at most POWER_TOL
#: and both eigenvector residuals are below RESIDUAL_TOL * lambda.
POWER_TOL = 1e-12
RESIDUAL_TOL = 1e-9
#: A column still running after MAX_ITER steps fails with ConvergenceError.
MAX_ITER = 20000
#: The gap estimate runs GAP_KRYLOV Arnoldi steps on the deflated operator.
GAP_KRYLOV = 40


@dataclass(frozen=True)
class SpectralTriple:
    """One matrix's leading eigendata (lambda, h, nu) and equilibrium state ``mu``."""
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

    @cached_property
    def mu(self):
        """mu_i = h_i nu_i, checked to be within 1e-10 of unit mass already."""
        raw = self.h * self.nu
        total = float(raw.sum())
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"h,nu normalization defect {total - 1.0:.3e} exceeds 1e-10")
        return raw / total

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
    and 1 for collocation.  ``map`` is None for a matrix given by its
    entries (:func:`from_dense`).
    """
    scheme: str
    n: int
    map: Optional[MapSpec]
    rows: np.ndarray
    cols: np.ndarray
    points: Optional[np.ndarray] = None
    coef: Optional[np.ndarray] = None
    scale: int = 1

    @property
    def map_name(self):
        return self.map.name if self.map is not None else "matrix"

    def weights(self, values):
        """Entry weights for potential values at ``points``; leading axes of
        ``values`` beyond the shape of ``points`` index potentials, so the
        result has shape ``(..., nnz)``.  A value past about 709 overflows
        exp to an infinite weight without a warning; :func:`leading_triples`
        reports that potential's column."""
        with np.errstate(over="ignore", invalid="ignore"):
            w = self.scale * np.exp(values) * self.coef
        return w.reshape(w.shape[:w.ndim - self.coef.ndim] + (-1,))

    def gathered(self, W, table):
        """The (K, nnz) weights ``W`` laid out on a (width, n) gather table
        as a (width, K, n) array, weight 0 in the padding.  Each slot is
        taken straight into its place, so the table is the only copy."""
        out = np.empty((table.shape[0], W.shape[0], self.n))
        for t, slot in zip(table, out):
            # "clip" reads the padding index nnz as nnz - 1; those are zeroed.
            np.take(W, t, axis=1, out=slot, mode="clip")
            np.copyto(slot, 0.0, where=t == W.shape[1])
        return out

    @cached_property
    def row_table(self):
        return _gather_table(self.rows, self.n)

    @cached_property
    def col_table(self):
        return _gather_table(self.cols, self.n)

    @cached_property
    def row_cols(self):
        """The column of each row-table slot (0 in the padding)."""
        return np.append(self.cols, 0)[self.row_table]

    @cached_property
    def col_rows(self):
        """The row of each column-table slot (0 in the padding)."""
        return np.append(self.rows, 0)[self.col_table]


@dataclass(frozen=True)
class TransferMatrix:
    """One potential's n x n discretization: the shared map geometry and
    its entry weights; entry k adds ``weights[k]`` to
    ``A[geometry.rows[k], geometry.cols[k]]``.  No n x n array is stored:
    ``tm @ v`` gathers from the entries, and the dense ``A`` is formed only
    when read."""
    geometry: MapGeometry
    weights: np.ndarray
    potential: Optional[PotentialSpec] = None
    # Always None: no scheme builds a second matrix.  Kept only because the
    # benchmark's layer tracer reads ``tm.transport``.
    transport: Optional[np.ndarray] = None

    @cached_property
    def A(self):
        """The dense matrix, summed entry by entry in entry order."""
        A = np.zeros((self.n, self.n))
        np.add.at(A, (self.geometry.rows, self.geometry.cols), self.weights)
        return A

    @cached_property
    def _row_weights(self):
        return self.geometry.gathered(self.weights[None], self.geometry.row_table)

    def __matmul__(self, v):
        """``A @ v`` for a vector ``v``."""
        return _gather_sum(self._row_weights, self.geometry.row_cols, v[None])[0]

    @property
    def n(self):
        return self.geometry.n

    @cached_property
    def grid(self):
        return cell_centers(self.n)

    @property
    def potential_name(self):
        return self.potential.name if self.potential is not None else "none"


def map_geometry(m: MapSpec, scheme: str, n: int) -> MapGeometry:
    """The entries of the n x n discretization of L_f in the given scheme:
    :func:`member_geometries` of a one-member map."""
    if m.members != 1:
        raise ValueError(f"{m.name} has {m.members} members: see member_geometries")
    [g] = member_geometries(m, scheme, n)
    return g


def member_geometries(m: MapSpec, scheme: str, n: int):
    """One :class:`MapGeometry` per member of ``m``, each equal to the
    member's own :func:`map_geometry`.  Every member's targets are
    inverted in one call, and collocation members share one ``rows``
    array."""
    if n < 16:
        raise ValueError("n must be >= 16")
    if n > MAX_DENSE_N:
        raise ValueError(f"n is capped at {MAX_DENSE_N}: the dense A, formed when "
                         f"read, takes 8 n^2 bytes")
    if scheme == "collocation":
        entries, scale = _collocation_entries(m, n), 1
    elif scheme == "ulam":
        entries, scale = _ulam_entries(m, n), n
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return [MapGeometry(scheme=scheme, n=n, map=m, rows=rows, cols=cols.ravel(),
                        points=points, coef=coef, scale=scale)
            for rows, cols, points, coef in entries]


def build_matrix(m: MapSpec, phi: PotentialSpec, scheme: str, n: int) -> TransferMatrix:
    """Assemble the n x n discretization of L_{f,phi} in the given scheme.

    Each scheme lists its map-only entries (:func:`map_geometry`); entry k
    adds ``scale * exp(phi(points[k])) * coef[k]`` to ``A[rows[k], cols[k]]``
    in order, where ``scale`` is n for Ulam and 1 for collocation.
    """
    g = map_geometry(m, scheme, n)
    return TransferMatrix(geometry=g, weights=g.weights(phi.fn(g.points)), potential=phi)


def _collocation_entries(m: MapSpec, n: int):
    """Row i samples L at the centre x_i: each preimage y of x_i enters the
    two hats around it, with weights 1 - w and w.  Entries are ordered by
    branch, then lower/upper hat, then row; points has shape (G, 1, n).
    Returns ``(rows, cols, points, coef)`` per member, with ``rows``, of
    ``coef``'s size, shared."""
    K = m.members
    y = branch_preimages(m, np.tile(cell_centers(n), K), np.repeat(np.arange(K), n))
    y = wrap01(np.moveaxis(y.reshape(m.degree, K, n), 0, 1))[:, :, None, :]
    p = y * n - 0.5
    j0 = np.floor(p).astype(np.int64)
    w_hi = p - j0
    cols = np.mod(np.concatenate([j0, j0 + 1], axis=2), n)
    coef = np.concatenate([1.0 - w_hi, w_hi], axis=2)
    rows = np.broadcast_to(np.arange(n), coef.shape[1:]).ravel()
    return [(rows, c, pts, cf) for c, pts, cf in zip(cols, y, coef)]


def _ulam_entries(m: MapSpec, n: int):
    """Cut [0, 1] at the slice boundaries s_b (lift(s_b) = c + b, c = lift(0)),
    at the preimages of the lattice values k/n and at the source-cell edges
    j/n.  Each piece lies in one source cell j and maps into one image cell
    i; its image length is its entry at (i, j), its midpoint its point.
    Returns ``(rows, cols, points, coef)`` per member."""
    cuts = []
    for c in lift_each(m):
        bounds = c + np.arange(m.degree + 1)
        # Lattice values and cell edges on a slice boundary would add only
        # empty pieces.
        lattice = np.arange(math.floor(c * n) + 1, math.ceil(bounds[-1] * n)) / n
        cuts.append((bounds, lattice[~np.isin(lattice, bounds)]))
    # One inversion for every member's slice boundaries and lattice values.
    sizes = [b.size + lat.size for b, lat in cuts]
    targets = np.concatenate([a for cut in cuts for a in cut])
    inv = _invert_lift(m, targets, np.repeat(np.arange(m.members), sizes))
    return [_ulam_pieces(m, k, bounds, lattice, part, n) for k, ((bounds, lattice), part)
            in enumerate(zip(cuts, np.split(inv, np.cumsum(sizes)[:-1])))]


def _ulam_pieces(m, k, bounds, lattice, inv, n):
    """One member's Ulam entries from the preimages ``inv`` of its slice
    boundaries and lattice values."""
    s = inv[:bounds.size]
    s[0], s[-1] = 0.0, 1.0          # endpoints exact
    edges = np.arange(1, n) / n
    edges = edges[~np.isin(edges, s)]
    dom = np.concatenate([s, inv[bounds.size:], edges])
    img = np.concatenate([bounds, lattice, m.lift(edges, k)])
    order = np.argsort(dom, kind="stable")
    dom, img = dom[order], img[order]
    mid_dom = 0.5 * (dom[:-1] + dom[1:])
    mid_img = 0.5 * (img[:-1] + img[1:])
    rows = np.mod(np.floor(np.mod(mid_img, 1.0) * n).astype(np.int64), n)
    cols = np.mod(np.floor(mid_dom * n).astype(np.int64), n)
    return rows, cols, wrap01(mid_dom), np.maximum(img[1:] - img[:-1], 0.0)


def from_dense(A, potential: Optional[PotentialSpec] = None) -> TransferMatrix:
    """The matrix of a square array's nonzero entries, in row order; its
    ``A`` is bit-equal to the array."""
    A = np.asarray(A, dtype=float)
    rows, cols = np.nonzero(A)
    g = MapGeometry(scheme="entries", n=A.shape[0], map=None, rows=rows, cols=cols)
    return TransferMatrix(geometry=g, weights=A[rows, cols], potential=potential)


@dataclass(frozen=True)
class DominantClass:
    """The strongly connected class of A's pattern that holds the cell where
    mu is largest: its size, its period (the gcd of its cycle lengths; 0
    for one cell without a loop) and the mu-mass outside it.  ``primitive``
    says the class is all n cells with period 1, which holds exactly when A
    is primitive (irreducible and aperiodic), wherever mu peaks."""
    size: int
    period: int
    mass_outside: float
    primitive: bool


def dominant_class(tm: TransferMatrix, mu) -> DominantClass:
    """The class of s = argmax mu in the graph with an edge i -> j for each
    positive entry A[i, j]; the weights are nonnegative, so an entry is
    positive when one of its unmerged parts is.

    The class is the set of cells reachable from s that also reach s: one
    breadth-first search along the positive slots of the row gather table
    and one along those of the column table.  Its period is the gcd of
    level(i) + 1 - level(j) over its edges i -> j, with the levels of the
    forward search: a shortest path from s to a class cell stays in the
    class, so these are the levels of a search within the class.
    """
    g = tm.geometry
    s = int(np.argmax(mu))
    level = _bfs_levels(tm._row_weights[:, 0], g.row_cols, s)
    col_weights = g.gathered(tm.weights[None], g.col_table)[:, 0]
    inside = (level >= 0) & (_bfs_levels(col_weights, g.col_rows, s) >= 0)
    edge = (tm.weights > 0) & inside[g.rows] & inside[g.cols]
    period = int(np.gcd.reduce(level[g.rows[edge]] + 1 - level[g.cols[edge]]))
    size = int(np.count_nonzero(inside))
    return DominantClass(size=size, period=period, mass_outside=float(mu[~inside].sum()),
                         primitive=size == tm.n and period == 1)


def _bfs_levels(weights, ends, s):
    """Breadth-first levels from ``s`` along the slots of positive weight of
    a (width, n) gather table whose slots lead to ``ends``, -1 where not
    reached.  Plain Python over adjacency lists: a search can take
    hundreds of levels, each far too small for an array step to pay.  A
    slot of weight 0 leads back to ``s``, which is already reached."""
    adj = np.where(weights > 0, ends, s).T.tolist()
    level = [-1] * len(adj)
    level[s], frontier, d = 0, [s], 0
    while frontier:
        d += 1
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if level[v] < 0:
                    level[v] = d
                    nxt.append(v)
        frontier = nxt
    return np.array(level)


def _gather_table(lines, n):
    """(width, n) entry indices of each line (row or column) of ``n`` lines,
    in entry order, padded with the index ``lines.size``."""
    order = np.argsort(lines, kind="stable")
    counts = np.bincount(lines, minlength=n)
    slot = np.arange(lines.size) - np.repeat(np.cumsum(counts) - counts, counts)
    table = np.full((counts.max(), n), lines.size)
    table[slot, lines[order]] = order
    return table


def _gather_sum(weights, index, v, out=None, tmp=None):
    """sum_r weights[r] * v[k, index[r]] for each column k, added in the
    order of r, written into the (K, n) buffer ``out`` with ``tmp`` as
    scratch (both made when not given) and returned.

    ``index`` is either one (width, n) table that every column reads, or
    (width, K, n) flat indices into ``v.ravel()``, one table per column.
    Every shape, one column included, runs one slot loop, so a column's
    sums do not depend on its batch.  Slots are taken in "clip" mode:
    every index is in range, and the default "raise" would buffer ``out``.
    """
    vals, axis = (v, 1) if index.ndim == 2 else (v.ravel(), None)
    if out is None:
        out, tmp = np.empty(weights.shape[1:]), np.empty(weights.shape[1:])
    np.take(vals, index[0], axis=axis, out=out, mode="clip")
    out *= weights[0]
    for w, i in zip(weights[1:], index[1:]):
        np.take(vals, i, axis=axis, out=tmp, mode="clip")
        tmp *= w
        out += tmp
    return out


def _batch_tables(g, W):
    """``(WR, CR, WC, RC)``: the (width, K, n) weights and the indices of
    the row and column gather tables of a batch.

    With one shared geometry the indices are its (width, n) tables.  With
    one geometry per column, each column's tables are stacked, padded to
    the widest with weight 0 at the column's own first element, and
    indexed flat into the (K, n) iterate.  Padding adds 0 to a sum after
    the column's own slots, so its sums are those of its own tables.
    """
    if isinstance(g, MapGeometry):
        return (g.gathered(W, g.row_table), g.row_cols,
                g.gathered(W, g.col_table), g.col_rows)
    K, n = len(g), g[0].n
    if any(gk.n != n for gk in g):
        raise ValueError("the geometries of one batch must share n")
    out = []
    for lines, other in (("rows", "cols"), ("cols", "rows")):
        # Uncached tables: the geometries live only as long as their batch.
        tables = [_gather_table(getattr(gk, lines), n) for gk in g]
        weights = np.zeros((max(t.shape[0] for t in tables), K, n))
        flat = np.empty(weights.shape, dtype=np.int64)
        flat[:] = (np.arange(K) * n)[:, None]
        for k, (gk, w, t) in enumerate(zip(g, W, tables)):
            weights[:t.shape[0], k] = np.append(w, 0.0)[t]
            flat[:t.shape[0], k] += np.append(getattr(gk, other), 0)[t]
        out += [weights, flat]
    return tuple(out)


def _retire(done, weights, indices, batch, n):
    """Retire the ``done`` columns of a batch in place.

    The live columns past the new live count m move into the freed slots
    below it, in order, and every array comes back as a view of its first
    m columns: ``weights`` and ``indices`` are the (width, K, n) arrays of
    :func:`_batch_tables`, ``batch`` arrays have the column first.  A
    moved column's flat per-column indices are re-offset by (dst - src) n;
    a shared (width, n) index table is returned as it is.
    """
    m = done.size - np.count_nonzero(done)
    dst, src = np.flatnonzero(done[:m]), m + np.flatnonzero(~done[m:])
    for a in batch:
        a[dst] = a[src]
    for w in weights:
        w[:, dst] = w[:, src]
    for index in indices:
        if index.ndim == 3:
            index[:, dst] = index[:, src] + ((dst - src) * n)[:, None]
    return ([w[:, :m] for w in weights],
            [index if index.ndim == 2 else index[:, :m] for index in indices],
            [a[:m] for a in batch])


def _power_iteration(WR, CR, WC, RC, skip, n):
    """The batch loop of :func:`leading_triples` on the tables of
    :func:`_batch_tables`, over the columns that ``skip`` does not mark
    and that have no zero row or column.

    Returns ``(zero_line, lam, X, Y, its)``, one row per column: whether
    it has a zero row or column, then lambda, the right and left iterates
    and the step at which it stopped.  A column still running after
    ``MAX_ITER`` steps has its last iterate and ``its`` 0; one that never
    started has NaN and 0.  Each step writes into (K, n) buffers made once;
    these and the batch's other arrays die on return, so none is held while
    the results are built (held, they added 0.3 MB of peak RSS at n = 4096).
    """
    K = WR.shape[1]
    lam_out = np.full(K, math.nan)
    X_out = np.full((K, n), math.nan)
    Y_out = np.full((K, n), math.nan)
    its_out = np.zeros(K, dtype=np.int64)
    # A zero row or column leaves the leading eigendata ill-defined.
    zero_line = np.any(WR.sum(axis=0) == 0.0, axis=-1) | np.any(WC.sum(axis=0) == 0.0, axis=-1)
    active = np.arange(K)
    (WR, WC), (CR, RC), (active,) = _retire(skip | zero_line, (WR, WC), (CR, RC), (active,), n)
    X, Y = np.full((2, active.size, n), 1.0 / n)
    AX, ATY, T = np.empty((3, active.size, n))
    _gather_sum(WR, CR, X, AX, T), _gather_sum(WC, RC, Y, ATY, T)
    lam_prev = np.full(active.size, math.nan)
    for its in range(1, MAX_ITER + 1):
        if active.size == 0:
            break
        lam = np.multiply(Y, AX, out=T).sum(axis=1) / np.multiply(Y, X, out=T).sum(axis=1)
        np.divide(AX, np.abs(AX, out=T).sum(axis=1, keepdims=True), out=X)
        np.divide(ATY, np.abs(ATY, out=T).sum(axis=1, keepdims=True), out=Y)
        _gather_sum(WR, CR, X, AX, T), _gather_sum(WC, RC, Y, ATY, T)
        # Residuals only where lambda settled: nu's first, since it passes
        # last, then h's where nu's passed.
        done = np.abs(lam - lam_prev) <= POWER_TOL * np.abs(lam)
        for P, V in ((ATY, Y), (AX, X)):
            if done.any():
                # A slice, not an index, when every column is in: no copies.
                sel = slice(None) if done.all() else np.flatnonzero(done)
                res = (np.abs(P[sel] - lam[sel, None] * V[sel]).max(axis=1)
                       / np.abs(V[sel]).max(axis=1))
                done[sel] = res < RESIDUAL_TOL * np.abs(lam[sel])
        if done.any():
            k = active[done]
            lam_out[k], X_out[k], Y_out[k], its_out[k] = lam[done], X[done], Y[done], its
            (WR, WC), (CR, RC), (active, lam, X, Y, AX, ATY) = _retire(
                done, (WR, WC), (CR, RC), (active, lam, X, Y, AX, ATY), n)
            T = T[:active.size]
        lam_prev = lam
    lam_out[active], X_out[active], Y_out[active] = lam_prev, X, Y
    return zero_line, lam_out, X_out, Y_out, its_out


def leading_triples(g, W, potentials):
    """Leading eigendata of the K matrices ``TransferMatrix(g, W[k],
    potentials[k])`` at once, by two-sided power iteration.

    ``g`` is one :class:`MapGeometry` shared by the columns, with ``W`` a
    (K, nnz) array of entry weights (:meth:`MapGeometry.weights`), or a
    sequence of K geometries of one n, column k having geometry ``g[k]``
    and weights ``W[k]``.  Right vectors h and left vectors nu are iterated
    together; lambda is the two-sided Rayleigh quotient, and a column stops
    when lambda's relative change is at most ``POWER_TOL`` and both
    residuals are below ``RESIDUAL_TOL * lambda``, or fails after
    ``MAX_ITER`` steps.  The residuals are computed only for the columns
    whose lambda settled: nu's first, since it passes last, and h's only
    where nu's passed.  The products run on fixed-width gather tables of
    the unmerged entries, per row for ``A x`` and per column for ``A^T y``,
    by one slot loop into buffers held for the solve: no matrix is formed.

    The live columns are kept in the first slots of the batch.  A column
    that stops (or never starts: weights not all finite, or a zero row or
    column) is retired in place: the last live columns move into the
    freed slots, and the arrays shrink to views of the live ones.  Every
    operation acts on one column alone, so a column's result does not
    depend on the batch it is solved in, nor on its slot.

    Returns one entry per column: its :class:`SpectralTriple`, or the
    error that makes its triple meaningless (weights not all finite, a
    zero row or column, no convergence, or a non-positive h).
    """
    K = len(W)
    geoms = [g] * K if isinstance(g, MapGeometry) else g
    n = geoms[0].n
    # Weights that are not all finite make no operator.
    finite = np.array([np.isfinite(w).all() for w in W])
    zero_line, lam_out, X_out, Y_out, its_out = _power_iteration(*_batch_tables(g, W),
                                                                  ~finite, n)
    # Built after the iteration: built before, they leave about 0.3 MB more
    # peak RSS on a spectrum job at n = 4096.
    mats = [TransferMatrix(geometry=gk, weights=w, potential=pot)
            for gk, w, pot in zip(geoms, W, potentials)]
    errors = [None] * K
    for k in np.flatnonzero(zero_line):
        errors[k] = ReducibleMatrixError(
            f"matrix for {geoms[k].map_name}/{mats[k].potential_name} has a zero row or column")
    for k in np.flatnonzero(~finite):
        errors[k] = NonFiniteWeightsError(
            f"matrix for {geoms[k].map_name}/{mats[k].potential_name} has entry weights "
            f"that are not all finite: exp(phi) overflows, or phi is NaN")
    for k in np.flatnonzero((its_out == 0) & finite & ~zero_line):
        errors[k] = ConvergenceError(
            f"power iteration did not converge in {MAX_ITER} iterations "
            f"(lambda ~ {float(lam_out[k])})",
            last_iterate=(float(lam_out[k]), X_out[k], Y_out[k]))

    NU = Y_out / np.sum(Y_out, axis=1, keepdims=True)
    mass = np.sum(X_out * NU, axis=1)
    for k in np.flatnonzero((mass <= 0) | (np.min(X_out, axis=1) <= 0)):
        if errors[k] is None:
            errors[k] = ReducibleMatrixError(
                "leading right vector is not strictly positive; "
                "discretization is not primitive enough for a spectral triple")
    H = X_out / mass[:, None]
    return [e if e is not None else SpectralTriple(matrix=mats[k], lam=float(lam_out[k]), h=H[k],
                                                   nu=NU[k], iterations=int(its_out[k]))
            for k, e in enumerate(errors)]


def leading_triple(tm: TransferMatrix) -> SpectralTriple:
    """The leading triple of one matrix: :func:`leading_triples` on its
    weights alone, raising that column's error."""
    [triple] = leading_triples(tm.geometry, tm.weights[None], [tm.potential])
    if isinstance(triple, Exception):
        raise triple
    return triple


@dataclass(frozen=True)
class GapEstimate:
    """|lambda_2| / lambda read off the deflated operator (:func:`gap_ratio`):
    the ratio, the residual norm of its Ritz pair, and whether it is
    resolved."""
    ratio: float
    residual: float
    resolved: bool


def gap_ratio(t: SpectralTriple) -> GapEstimate:
    """|lambda_2| / lambda by ``GAP_KRYLOV`` Arnoldi steps on the deflated
    operator B = A - lambda h nu^T, started from the deflated Weyl vector
    frac(i g) - 1/2, g = (sqrt 5 - 1) / 2: no random numbers are drawn.
    See :func:`_krylov_gap`."""
    golden = 0.5 * (math.sqrt(5.0) - 1.0)
    return _krylov_gap(t, np.arange(1, t.matrix.n + 1) * golden % 1.0 - 0.5)


def _krylov_gap(t: SpectralTriple, v) -> GapEstimate:
    """Arnoldi on B = A - lambda h nu^T from the start vector ``v``.

    Each step is one gather matvec ``tm @ q`` and a classical Gram-Schmidt
    pass done twice (CGS2); the ratio is the leading Ritz value of the
    k x k Hessenberg matrix (``np.linalg.eig``) over lambda, with k =
    ``GAP_KRYLOV`` or n - 1, whichever is smaller.  The estimate is
    resolved when the Krylov space is invariant (a subdiagonal entry at
    most machine epsilon times lambda, or k = n - 1), or else when all of:

    * the Ritz residual is at most 1e-8 lambda;
    * the ratio at k / 2 steps agrees with it to 1e-5;
    * for Ulam, it is not within 1e-3 of e^{max phi} / lambda, the bound
      that Ulam's piecewise-constant discretization puts on its essential
      spectrum, so that a ratio there is most likely that bound and not
      an eigenvalue of the operator.
    """
    tm, lam, h, nu = t.matrix, t.lam, t.h, t.nu
    k = min(GAP_KRYLOV, tm.n - 1)
    invariant = k == tm.n - 1
    Q, H = np.zeros((k + 1, tm.n)), np.zeros((k + 1, k))
    v = v - h * float(nu @ v)
    Q[0] = v / np.linalg.norm(v)
    for j in range(k):
        w = tm @ Q[j] - (lam * float(nu @ Q[j])) * h
        for _ in range(2):
            c = Q[:j + 1] @ w
            w -= c @ Q[:j + 1]
            H[:j + 1, j] += c
        H[j + 1, j] = np.linalg.norm(w)
        if H[j + 1, j] <= np.finfo(float).eps * lam:
            k, invariant = j + 1, True
            break
        Q[j + 1] = w / H[j + 1, j]
    theta, residual = _leading_ritz(H, k)
    ratio = theta / lam
    resolved = invariant or (residual <= 1e-8 * lam
                             and abs(_leading_ritz(H, k // 2)[0] / lam - ratio) <= 1e-5)
    if resolved and not invariant and tm.geometry.scheme == "ulam":
        g = tm.geometry
        cell = g.coef > 0
        essential = float(np.max(tm.weights[cell] / (g.scale * g.coef[cell]))) / lam
        resolved = abs(ratio - essential) > 1e-3
    return GapEstimate(ratio=ratio, residual=residual, resolved=resolved)


def _leading_ritz(H, k):
    """|theta| and the residual norm |H[k, k-1]| |y_k| of the Ritz pair
    (theta, y) of largest modulus of the k-step Hessenberg matrix."""
    vals, vecs = np.linalg.eig(H[:k, :k])
    i = int(np.argmax(np.abs(vals)))
    return float(abs(vals[i])), float(abs(H[k, k - 1]) * abs(vecs[-1, i]))


def invariance_defect(m: MapSpec, t: SpectralTriple,
                      testfns: Sequence[Callable]) -> float:
    """max over test functions g of |int g(f x) dmu - int g dmu|."""
    x = t.grid
    fx = map_eval(m, x)
    worst = 0.0
    for g in testfns:
        defect = abs(float(g(fx) @ t.mu) - float(g(x) @ t.mu))
        worst = max(worst, defect)
    return worst


def fourier_testfns(modes=5):
    """cos/sin test functions for the first ``modes`` frequencies."""
    return [f(k) for k in range(1, modes + 1) for f in (fourier_cos, fourier_sin)]
