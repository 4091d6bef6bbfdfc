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

from .errors import ConvergenceError, ReducibleMatrixError
from .maps import MapSpec, branch_preimages, map_eval, wrap01, _invert_lift
from .observables import PotentialSpec

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
        result has shape ``(..., nnz)``."""
        w = self.scale * np.exp(values) * self.coef
        return w.reshape(w.shape[:w.ndim - self.coef.ndim] + (-1,))

    def gathered(self, W, table):
        """The (K, nnz) weights ``W`` laid out on a (width, n) gather table
        as a (width, K, n) array, weight 0 in the padding."""
        Wp = np.concatenate([W, np.zeros((W.shape[0], 1))], axis=1)
        return np.ascontiguousarray(np.moveaxis(Wp[:, table], 1, 0))

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
        return (np.arange(self.n) + 0.5) / self.n

    @property
    def potential_name(self):
        return self.potential.name if self.potential is not None else "none"


def map_geometry(m: MapSpec, scheme: str, n: int) -> MapGeometry:
    """The entries of the n x n discretization of L_f in the given scheme."""
    if n < 16:
        raise ValueError("n must be >= 16")
    if n > MAX_DENSE_N:
        raise ValueError(f"n is capped at {MAX_DENSE_N}: the dense A, formed when "
                         f"read, takes 8 n^2 bytes")
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
    return TransferMatrix(geometry=g, weights=g.weights(phi.fn(g.points)), potential=phi)


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


def _gather_sum(weights, index, v):
    """sum_r weights[r] * v[k, index[r]] for each column k, added in the
    order of r.

    ``index`` is either one (width, n) table that every column reads, or
    (width, K, n) flat indices into ``v.ravel()``, one table per column.
    One column is gathered in one step; a batch slot by slot, which keeps
    its temporaries in cache.  Both add the slots in the same order, so a
    column's sums do not depend on its batch.
    """
    if v.shape[0] == 1:
        return (weights * v[0].take(index).reshape(weights.shape)).sum(axis=0)
    vals, axis = (v, 1) if index.ndim == 2 else (v.ravel(), None)
    out = weights[0] * np.take(vals, index[0], axis=axis)
    for w, i in zip(weights[1:], index[1:]):
        out += w * np.take(vals, i, axis=axis)
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


def _keep_columns(index, cols, n):
    """The gather ``index`` of the columns at positions ``cols``, as the
    columns of a smaller batch: flat per-column indices are re-offset to
    the new positions, a shared table is kept as it is."""
    if index.ndim == 2:
        return index
    return index[:, cols] - ((cols - np.arange(cols.size)) * n)[:, None]


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
    ``MAX_ITER`` steps.  The products run on fixed-width gather tables of
    the unmerged entries, per row for ``A x`` and per column for ``A^T y``,
    so no matrix is formed.  A stopped column is retired from the batch;
    every operation acts on one column alone, so a column's result does
    not depend on the batch it is solved in.

    Returns one entry per column: its :class:`SpectralTriple`, or the
    error that makes its triple meaningless (a zero row or column, no
    convergence, or a non-positive h).
    """
    K = len(W)
    geoms = [g] * K if isinstance(g, MapGeometry) else g
    n = geoms[0].n
    WR, CR, WC, RC = _batch_tables(g, W)      # weights (width, K, n)

    lam_out = np.full(K, math.nan)
    X_out = np.full((K, n), math.nan)
    Y_out = np.full((K, n), math.nan)
    its_out = np.zeros(K, dtype=np.int64)
    # A zero row or column leaves the leading eigendata ill-defined.
    zero_line = np.any(WR.sum(axis=0) == 0.0, axis=-1) | np.any(WC.sum(axis=0) == 0.0, axis=-1)
    active = np.flatnonzero(~zero_line)
    if active.size < K:
        WR, WC = WR[:, active], WC[:, active]
        CR, RC = _keep_columns(CR, active, n), _keep_columns(RC, active, n)
    X = np.full((active.size, n), 1.0 / n)
    Y = np.full((active.size, n), 1.0 / n)
    AX, ATY = _gather_sum(WR, CR, X), _gather_sum(WC, RC, Y)
    lam_prev = np.full(active.size, math.nan)
    for its in range(1, MAX_ITER + 1):
        if active.size == 0:
            break
        lam = (Y * AX).sum(axis=1) / (Y * X).sum(axis=1)
        X = AX / np.abs(AX).sum(axis=1, keepdims=True)
        Y = ATY / np.abs(ATY).sum(axis=1, keepdims=True)
        AX, ATY = _gather_sum(WR, CR, X), _gather_sum(WC, RC, Y)
        # The residuals are computed only for the columns whose lambda settled.
        settled = np.abs(lam - lam_prev) <= POWER_TOL * np.abs(lam)
        if settled.any():
            # A slice, not a mask, when every column settled: no copies.
            done, sel = settled.copy(), slice(None) if settled.all() else settled
            res_h, res_nu = (np.abs(P[sel] - lam[sel, None] * V[sel]).max(axis=1)
                             / np.abs(V[sel]).max(axis=1) for P, V in ((AX, X), (ATY, Y)))
            tol = RESIDUAL_TOL * np.abs(lam[sel])
            done[sel] = (res_h < tol) & (res_nu < tol)
            if done.any():
                k, keep = active[done], ~done
                lam_out[k], X_out[k], Y_out[k], its_out[k] = lam[done], X[done], Y[done], its
                active, lam, X, Y = active[keep], lam[keep], X[keep], Y[keep]
                AX, ATY, WR, WC = AX[keep], ATY[keep], WR[:, keep], WC[:, keep]
                cols = np.flatnonzero(keep)
                CR, RC = _keep_columns(CR, cols, n), _keep_columns(RC, cols, n)
        lam_prev = lam
    # Built after the iteration: built before, they leave about 0.3 MB more
    # peak RSS on a spectrum job at n = 4096.
    mats = [TransferMatrix(geometry=gk, weights=w, potential=pot)
            for gk, w, pot in zip(geoms, W, potentials)]
    errors = [None] * K
    for k in np.flatnonzero(zero_line):
        errors[k] = ReducibleMatrixError(
            f"matrix for {geoms[k].map_name}/{mats[k].potential_name} has a zero row or column")
    for j, k in enumerate(active):
        errors[k] = ConvergenceError(
            f"power iteration did not converge in {MAX_ITER} iterations "
            f"(lambda ~ {float(lam[j])})", last_iterate=(float(lam[j]), X[j], Y[j]))

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
    fns = []
    for k in range(1, modes + 1):
        fns.append(lambda x, k=k: np.cos(2 * np.pi * k * np.asarray(x)))
        fns.append(lambda x, k=k: np.sin(2 * np.pi * k * np.asarray(x)))
    return fns
