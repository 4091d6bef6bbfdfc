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
#: The deflated gap estimate runs GAP_ITERS fixed-seed steps and averages the
#: log norm ratios of the last GAP_WINDOW.
GAP_ITERS = 400
GAP_WINDOW = 50
GAP_SEED = 0x5EED
#: primitivity_power tries the powers 1, 2, 4, ... up to MAX_PRIMITIVITY_POWER.
MAX_PRIMITIVITY_POWER = 8


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


def primitivity_power(tm: TransferMatrix):
    """Smallest k in {1,2,4,8} with (pattern of A)^k > 0, else None.

    Exact on the pattern P of A > 0, read from the entries merged in
    ``A``'s own order.  P^k > 0 needs every row and every column of P^k
    full, hence at least n length-k paths out of each cell and into each
    cell; those path counts (capped at n) cost k ``np.bincount`` sweeps
    over P's entries, and only when they all reach n are the rows of P^k
    formed, as packed bits, and tested for fullness.  Row i of P Q is the
    OR of the rows of Q at the columns of row i of P: one ``|=`` per slot
    of P's row gather table.
    """
    g, n = tm.geometry, tm.n
    keys, slot = np.unique(g.rows * n + g.cols, return_inverse=True)
    merged = np.zeros(keys.size)
    np.add.at(merged, slot, tm.weights)
    keys = keys[merged > 0]
    rows, cols = keys // n, keys % n
    out_paths = in_paths = np.ones(n)
    Pk, k_formed, k = None, 0, 1
    while k <= MAX_PRIMITIVITY_POWER:
        for _ in range(k - k // 2):          # path length k // 2 -> k
            out_paths = np.minimum(np.bincount(rows, out_paths[cols], n), n)
            in_paths = np.minimum(np.bincount(cols, in_paths[rows], n), n)
        if min(out_paths.min(), in_paths.min()) >= n:
            if Pk is None:
                # Packed rows of P^0 = I, plus a zero row n that the
                # padding slots of the gather table read.
                Pk = np.zeros((n + 1, -(-n // 8)), dtype=np.uint8)
                Pk[np.arange(n), np.arange(n) // 8] = 128 >> (np.arange(n) % 8)
                slot_cols = np.append(cols, n)[_gather_table(rows, n)]
            for _ in range(k - k_formed):
                Pk, prev = np.zeros_like(Pk), Pk
                for c in slot_cols:
                    Pk[:n] |= prev[c]
            k_formed = k
            if (Pk[:n] == np.packbits(np.ones(n, dtype=bool))).all():
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


def leading_triples(g, W, names):
    """Leading eigendata of the K matrices ``TransferMatrix(g, W[k])`` at
    once, by two-sided power iteration.

    ``g`` is one :class:`MapGeometry` shared by the columns, with ``W`` a
    (K, nnz) array of entry weights (:meth:`MapGeometry.weights`), or a
    sequence of K geometries of one n, column k having geometry ``g[k]``
    and weights ``W[k]``.  ``names[k]`` names column k's potential in its
    error message.  Right vectors h and left vectors nu are iterated
    together; lambda is the two-sided Rayleigh quotient, and a column stops
    when lambda's relative change is at most ``POWER_TOL`` and both
    residuals are below ``RESIDUAL_TOL * lambda``, or fails after
    ``MAX_ITER`` steps.  The products run on fixed-width gather tables of
    the unmerged entries, per row for ``A x`` and per column for ``A^T y``,
    so no matrix is formed.  A stopped column is retired from the batch;
    every operation acts on one column alone, so a column's result does
    not depend on the batch it is solved in.

    Returns ``(lam, h, nu, iterations, errors)``: arrays over the columns,
    and per column None or the error that makes its triple meaningless (a
    zero row or column, no convergence, or a non-positive h).
    """
    K = len(W)
    geoms = [g] * K if isinstance(g, MapGeometry) else g
    n = geoms[0].n
    WR, CR, WC, RC = _batch_tables(g, W)      # weights (width, K, n)

    lam_out = np.full(K, math.nan)
    X_out = np.full((K, n), math.nan)
    Y_out = np.full((K, n), math.nan)
    its_out = np.zeros(K, dtype=np.int64)
    errors = [None] * K
    # A zero row or column leaves the leading eigendata ill-defined.
    zero_line = np.any(WR.sum(axis=0) == 0.0, axis=-1) | np.any(WC.sum(axis=0) == 0.0, axis=-1)
    for k in np.flatnonzero(zero_line):
        errors[k] = ReducibleMatrixError(
            f"matrix for {geoms[k].map_name}/{names[k]} has a zero row or column")

    active = np.flatnonzero([e is None for e in errors])
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
    return lam_out, X_out / mass[:, None], NU, its_out, errors


def leading_triple(tm: TransferMatrix) -> SpectralTriple:
    """The leading triple of one matrix: :func:`leading_triples` on its
    weights alone, raising that column's error."""
    lam, h, nu, its, errors = leading_triples(tm.geometry, tm.weights[None],
                                              [tm.potential_name])
    if errors[0] is not None:
        raise errors[0]
    return SpectralTriple(matrix=tm, lam=float(lam[0]), h=h[0], nu=nu[0],
                          iterations=int(its[0]))


def gap_ratio(t: SpectralTriple) -> float:
    """|lambda_2| / lambda, |lambda_2| by fixed-seed power iteration on
    A - lambda h (x) nu, each step one gather matvec ``tm @ v``, read off as
    a windowed geometric mean of norm ratios (robust to complex pairs)."""
    tm, lam, h, nu = t.matrix, t.lam, t.h, t.nu
    rng = np.random.default_rng(GAP_SEED)
    v = rng.standard_normal(tm.n)
    v -= h * float(nu @ v)
    nrm = np.linalg.norm(v)
    if nrm == 0:
        return 0.0
    v /= nrm
    ratios = []
    for _ in range(GAP_ITERS):
        w = tm @ v - lam * h * float(nu @ v)
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
