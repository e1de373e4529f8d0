"""Point-cloud container, exact k-nearest-neighbor index, and surface estimation.

Everything downstream (region growing, edge labels, the feature network)
consumes neighborhoods from here, so the index must be exact and fully
deterministic: a query returns the same ids a brute-force distance ranking
would, with ties broken by ascending point id and the query point always
ranked first.

The index finds neighbors on a voxel grid instead of ranking all pairs. The
points are bucketed into cubic cells and sorted once by cell. Each point is
ranked against the points of the (2r+1)^3 block of cells around its own cell,
by the brute-force rule. A row is kept only when no point outside the block
can beat or tie its k-th neighbor. That makes the table equal to the
brute-force one bit for bit. The other rows are searched again with r doubled,
and a block that spans the whole grid settles every row. `SpatialIndex` states
the certification rule and the memory bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Curvature is the smallest of three covariance eigenvalues over their sum,
# so it can never exceed 1/3.
CURVATURE_MAX = np.float64(1.0) / 3.0

_EIGSUM_FLOOR = 1e-12
# Rows x candidate columns of one distance block, and the most block columns
# one pass lists; bounds a search's peak memory, also when every point shares
# one cell.
_BLOCK_ELEMS = 1_000_000
# Points a query's own cell should hold on average, as a share of k.
_CELL_SHARE = 0.5
# Times the cell edge is refit to the measured occupancy.
_CELL_REFITS = 3
# The grid has at most this many cells per point.
_CELLS_PER_POINT = 8
# An axis of smaller extent gets one cell, so that cell edges, faces and the
# slack below stay normal floats, where the rounding bound holds.
_MIN_SPAN = 1e-200
# Share of an axis's extent by which a face distance shrinks before it
# certifies a row: 32 units of roundoff, twice what the cell assignment and
# the face arithmetic can lose between them.
_FACE_SLACK = 16 * np.finfo(np.float64).eps


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.float64, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class PointCloud:
    """Points with XYZ positions in meters and RGB colors in [0, 1]."""

    positions: np.ndarray
    colors: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=np.float64)
        col = np.asarray(self.colors, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValidationError(f"positions must be (N, 3), got {pos.shape}")
        if col.shape != pos.shape:
            raise ValidationError(f"colors must have shape {pos.shape}, got {col.shape}")
        if pos.shape[0] < 1:
            raise ValidationError("cloud must contain at least one point")
        if not np.isfinite(pos).all():
            raise ValidationError("positions must be finite")
        if not np.isfinite(col).all() or col.min() < 0.0 or col.max() > 1.0:
            raise ValidationError("colors must lie in [0, 1]")
        object.__setattr__(self, "positions", _readonly(pos))
        object.__setattr__(self, "colors", _readonly(col))

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    def colors_255(self) -> np.ndarray:
        """Colors rescaled to 0-255 units (the scale color thresholds use)."""
        return self.colors * 255.0


class SpatialIndex:
    """Exact k-NN over the positions of one cloud.

    Query semantics: neighbors are ordered by (squared distance, point id)
    except that the query point itself always comes first. Squared distances
    are computed coordinate-wise as (xi-xj)^2 + (yi-yj)^2 + (zi-zj)^2, so
    exact ties in the data stay exact ties here.

    The table is built on a voxel grid (`_Grid`). The cell edge is derived
    from the data: it is fit so that a point's cell holds about k/2 points on
    average. A point is ranked against the candidates in the (2r+1)^3 block
    of cells around its own cell, by the rule above.

    Certification: a row is accepted only when its k-th squared distance is
    strictly below the squared distance from the point to the nearest face
    of the block. That face distance is first shrunk by a margin: 32 units of
    roundoff times the extent of its axis. The margin covers every rounding
    in the cell assignment and in the face arithmetic. Rounding is monotone,
    so every point outside the block then has a computed squared distance at
    least as large as the bound. The test is strict, so no point outside the
    block can even tie the k-th neighbor; a tie would let it win on a lower
    id. Exact ties therefore fall to the same ids as in a brute-force
    ranking. Rows that fail are searched again with r doubled. A block that
    spans the whole grid holds every point and certifies its rows. Axes of
    zero extent, such as that of a flat plane, get one cell.

    Memory: distances are ranked in blocks of at most `_BLOCK_ELEMS` (rows x
    candidates) entries. A cloud whose points all share one cell therefore
    costs a quadratic time but no N x N block. The grid has at most
    `_CELLS_PER_POINT` cells per point.

    The index is immutable once built; concurrent reads are safe.
    """

    def __init__(self, positions: np.ndarray):
        pos = np.asarray(positions, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 1:
            raise ValidationError(f"positions must be (N, 3) with N >= 1, got {pos.shape}")
        if not np.isfinite(pos).all():
            raise ValidationError("positions must be finite")
        self._pos = _readonly(pos)
        self._table: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self._pos.shape[0]

    def _check_k(self, k: int):
        if not isinstance(k, (int, np.integer)) or k < 1:
            raise ValidationError(f"k must be a positive integer, got {k!r}")
        if k > self.n:
            raise ValidationError(f"k={k} exceeds point count {self.n}")

    def knn(self, query_id: int, k: int) -> np.ndarray:
        """Ids of the k nearest points to `query_id` (itself first)."""
        self._check_k(k)
        if not 0 <= query_id < self.n:
            raise ValidationError(f"query_id {query_id} out of range [0, {self.n})")
        return self.knn_table(k)[query_id]

    def knn_table(self, k: int) -> np.ndarray:
        """(N, k) neighbor table; cached and grown as larger k are requested."""
        self._check_k(k)
        if self._table is None or self._table.shape[1] < k:
            table = _Grid(self._pos, k).knn_table(k)
            table.flags.writeable = False
            self._table = table
        return self._table[:, :k]


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated aranges [starts[i], starts[i] + lengths[i])."""
    return np.arange(lengths.sum()) + np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)


def _cell_key(cells: np.ndarray, dims: np.ndarray) -> np.ndarray:
    return (cells[:, 0] * dims[1] + cells[:, 1]) * dims[2] + cells[:, 2]


def _cells_of(u: np.ndarray, h: float, dims: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        c = np.where(dims > 1, np.floor(u / h), 0.0)
    return np.clip(c, 0, dims - 1).astype(np.int64)


def _fit_grid(span: np.ndarray, axes: np.ndarray, h: float, n: int) -> tuple:
    """Cells per axis for edge h, after coarsening h until the grid has at
    most `_CELLS_PER_POINT` cells per point."""
    cap = np.log(_CELLS_PER_POINT * n)
    while True:
        with np.errstate(over="ignore"):
            dims = np.where(axes, np.floor(span / h) + 1.0, 1.0)
        excess = np.log(dims).sum() - cap
        if excess <= 0:
            return h, dims.astype(np.int64)
        h *= 1.01 * np.exp(excess / axes.sum())


def _cell_grid(u: np.ndarray, span: np.ndarray, k: int) -> tuple:
    """Cell edge and cells per axis for offsets `u` >= 0 of extent `span`.

    The edge starts from the bounding box, as if the points filled it. It is
    then refit to the data: each refit measures how many points share a
    point's cell on average, and scales the edge toward `_CELL_SHARE` * k by
    the power that matches the cloud's dimension, estimated from the last two
    fits (a room's surfaces measure about 2). Flat axes, and axes whose extent
    overflowed, get one cell.
    """
    n = u.shape[0]
    axes = np.isfinite(span) & (span > _MIN_SPAN)
    if not axes.any():
        return 1.0, np.ones(3, dtype=np.int64)
    target = max(1.0, _CELL_SHARE * k)
    dim = float(axes.sum())
    h = float(np.exp((np.log(span[axes]).sum() + np.log(target / n)) / dim))
    last = None
    for _ in range(_CELL_REFITS):
        h, dims = _fit_grid(span, axes, h, n)
        counts = np.bincount(_cell_key(_cells_of(u, h, dims), dims))
        occupancy = float(np.dot(counts, counts)) / n
        if last is not None and h != last[0] and occupancy != last[1]:
            dim = float(np.clip(np.log(occupancy / last[1]) / np.log(h / last[0]), 1.0, 3.0))
        last = (h, occupancy)
        h *= (target / occupancy) ** (1.0 / dim)
    return _fit_grid(span, axes, h, n)


def _row_blocks(width: np.ndarray):
    """Consecutive row ranges [i, j), one row at least, with (j - i) *
    width[j - 1] <= _BLOCK_ELEMS, for nondecreasing widths."""
    i = 0
    while i < width.size:
        w = width[i : i + max(1, _BLOCK_ELEMS // int(width[i]))]
        cost = np.arange(1, w.size + 1) * w
        j = i + max(1, int(np.searchsorted(cost, _BLOCK_ELEMS, side="right")))
        yield i, j
        i = j


def _select(d2: np.ndarray, cand: np.ndarray, rloc: np.ndarray, k: int) -> tuple:
    """Per row, the k-th smallest of d2 and the ids cand[rloc] of the k
    smallest, by (d2, column). Columns run in ascending id, so the column
    order breaks exact ties by id."""
    kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
    take = d2 <= kth[:, None]
    tied = np.flatnonzero(take.sum(axis=1) > k)
    if tied.size:
        # Values equal to the k-th one are taken by column until k are taken.
        sub = d2[tied]
        below = sub < kth[tied, None]
        at = sub == kth[tied, None]
        room = k - below.sum(axis=1)
        take[tied] = below | (at & (np.cumsum(at, axis=1) <= room[:, None]))
    cols = np.nonzero(take)[1].reshape(-1, k)
    order = np.argsort(np.take_along_axis(d2, cols, axis=1), axis=1, kind="stable")
    return kth, np.take_along_axis(cand[rloc[:, None], cols], order, axis=1)


class _Grid:
    """The points of one cloud bucketed into cubic cells, sorted by cell."""

    def __init__(self, pos: np.ndarray, k: int):
        self.pos = pos
        self.n = pos.shape[0]
        lo = pos.min(axis=0)
        with np.errstate(over="ignore"):
            span = pos.max(axis=0) - lo
            self.u = pos - lo
        self.h, self.dims = _cell_grid(self.u, span, k)
        self.cell = _cells_of(self.u, self.h, self.dims)
        self.key = _cell_key(self.cell, self.dims)
        self.by_key = np.argsort(self.key, kind="stable")
        self.sorted_key = self.key[self.by_key]
        self.slack = np.where(self.dims > 1, _FACE_SLACK * span, 0.0)
        # Candidate lists are padded with an infinitely far point.
        self.padded = np.vstack([pos, np.full((1, 3), np.inf)])

    def knn_table(self, k: int) -> np.ndarray:
        table = np.empty((self.n, k), dtype=np.int64)
        rows = np.arange(self.n)
        r = 1
        while rows.size:
            rows = self._search(rows, r, k, table)
            r *= 2
        return table

    def _search(self, rows: np.ndarray, r: int, k: int, table: np.ndarray) -> np.ndarray:
        """Fill the rows that the (2r+1)^3 block around their cell certifies;
        return the others."""
        rows = rows[np.argsort(self.key[rows], kind="stable")]
        first = np.flatnonzero(np.r_[True, np.diff(self.key[rows]) != 0])
        nrows = np.diff(np.r_[first, rows.size])
        lo = np.maximum(self.cell[rows[first]] - r, 0)
        hi = np.minimum(self.cell[rows[first]] + r, self.dims - 1)
        # A block is listed as columns: one per (x, y), each a run of keys over z.
        ncols = (hi[:, 0] - lo[:, 0] + 1) * (hi[:, 1] - lo[:, 1] + 1)
        step = max(1, _BLOCK_ELEMS // int(ncols.max()))
        left = []
        for g in range(0, first.size, step):
            s = slice(g, g + step)
            group = rows[first[g] : first[g] + int(nrows[s].sum())]
            left.append(self._search_cells(group, nrows[s], lo[s], hi[s], ncols[s], r, k, table))
        return np.concatenate(left)

    def _search_cells(self, rows, nrows, lo, hi, ncols, r, k, table) -> np.ndarray:
        # Each block column as a range [a, a + length) of the key-sorted points.
        col_cell = np.repeat(np.arange(ncols.size), ncols)
        j = _ranges(np.zeros_like(ncols), ncols)
        ny = (hi[:, 1] - lo[:, 1] + 1)[col_cell]
        base = ((lo[col_cell, 0] + j // ny) * self.dims[1] + lo[col_cell, 1] + j % ny) * self.dims[2]
        a = np.searchsorted(self.sorted_key, base + lo[col_cell, 2])
        length = np.searchsorted(self.sorted_key, base + hi[col_cell, 2], side="right") - a
        col_start = np.cumsum(ncols) - ncols
        size = np.add.reduceat(length, col_start)
        # Rows of cells with fewer candidates first, so that a block pads little.
        by_size = np.argsort(size, kind="stable")
        row_cell = np.repeat(by_size, nrows[by_size])
        rows = rows[_ranges((np.cumsum(nrows) - nrows)[by_size], nrows[by_size])]
        width = np.maximum(size[row_cell], k)
        left = []
        for i, j in _row_blocks(width):
            cells, rloc = np.unique(row_cell[i:j], return_inverse=True)
            block = rows[i:j]
            # The candidates of each cell, in ascending id, padded with id n.
            cols = _ranges(col_start[cells], ncols[cells])
            local = np.repeat(np.repeat(np.arange(cells.size), ncols[cells]), length[cols])
            flat = np.sort(local * self.n + self.by_key[_ranges(a[cols], length[cols])])
            counts = size[cells]
            cand = np.full((cells.size, int(width[j - 1])), self.n)
            cand[np.repeat(np.arange(cells.size), counts), _ranges(np.zeros_like(counts), counts)] = flat % self.n
            d2 = self._d2(block, cand, rloc)
            # The query point sorts strictly first.
            self_col = np.searchsorted(flat, rloc * self.n + block) - (np.cumsum(counts) - counts)[rloc]
            d2[np.arange(block.size), self_col] = -1.0
            kth, sel = _select(d2, cand, rloc, k)
            ok = self._certified(block, r, kth)
            table[block[ok]] = sel[ok]
            left.append(block[~ok])
        return np.concatenate(left)

    def _d2(self, rows: np.ndarray, cand: np.ndarray, rloc: np.ndarray) -> np.ndarray:
        # Squared distances accumulate coordinate-wise over explicit
        # differences (never the x^2+y^2-2xy expansion): exact ties in the
        # data must stay exact so id tie-breaking is well defined.
        d2 = None
        with np.errstate(over="ignore"):
            for c in range(3):
                dc = self.pos[rows, c][:, None] - self.padded[cand, c][rloc]
                np.multiply(dc, dc, out=dc)
                d2 = dc if d2 is None else np.add(d2, dc, out=d2)
        return d2

    def _certified(self, rows: np.ndarray, r: int, kth: np.ndarray) -> np.ndarray:
        """Rows whose k-th squared distance is below that of every point
        outside the block, or whose block spans the whole grid."""
        c = self.cell[rows]
        u = self.u[rows]
        below = c - r <= 0
        above = c + r >= self.dims - 1
        with np.errstate(over="ignore", invalid="ignore"):
            gap = np.minimum(
                np.where(below, np.inf, u - (c - r) * self.h),
                np.where(above, np.inf, (c + r + 1) * self.h - u),
            ) - self.slack
            bound = np.where(gap > 0, gap * gap, 0.0).min(axis=1)
        return (below & above).all(axis=1) | (kth < bound)


def build_index(cloud: PointCloud) -> SpatialIndex:
    return SpatialIndex(cloud.positions)


@dataclass(frozen=True)
class SurfaceEstimate:
    """Per-point unit normals and PCA curvature ratios.

    `degenerate_count` tracks neighborhoods whose covariance collapsed
    (all points coincident); those points get normal +z and curvature 0.
    """

    normals: np.ndarray
    curvatures: np.ndarray
    degenerate_count: int

    def __post_init__(self):
        object.__setattr__(self, "normals", _readonly(self.normals))
        object.__setattr__(self, "curvatures", _readonly(self.curvatures))


def estimate_surface(cloud: PointCloud, index: SpatialIndex, k_normal: int = 16) -> SurfaceEstimate:
    """PCA normals and curvature over each point's k_normal neighborhood.

    The normal is the eigenvector of the smallest covariance eigenvalue,
    sign-canonicalized toward +z (ties toward +y, then +x). Curvature is
    lambda_min / (lambda_0 + lambda_1 + lambda_2), zero when the eigenvalue
    sum vanishes.
    """
    if k_normal < 3:
        raise ValidationError(f"k_normal must be >= 3, got {k_normal}")
    if index.n != cloud.n:
        raise ValidationError("index and cloud sizes differ")
    nbrs = index.knn_table(k_normal)
    pts = cloud.positions[nbrs]
    centered = pts - pts.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / k_normal
    eigvals, eigvecs = np.linalg.eigh(cov)

    eigsum = eigvals.sum(axis=1)
    degenerate = eigsum < _EIGSUM_FLOOR
    safe_sum = np.where(degenerate, 1.0, eigsum)
    curv = np.clip(eigvals[:, 0], 0.0, None) / safe_sum
    curv = np.minimum(np.where(degenerate, 0.0, curv), CURVATURE_MAX)

    normals = eigvecs[:, :, 0].copy()
    nx, ny, nz = normals[:, 0], normals[:, 1], normals[:, 2]
    flip = (nz < 0) | ((nz == 0) & (ny < 0)) | ((nz == 0) & (ny == 0) & (nx < 0))
    normals[flip] *= -1.0
    normals[degenerate] = (0.0, 0.0, 1.0)

    return SurfaceEstimate(normals=normals, curvatures=curv, degenerate_count=int(degenerate.sum()))
