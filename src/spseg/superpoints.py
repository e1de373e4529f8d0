"""Superpoint generation: geometric region growing, color region growing with
cluster merging, and the intersection merge of the two partitions.

Both growers are one FIFO flood fill, `_flood`, over the k-NN graph; they
differ only in their seeds and in an (N, k_grow) admission table built once,
with coordinate sums in the oracles' order. Determinism rules, all of which
the brute-force test oracles share:

* geometric seeds are picked by minimum curvature (ties by ascending id);
  color seeds are the lowest unsegmented id;
* seeds are expanded FIFO, their neighbors visited in ascending-distance
  order as returned by the spatial index;
* the color merge pass always merges the lexicographically first eligible
  cluster pair, then rescans. Its pair list is relabeled in place and never
  re-sorted, so "first" is the smallest key a * num_clusters + b.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud, SpatialIndex, SurfaceEstimate
from .errors import ValidationError


@dataclass(frozen=True)
class GrowingConfig:
    """Thresholds for both region growers.

    t_ang is in radians, t_cvt in curvature-ratio units, t_clr and t_merge in
    0-255 RGB distance units. t_merge defaults to t_clr when unset.
    """

    t_ang: float = math.radians(3.0)
    t_cvt: float = 0.05
    t_clr: float = 6.0
    t_merge: float | None = None
    k_grow: int = 16
    min_cluster: int = 10

    def __post_init__(self):
        if self.t_merge is None:
            object.__setattr__(self, "t_merge", self.t_clr)
        for name in ("t_ang", "t_cvt", "t_clr", "t_merge"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be > 0")
        if self.k_grow < 2:
            raise ValidationError("k_grow must be >= 2")
        if self.min_cluster < 1:
            raise ValidationError("min_cluster must be >= 1")


@dataclass(frozen=True)
class SuperpointPartition:
    """Disjoint point-id groups plus an unclustered residue.

    `membership[i]` is the group id of point i or -1; `groups[g]` holds the
    sorted ids of group g. Group ids are dense, starting at 0.
    """

    groups: tuple
    unclustered: np.ndarray
    membership: np.ndarray

    def __post_init__(self):
        mem = np.asarray(self.membership, dtype=np.int64)
        groups = tuple(np.asarray(g, dtype=np.int64) for g in self.groups)
        unc = np.asarray(self.unclustered, dtype=np.int64)
        n = mem.shape[0]
        seen = np.zeros(n, dtype=bool)
        for gid, g in enumerate(groups):
            if g.size == 0:
                raise ValidationError(f"group {gid} is empty")
            if seen[g].any():
                raise ValidationError("groups are not disjoint")
            seen[g] = True
            if not (mem[g] == gid).all():
                raise ValidationError("membership inconsistent with groups")
        if seen[unc].any():
            raise ValidationError("unclustered overlaps a group")
        seen[unc] = True
        if not seen.all():
            raise ValidationError("groups and unclustered do not cover all points")
        if not (mem[unc] == -1).all():
            raise ValidationError("membership inconsistent with unclustered")
        for a in groups + (unc, mem):
            a.flags.writeable = False
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "unclustered", unc)
        object.__setattr__(self, "membership", mem)

    @property
    def n(self) -> int:
        return self.membership.shape[0]

    @property
    def num_groups(self) -> int:
        return len(self.groups)


def from_membership(membership: np.ndarray) -> SuperpointPartition:
    """Build a partition from a membership array with dense group ids."""
    mem = np.asarray(membership, dtype=np.int64)
    num = int(mem.max()) + 1 if mem.size and mem.max() >= 0 else 0
    groups = [np.nonzero(mem == g)[0] for g in range(num)]
    unclustered = np.nonzero(mem == -1)[0]
    return SuperpointPartition(groups=tuple(groups), unclustered=unclustered, membership=mem)


def _canonical_by_min_id(membership: np.ndarray) -> SuperpointPartition:
    """Relabel dense group ids so groups are ordered by smallest member id."""
    mem = np.asarray(membership, dtype=np.int64)
    clustered = mem >= 0
    if not clustered.any():
        return from_membership(mem)
    num = int(mem.max()) + 1
    first = np.full(num, mem.shape[0], dtype=np.int64)
    np.minimum.at(first, mem[clustered], np.nonzero(clustered)[0])
    order = np.argsort(first, kind="stable")
    rank = np.empty(num, dtype=np.int64)
    rank[order] = np.arange(num)
    out = np.where(clustered, rank[np.where(clustered, mem, 0)], -1)
    return from_membership(out)


def _dissolve_small(membership: np.ndarray, min_cluster: int) -> np.ndarray:
    """Send groups below min_cluster to the unclustered residue; compact ids."""
    mem = membership.copy()
    if mem.max() < 0:
        return mem
    sizes = np.bincount(mem[mem >= 0], minlength=int(mem.max()) + 1)
    keep = sizes >= min_cluster
    remap = np.cumsum(keep) - 1
    out = np.full_like(mem, -1)
    clustered = mem >= 0
    ok = clustered & keep[np.where(clustered, mem, 0)]
    out[ok] = remap[mem[ok]]
    return out


def _dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b over the last axis, summed (x0*y0 + x1*y1) + x2*y2 as the oracles sum."""
    return (a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]) + a[..., 2] * b[..., 2]


def _flood(nbrs: np.ndarray, seeds: np.ndarray, admit: np.ndarray, expand: np.ndarray):
    """FIFO flood fill over the (N, k) k-NN table, shared by both growers.

    Each seed that no group holds yet opens the next group. Neighbor j of a
    popped point s joins when admit[s, j] holds and no group holds it yet,
    and it is queued in turn when expand[neighbor] holds. Returns
    (membership, admitted_by); admitted_by is -1 for seeds and unreached
    points.
    """
    n = nbrs.shape[0]
    # Python lists index far faster than numpy scalars in this loop.
    rows, ok, grow = nbrs.tolist(), admit.tolist(), expand.tolist()
    membership = [-1] * n
    admitted_by = [-1] * n
    gid = 0
    for seed in seeds.tolist():
        if membership[seed] != -1:
            continue
        membership[seed] = gid
        queue = deque([seed])
        while queue:
            s = queue.popleft()
            for nb, admitted in zip(rows[s], ok[s]):
                if admitted and membership[nb] == -1:
                    membership[nb] = gid
                    admitted_by[nb] = s
                    if grow[nb]:
                        queue.append(nb)
        gid += 1
    return np.array(membership, dtype=np.int64), np.array(admitted_by, dtype=np.int64)


def grow_geometric(
    cloud: PointCloud,
    surf: SurfaceEstimate,
    index: SpatialIndex,
    cfg: GrowingConfig,
    record_admission: bool = False,
):
    """Region growing on normals and curvature.

    Each round seeds at the unsegmented point of minimum curvature (which must
    be below t_cvt, else growth terminates). A neighbor of a seed joins the
    group when the unsigned angle between their normals is below t_ang, i.e.
    |n_s . n_b| > cos(t_ang); it additionally becomes a seed when its own
    curvature is below t_cvt. Groups smaller than min_cluster dissolve into
    the unclustered residue.

    With record_admission=True also returns the admitting seed of every point
    (-1 for round seeds and unclustered points).
    """
    n = cloud.n
    if surf.normals.shape[0] != n or index.n != n:
        raise ValidationError("cloud, surface estimate, and index sizes differ")
    nbrs = index.knn_table(cfg.k_grow)
    admit = np.abs(_dot3(surf.normals[:, None, :], surf.normals[nbrs])) > math.cos(cfg.t_ang)
    flat = surf.curvatures < cfg.t_cvt
    # Stable sort on curvature = ascending-id tie-break for seed selection.
    by_curv = np.argsort(surf.curvatures, kind="stable")
    membership, admitted_by = _flood(nbrs, by_curv[flat[by_curv]], admit, flat)
    membership = _dissolve_small(membership, cfg.min_cluster)
    admitted_by[membership == -1] = -1
    part = from_membership(membership)
    return (part, admitted_by) if record_admission else part


def grow_color(
    cloud: PointCloud,
    index: SpatialIndex,
    cfg: GrowingConfig,
    record_admission: bool = False,
):
    """Region growing on color, followed by a mean-color merge pass.

    Growth admits a neighbor when its 0-255 RGB distance to the admitting
    seed is below t_clr; every admitted point becomes a seed, and every point
    eventually seeds its own group, so nothing stays unclustered. The merge
    pass then repeatedly fuses the first adjacent cluster pair (ascending
    cluster ids; adjacency = any cross-cluster k-NN edge) whose average
    colors differ by less than t_merge, and finally folds groups smaller
    than min_cluster into their nearest-average-color adjacent group.
    """
    n = cloud.n
    if index.n != n:
        raise ValidationError("cloud and index sizes differ")
    nbrs = index.knn_table(cfg.k_grow)
    col = cloud.colors_255()
    d = col[:, None, :] - col[nbrs]
    admit = np.sqrt(_dot3(d, d)) < cfg.t_clr
    membership, admitted_by = _flood(nbrs, np.arange(n), admit, np.ones(n, dtype=bool))
    part = _canonical_by_min_id(_merge_color_clusters(membership, col, nbrs, cfg))
    return (part, admitted_by) if record_admission else part


def _ordered_pairs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(P, 2) rows (min, max) of a and b, rows with a == b dropped."""
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    keep = lo != hi
    return np.stack([lo[keep], hi[keep]], axis=1)


def _adjacency_pairs(membership: np.ndarray, nbrs: np.ndarray) -> np.ndarray:
    """Sorted unique (a, b) cluster pairs linked by any k-NN edge, a < b."""
    pairs = _ordered_pairs(np.repeat(membership, nbrs.shape[1]), membership[nbrs.ravel()])
    return np.unique(pairs, axis=0)


def _merge_color_clusters(membership: np.ndarray, col: np.ndarray, nbrs: np.ndarray, cfg: GrowingConfig) -> np.ndarray:
    mem = membership.copy()
    num = int(mem.max()) + 1
    sizes = np.bincount(mem, minlength=num).astype(np.float64)
    sums = np.zeros((num, 3))
    np.add.at(sums, mem, col)
    pairs = _adjacency_pairs(mem, nbrs)
    alias = np.arange(num, dtype=np.int64)

    def mean(ids):
        return sums[ids] / np.maximum(sizes[ids], 1.0)[..., None]

    # merge_into relabels pairs in place without re-sorting or deduplicating
    # the list, so it may hold repeated pairs in any order. Pass 1 picks by
    # the key a * num + b, whose minimum is the lexicographically first pair;
    # pass 2's (size, id) and (dist, id) minimums do not see repeats.
    def merge_into(src: int, dst: int):
        nonlocal pairs
        sums[dst] += sums[src]
        sizes[dst] += sizes[src]
        sizes[src] = 0.0
        alias[alias == src] = dst
        pairs[pairs == src] = dst
        pairs = _ordered_pairs(pairs[:, 0], pairs[:, 1])

    # Pass 1: fuse adjacent clusters with close average colors, first
    # eligible pair (ascending) each iteration, until fixpoint.
    while pairs.shape[0]:
        means = mean(slice(None))
        diff = means[pairs[:, 0]] - means[pairs[:, 1]]
        dist = np.sqrt((diff * diff).sum(axis=1))
        eligible = np.nonzero(dist < cfg.t_merge)[0]
        if eligible.size == 0:
            break
        a, b = pairs[eligible[np.argmin(pairs[eligible, 0] * num + pairs[eligible, 1])]]
        merge_into(int(b), int(a))

    # Pass 2: fold undersized clusters into their nearest-color neighbor,
    # smallest cluster first (ties by id).
    while pairs.shape[0]:
        alive = sizes > 0
        small = alive & (sizes < cfg.min_cluster)
        has_nbr = np.zeros(num, dtype=bool)
        has_nbr[pairs[:, 0]] = True
        has_nbr[pairs[:, 1]] = True
        cand = np.nonzero(small & has_nbr)[0]
        if cand.size == 0:
            break
        g = int(cand[np.lexsort((cand, sizes[cand]))[0]])
        mask = (pairs[:, 0] == g) | (pairs[:, 1] == g)
        others = np.where(pairs[mask, 0] == g, pairs[mask, 1], pairs[mask, 0])
        diff = mean(others) - mean(g)
        dist = (diff * diff).sum(axis=1)
        target = int(others[np.lexsort((others, dist))[0]])
        merge_into(g, target)

    return alias[mem]


def merge_partitions(geo: SuperpointPartition, color: SuperpointPartition) -> SuperpointPartition:
    """Intersect the two partitions: the color groups over-segment each
    geometric group; the geometric residue stays unclustered.

    Output groups are ordered by their smallest contained point id.
    """
    if geo.n != color.n:
        raise ValidationError(f"partition sizes differ: {geo.n} vs {color.n}")
    if color.unclustered.size:
        raise ValidationError("color partition must cover every point")
    clustered = geo.membership >= 0
    key = geo.membership[clustered] * (color.num_groups + 1) + color.membership[clustered]
    _, inverse = np.unique(key, return_inverse=True)
    mem = np.full(geo.n, -1, dtype=np.int64)
    mem[clustered] = inverse
    return _canonical_by_min_id(mem)


def restrict_partition(sp: SuperpointPartition, ids: np.ndarray) -> SuperpointPartition:
    """Partition induced on a subset of points (intersection semantics)."""
    return _canonical_by_min_id(sp.membership[np.asarray(ids, dtype=np.int64)])


def sample_group_indices(sp: SuperpointPartition, k_samples: int, seed: int) -> np.ndarray:
    """(N, K) point ids sampled uniformly with replacement from each point's
    own group; rows of unclustered points hold the point's own id.

    Contract (reimplemented verbatim by test oracles): draw an (N, K) matrix
    of integers in [0, 2**63) from numpy's default_rng(seed); sample j of a
    clustered point i is group_members_sorted[raw[i, j] % group_size].
    """
    if k_samples < 1:
        raise ValidationError(f"sample count must be >= 1, got {k_samples}")
    n = sp.n
    raw = np.random.default_rng(seed).integers(0, 2**63, size=(n, k_samples), dtype=np.int64)
    out = np.tile(np.arange(n, dtype=np.int64)[:, None], (1, k_samples))
    mem = sp.membership
    clustered = mem >= 0
    if not clustered.any():
        return out
    sizes = np.array([g.shape[0] for g in sp.groups], dtype=np.int64)
    starts = np.zeros(len(sp.groups) + 1, dtype=np.int64)
    np.cumsum(sizes, out=starts[1:])
    flat = np.concatenate(sp.groups) if sp.groups else np.empty(0, dtype=np.int64)
    rows = np.nonzero(clustered)[0]
    offs = raw[rows] % sizes[mem[rows]][:, None]
    out[rows] = flat[starts[mem[rows]][:, None] + offs]
    return out
