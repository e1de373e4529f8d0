import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import grid_cloud, random_cloud
from oracles import oracle_grow_color, oracle_grow_geometric, oracle_merge_partitions
from spseg import (
    GrowingConfig,
    PointCloud,
    SurfaceEstimate,
    ValidationError,
    build_index,
    from_membership,
    grow_color,
    grow_geometric,
    merge_partitions,
)
from spseg.superpoints import restrict_partition


def surface_from(normals, curvatures):
    return SurfaceEstimate(
        normals=np.asarray(normals, dtype=np.float64),
        curvatures=np.asarray(curvatures, dtype=np.float64),
        degenerate_count=0,
    )


def random_surface(rng, n):
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    return surface_from(v, rng.uniform(0.0, 1.0 / 3.0, size=n))


def partition_as_lists(sp):
    return [g.tolist() for g in sp.groups], sp.unclustered.tolist()


class TestGrowGeometric:
    def test_single_plane_one_group(self):
        cloud = grid_cloud(12, 12)
        index = build_index(cloud)
        surf = surface_from(np.tile([0.0, 0.0, 1.0], (cloud.n, 1)), np.zeros(cloud.n))
        part = grow_geometric(cloud, surf, index, GrowingConfig())
        assert part.num_groups == 1
        assert part.unclustered.size == 0
        assert part.groups[0].size == cloud.n

    def test_two_planes_crease_unclustered(self):
        # Analytic construction: floor normals +z, wall normals +x, crease
        # points get curvature above threshold.
        xs = np.arange(0.0, 1.01, 0.1)
        floor = np.array([[x, y, 0.0] for x in xs for y in xs])
        wall = np.array([[0.0, y, z] for z in xs[1:] for y in xs])
        pos = np.concatenate([floor, wall])
        n = len(pos)
        cloud = PointCloud(positions=pos, colors=np.full((n, 3), 0.5))
        normals = np.zeros((n, 3))
        normals[: len(floor)] = [0.0, 0.0, 1.0]
        normals[len(floor):] = [1.0, 0.0, 0.0]
        curv = np.full(n, 0.001)
        crease = [i for i, p in enumerate(pos) if p[0] == 0.0 and p[2] == 0.0]
        curv[crease] = 0.2
        normals[crease] = np.array([1.0, 0.0, 1.0]) / math.sqrt(2)
        cfg = GrowingConfig(t_cvt=0.05)
        part = grow_geometric(cloud, surface_from(normals, curv), build_index(cloud), cfg)
        assert part.num_groups == 2
        assert set(part.unclustered.tolist()) == set(crease)

    def test_matches_oracle_on_random_input(self, rng):
        for _ in range(6):
            n = int(rng.integers(40, 160))
            cloud = random_cloud(rng, n)
            surf = random_surface(rng, n)
            cfg = GrowingConfig(
                t_ang=float(rng.uniform(0.2, 1.2)),
                t_cvt=float(rng.uniform(0.05, 0.3)),
                k_grow=int(rng.integers(4, 10)),
                min_cluster=int(rng.integers(1, 6)),
            )
            part = grow_geometric(cloud, surf, build_index(cloud), cfg)
            groups, unclustered = oracle_grow_geometric(
                cloud.positions, surf.normals, surf.curvatures, cfg
            )
            got_groups, got_unclustered = partition_as_lists(part)
            assert sorted(map(tuple, got_groups)) == sorted(map(tuple, groups))
            assert got_unclustered == unclustered

    def test_admission_edges_satisfy_angle_rule(self, rng):
        n = 120
        cloud = random_cloud(rng, n)
        surf = random_surface(rng, n)
        cfg = GrowingConfig(t_ang=0.8, t_cvt=0.25, k_grow=8, min_cluster=1)
        part, admitted_by = grow_geometric(cloud, surf, build_index(cloud), cfg, record_admission=True)
        cos_t = math.cos(cfg.t_ang)
        for i in range(n):
            parent = admitted_by[i]
            if parent >= 0:
                assert part.membership[i] == part.membership[parent]
                assert abs(float(surf.normals[parent] @ surf.normals[i])) > cos_t
            elif part.membership[i] >= 0:
                # A round seed: must have passed the curvature gate.
                assert surf.curvatures[i] < cfg.t_cvt

    def test_deterministic(self, rng):
        cloud = random_cloud(rng, 100)
        surf = random_surface(rng, 100)
        index = build_index(cloud)
        cfg = GrowingConfig(t_ang=0.6, t_cvt=0.2, k_grow=6, min_cluster=2)
        a = grow_geometric(cloud, surf, index, cfg)
        b = grow_geometric(cloud, surf, index, cfg)
        assert (a.membership == b.membership).all()

    def test_mismatched_lengths_rejected(self, rng):
        cloud = random_cloud(rng, 20)
        surf = random_surface(rng, 19)
        with pytest.raises(ValidationError):
            grow_geometric(cloud, surf, build_index(cloud), GrowingConfig())


def palette_cloud(rng, n, num_colors=3, noise=0.004):
    pos = rng.uniform(-1.0, 1.0, size=(n, 3))
    palette = rng.random((num_colors, 3)) * 0.8 + 0.1
    cols = palette[rng.integers(0, num_colors, size=n)]
    cols = np.clip(cols + rng.normal(0.0, noise, size=(n, 3)), 0.0, 1.0)
    return PointCloud(positions=pos, colors=cols)


class TestGrowColor:
    def test_uniform_color_single_group(self):
        cloud = grid_cloud(10, 10, color=(0.3, 0.6, 0.1))
        part = grow_color(cloud, build_index(cloud), GrowingConfig())
        assert part.num_groups == 1
        assert part.unclustered.size == 0

    def test_checkerboard_patches(self):
        # 4 blocks of 4x4 points in a 2x2 checkerboard; block spacing tight so
        # k-NN connects orthogonal neighbors across block boundaries.
        blocks = []
        colors = []
        for bx in range(2):
            for by in range(2):
                col = (0.9, 0.1, 0.1) if (bx + by) % 2 == 0 else (0.1, 0.1, 0.9)
                for i in range(4):
                    for j in range(4):
                        blocks.append([bx * 0.4 + i * 0.1, by * 0.4 + j * 0.1, 0.0])
                        colors.append(col)
        cloud = PointCloud(positions=np.array(blocks), colors=np.array(colors))
        cfg = GrowingConfig(t_clr=6.0, k_grow=5, min_cluster=1)
        part = grow_color(cloud, build_index(cloud), cfg)
        # Same-color diagonal blocks are not k-NN adjacent here, so they stay
        # separate connected components.
        expected = _connected_same_color_components(cloud, cfg)
        assert part.num_groups == expected

    def test_every_point_clustered(self, rng):
        cloud = palette_cloud(rng, 150)
        part = grow_color(cloud, build_index(cloud), GrowingConfig(min_cluster=1))
        assert part.unclustered.size == 0
        assert sum(g.size for g in part.groups) == cloud.n

    def test_matches_oracle_on_random_input(self, rng):
        for _ in range(6):
            n = int(rng.integers(40, 140))
            cloud = palette_cloud(rng, n, num_colors=int(rng.integers(2, 5)))
            cfg = GrowingConfig(
                t_clr=float(rng.uniform(4.0, 30.0)),
                t_merge=float(rng.uniform(4.0, 40.0)),
                k_grow=int(rng.integers(4, 9)),
                min_cluster=int(rng.integers(1, 8)),
            )
            part = grow_color(cloud, build_index(cloud), cfg)
            got_groups, got_unclustered = partition_as_lists(part)
            expected = oracle_grow_color(cloud.positions, cloud.colors_255(), cfg)
            assert got_unclustered == []
            assert got_groups == expected

    def test_admission_edges_satisfy_color_rule(self, rng):
        cloud = palette_cloud(rng, 120)
        cfg = GrowingConfig(t_clr=12.0, min_cluster=1)
        _, admitted_by = grow_color(cloud, build_index(cloud), cfg, record_admission=True)
        col = cloud.colors_255()
        for i, parent in enumerate(admitted_by):
            if parent >= 0:
                assert np.linalg.norm(col[parent] - col[i]) < cfg.t_clr

    def test_deterministic(self, rng):
        cloud = palette_cloud(rng, 120)
        index = build_index(cloud)
        cfg = GrowingConfig(t_clr=10.0, min_cluster=3)
        a = grow_color(cloud, index, cfg)
        b = grow_color(cloud, index, cfg)
        assert (a.membership == b.membership).all()


def _connected_same_color_components(cloud, cfg):
    index = build_index(cloud)
    nbrs = index.knn_table(cfg.k_grow)
    col = cloud.colors_255()
    seen = set()
    comps = 0
    for start in range(cloud.n):
        if start in seen:
            continue
        comps += 1
        stack = [start]
        seen.add(start)
        while stack:
            i = stack.pop()
            for j in nbrs[i]:
                j = int(j)
                if j not in seen and np.linalg.norm(col[i] - col[j]) < cfg.t_clr:
                    seen.add(j)
                    stack.append(j)
    return comps


# Tie cases: lattice points at unit spacing, so many k-NN distances tie, with
# colors or normals taken from 2-3 exact values. A color step of 4/256 is
# exactly 3.984375 in 0-255 units, so color distances, cluster-mean distances
# and the thresholds below (multiples of half a step) tie exactly too.
_STEP = 4.0 / 256.0
_STEP_255 = 255.0 * _STEP
# |dot| between these is exactly 1, 0.8 or 0.
_TIE_NORMALS = ((0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (0.6, 0.0, 0.8), (1.0, 0.0, 0.0))


def lattice(shape):
    axes = np.meshgrid(*(np.arange(m) for m in shape), indexing="ij")
    return np.stack(axes, axis=-1).reshape(-1, 3).astype(np.float64)


# 9 to 60 points; each point takes value picks[i] % len(values) of 2-3 values.
lattice_shapes = st.tuples(st.integers(3, 6), st.integers(3, 5), st.integers(1, 2))
lattice_picks = st.lists(st.integers(0, 2), min_size=60, max_size=60)


class TestGrowersOnTies:
    @settings(max_examples=300, deadline=None)
    @given(
        shape=lattice_shapes,
        picks=lattice_picks,
        palette=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=2, max_size=3),
        t_clr=st.sampled_from([0.5, 1.0, 1.5, 2.0]),
        t_merge=st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5]),
        k_grow=st.integers(3, 8),
        min_cluster=st.integers(1, 12),
    )
    # Two merge orders of a three-color chain give different partitions.
    @example(shape=(3, 3, 1), picks=[0] * 7 + [1, 2] + [0] * 51, palette=[(0, 0), (1, 0), (2, 0)],
             t_clr=0.5, t_merge=1.5, k_grow=3, min_cluster=1)
    # Singletons fold into equidistant neighbors after relabeled pairs.
    @example(shape=(6, 5, 2), picks=[1 if i in (8, 16, 28, 45, 53) else 0 for i in range(60)],
             palette=[(0, 0), (0, 1)], t_clr=0.5, t_merge=0.5, k_grow=3, min_cluster=2)
    def test_color_matches_oracle(self, shape, picks, palette, t_clr, t_merge, k_grow, min_cluster):
        pos = lattice(shape)
        steps = np.array(palette, dtype=np.float64)[np.array(picks[: len(pos)]) % len(palette)]
        cloud = PointCloud(positions=pos, colors=np.c_[steps * _STEP, np.zeros(len(pos))])
        cfg = GrowingConfig(t_clr=t_clr * _STEP_255, t_merge=t_merge * _STEP_255,
                            k_grow=k_grow, min_cluster=min_cluster)
        part = grow_color(cloud, build_index(cloud), cfg)
        assert partition_as_lists(part) == (oracle_grow_color(pos, cloud.colors_255(), cfg), [])

    @settings(max_examples=300, deadline=None)
    @given(
        shape=lattice_shapes,
        picks=lattice_picks,
        normals=st.lists(st.sampled_from(_TIE_NORMALS), min_size=2, max_size=3),
        curvature_picks=lattice_picks,
        curvatures=st.lists(st.sampled_from([0.0, 0.02, 0.1]), min_size=2, max_size=3),
        t_ang=st.sampled_from([1e-9, 0.5, 0.7, 1.6]),
        t_cvt=st.sampled_from([0.02, 0.05, 0.2]),
        k_grow=st.integers(3, 8),
        min_cluster=st.integers(1, 12),
    )
    def test_geometric_matches_oracle(self, shape, picks, normals, curvature_picks, curvatures,
                                      t_ang, t_cvt, k_grow, min_cluster):
        pos = lattice(shape)
        n = len(pos)
        surf = surface_from(np.array(normals)[np.array(picks[:n]) % len(normals)],
                            np.array(curvatures)[np.array(curvature_picks[:n]) % len(curvatures)])
        cloud = PointCloud(positions=pos, colors=np.full(pos.shape, 0.5))
        cfg = GrowingConfig(t_ang=t_ang, t_cvt=t_cvt, k_grow=k_grow, min_cluster=min_cluster)
        part = grow_geometric(cloud, surf, build_index(cloud), cfg)
        assert partition_as_lists(part) == oracle_grow_geometric(pos, surf.normals, surf.curvatures, cfg)


class TestMergePartitions:
    def test_identity(self):
        mem = np.zeros(10, dtype=np.int64)
        geo = from_membership(mem)
        color = from_membership(mem)
        out = merge_partitions(geo, color)
        assert out.num_groups == 1
        assert out.groups[0].size == 10

    def test_split_by_color(self):
        geo_mem = np.array([0, 0, 0, 0, -1, -1], dtype=np.int64)
        col_mem = np.array([0, 0, 1, 1, 0, 1], dtype=np.int64)
        out = merge_partitions(from_membership(geo_mem), from_membership(col_mem))
        groups, unclustered = [g.tolist() for g in out.groups], out.unclustered.tolist()
        assert groups == [[0, 1], [2, 3]]
        assert unclustered == [4, 5]

    def test_matches_set_algebra_oracle(self, rng):
        for _ in range(10):
            n = int(rng.integers(20, 120))
            geo_mem = rng.integers(-1, 4, size=n)
            col_mem = rng.integers(0, 5, size=n)
            geo = from_membership(_dense(geo_mem))
            color = from_membership(_dense(col_mem, keep_none=False))
            out = merge_partitions(geo, color)
            got_groups, got_unc = partition_as_lists(out)
            exp_groups, exp_unc = oracle_merge_partitions(
                [g.tolist() for g in geo.groups], geo.unclustered.tolist(),
                [g.tolist() for g in color.groups],
            )
            assert got_groups == exp_groups
            assert got_unc == exp_unc
            assert out.num_groups <= geo.num_groups * color.num_groups

    def test_refines_both_inputs(self, rng):
        n = 200
        geo = from_membership(_dense(rng.integers(-1, 5, size=n)))
        color = from_membership(_dense(rng.integers(0, 6, size=n), keep_none=False))
        out = merge_partitions(geo, color)
        for g in out.groups:
            assert len(set(geo.membership[g].tolist())) == 1
            assert len(set(color.membership[g].tolist())) == 1

    def test_rejects_color_with_residue(self):
        geo = from_membership(np.zeros(4, dtype=np.int64))
        color = from_membership(np.array([0, 0, -1, 0], dtype=np.int64))
        with pytest.raises(ValidationError):
            merge_partitions(geo, color)

    def test_rejects_size_mismatch(self):
        geo = from_membership(np.zeros(4, dtype=np.int64))
        color = from_membership(np.zeros(5, dtype=np.int64))
        with pytest.raises(ValidationError):
            merge_partitions(geo, color)


def _dense(mem, keep_none=True):
    """Compact arbitrary membership ints to dense ids, optionally keeping -1."""
    mem = np.asarray(mem, dtype=np.int64)
    if not keep_none:
        mem = np.where(mem < 0, 0, mem)
    out = np.full(mem.shape, -1, dtype=np.int64)
    clustered = mem >= 0
    if clustered.any():
        _, inv = np.unique(mem[clustered], return_inverse=True)
        out[clustered] = inv
    return out


class TestPartitionContainer:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-1, 6), min_size=1, max_size=60))
    def test_from_membership_invariants(self, mem):
        part = from_membership(_dense(np.array(mem)))
        covered = np.zeros(part.n, dtype=bool)
        for g in part.groups:
            assert g.size > 0
            assert not covered[g].any()
            covered[g] = True
        covered[part.unclustered] = True
        assert covered.all()

    def test_rejects_inconsistent_membership(self):
        with pytest.raises(ValidationError):
            from spseg import SuperpointPartition

            SuperpointPartition(
                groups=(np.array([0, 1]),),
                unclustered=np.array([1]),
                membership=np.array([0, 0]),
            )

    def test_restrict_partition_intersects(self, rng):
        mem = _dense(rng.integers(-1, 5, size=60))
        part = from_membership(mem)
        ids = np.sort(rng.choice(60, size=25, replace=False))
        sub = restrict_partition(part, ids)
        assert sub.n == 25
        for g in sub.groups:
            orig = mem[ids[g]]
            assert len(set(orig.tolist())) == 1
            assert (orig >= 0).all()
        assert (mem[ids[sub.unclustered]] == -1).all()
