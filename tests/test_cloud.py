import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import grid_cloud, random_cloud
from oracles import (
    oracle_eig3,
    oracle_knn,
    oracle_knn_table,
    oracle_nullspace_vector,
    oracle_point_covariance,
)
from spseg import PointCloud, ValidationError, build_index, estimate_surface
from spseg import cloud as cloud_module
from spseg.cloud import CURVATURE_MAX
from spseg.scenes import default_room_spec, generate_synthetic_scene


class TestPointCloud:
    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            PointCloud(positions=np.zeros((0, 3)), colors=np.zeros((0, 3)))

    def test_rejects_nonfinite_positions(self):
        pos = np.array([[0.0, 0.0, np.nan]])
        with pytest.raises(ValidationError):
            PointCloud(positions=pos, colors=np.zeros((1, 3)))

    def test_rejects_out_of_range_colors(self):
        with pytest.raises(ValidationError):
            PointCloud(positions=np.zeros((1, 3)), colors=np.array([[0.0, 0.0, 1.5]]))

    def test_arrays_are_readonly(self):
        cloud = PointCloud(positions=np.zeros((2, 3)), colors=np.zeros((2, 3)))
        with pytest.raises(ValueError):
            cloud.positions[0, 0] = 1.0


class TestKnn:
    def test_singleton_cloud(self):
        cloud = PointCloud(positions=np.zeros((1, 3)), colors=np.zeros((1, 3)))
        index = build_index(cloud)
        assert index.knn(0, 1).tolist() == [0]

    def test_unit_cube_corner(self):
        corners = np.array(
            [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], dtype=np.float64
        )
        cloud = PointCloud(positions=corners, colors=np.zeros((8, 3)))
        index = build_index(cloud)
        got = index.knn(0, 4).tolist()
        # Self plus the three corners at distance 1; brute-force sort confirms.
        assert got == oracle_knn(corners, 0, 4)
        assert set(got) == {0, 1, 2, 4}

    def test_collinear_tie_break(self):
        pos = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        cloud = PointCloud(positions=pos, colors=np.zeros((3, 3)))
        index = build_index(cloud)
        # Point 1 is equidistant from 0 and 2: ascending id wins.
        assert index.knn(1, 3).tolist() == [1, 0, 2]

    def test_k_too_large_rejected(self):
        cloud = PointCloud(positions=np.zeros((2, 3)), colors=np.zeros((2, 3)))
        with pytest.raises(ValidationError):
            build_index(cloud).knn(0, 3)

    def test_k_one_is_self(self, rng):
        cloud = random_cloud(rng, 50)
        index = build_index(cloud)
        for q in range(0, 50, 7):
            assert index.knn(q, 1).tolist() == [q]

    def test_matches_oracle_on_random_points(self, rng):
        cloud = random_cloud(rng, 500, dup_fraction=0.05)
        index = build_index(cloud)
        queries = rng.integers(0, 500, size=40)
        for k in (1, 8, 16):
            for q in queries:
                assert index.knn(int(q), k).tolist() == oracle_knn(cloud.positions, int(q), k)

    def test_table_matches_single_queries(self, rng):
        cloud = random_cloud(rng, 200, dup_fraction=0.1)
        index = build_index(cloud)
        table = index.knn_table(9)
        for q in range(200):
            assert table[q].tolist() == index.knn(q, 9).tolist()

    def test_table_on_grid_with_exact_ties(self):
        cloud = grid_cloud(12, 12)
        index = build_index(cloud)
        table = index.knn_table(8)
        for q in range(0, cloud.n, 13):
            assert table[q].tolist() == oracle_knn(cloud.positions, q, 8)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 40), k=st.integers(1, 10), seed=st.integers(0, 10**6))
    def test_property_oracle_equality(self, n, k, seed):
        r = np.random.default_rng(seed)
        cloud = random_cloud(r, n, dup_fraction=0.2)
        k = min(k, n)
        index = build_index(cloud)
        q = int(r.integers(0, n))
        assert index.knn(q, k).tolist() == oracle_knn(cloud.positions, q, k)


def assert_table_matches_oracle(positions, k):
    """The whole k-NN table equals the per-query brute-force oracle."""
    pos = np.asarray(positions, dtype=np.float64)
    cloud = PointCloud(positions=pos, colors=np.zeros_like(pos))
    table = build_index(cloud).knn_table(k)
    with np.errstate(over="ignore"):
        expected = [oracle_knn(cloud.positions, q, k) for q in range(cloud.n)]
    assert table.shape == (cloud.n, k)
    assert table.tolist() == expected


class TestKnnGrid:
    """Whole tables from the voxel grid against the brute-force oracles, on
    clouds built to break a grid: shared cells, points on cell faces, flat
    extents, lost precision, overflowing distances and empty space."""

    def test_all_points_coincident(self):
        assert_table_matches_oracle(np.full((300, 3), 0.25), 16)

    def test_integer_lattice_on_cell_faces(self, monkeypatch):
        # With a cell edge of exactly 1, every lattice point lies on a cell
        # face, and neighbors tie at every lattice distance.
        lattice = np.stack(np.meshgrid(*[np.arange(8.0)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
        fit = cloud_module._fit_grid
        monkeypatch.setattr(
            cloud_module, "_cell_grid", lambda u, span, k: fit(span, span > 0, 1.0, u.shape[0])
        )
        grid = cloud_module._Grid(lattice, 16)
        assert grid.h == 1.0 and (grid.dims == 8).all()
        assert np.array_equal(grid.cell, lattice.astype(np.int64))
        for k in (7, 16, 27):
            assert_table_matches_oracle(lattice, k)

    def test_point_rounded_into_next_cell(self, monkeypatch):
        # With cells 0.1 wide, x = 1.7 lands in cell 17 although it lies
        # below the face 17 * 0.1 = 1.7000000000000002 of the block around
        # query 3. Point 1 there ties point 2 inside the block and wins on
        # id; only the face slack keeps the block from certifying the row.
        fit = cloud_module._fit_grid
        monkeypatch.setattr(
            cloud_module, "_cell_grid", lambda u, span, k: fit(span, span > 0, 0.1, u.shape[0])
        )
        q = 1.5750000000000002
        d = 1.7 - q
        pos = [[0.0, 0.0, 0.0], [1.7, 0.0, 0.0], [q, d, 0.0], [q, 0.0, 0.0]]
        pos += [[2.2 + 0.03 * i, 0.0, 0.0] for i in range(11)]
        pos = np.array(pos)
        grid = cloud_module._Grid(pos, 2)
        assert grid.cell[1, 0] == 17 and 1.7 < 17 * grid.h
        assert build_index(PointCloud(positions=pos, colors=np.zeros_like(pos))).knn(3, 2).tolist() == [3, 1]
        assert_table_matches_oracle(pos, 2)

    def test_integer_lattice_with_derived_cells(self):
        lattice = np.stack(np.meshgrid(*[np.arange(9.0)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
        for k in (6, 16, 19):
            assert_table_matches_oracle(lattice, k)

    def test_flat_plane(self, rng):
        pos = rng.uniform(-1.0, 1.0, size=(400, 3))
        pos[:, 2] = 0.7
        assert_table_matches_oracle(pos, 16)

    def test_collinear_line(self, rng):
        pos = np.zeros((300, 3))
        pos[:, 1] = rng.uniform(0.0, 5.0, size=300)
        pos[::7, 1] = pos[1::7, 1][: pos[::7].shape[0]]
        assert_table_matches_oracle(pos, 16)

    def test_large_offset(self, rng):
        assert_table_matches_oracle(rng.uniform(-1.0, 1.0, size=(400, 3)) + 1e6, 16)

    def test_overflowing_distances(self, rng):
        # Squared distances of points spread over +-1e300 overflow to inf, so
        # most rows rank by id alone.
        pos = rng.uniform(-1e300, 1e300, size=(200, 3))
        pos[:40] = rng.uniform(-1.0, 1.0, size=(40, 3))
        pos[40:50] = pos[50:60]
        assert_table_matches_oracle(pos, 16)

    def test_two_tight_clusters_far_apart(self, rng):
        pos = np.concatenate(
            [rng.normal(0.0, 0.01, size=(150, 3)), rng.normal(1000.0, 0.01, size=(150, 3))]
        )
        assert_table_matches_oracle(pos, 16)
        # A cluster smaller than k must reach across the empty space.
        pos = np.concatenate(
            [rng.normal(0.0, 0.01, size=(290, 3)), rng.normal(1000.0, 0.01, size=(10, 3))]
        )
        assert_table_matches_oracle(pos, 16)

    def test_k_equals_n(self, rng):
        cloud = random_cloud(rng, 60, dup_fraction=0.2)
        assert_table_matches_oracle(cloud.positions, 60)

    def test_single_point(self):
        assert_table_matches_oracle(np.zeros((1, 3)), 1)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 200),
        k=st.integers(1, 24),
        dup=st.floats(0.0, 0.5),
        scale_exp=st.floats(-6.0, 6.0),
        offset=st.floats(-1e6, 1e6),
        seed=st.integers(0, 10**6),
    )
    def test_property_whole_table(self, n, k, dup, scale_exp, offset, seed):
        r = np.random.default_rng(seed)
        pos = r.uniform(-1.0, 1.0, size=(n, 3)) * 10.0**scale_exp + offset
        copies = int(n * dup)
        pos[r.integers(0, n, size=copies)] = pos[r.integers(0, n, size=copies)]
        assert_table_matches_oracle(pos, min(k, n))

    def test_generated_room_rows(self):
        cloud, _ = generate_synthetic_scene(1, default_room_spec(1, density=281.0))
        assert 5100 <= cloud.n <= 5300
        table = build_index(cloud).knn_table(16)
        rows = np.random.default_rng(7).choice(cloud.n, size=300, replace=False)
        assert np.array_equal(table[rows], oracle_knn_table(cloud.positions, 16, rows))

    def test_table_oracles_agree(self, rng):
        cloud = random_cloud(rng, 120, dup_fraction=0.2)
        expected = [oracle_knn(cloud.positions, q, 10) for q in range(cloud.n)]
        assert oracle_knn_table(cloud.positions, 10).tolist() == expected


class TestEstimateSurface:
    def test_planar_grid(self):
        cloud = grid_cloud(15, 15)
        index = build_index(cloud)
        surf = estimate_surface(cloud, index, k_normal=16)
        assert np.allclose(surf.normals, [0.0, 0.0, 1.0], atol=1e-9)
        assert (surf.curvatures < 1e-6).all()
        assert surf.degenerate_count == 0

    def test_crease_has_higher_curvature(self):
        # Two perpendicular planes meeting along y: z = 0 for x >= 0, x = 0 for z > 0.
        xs = np.arange(0.0, 1.01, 0.1)
        ys = np.arange(0.0, 1.01, 0.1)
        floor = np.array([[x, y, 0.0] for x in xs for y in ys])
        wall = np.array([[0.0, y, z] for z in xs[1:] for y in ys])
        pos = np.concatenate([floor, wall])
        cloud = PointCloud(positions=pos, colors=np.full((len(pos), 3), 0.5))
        index = build_index(cloud)
        surf = estimate_surface(cloud, index, k_normal=16)
        crease = [i for i, p in enumerate(pos) if p[0] == 0.0 and p[2] == 0.0]
        interior = [i for i, p in enumerate(pos) if p[0] > 0.4 and p[2] == 0.0]
        assert min(surf.curvatures[crease]) > max(surf.curvatures[interior])

    def test_matches_characteristic_polynomial_oracle(self, rng):
        cloud = random_cloud(rng, 120)
        index = build_index(cloud)
        k = 12
        surf = estimate_surface(cloud, index, k_normal=k)
        table = index.knn_table(k)
        for i in range(0, cloud.n, 7):
            cov = oracle_point_covariance(cloud.positions, table[i].tolist())
            lams = oracle_eig3(cov)
            scale = max(1.0, abs(lams[2]))
            expected_curv = lams[0] / sum(lams)
            assert abs(surf.curvatures[i] - expected_curv) < 1e-8
            v = oracle_nullspace_vector(cov, lams[0])
            assert 1.0 - abs(float(v @ surf.normals[i])) < 1e-8 * scale

    def test_normals_unit_and_curvature_bounds(self, rng):
        cloud = random_cloud(rng, 300)
        surf = estimate_surface(cloud, build_index(cloud), k_normal=10)
        norms = np.linalg.norm(surf.normals, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-6
        assert (surf.curvatures >= 0.0).all()
        assert (surf.curvatures <= CURVATURE_MAX).all()

    def test_translation_invariance(self, rng):
        cloud = random_cloud(rng, 150)
        moved = PointCloud(positions=cloud.positions + [10.0, -5.0, 3.0], colors=cloud.colors)
        a = estimate_surface(cloud, build_index(cloud), 12)
        b = estimate_surface(moved, build_index(moved), 12)
        assert np.allclose(a.normals, b.normals, atol=1e-9)
        assert np.allclose(a.curvatures, b.curvatures, atol=1e-12)

    def test_rotation_equivariance(self, rng):
        cloud = random_cloud(rng, 200)
        theta = 0.7
        rot = np.array(
            [
                [math.cos(theta), -math.sin(theta), 0.1],
                [math.sin(theta), math.cos(theta), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        q, _ = np.linalg.qr(rot)
        rotated = PointCloud(positions=cloud.positions @ q.T, colors=cloud.colors)
        a = estimate_surface(cloud, build_index(cloud), 12)
        b = estimate_surface(rotated, build_index(rotated), 12)
        mapped = a.normals @ q.T
        cosang = np.abs((mapped * b.normals).sum(axis=1))
        assert (np.arccos(np.clip(cosang, -1, 1)) < 1e-4).all()
        assert np.allclose(a.curvatures, b.curvatures, atol=1e-9)

    def test_deterministic(self, rng):
        cloud = random_cloud(rng, 100)
        a = estimate_surface(cloud, build_index(cloud), 10)
        b = estimate_surface(cloud, build_index(cloud), 10)
        assert (a.normals == b.normals).all()
        assert (a.curvatures == b.curvatures).all()

    def test_degenerate_neighborhood(self):
        pos = np.zeros((5, 3))
        cloud = PointCloud(positions=pos, colors=np.zeros((5, 3)))
        surf = estimate_surface(cloud, build_index(cloud), k_normal=5)
        assert surf.degenerate_count == 5
        assert np.allclose(surf.normals, [0.0, 0.0, 1.0])
        assert (surf.curvatures == 0.0).all()

    def test_k_normal_too_small(self, rng):
        cloud = random_cloud(rng, 10)
        with pytest.raises(ValidationError):
            estimate_surface(cloud, build_index(cloud), k_normal=2)
