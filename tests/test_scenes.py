import numpy as np
import pytest

from spseg import (
    GrowingConfig,
    SceneSpecError,
    ValidationError,
    build_index,
    estimate_surface,
    generate_synthetic_scene,
    grow_color,
    grow_geometric,
    make_scene_set,
)
from spseg.scenes import (
    CLASS_BOARD,
    CLASS_FLOOR,
    MAX_SCENE_POINTS,
    MIN_SCENE_POINTS,
    NUM_SCENE_CLASSES,
    Primitive,
    SceneSpec,
    beam_demo_spec,
    board_demo_spec,
    default_room_spec,
)


def floor_only_spec(density=600.0):
    return SceneSpec(
        primitives=(Primitive("floor", CLASS_FLOOR, (0.5, 0.5, 0.5), origin=(0, 0, 0), size=(3.0, 3.0, 0)),),
        density=density,
    )


class TestGenerator:
    def test_empty_spec_rejected(self):
        with pytest.raises(SceneSpecError):
            generate_synthetic_scene(0, SceneSpec(primitives=()))

    def test_single_floor_single_class(self):
        cloud, labels = generate_synthetic_scene(1, floor_only_spec())
        assert set(labels.class_of.tolist()) == {CLASS_FLOOR}
        assert MIN_SCENE_POINTS <= cloud.n <= MAX_SCENE_POINTS

    def test_point_budget_enforced(self):
        with pytest.raises(SceneSpecError):
            generate_synthetic_scene(0, floor_only_spec(density=5.0))
        with pytest.raises(SceneSpecError):
            generate_synthetic_scene(0, floor_only_spec(density=50_000.0))

    @pytest.mark.parametrize("density", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_density_rejected(self, density):
        with pytest.raises(SceneSpecError):
            floor_only_spec(density=density)

    def test_deterministic(self):
        spec = default_room_spec(4)
        a, la = generate_synthetic_scene(9, spec)
        b, lb = generate_synthetic_scene(9, spec)
        assert (a.positions == b.positions).all()
        assert (a.colors == b.colors).all()
        assert (la.class_of == lb.class_of).all()

    def test_room_has_all_classes_regionally(self):
        cloud, labels = generate_synthetic_scene(2, default_room_spec(2))
        counts = np.bincount(labels.class_of, minlength=NUM_SCENE_CLASSES)
        assert (counts > 0).all()
        assert MIN_SCENE_POINTS <= cloud.n <= MAX_SCENE_POINTS

    def test_board_does_not_interleave_with_host(self):
        # The board's footprint is carved out of the floor, so no floor point
        # falls inside the board rectangle.
        cloud, labels = generate_synthetic_scene(3, board_demo_spec())
        floor_pts = cloud.positions[labels.class_of == CLASS_FLOOR]
        inside = (
            (floor_pts[:, 0] > 1.02) & (floor_pts[:, 0] < 1.78)
            & (floor_pts[:, 1] > 1.02) & (floor_pts[:, 1] < 1.78)
        )
        assert not inside.any()
        assert (labels.class_of == CLASS_BOARD).sum() > 100


class TestStructureAsymmetries:
    def test_board_scene_splits_only_in_color(self):
        cloud, _ = generate_synthetic_scene(11, board_demo_spec())
        index = build_index(cloud)
        surf = estimate_surface(cloud, index, 16)
        cfg = GrowingConfig()
        geo = grow_geometric(cloud, surf, index, cfg)
        color = grow_color(cloud, index, cfg)
        assert geo.num_groups == 1
        assert color.num_groups >= 2

    def test_beam_scene_splits_only_in_geometry(self):
        cloud, _ = generate_synthetic_scene(11, beam_demo_spec())
        index = build_index(cloud)
        surf = estimate_surface(cloud, index, 16)
        cfg = GrowingConfig()
        geo = grow_geometric(cloud, surf, index, cfg)
        color = grow_color(cloud, index, cfg)
        assert geo.num_groups >= 2
        assert color.num_groups == 1


class TestSceneSet:
    def test_split_counts_and_disjoint_ids(self):
        scenes = make_scene_set(num_train=4, num_labeled=1, num_eval=2, seed=5, density=450.0)
        assert len(scenes.labeled) == 1
        assert len(scenes.unlabeled) == 3
        assert len(scenes.eval) == 2
        ids = [s.scene_id for s in scenes.all_scenes()]
        assert len(ids) == len(set(ids))
        for s in scenes.unlabeled:
            assert s.labels is None
        for s in scenes.labeled + scenes.eval:
            assert s.labels is not None

    def test_rejects_bad_split(self):
        with pytest.raises(ValidationError):
            make_scene_set(num_train=2, num_labeled=3, num_eval=1, seed=0)

    @pytest.mark.parametrize("counts", [(2, 1, -1), (-1, 0, 1), (2, -1, 1)])
    def test_rejects_negative_counts(self, counts):
        with pytest.raises(ValidationError):
            make_scene_set(*counts, seed=0)
