import dataclasses
import os

import numpy as np
import pytest

from oracles import oracle_metrics
from spseg import (
    GrowingConfig,
    LabelSet,
    ModelConfig,
    PointCloud,
    TrainConfig,
    TrainingDiverged,
    ValidationError,
    aggregate_superpoint_features,
    classify,
    evaluate,
    extract_features,
    init_params,
    metrics_from_confusion,
    precompute_scene,
    predict_pseudo_labels,
    train,
)
from spseg.scenes import Scene, SceneSet
from spseg.scenes import NUM_SCENE_CLASSES, default_room_spec, generate_synthetic_scene
from spseg.trainer import _TAG_EVAL, ABLATION_VARIANTS, _load_cache, _make_batch, ablation_suite
from spseg.util import derive_seed

CFG_MODEL = ModelConfig(width1=4, c_hidden=8, num_classes=2, ep_hidden=6)


def toy_scene(scene_id, seed, n=240, labeled=True):
    """Two well-separated flat patches with distinct colors and heights."""
    rng = np.random.default_rng(seed)
    half = n // 2
    pos0 = rng.uniform(0, 1, (half, 3)) * [1, 1, 0.02]
    pos1 = rng.uniform(0, 1, (n - half, 3)) * [1, 1, 0.02] + [1.6, 0.0, 0.3]
    col0 = np.clip(rng.normal([0.2, 0.2, 0.2], 0.01, (half, 3)), 0, 1)
    col1 = np.clip(rng.normal([0.8, 0.3, 0.3], 0.01, (n - half, 3)), 0, 1)
    cloud = PointCloud(
        positions=np.concatenate([pos0, pos1]), colors=np.concatenate([col0, col1])
    )
    labels = None
    if labeled:
        labels = LabelSet.full(np.array([0] * half + [1] * (n - half)), 2)
    return Scene(scene_id=scene_id, cloud=cloud, labels=labels)


def toy_config(**overrides):
    base = dict(
        epochs_total=4,
        epochs_labeled_only=2,
        learning_rate=0.02,
        chunk_size=1000,
        steps_per_epoch=2,
        k_normal=8,
        k_feat=4,
        k_edge=4,
        k_smooth=4,
        seed=3,
        growing=GrowingConfig(k_grow=8, min_cluster=5),
        model=CFG_MODEL,
    )
    base.update(overrides)
    return TrainConfig(**base)


def toy_scene_set():
    return SceneSet(
        labeled=[toy_scene(0, 10)],
        unlabeled=[toy_scene(1, 11, labeled=False), toy_scene(2, 12, labeled=False)],
        eval=[toy_scene(3, 13)],
        num_classes=2,
    )


class TestPrecompute:
    def test_deterministic_and_keyed_by_content(self):
        scene = toy_scene(0, 5)
        cfg = toy_config()
        a = precompute_scene(scene.cloud, cfg)
        b = precompute_scene(scene.cloud, cfg)
        assert a.key == b.key
        assert (a.merged.membership == b.merged.membership).all()
        assert (a.edges.is_edge == b.edges.is_edge).all()
        other = toy_scene(1, 6)
        assert precompute_scene(other.cloud, cfg).key != a.key

    def test_disk_cache_round_trip(self, tmp_path):
        scene = toy_scene(0, 5)
        cfg = toy_config(cache_dir=str(tmp_path))
        a = precompute_scene(scene.cloud, cfg)
        files = list(tmp_path.glob("scene_*.npz"))
        assert len(files) == 1
        b = precompute_scene(scene.cloud, cfg)
        assert (a.knn == b.knn).all()
        assert (a.geo.membership == b.geo.membership).all()
        assert (a.curvatures == b.curvatures).all()

    def test_corrupted_cache_recomputed(self, tmp_path):
        scene = toy_scene(0, 5)
        cfg = toy_config(cache_dir=str(tmp_path))
        a = precompute_scene(scene.cloud, cfg)
        path = tmp_path / f"scene_{a.key}.npz"
        path.write_bytes(b"garbage")
        b = precompute_scene(scene.cloud, cfg)
        assert (a.merged.membership == b.merged.membership).all()

    @pytest.mark.parametrize(
        "kind",
        [
            "float_table",
            "narrow_table",
            "short_table",
            "id_too_large",
            "negative_id",
            "self_not_first",
            "short_geo",
            "short_color",
            "short_merged",
            "short_edges",
        ],
    )
    def test_invalid_cache_entry_recomputed(self, tmp_path, kind):
        scene = toy_scene(0, 5)
        cfg = toy_config(cache_dir=str(tmp_path))
        a = precompute_scene(scene.cloud, cfg)
        path = tmp_path / f"scene_{a.key}.npz"
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        knn = arrays["knn"].copy()
        if kind == "float_table":
            arrays["knn"] = knn.astype(np.float64)
        elif kind == "narrow_table":
            arrays["knn"] = knn[:, :-1]
        elif kind == "short_table":
            arrays["knn"] = knn[:-1]
        elif kind == "id_too_large":
            knn[7, 2] = scene.cloud.n
            arrays["knn"] = knn
        elif kind == "negative_id":
            knn[7, 2] = -1
            arrays["knn"] = knn
        elif kind == "self_not_first":
            knn[7, [0, 1]] = knn[7, [1, 0]]
            arrays["knn"] = knn
        else:
            name = kind.removeprefix("short_")
            arrays[name] = arrays[name][:-1]
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        assert _load_cache(str(tmp_path), a.key, scene.cloud.n, cfg.k_table) is None
        b = precompute_scene(scene.cloud, cfg)
        assert b.knn.dtype == a.knn.dtype and (a.knn == b.knn).all()
        for name in ("geo", "color", "merged"):
            assert (getattr(a, name).membership == getattr(b, name).membership).all()
        assert (a.edges.is_edge == b.edges.is_edge).all()
        # The recompute replaced the entry with a valid one.
        assert _load_cache(str(tmp_path), a.key, scene.cloud.n, cfg.k_table) is not None

    def test_cache_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPSEG_CACHE_DIR", str(tmp_path))
        scene = toy_scene(0, 5)
        precompute_scene(scene.cloud, toy_config())
        assert list(tmp_path.glob("scene_*.npz"))


class TestPredict:
    def test_constant_logits_constant_class(self):
        scene = toy_scene(0, 7)
        cfg = toy_config()
        cache = precompute_scene(scene.cloud, cfg)
        params = init_params(CFG_MODEL, 0)
        params = params.from_vector(np.zeros(params.to_vector().size))
        params.bc[:] = [0.0, 5.0]
        pred = predict_pseudo_labels(params, scene, cache, cfg)
        assert (pred.class_of == 1).all()
        assert pred.mask.all()

    def test_zero_params_tie_breaks_to_class_zero(self):
        scene = toy_scene(0, 7)
        cfg = toy_config()
        cache = precompute_scene(scene.cloud, cfg)
        params = init_params(CFG_MODEL, 0)
        params = params.from_vector(np.zeros(params.to_vector().size))
        pred = predict_pseudo_labels(params, scene, cache, cfg)
        assert (pred.class_of == 0).all()

    def test_matches_composed_public_ops(self):
        scene = toy_scene(0, 7)
        cfg = toy_config()
        cache = precompute_scene(scene.cloud, cfg)
        params = init_params(CFG_MODEL, 9)
        pred = predict_pseudo_labels(params, scene, cache, cfg, seed=123)
        f = extract_features(scene.cloud, cache.knn[:, : cfg.k_feat], params)
        g = aggregate_superpoint_features(f, cache.merged, cfg.k_smooth, seed=123)
        x = classify(g, params)
        assert (pred.class_of == np.argmax(x, axis=1)).all()


class TestMetrics:
    def test_perfect_predictions(self):
        conf = np.diag([40, 25, 35])
        m = metrics_from_confusion(conf)
        assert m.miou == 100.0 and m.macc == 100.0 and m.oa == 100.0

    def test_hand_confusion_example(self):
        m = metrics_from_confusion(np.array([[50, 50], [0, 100]]))
        assert abs(m.oa - 75.0) < 1e-12
        assert abs(m.per_class_iou[0] - 0.5) < 1e-12
        assert abs(m.per_class_iou[1] - 100.0 / 150.0) < 1e-12
        assert abs(m.miou - (0.5 + 100.0 / 150.0) / 2 * 100.0) < 1e-9
        assert abs(m.miou - 58.3333333) < 1e-4

    def test_absent_class_excluded(self):
        conf = np.zeros((3, 3), dtype=int)
        conf[0, 0] = 10
        conf[1, 1] = 5
        m = metrics_from_confusion(conf)
        assert m.per_class_iou[2] is None
        assert m.miou == 100.0

    def test_matches_oracle_on_random(self, rng):
        truth = rng.integers(0, 4, size=500)
        pred = rng.integers(0, 4, size=500)
        conf = np.zeros((4, 4), dtype=np.int64)
        np.add.at(conf, (truth, pred), 1)
        m = metrics_from_confusion(conf)
        miou, macc, oa = oracle_metrics(truth.tolist(), pred.tolist(), 4)
        assert abs(m.miou - miou) < 1e-10
        assert abs(m.macc - macc) < 1e-10
        assert abs(m.oa - oa) < 1e-10

    def test_bounds_on_random_confusions(self, rng):
        for _ in range(25):
            conf = rng.integers(0, 30, size=(3, 3))
            if conf.sum() == 0:
                continue
            m = metrics_from_confusion(conf)
            for v in (m.miou, m.macc, m.oa):
                assert 0.0 <= v <= 100.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            metrics_from_confusion(np.zeros((2, 2), dtype=int))


class TestTrain:
    def test_deterministic(self):
        scenes = toy_scene_set()
        a = train(toy_config(), scenes)
        b = train(toy_config(), scenes)
        assert (a.params.to_vector() == b.params.to_vector()).all()
        assert a.log == b.log

    def test_labeled_only_schedule_is_supervised_baseline(self):
        scenes = toy_scene_set()
        result = train(toy_config(epochs_total=2, epochs_labeled_only=2), scenes)
        assert all(e.get("phase") == 1 for e in result.log if "step" in e)
        assert not [e for e in result.log if e.get("event") == "pseudo_refresh"]
        for ls in result.pseudo_labels.values():
            assert not ls.mask.any()

    def test_loss_decreases_on_separable_toy(self):
        scenes = SceneSet(labeled=[toy_scene(0, 10)], unlabeled=[], eval=[toy_scene(3, 13)], num_classes=2)
        cfg = toy_config(epochs_total=2, epochs_labeled_only=2, steps_per_epoch=4)
        result = train(cfg, scenes)
        steps = [e for e in result.log if "step" in e]
        first_epoch = np.mean([e["total"] for e in steps if e["epoch"] == 1])
        second_epoch = np.mean([e["total"] for e in steps if e["epoch"] == 2])
        assert second_epoch <= first_epoch

    def test_refresh_once_per_phase2_epoch(self):
        scenes = toy_scene_set()
        result = train(toy_config(epochs_total=5, epochs_labeled_only=2), scenes)
        refreshes = [e for e in result.log if e.get("event") == "pseudo_refresh"]
        assert [e["epoch"] for e in refreshes] == [3, 4, 5]

    def test_pseudo_labels_pure_within_superpoints_after_plo(self):
        scenes = toy_scene_set()
        cfg = toy_config()
        result = train(cfg, scenes)
        for scene in scenes.unlabeled:
            cache = precompute_scene(scene.cloud, cfg)
            ls = result.pseudo_labels[scene.scene_id]
            for g in cache.merged.groups:
                vals = set(ls.class_of[g][ls.mask[g]].tolist())
                assert len(vals) <= 1
            assert not ls.mask[cache.merged.unclustered].any()

    def test_seg_unlabeled_zero_in_phase_one(self):
        scenes = toy_scene_set()
        result = train(toy_config(), scenes)
        for e in result.log:
            if e.get("phase") == 1 and "step" in e:
                assert e["seg_unlabeled"] == 0.0

    def test_phase_one_skips_unlabeled_branch(self, monkeypatch):
        # With phase-1 epochs only, unlabeled scenes change neither the
        # parameters nor the log, and each step runs one forward pass.
        import spseg.trainer as trainer_module

        cfg = toy_config(epochs_total=3, epochs_labeled_only=3)
        scenes = toy_scene_set()
        labeled_only = SceneSet(labeled=scenes.labeled, unlabeled=[], eval=scenes.eval, num_classes=2)
        calls = []
        original = trainer_module.forward

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(trainer_module, "forward", counted)
        a = train(cfg, scenes)
        assert len(calls) == len([e for e in a.log if "step" in e]) == 3 * cfg.steps_per_epoch
        b = train(cfg, labeled_only)
        assert (a.params.to_vector() == b.params.to_vector()).all()
        assert a.log == b.log

    def test_chunked_scenes_train(self):
        scenes = toy_scene_set()
        cfg = toy_config(chunk_size=100)
        a = train(cfg, scenes)
        b = train(cfg, scenes)
        assert (a.params.to_vector() == b.params.to_vector()).all()

    def test_divergence_reported(self):
        scenes = toy_scene_set()
        # Adam bounds each update by ~lr, so the rate must be big enough that
        # the next forward pass overflows float64.
        cfg = toy_config(learning_rate=1e100, epochs_total=3, epochs_labeled_only=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(TrainingDiverged):
                train(cfg, scenes)

    def test_needs_labeled_scene(self):
        scenes = SceneSet(labeled=[], unlabeled=[toy_scene(1, 11, labeled=False)], eval=[], num_classes=2)
        with pytest.raises(ValidationError):
            train(toy_config(), scenes)


class TestBatching:
    def test_full_scene_batch_reuses_cache(self):
        scene = toy_scene(0, 5)
        cfg = toy_config()
        cache = precompute_scene(scene.cloud, cfg)
        batch = _make_batch(scene, cache, scene.labels, cfg, seed=1)
        assert batch.cloud is scene.cloud
        assert batch.nbrs.shape == (scene.cloud.n, cfg.k_feat)

    def test_chunked_batch_restricts_everything(self):
        scene = toy_scene(0, 5, n=240)
        cfg = toy_config(chunk_size=80)
        cache = precompute_scene(scene.cloud, cfg)
        batch = _make_batch(scene, cache, scene.labels, cfg, seed=1)
        assert batch.cloud.n == 80
        assert batch.nbrs.shape == (80, cfg.k_feat)
        assert batch.sp.n == 80
        assert batch.edges.n == 80
        assert batch.labels.n == 80


class TestEvaluate:
    def test_empty_rejected(self):
        cfg = toy_config()
        with pytest.raises(ValidationError):
            evaluate(init_params(CFG_MODEL, 0), [], {}, cfg)

    def test_unlabeled_truth_points_left_out(self):
        cloud, labels = generate_synthetic_scene(5, default_room_spec(5, density=300.0))
        truth = labels.class_of.copy()
        truth[np.random.default_rng(0).choice(cloud.n, size=10, replace=False)] = -1
        scene = Scene(scene_id=0, cloud=cloud, labels=LabelSet.full(truth, NUM_SCENE_CLASSES))
        model = dataclasses.replace(CFG_MODEL, num_classes=NUM_SCENE_CLASSES)
        cfg = toy_config(model=model)
        params = init_params(model, 1)
        caches = {0: precompute_scene(cloud, cfg)}
        got = evaluate(params, [scene], caches, cfg)
        pred = predict_pseudo_labels(params, scene, caches[0], cfg, seed=derive_seed(cfg.seed, _TAG_EVAL, 0))
        keep = truth >= 0
        conf = np.zeros((NUM_SCENE_CLASSES, NUM_SCENE_CLASSES), dtype=np.int64)
        np.add.at(conf, (truth[keep], pred.class_of[keep]), 1)
        assert conf.sum() == cloud.n - 10
        assert got.miou == metrics_from_confusion(conf).miou

    def test_no_labeled_truth_is_empty_confusion(self):
        scene = toy_scene(0, 13)
        unlabeled = Scene(scene_id=0, cloud=scene.cloud, labels=LabelSet.empty(scene.cloud.n, 2))
        cfg = toy_config()
        caches = {0: precompute_scene(scene.cloud, cfg)}
        with pytest.raises(ValidationError, match="empty confusion matrix"):
            evaluate(init_params(CFG_MODEL, 0), [unlabeled], caches, cfg)

    def test_trained_model_beats_chance_on_toy(self):
        scenes = toy_scene_set()
        cfg = toy_config(epochs_total=6, epochs_labeled_only=3, steps_per_epoch=4)
        result = train(cfg, scenes)
        caches = {s.scene_id: precompute_scene(s.cloud, cfg) for s in scenes.eval}
        metrics = evaluate(result.params, scenes.eval, caches, cfg)
        assert metrics.oa > 90.0


class TestAblation:
    def test_variant_table(self):
        scenes = toy_scene_set()
        cfg = toy_config(epochs_total=2, epochs_labeled_only=1)
        rows = ablation_suite(cfg, scenes)
        assert [r.name for r in rows] == [name for name, _ in ABLATION_VARIANTS]
        assert len(rows) == 6
        for row in rows:
            assert 0.0 <= row.metrics.oa <= 100.0

    def test_baseline_ignores_unlabeled(self):
        scenes = toy_scene_set()
        cfg = dataclasses.replace(toy_config(), **dict(ABLATION_VARIANTS[0][1]))
        result = train(cfg, scenes)
        assert not [e for e in result.log if e.get("event") == "pseudo_refresh"]
        steps = [e for e in result.log if "step" in e]
        assert all(e["seg_unlabeled"] == 0.0 and e["edge_unlabeled"] == 0.0 for e in steps)

    def test_full_variant_equals_plain_train(self):
        scenes = toy_scene_set()
        cfg = toy_config(epochs_total=3, epochs_labeled_only=1)
        caches = {s.scene_id: precompute_scene(s.cloud, cfg) for s in scenes.all_scenes()}
        rows = ablation_suite(cfg, scenes, caches)
        full_cfg = dataclasses.replace(cfg, **dict(ABLATION_VARIANTS[-1][1]))
        result = train(full_cfg, scenes, caches)
        direct = evaluate(result.params, scenes.eval, caches, full_cfg)
        assert rows[-1].metrics.miou == direct.miou
        assert rows[-1].metrics.oa == direct.oa
