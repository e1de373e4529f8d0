"""Two-branch semi-supervised training loop, metrics, and the ablation harness.

Phase 1 (epochs 1..epochs_labeled_only) optimizes the labeled branch only.
From the first epoch after that, pseudo labels are re-predicted for every
unlabeled scene once per epoch, cleaned up per superpoint, and the unlabeled
branch joins the optimization. Each step pairs one labeled chunk with one
unlabeled chunk and takes a single Adam step on the summed gradients.

Everything is driven by integer seeds; two runs with the same config produce
bit-identical parameters, logs, and metrics.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .cloud import PointCloud, build_index, estimate_surface
from .errors import TrainingDiverged, ValidationError
from .labels import EdgeLabels, LabelSet, compute_edge_labels, optimize_pseudo_labels
from .losses import (
    LossReport,
    LossTerm,
    combine_losses,
    consistency_loss,
    cross_entropy_loss,
    edge_loss,
    weighted_cross_entropy_loss,
)
from .network import ModelConfig, Params, backward, forward, init_params
from .optim import Adam
from .scenes import Scene, SceneSet
from .superpoints import (
    GrowingConfig,
    SuperpointPartition,
    from_membership,
    grow_color,
    grow_geometric,
    merge_partitions,
    restrict_partition,
)
from .util import derive_seed

CACHE_ENV_VAR = "SPSEG_CACHE_DIR"
_CACHE_VERSION = 1

# Seed-derivation tags so every random stream is independent.
_TAG_INIT = 101
_TAG_CHUNK = 102
_TAG_SMOOTH = 103
_TAG_CONSISTENCY = 104
_TAG_REFRESH = 105
_TAG_EVAL = 106


@dataclass(frozen=True)
class TrainConfig:
    epochs_total: int = 40
    epochs_labeled_only: int = 20
    learning_rate: float = 0.01
    lr_decay: float = 0.0  # optional per-epoch exponential decay; 0 = constant
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    chunk_size: int = 4096
    t_plo: float = 0.8
    k_smooth: int = 8
    k_feat: int = 8
    k_edge: int = 8
    k_normal: int = 16
    steps_per_epoch: int | None = None
    eval_every: int = 0  # log held-out metrics every N epochs; 0 disables
    seed: int = 0
    use_smoothing: bool = True
    use_unlabeled: bool = True
    use_plo: bool = True
    use_edge_head: bool = True
    use_consistency: bool = True
    growing: GrowingConfig = field(default_factory=GrowingConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    cache_dir: str | None = None

    def __post_init__(self):
        if self.epochs_labeled_only > self.epochs_total:
            raise ValidationError("epochs_labeled_only must not exceed epochs_total")
        if self.learning_rate <= 0:
            raise ValidationError("learning_rate must be > 0")
        if not 0 <= self.lr_decay < 1:
            raise ValidationError("lr_decay must lie in [0, 1)")
        for name in ("chunk_size", "k_smooth", "k_feat", "k_edge"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")

    @property
    def k_table(self) -> int:
        return max(self.growing.k_grow, self.k_feat, self.k_edge, self.k_normal)


@dataclass
class SceneCache:
    """All per-scene geometry products, reusable across epochs and variants."""

    key: str
    knn: np.ndarray
    normals: np.ndarray
    curvatures: np.ndarray
    geo: SuperpointPartition
    color: SuperpointPartition
    merged: SuperpointPartition
    edges: EdgeLabels


def _geometry_key(cloud: PointCloud, config: TrainConfig) -> str:
    g = config.growing
    desc = json.dumps(
        {
            "version": _CACHE_VERSION,
            "t_ang": g.t_ang,
            "t_cvt": g.t_cvt,
            "t_clr": g.t_clr,
            "t_merge": g.t_merge,
            "k_grow": g.k_grow,
            "min_cluster": g.min_cluster,
            "k_normal": config.k_normal,
            "k_edge": config.k_edge,
            "k_table": config.k_table,
        },
        sort_keys=True,
    )
    h = hashlib.sha256()
    h.update(cloud.positions.tobytes())
    h.update(cloud.colors.tobytes())
    h.update(desc.encode())
    return h.hexdigest()


def _cache_path(cache_dir: str, key: str) -> str:
    return os.path.join(cache_dir, f"scene_{key}.npz")


def _save_cache(cache_dir: str, cache: SceneCache):
    os.makedirs(cache_dir, exist_ok=True)
    path = _cache_path(cache_dir, cache.key)
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(
                fh,
                knn=cache.knn,
                normals=cache.normals,
                curvatures=cache.curvatures,
                geo=cache.geo.membership,
                color=cache.color.membership,
                merged=cache.merged.membership,
                edges=cache.edges.is_edge,
            )
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _entry_valid(arrays: dict, n: int, k: int) -> bool:
    """A cache entry is used only if its k-NN table is an integer (n, k) table
    of ids in [0, n) with each point first in its own row, and its partitions
    and edge flags cover the n points."""
    knn = arrays["knn"]
    if not np.issubdtype(knn.dtype, np.integer) or knn.shape != (n, k):
        return False
    if knn.min() < 0 or knn.max() >= n or not np.array_equal(knn[:, 0], np.arange(n)):
        return False
    return all(arrays[name].shape == (n,) for name in ("geo", "color", "merged", "edges"))


def _load_cache(cache_dir: str, key: str, n: int, k: int) -> SceneCache | None:
    path = _cache_path(cache_dir, key)
    if not os.path.exists(path):
        return None
    try:
        with np.load(path) as data:
            arrays = {name: data[name] for name in ("knn", "normals", "curvatures", "geo", "color", "merged", "edges")}
        if not _entry_valid(arrays, n, k):
            return None
        return SceneCache(
            key=key,
            knn=arrays["knn"],
            normals=arrays["normals"],
            curvatures=arrays["curvatures"],
            geo=from_membership(arrays["geo"]),
            color=from_membership(arrays["color"]),
            merged=from_membership(arrays["merged"]),
            edges=EdgeLabels(is_edge=arrays["edges"]),
        )
    except Exception:
        # Corrupt or stale entry: fall through to a recompute.
        return None


def precompute_scene(cloud: PointCloud, config: TrainConfig) -> SceneCache:
    """Index, surface, both partitions, their merge, and edge labels for one
    scene; cached on disk under a content hash when a cache dir is set."""
    key = _geometry_key(cloud, config)
    cache_dir = config.cache_dir or os.environ.get(CACHE_ENV_VAR)
    if cache_dir:
        hit = _load_cache(cache_dir, key, cloud.n, config.k_table)
        if hit is not None:
            return hit
    index = build_index(cloud)
    knn = index.knn_table(config.k_table)
    surf = estimate_surface(cloud, index, config.k_normal)
    geo = grow_geometric(cloud, surf, index, config.growing)
    color = grow_color(cloud, index, config.growing)
    merged = merge_partitions(geo, color)
    edges = compute_edge_labels(geo, color, index, config.k_edge)
    cache = SceneCache(
        key=key,
        knn=np.array(knn),
        normals=np.array(surf.normals),
        curvatures=np.array(surf.curvatures),
        geo=geo,
        color=color,
        merged=merged,
        edges=edges,
    )
    if cache_dir:
        _save_cache(cache_dir, cache)
    return cache


def precompute_scenes(scenes, config: TrainConfig, threads: int = 1) -> dict:
    """Caches for many scenes, keyed by scene id; optionally in parallel."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda s: precompute_scene(s.cloud, config), scenes))
        return {s.scene_id: c for s, c in zip(scenes, results)}
    return {s.scene_id: precompute_scene(s.cloud, config) for s in scenes}


@dataclass
class _Batch:
    cloud: PointCloud
    nbrs: np.ndarray
    sp: SuperpointPartition
    edges: EdgeLabels
    labels: LabelSet | None


def _make_batch(scene: Scene, cache: SceneCache, labels: LabelSet | None, config: TrainConfig, seed: int) -> _Batch:
    n = scene.cloud.n
    if n <= config.chunk_size:
        return _Batch(
            cloud=scene.cloud,
            nbrs=cache.knn[:, : config.k_feat],
            sp=cache.merged,
            edges=cache.edges,
            labels=labels,
        )
    ids = np.sort(np.random.default_rng(seed).choice(n, size=config.chunk_size, replace=False))
    sub = PointCloud(positions=scene.cloud.positions[ids], colors=scene.cloud.colors[ids])
    nbrs = build_index(sub).knn_table(config.k_feat)
    sub_labels = None
    if labels is not None:
        sub_labels = LabelSet(
            class_of=labels.class_of[ids], num_classes=labels.num_classes, mask=labels.mask[ids]
        )
    return _Batch(
        cloud=sub,
        nbrs=nbrs,
        sp=restrict_partition(cache.merged, ids),
        edges=EdgeLabels(is_edge=cache.edges.is_edge[ids]),
        labels=sub_labels,
    )


def predict_pseudo_labels(params: Params, scene: Scene, cache: SceneCache, config: TrainConfig, seed: int = 0) -> LabelSet:
    """Argmax class per point from the current model (ties -> smaller class);
    all labels start mask-true, cleanup happens separately."""
    rec = forward(
        scene.cloud,
        cache.knn[:, : config.k_feat],
        params,
        sp=cache.merged if config.use_smoothing else None,
        k_smooth=config.k_smooth,
        seed=seed,
    )
    return LabelSet.full(np.argmax(rec.x, axis=1), config.model.num_classes)


@dataclass
class MetricsReport:
    miou: float
    macc: float
    oa: float
    per_class_iou: list

    def csv_row(self) -> str:
        return f"{self.miou:.6f},{self.macc:.6f},{self.oa:.6f}"


def metrics_from_confusion(conf: np.ndarray) -> MetricsReport:
    """IoU/recall/accuracy from a (truth x predicted) confusion matrix.

    Classes absent from both truth and prediction are left out of the mIoU
    mean; classes without truth points are left out of mAcc.
    """
    conf = np.asarray(conf, dtype=np.int64)
    total = conf.sum()
    if total == 0:
        raise ValidationError("empty confusion matrix")
    tp = np.diag(conf).astype(np.float64)
    fn = conf.sum(axis=1) - tp
    fp = conf.sum(axis=0) - tp
    ious = []
    per_class = []
    for c in range(conf.shape[0]):
        denom = tp[c] + fp[c] + fn[c]
        if denom == 0:
            per_class.append(None)
        else:
            iou = tp[c] / denom
            per_class.append(float(iou))
            ious.append(iou)
    recalls = [tp[c] / (tp[c] + fn[c]) for c in range(conf.shape[0]) if tp[c] + fn[c] > 0]
    return MetricsReport(
        miou=float(np.mean(ious) * 100.0),
        macc=float(np.mean(recalls) * 100.0),
        oa=float(tp.sum() / total * 100.0),
        per_class_iou=per_class,
    )


def evaluate(params: Params, scenes, caches: dict, config: TrainConfig) -> MetricsReport:
    if not scenes:
        raise ValidationError("evaluation needs at least one scene")
    c = config.model.num_classes
    conf = np.zeros((c, c), dtype=np.int64)
    for scene in scenes:
        if scene.labels is None:
            raise ValidationError(f"scene {scene.scene_id} has no ground truth")
        pred = predict_pseudo_labels(
            params, scene, caches[scene.scene_id], config, seed=derive_seed(config.seed, _TAG_EVAL, scene.scene_id)
        )
        # Points without a truth label (-1) are left out of the score.
        truth = scene.labels.class_of
        labeled = truth >= 0
        idx = truth[labeled] * c + pred.class_of[labeled]
        conf += np.bincount(idx, minlength=c * c).reshape(c, c)
    return metrics_from_confusion(conf)


@dataclass
class TrainResult:
    params: Params
    log: list
    pseudo_labels: dict
    config: TrainConfig


def _zero_term(like: np.ndarray) -> LossTerm:
    return LossTerm(value=0.0, grad=np.zeros_like(like), count=0)


def _check_finite(report: LossReport, epoch: int, step: int):
    for name, value in report.terms().items():
        if not np.isfinite(value):
            raise TrainingDiverged(name, epoch, step)


def train(config: TrainConfig, scenes: SceneSet, caches: dict | None = None) -> TrainResult:
    """Run the full schedule and return final parameters plus a step log.

    The log holds one dict per optimizer step (losses, counts, lr, phase) and
    one event dict per pseudo-label refresh.
    """
    if not scenes.labeled:
        raise ValidationError("training needs at least one labeled scene")
    if scenes.num_classes != config.model.num_classes:
        raise ValidationError("scene class count differs from model config")

    needed = scenes.labeled + (scenes.unlabeled if config.use_unlabeled else [])
    if config.eval_every:
        needed = needed + scenes.eval
    caches = dict(caches) if caches else {}
    for scene in needed:
        if scene.scene_id not in caches:
            caches[scene.scene_id] = precompute_scene(scene.cloud, config)

    params = init_params(config.model, derive_seed(config.seed, _TAG_INIT))
    vec = params.to_vector()
    adam = Adam(lr=config.learning_rate, beta1=config.beta1, beta2=config.beta2, eps=config.adam_eps)

    use_unlabeled = config.use_unlabeled and bool(scenes.unlabeled)
    pseudo = {
        s.scene_id: LabelSet.empty(s.cloud.n, config.model.num_classes) for s in scenes.unlabeled
    }
    steps_per_epoch = config.steps_per_epoch or max(
        1, len(scenes.labeled), len(scenes.unlabeled) if use_unlabeled else 0
    )
    log = []

    for epoch in range(1, config.epochs_total + 1):
        phase2 = use_unlabeled and epoch > config.epochs_labeled_only
        if phase2:
            for scene in scenes.unlabeled:
                raw = predict_pseudo_labels(
                    params, scene, caches[scene.scene_id], config,
                    seed=derive_seed(config.seed, _TAG_REFRESH, epoch, scene.scene_id),
                )
                if config.use_plo:
                    pseudo[scene.scene_id] = optimize_pseudo_labels(
                        caches[scene.scene_id].merged, raw, config.t_plo
                    )
                else:
                    pseudo[scene.scene_id] = raw
            log.append({"event": "pseudo_refresh", "epoch": epoch, "scenes": len(scenes.unlabeled)})

        lr_epoch = config.learning_rate * ((1.0 - config.lr_decay) ** (epoch - 1))
        for step in range(steps_per_epoch):
            tick = (epoch - 1) * steps_per_epoch + step
            scene_l = scenes.labeled[tick % len(scenes.labeled)]
            batch_l = _make_batch(
                scene_l, caches[scene_l.scene_id], scene_l.labels, config,
                derive_seed(config.seed, _TAG_CHUNK, epoch, step, 0),
            )
            rec_l = forward(
                batch_l.cloud, batch_l.nbrs, params,
                sp=batch_l.sp if config.use_smoothing else None,
                k_smooth=config.k_smooth,
                seed=derive_seed(config.seed, _TAG_SMOOTH, epoch, step, 0),
            )
            seg_l = cross_entropy_loss(rec_l.x, batch_l.labels)
            edge_l = edge_loss(rec_l.e, batch_l.edges) if config.use_edge_head else _zero_term(rec_l.e)
            sp_l = (
                consistency_loss(rec_l.x, batch_l.sp, config.k_smooth,
                                 derive_seed(config.seed, _TAG_CONSISTENCY, epoch, step, 0))
                if config.use_consistency
                else _zero_term(rec_l.x)
            )
            grads = backward(
                rec_l, params, d_x=seg_l.grad + sp_l.grad,
                d_e=edge_l.grad if config.use_edge_head else None,
            )
            grad_vec = grads.to_vector()

            seg_u = edge_u = sp_u = None
            if use_unlabeled:
                scene_u = scenes.unlabeled[tick % len(scenes.unlabeled)]
                batch_u = _make_batch(
                    scene_u, caches[scene_u.scene_id], pseudo[scene_u.scene_id], config,
                    derive_seed(config.seed, _TAG_CHUNK, epoch, step, 1),
                )
                rec_u = forward(
                    batch_u.cloud, batch_u.nbrs, params,
                    sp=batch_u.sp if config.use_smoothing else None,
                    k_smooth=config.k_smooth,
                    seed=derive_seed(config.seed, _TAG_SMOOTH, epoch, step, 1),
                )
                seg_u = weighted_cross_entropy_loss(rec_u.x, batch_u.labels)
                edge_u = edge_loss(rec_u.e, batch_u.edges) if config.use_edge_head else _zero_term(rec_u.e)
                sp_u = (
                    consistency_loss(rec_u.x, batch_u.sp, config.k_smooth,
                                     derive_seed(config.seed, _TAG_CONSISTENCY, epoch, step, 1))
                    if config.use_consistency
                    else _zero_term(rec_u.x)
                )
                if phase2:
                    grads_u = backward(
                        rec_u, params, d_x=seg_u.grad + sp_u.grad,
                        d_e=edge_u.grad if config.use_edge_head else None,
                    )
                    grad_vec = grad_vec + grads_u.to_vector()

            report = combine_losses(
                seg_l,
                seg_u if seg_u is not None else _zero_term(rec_l.x),
                edge_l,
                edge_u if edge_u is not None else _zero_term(rec_l.e),
                sp_l,
                sp_u if sp_u is not None else _zero_term(rec_l.x),
            )
            _check_finite(report, epoch, step)
            vec = adam.step(vec, grad_vec, lr=lr_epoch)
            params = params.from_vector(vec)

            entry = {"epoch": epoch, "step": step, "lr": lr_epoch, "phase": 2 if phase2 else 1}
            entry.update(json.loads(report.to_json_line()))
            log.append(entry)

        if config.eval_every and scenes.eval and epoch % config.eval_every == 0:
            metrics = evaluate(params, scenes.eval, caches, config)
            log.append({
                "event": "eval", "epoch": epoch,
                "miou": metrics.miou, "macc": metrics.macc, "oa": metrics.oa,
            })

    return TrainResult(params=params, log=log, pseudo_labels=pseudo, config=config)


ABLATION_VARIANTS = (
    ("Baseline", dict(use_smoothing=False, use_unlabeled=False, use_plo=False, use_edge_head=False, use_consistency=False)),
    ("Baseline+SPFA", dict(use_smoothing=True, use_unlabeled=False, use_plo=False, use_edge_head=False, use_consistency=False)),
    ("Baseline+SPFA+PL", dict(use_smoothing=True, use_unlabeled=True, use_plo=False, use_edge_head=False, use_consistency=False)),
    ("Baseline+SPFA+PLO", dict(use_smoothing=True, use_unlabeled=True, use_plo=True, use_edge_head=False, use_consistency=False)),
    ("Baseline+SPFA+PLO+EP", dict(use_smoothing=True, use_unlabeled=True, use_plo=True, use_edge_head=True, use_consistency=False)),
    ("Ours", dict(use_smoothing=True, use_unlabeled=True, use_plo=True, use_edge_head=True, use_consistency=True)),
)


@dataclass
class AblationRow:
    name: str
    metrics: MetricsReport


def ablation_suite(config: TrainConfig, scenes: SceneSet, caches: dict | None = None, threads: int = 1) -> list:
    """Train the six stacked variants under identical seeds and evaluate each
    on the held-out scenes."""
    caches = dict(caches) if caches else {}
    for scene in scenes.all_scenes():
        if scene.scene_id not in caches:
            caches[scene.scene_id] = precompute_scene(scene.cloud, config)
    rows = []
    for name, flags in ABLATION_VARIANTS:
        variant = replace(config, **flags)
        result = train(variant, scenes, caches)
        rows.append(AblationRow(name=name, metrics=evaluate(result.params, scenes.eval, caches, variant)))
    return rows
