"""Command-line entry point.

Subcommands: synth, superpoints, edges, optimize-labels, train, eval,
ablate, export-ply, sweep-tplo. Every per-scene product (superpoints, edge
flags, the edge PLY) comes from `precompute_scene`, so all commands share
its disk cache. Every output file is written atomically. Exit codes:
0 success, 1 usage error, 2 data error (including a malformed manifest or
partition), 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import io as sio
from .errors import ParseError, TrainingDiverged, ValidationError
from .labels import LabelSet, optimize_pseudo_labels
from .network import load_params, save_params
from .scenes import NUM_SCENE_CLASSES, Scene, SceneSet, make_scene_set
from .trainer import (
    TrainConfig,
    ablation_suite,
    evaluate,
    precompute_scene,
    precompute_scenes,
    predict_pseudo_labels,
    train,
)
from .util import atomic_write

T_PLO_SWEEP = (0.70, 0.75, 0.80, 0.85, 0.90)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n\n{self.format_usage()}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="spseg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene set")
    p.add_argument("--out", required=True)
    p.add_argument("--scenes", type=int, default=20)
    p.add_argument("--labeled", type=int, default=2)
    p.add_argument("--eval", type=int, default=4)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--density", type=float, default=450.0)

    for name in ("superpoints", "edges"):
        p = sub.add_parser(name, help=f"compute {name} for one scene")
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--ply", default=None)
        p.add_argument("--config", default=None)

    p = sub.add_parser("optimize-labels", help="apply superpoint label cleanup to predictions")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--t-plo", type=float, default=0.8)
    p.add_argument("--classes", type=int, default=NUM_SCENE_CLASSES)

    p = sub.add_parser("train", help="train on a scene set")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("eval", help="evaluate saved parameters")
    p.add_argument("--config", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("ablate", help="run the six-variant ablation table")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("sweep-tplo", help="train/eval across the vote-threshold grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("export-ply", help="write a colored PLY from a scene")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=("superpoint", "label", "edge", "prediction"), required=True)
    p.add_argument("--partition", default=None)
    p.add_argument("--labels", default=None)
    p.add_argument("--params", default=None)
    p.add_argument("--config", default=None)
    return parser


def _load_train_config(path: str, seed_override=None) -> tuple:
    run = sio.load_run_config(path)
    cfg = run.train
    if seed_override is not None:
        cfg = dataclasses.replace(cfg, seed=seed_override)
    if "cache_dir" in run.paths:
        cfg = dataclasses.replace(cfg, cache_dir=run.paths["cache_dir"])
    return cfg, run


def _scene_config(path: str | None) -> TrainConfig:
    if path is None:
        return TrainConfig()
    cfg, _ = _load_train_config(path)
    return cfg


def _load_scene_set(run: sio.RunConfig) -> SceneSet:
    if run.synth is not None:
        s = run.synth
        return make_scene_set(
            num_train=int(s.get("scenes", 20)),
            num_labeled=int(s.get("labeled", 2)),
            num_eval=int(s.get("eval", 4)),
            seed=int(s.get("seed", 7)),
            density=float(s.get("density", 450.0)),
        )
    scene_dir = run.paths.get("scene_dir")
    if not scene_dir:
        raise ParseError("config needs either a 'synth' section or paths.scene_dir")
    return _read_scene_dir(scene_dir)


def _required(doc, key: str, where: str, kind=object):
    if not isinstance(doc, dict) or key not in doc:
        raise ParseError(f"{where}: missing key {key!r}")
    if not isinstance(doc[key], kind):
        raise ParseError(f"{where}: {key!r} must be a {kind.__name__}")
    return doc[key]


def _required_int(doc, key: str, where: str) -> int:
    try:
        return int(_required(doc, key, where))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{where}: {key!r} is not an integer") from exc


def _read_scene_dir(scene_dir: str) -> SceneSet:
    manifest_path = os.path.join(scene_dir, "manifest.json")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    if _required(manifest, "version", manifest_path) != 1:
        raise ParseError(f"{manifest_path}: unsupported manifest version")
    num_classes = _required_int(manifest, "num_classes", manifest_path)
    splits = {"labeled": [], "unlabeled": [], "eval": []}
    for i, entry in enumerate(_required(manifest, "scenes", manifest_path, list)):
        where = f"{manifest_path}: scenes[{i}]"
        fname = _required(entry, "file", where, str)
        scene_id = _required_int(entry, "id", where)
        split = _required(entry, "split", where, str)
        if split not in splits:
            raise ParseError(f"{manifest_path}: unknown split {split!r}")
        cloud, labels = sio.read_cloud(os.path.join(scene_dir, fname))
        if labels is not None:
            labels = LabelSet(class_of=labels.class_of, num_classes=num_classes, mask=labels.mask)
        if split == "unlabeled":
            labels = None
        splits[split].append(Scene(scene_id=scene_id, cloud=cloud, labels=labels))
    return SceneSet(
        labeled=splits["labeled"], unlabeled=splits["unlabeled"], eval=splits["eval"],
        num_classes=num_classes,
    )


def _write_scene_dir(out_dir: str, scenes: SceneSet):
    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for split, group in (("labeled", scenes.labeled), ("unlabeled", scenes.unlabeled), ("eval", scenes.eval)):
        for s in group:
            fname = f"scene_{s.scene_id:03d}.txt"
            sio.write_cloud(os.path.join(out_dir, fname), s.cloud, s.labels)
            entries.append({"id": s.scene_id, "file": fname, "split": split})
    manifest = {"version": 1, "num_classes": scenes.num_classes, "scenes": entries}
    atomic_write(os.path.join(out_dir, "manifest.json"), json.dumps(manifest, indent=1))


def _metrics_csv(rows: list) -> str:
    lines = ["name,mIoU,mAcc,OA"]
    for name, metrics in rows:
        lines.append(f"{name},{metrics.csv_row()}")
    return "\n".join(lines) + "\n"


def _metrics_text(rows: list) -> str:
    width = max(len(name) for name, _ in rows)
    lines = [f"{'name'.ljust(width)}  {'mIoU':>8} {'mAcc':>8} {'OA':>8}"]
    for name, m in rows:
        lines.append(f"{name.ljust(width)}  {m.miou:8.2f} {m.macc:8.2f} {m.oa:8.2f}")
    return "\n".join(lines) + "\n"


def _cmd_synth(args) -> int:
    scenes = make_scene_set(args.scenes, args.labeled, args.eval, args.seed, density=args.density)
    _write_scene_dir(args.out, scenes)
    print(f"wrote {len(scenes.all_scenes())} scenes to {args.out}")
    return 0


def _scene_cache(args):
    """Read --in and run the per-scene pipeline (cached) under --config."""
    cloud, _ = sio.read_cloud(args.infile)
    return cloud, precompute_scene(cloud, _scene_config(args.config))


def _cmd_superpoints(args) -> int:
    cloud, cache = _scene_cache(args)
    merged = cache.merged
    sio.write_partition(args.out, merged)
    if args.ply:
        sio.write_ply(args.ply, cloud, sio.color_by_partition(merged))
    print(f"{merged.num_groups} superpoints, {merged.unclustered.size} unclustered")
    return 0


def _cmd_edges(args) -> int:
    cloud, cache = _scene_cache(args)
    edges = cache.edges
    sio.write_label_file(args.out, edges.is_edge.astype(np.int64))
    if args.ply:
        sio.write_ply(args.ply, cloud, sio.color_by_edges(edges))
    print(f"{int(edges.is_edge.sum())} edge points of {edges.n}")
    return 0


def _cmd_optimize_labels(args) -> int:
    cloud, _ = sio.read_cloud(args.infile)
    sp = sio.read_partition(args.partition)
    raw = sio.read_label_file(args.labels)
    if raw.shape[0] != cloud.n:
        raise ParseError(f"{args.labels}: {raw.shape[0]} labels for {cloud.n} points")
    num_classes = max(int(args.classes), int(raw.max()) + 1, 2)
    pseudo = LabelSet.full(raw, num_classes)
    optimized = optimize_pseudo_labels(sp, pseudo, args.t_plo)
    sio.write_label_file(args.out, optimized.class_of)
    kept = int(optimized.mask.sum())
    print(f"kept {kept} of {cloud.n} labels")
    return 0


def _cmd_train(args) -> int:
    cfg, run = _load_train_config(args.config, args.seed)
    scenes = _load_scene_set(run)
    os.makedirs(args.out_dir, exist_ok=True)
    caches = precompute_scenes(scenes.all_scenes(), cfg, threads=args.threads)
    result = train(cfg, scenes, caches)
    metrics = evaluate(result.params, scenes.eval, caches, cfg)
    save_params(result.params, os.path.join(args.out_dir, "params.json"))
    atomic_write(os.path.join(args.out_dir, "train_log.jsonl"),
                 "".join(json.dumps(entry, sort_keys=True) + "\n" for entry in result.log))
    rows = [("final", metrics)]
    atomic_write(os.path.join(args.out_dir, "metrics.csv"), _metrics_csv(rows))
    sys.stdout.write(_metrics_text(rows))
    return 0


def _cmd_eval(args) -> int:
    cfg, run = _load_train_config(args.config)
    scenes = _load_scene_set(run)
    params = load_params(args.params)
    caches = precompute_scenes(scenes.eval, cfg, threads=args.threads)
    metrics = evaluate(params, scenes.eval, caches, cfg)
    rows = [("eval", metrics)]
    atomic_write(args.out, _metrics_csv(rows))
    sys.stdout.write(_metrics_text(rows))
    return 0


def _cmd_ablate(args) -> int:
    cfg, run = _load_train_config(args.config)
    scenes = _load_scene_set(run)
    os.makedirs(args.out_dir, exist_ok=True)
    caches = precompute_scenes(scenes.all_scenes(), cfg, threads=args.threads)
    rows = [(row.name, row.metrics) for row in ablation_suite(cfg, scenes, caches)]
    atomic_write(os.path.join(args.out_dir, "ablation.csv"), _metrics_csv(rows))
    text = _metrics_text(rows)
    atomic_write(os.path.join(args.out_dir, "ablation.txt"), text)
    sys.stdout.write(text)
    return 0


def _cmd_sweep_tplo(args) -> int:
    cfg, run = _load_train_config(args.config)
    scenes = _load_scene_set(run)
    caches = precompute_scenes(scenes.all_scenes(), cfg, threads=args.threads)
    rows = []
    for t in T_PLO_SWEEP:
        variant = dataclasses.replace(cfg, t_plo=t)
        result = train(variant, scenes, caches)
        rows.append((f"{t:.2f}", evaluate(result.params, scenes.eval, caches, variant)))
    atomic_write(args.out, _metrics_csv(rows).replace("name,", "t_plo,", 1))
    sys.stdout.write(_metrics_text(rows))
    return 0


def _cmd_export_ply(args) -> int:
    cloud, labels = sio.read_cloud(args.infile)
    if args.mode == "superpoint":
        if not args.partition:
            raise ParseError("--mode superpoint needs --partition")
        rgb = sio.color_by_partition(sio.read_partition(args.partition))
    elif args.mode == "label":
        if args.labels:
            raw = sio.read_label_file(args.labels)
            labels = LabelSet.full(raw, num_classes=max(2, int(raw.max()) + 1))
        if labels is None:
            raise ParseError("--mode label needs labels in the cloud file or --labels")
        rgb = sio.color_by_labels(labels)
    elif args.mode == "edge":
        rgb = sio.color_by_edges(precompute_scene(cloud, _scene_config(args.config)).edges)
    else:  # prediction
        if not args.params:
            raise ParseError("--mode prediction needs --params")
        cfg = _scene_config(args.config)
        params = load_params(args.params)
        cache = precompute_scene(cloud, cfg)
        scene = Scene(scene_id=0, cloud=cloud, labels=None)
        pred = predict_pseudo_labels(params, scene, cache, cfg, seed=0)
        rgb = sio.color_by_labels(pred)
    sio.write_ply(args.out, cloud, rgb)
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "superpoints": _cmd_superpoints,
    "edges": _cmd_edges,
    "optimize-labels": _cmd_optimize_labels,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "ablate": _cmd_ablate,
    "sweep-tplo": _cmd_sweep_tplo,
    "export-ply": _cmd_export_ply,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, ValidationError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TrainingDiverged, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
