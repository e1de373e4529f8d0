"""File formats: whitespace cloud text, ASCII PLY export, partition JSON,
label files, and the JSON run configuration.

All writes go through a temp file followed by an atomic rename.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

from .cloud import PointCloud
from .errors import ParseError, ValidationError
from .labels import EdgeLabels, LabelSet
from .network import ModelConfig
from .superpoints import GrowingConfig, SuperpointPartition, from_membership
from .trainer import TrainConfig
from .util import atomic_write


def read_cloud(path: str):
    """Parse `x y z r g b [label]` lines; `#` starts a comment.

    Colors are auto-detected: any channel above 1 means the file is 0-255.
    A label of -1 (or a missing column) marks an unlabeled point. Returns
    (cloud, labels) where labels is None when no line carried a label.
    """
    positions, colors, labels = [], [], []
    any_label = False
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (6, 7):
                raise ParseError(f"{path}:{lineno}: expected 6 or 7 fields, got {len(parts)}")
            try:
                vals = [float(p) for p in parts[:6]]
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            if not all(np.isfinite(v) for v in vals[:3]):
                raise ParseError(f"{path}:{lineno}: non-finite coordinate")
            positions.append(vals[:3])
            colors.append(vals[3:6])
            if len(parts) == 7:
                try:
                    lab = int(parts[6])
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: bad label {parts[6]!r}") from exc
                labels.append(lab)
                if lab >= 0:
                    any_label = True
            else:
                labels.append(-1)
    if not positions:
        raise ParseError(f"{path}: no points")
    col = np.array(colors)
    if col.max() > 1.0:
        col = col / 255.0
    cloud = PointCloud(positions=np.array(positions), colors=np.clip(col, 0.0, 1.0))
    if not any_label:
        return cloud, None
    cls = np.array(labels, dtype=np.int64)
    return cloud, LabelSet.full(cls, num_classes=max(2, int(cls.max()) + 1))


def write_cloud(path: str, cloud: PointCloud, labels: LabelSet | None = None):
    """Inverse of read_cloud; floats use 17 significant digits so a
    read-write-read round trip is exact."""
    lines = []
    for i in range(cloud.n):
        x, y, z = cloud.positions[i]
        r, g, b = cloud.colors[i]
        row = f"{x:.17g} {y:.17g} {z:.17g} {r:.17g} {g:.17g} {b:.17g}"
        if labels is not None:
            row += f" {int(labels.class_of[i])}"
        lines.append(row)
    atomic_write(path, "\n".join(lines) + "\n")


def _hash_rgb(gid: int) -> tuple:
    """Deterministic bright color for a group id (never black)."""
    h = (gid + 1) * 0x9E3779B97F4A7C15 % (1 << 64)
    r = 64 + ((h >> 16) % 192)
    g = 64 + ((h >> 32) % 192)
    b = 64 + ((h >> 48) % 192)
    return int(r), int(g), int(b)


def color_by_partition(sp: SuperpointPartition) -> np.ndarray:
    """Hash each group id to an RGB color; unclustered points are black."""
    rgb = np.zeros((sp.n, 3), dtype=np.uint8)
    for gid, members in enumerate(sp.groups):
        rgb[members] = _hash_rgb(gid)
    return rgb


def color_by_labels(labels: LabelSet) -> np.ndarray:
    """Hash class ids to colors; unlabeled points are black."""
    rgb = np.zeros((labels.n, 3), dtype=np.uint8)
    for cls in range(labels.num_classes):
        rgb[labels.class_of == cls] = _hash_rgb(cls)
    return rgb


def color_by_edges(edges: EdgeLabels) -> np.ndarray:
    """Edge points black, everything else white."""
    rgb = np.full((edges.n, 3), 255, dtype=np.uint8)
    rgb[edges.is_edge] = 0
    return rgb


def write_ply(path: str, cloud: PointCloud, rgb: np.ndarray):
    """ASCII PLY with per-vertex uchar colors."""
    rgb = np.asarray(rgb)
    if rgb.shape != (cloud.n, 3):
        raise ValidationError(f"rgb must be ({cloud.n}, 3), got {rgb.shape}")
    header = [
        "ply",
        "format ascii 1.0",
        f"element vertex {cloud.n}",
        "property float x",
        "property float y",
        "property float z",
        "property uchar red",
        "property uchar green",
        "property uchar blue",
        "end_header",
    ]
    body = [
        f"{p[0]:.6f} {p[1]:.6f} {p[2]:.6f} {c[0]} {c[1]} {c[2]}"
        for p, c in zip(cloud.positions, rgb)
    ]
    atomic_write(path, "\n".join(header + body) + "\n")


def partition_to_json(sp: SuperpointPartition) -> str:
    doc = {
        "version": 1,
        "num_points": sp.n,
        "groups": [g.tolist() for g in sp.groups],
        "unclustered": sp.unclustered.tolist(),
    }
    return json.dumps(doc)


def write_partition(path: str, sp: SuperpointPartition):
    atomic_write(path, partition_to_json(sp) + "\n")


def _point_ids(path: str, value, what: str, n: int) -> np.ndarray:
    ids = np.asarray(value)
    if ids.ndim != 1 or (ids.size and ids.dtype.kind not in "iu"):
        raise ParseError(f"{path}: {what} must be a list of integer point ids")
    ids = ids.astype(np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise ParseError(f"{path}: {what} has a point id outside [0, {n})")
    return ids


def read_partition(path: str) -> SuperpointPartition:
    """Parse partition JSON. Every point must lie in exactly one group or in
    `unclustered`; anything else is a ParseError."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: not a partition document")
    if doc.get("version") != 1:
        raise ParseError(f"{path}: unsupported partition version {doc.get('version')}")
    for key in ("num_points", "groups", "unclustered"):
        if key not in doc:
            raise ParseError(f"{path}: missing key {key!r}")
    n = doc["num_points"]
    if not isinstance(n, int) or n < 0:
        raise ParseError(f"{path}: num_points must be a non-negative integer")
    if not isinstance(doc["groups"], list):
        raise ParseError(f"{path}: groups must be a list")
    mem = np.full(n, -1, dtype=np.int64)
    for gid, members in enumerate(doc["groups"]):
        ids = _point_ids(path, members, f"group {gid}", n)
        if ids.size == 0:
            raise ParseError(f"{path}: group {gid} is empty")
        if (mem[ids] >= 0).any() or np.unique(ids).size != ids.size:
            raise ParseError(f"{path}: group {gid} repeats a point listed before")
        mem[ids] = gid
    unclustered = _point_ids(path, doc["unclustered"], "unclustered", n)
    if not np.array_equal(np.sort(unclustered), np.nonzero(mem < 0)[0]):
        raise ParseError(f"{path}: unclustered does not list exactly the points outside every group")
    return from_membership(mem)


def read_label_file(path: str) -> np.ndarray:
    """One integer per line (-1 = unlabeled); `#` comments allowed."""
    out = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                out.append(int(line))
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad label {line!r}") from exc
    if not out:
        raise ParseError(f"{path}: no labels")
    return np.array(out, dtype=np.int64)


def write_label_file(path: str, class_of: np.ndarray):
    atomic_write(path, "\n".join(str(int(c)) for c in class_of) + "\n")


def _from_section(cls, doc: dict, section: str):
    allowed = {f.name for f in dataclasses.fields(cls)}
    unknown = set(doc) - allowed
    if unknown:
        raise ParseError(f"config section '{section}' has unknown keys: {sorted(unknown)}")
    return cls(**doc)


_PATH_KEYS = {"scene_dir", "out_dir", "cache_dir"}
_SYNTH_KEYS = {"scenes", "labeled", "eval", "seed", "density"}


@dataclasses.dataclass
class RunConfig:
    train: TrainConfig
    paths: dict
    synth: dict | None = None


def parse_run_config(doc: dict) -> RunConfig:
    """Build a RunConfig from a JSON document, rejecting unknown keys at
    every level."""
    unknown = set(doc) - {"growing", "model", "train", "paths", "synth"}
    if unknown:
        raise ParseError(f"config has unknown sections: {sorted(unknown)}")
    growing = _from_section(GrowingConfig, doc.get("growing", {}), "growing")
    model = _from_section(ModelConfig, doc.get("model", {}), "model")
    train_doc = dict(doc.get("train", {}))
    for key in ("growing", "model"):
        if key in train_doc:
            raise ParseError(f"'{key}' belongs at the top level, not under 'train'")
    train = _from_section(TrainConfig, {**train_doc, "growing": growing, "model": model}, "train")
    paths = dict(doc.get("paths", {}))
    unknown = set(paths) - _PATH_KEYS
    if unknown:
        raise ParseError(f"config section 'paths' has unknown keys: {sorted(unknown)}")
    synth = doc.get("synth")
    if synth is not None:
        unknown = set(synth) - _SYNTH_KEYS
        if unknown:
            raise ParseError(f"config section 'synth' has unknown keys: {sorted(unknown)}")
    return RunConfig(train=train, paths=paths, synth=synth)


def load_run_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return parse_run_config(doc)
