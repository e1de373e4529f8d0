"""Synthetic indoor scenes with dense per-point class labels.

Scenes are built from flat rectangular patches: a floor, walls, boxes
(different geometry and color from their surroundings), boards (coplanar
patches that differ only in color), and beams (protruding ridges that keep
the host surface's color, so they differ only in geometry). The last two
exist specifically so each region grower has boundaries only it can see.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cloud import PointCloud
from .errors import SceneSpecError, ValidationError
from .labels import LabelSet
from .util import derive_seed

MIN_SCENE_POINTS = 5_000
MAX_SCENE_POINTS = 50_000

CLASS_FLOOR = 0
CLASS_WALL = 1
CLASS_BOX = 2
CLASS_BOARD = 3
CLASS_BEAM = 4
NUM_SCENE_CLASSES = 5


@dataclass(frozen=True)
class Patch:
    """One rectangle: origin corner plus two edge vectors.

    `holes` are world-space boxes ((x0,y0,z0),(x1,y1,z1)) whose interior is
    left unsampled, so a board can replace the piece of wall it covers.
    """

    origin: tuple
    u: tuple
    v: tuple
    class_id: int
    color: tuple
    holes: tuple = ()

    @property
    def area(self) -> float:
        return float(np.linalg.norm(np.cross(self.u, self.v)))


@dataclass(frozen=True)
class Primitive:
    """A named scene element expanded into one or more patches."""

    kind: str
    class_id: int
    color: tuple
    origin: tuple = (0.0, 0.0, 0.0)
    size: tuple = (1.0, 1.0, 1.0)
    axis: str = "x"
    holes: tuple = ()


@dataclass(frozen=True)
class SceneSpec:
    primitives: tuple
    density: float = 450.0
    position_noise: float = 0.0025
    color_noise: float = 0.015

    def __post_init__(self):
        object.__setattr__(self, "primitives", tuple(self.primitives))
        if not (math.isfinite(self.density) and self.density > 0):
            raise SceneSpecError(f"density must be finite and > 0, got {self.density}")


def _patches_for(prim: Primitive) -> list:
    ox, oy, oz = prim.origin
    sx, sy, sz = prim.size
    c = prim.color
    cid = prim.class_id
    h = prim.holes
    if prim.kind == "floor":
        return [Patch((ox, oy, oz), (sx, 0, 0), (0, sy, 0), cid, c, h)]
    if prim.kind == "wall":
        # Vertical rectangle; axis names the direction the wall runs along.
        if prim.axis == "x":
            return [Patch((ox, oy, oz), (sx, 0, 0), (0, 0, sz), cid, c, h)]
        return [Patch((ox, oy, oz), (0, sy, 0), (0, 0, sz), cid, c, h)]
    if prim.kind == "board":
        # Coplanar with its host wall/floor: geometry cannot separate it.
        if prim.axis == "x":
            return [Patch((ox, oy, oz), (sx, 0, 0), (0, 0, sz), cid, c)]
        if prim.axis == "y":
            return [Patch((ox, oy, oz), (0, sy, 0), (0, 0, sz), cid, c)]
        return [Patch((ox, oy, oz), (sx, 0, 0), (0, sy, 0), cid, c)]
    if prim.kind == "box":
        # Four sides plus a top, standing on something.
        return [
            Patch((ox, oy, oz), (sx, 0, 0), (0, 0, sz), cid, c),
            Patch((ox, oy + sy, oz), (sx, 0, 0), (0, 0, sz), cid, c),
            Patch((ox, oy, oz), (0, sy, 0), (0, 0, sz), cid, c),
            Patch((ox + sx, oy, oz), (0, sy, 0), (0, 0, sz), cid, c),
            Patch((ox, oy, oz + sz), (sx, 0, 0), (0, sy, 0), cid, c),
        ]
    if prim.kind == "beam":
        # A ridge protruding from a wall: front face plus top and bottom.
        # Runs along `axis` with square cross-section sz x sz.
        if prim.axis == "x":
            d = (0.0, sy, 0.0)  # protrusion direction (+y off an xz wall)
            return [
                Patch((ox, oy + sy, oz), (sx, 0, 0), (0, 0, sz), cid, c),
                Patch((ox, oy, oz + sz), (sx, 0, 0), d, cid, c),
                Patch((ox, oy, oz), (sx, 0, 0), d, cid, c),
            ]
        d = (sx, 0.0, 0.0)
        return [
            Patch((ox + sx, oy, oz), (0, sy, 0), (0, 0, sz), cid, c),
            Patch((ox, oy, oz + sz), (0, sy, 0), d, cid, c),
            Patch((ox, oy, oz), (0, sy, 0), d, cid, c),
        ]
    raise SceneSpecError(f"unknown primitive kind {prim.kind!r}")


def generate_synthetic_scene(seed: int, spec: SceneSpec):
    """Sample a labeled cloud from the spec's patches.

    Point counts are area * density per patch; positions get isotropic
    Gaussian jitter and colors per-channel Gaussian noise. The result must
    land inside [5000, 50000] points, otherwise the spec is rejected.
    """
    if not spec.primitives:
        raise SceneSpecError("scene spec lists no primitives")
    rng = np.random.default_rng(seed)
    positions = []
    colors = []
    classes = []
    for prim in spec.primitives:
        for patch in _patches_for(prim):
            count = max(1, int(round(patch.area * spec.density)))
            uu = rng.random(count)
            vv = rng.random(count)
            o = np.array(patch.origin)
            pts = o + uu[:, None] * np.array(patch.u) + vv[:, None] * np.array(patch.v)
            keep = np.ones(count, dtype=bool)
            for (lo, hi) in patch.holes:
                lo = np.asarray(lo)
                hi = np.asarray(hi)
                keep &= ~((pts >= lo) & (pts <= hi)).all(axis=1)
            pts = pts[keep]
            if pts.shape[0] == 0:
                continue
            pts = pts + rng.normal(0.0, spec.position_noise, size=pts.shape)
            cols = np.array(patch.color) + rng.normal(0.0, spec.color_noise, size=(pts.shape[0], 3))
            positions.append(pts)
            colors.append(np.clip(cols, 0.0, 1.0))
            classes.append(np.full(pts.shape[0], patch.class_id, dtype=np.int64))
    pos = np.concatenate(positions)
    if not (MIN_SCENE_POINTS <= pos.shape[0] <= MAX_SCENE_POINTS):
        raise SceneSpecError(
            f"spec yields {pos.shape[0]} points, outside [{MIN_SCENE_POINTS}, {MAX_SCENE_POINTS}];"
            " adjust density or patch areas"
        )
    cloud = PointCloud(positions=pos, colors=np.concatenate(colors))
    labels = LabelSet.full(np.concatenate(classes), num_classes=NUM_SCENE_CLASSES)
    return cloud, labels


def default_room_spec(seed: int, density: float = 450.0) -> SceneSpec:
    """A randomized room: floor, two walls, a box, a wall board, a wall beam.

    Per-scene randomness moves the furniture and perturbs the palettes, so a
    model trained on very few labeled rooms underfits the variation that the
    unlabeled pool covers.
    """
    rng = np.random.default_rng(derive_seed(seed, 0x5CE17E))
    lx = rng.uniform(2.4, 3.0)
    ly = rng.uniform(2.4, 3.0)
    h = 1.6

    def jitter(base, lo=0.03, hi=0.10):
        out = np.array(base) + rng.uniform(-1, 1, 3) * rng.uniform(lo, hi)
        return tuple(np.clip(out, 0.05, 0.95))

    floor_color = jitter((0.45, 0.42, 0.40))
    wall_color = jitter((0.72, 0.68, 0.60))
    board_color = jitter((0.25, 0.38, 0.66), lo=0.05, hi=0.20)
    # Boxes often borrow the board or wall family, so raw per-point
    # predictions flicker and self-training has real mistakes to make.
    roll = rng.random()
    if roll < 0.40:
        box_color = jitter((0.25, 0.38, 0.66), lo=0.04, hi=0.16)
    elif roll < 0.65:
        box_color = jitter((0.72, 0.68, 0.60), lo=0.04, hi=0.14)
    else:
        box_color = tuple(np.clip(rng.uniform(0.1, 0.9, 3), 0.05, 0.95))

    bx = rng.uniform(0.5, lx - 1.1)
    by = rng.uniform(0.5, ly - 1.1)
    box_sz = (rng.uniform(0.35, 0.6), rng.uniform(0.35, 0.6), rng.uniform(0.3, 0.5))

    board_w = rng.uniform(0.7, 1.1)
    board_x = rng.uniform(0.2, lx - board_w - 0.2)
    beam_w = rng.uniform(0.9, 1.3)
    beam_y = rng.uniform(0.2, ly - beam_w - 0.2)

    board_hole = (((board_x, -0.01, 0.5), (board_x + board_w, 0.01, 1.1)),)
    # The beam is a flat pilaster: a small protrusion with a tall front face,
    # wide relative to the k-NN neighborhoods so it clusters into its own
    # superpoints instead of dissolving into crease residue.
    prims = (
        Primitive("floor", CLASS_FLOOR, floor_color, origin=(0, 0, 0), size=(lx, ly, 0)),
        Primitive("wall", CLASS_WALL, wall_color, origin=(0, 0, 0), size=(lx, 0, h), axis="x", holes=board_hole),
        Primitive("wall", CLASS_WALL, wall_color, origin=(0, 0, 0), size=(0, ly, h), axis="y"),
        Primitive("box", CLASS_BOX, box_color, origin=(bx, by, 0), size=box_sz),
        Primitive("board", CLASS_BOARD, board_color, origin=(board_x, 0, 0.5), size=(board_w, 0, 0.6), axis="x"),
        Primitive("beam", CLASS_BEAM, wall_color, origin=(0, beam_y, 0.85), size=(0.25, beam_w, 0.55), axis="y"),
    )
    return SceneSpec(primitives=prims, density=density)


def board_demo_spec(density: float = 650.0) -> SceneSpec:
    """Floor plus a coplanar, differently-colored board: a boundary only the
    color grower can see."""
    hole = (((1.0, 1.0, -0.01), (1.8, 1.8, 0.01)),)
    prims = (
        Primitive("floor", CLASS_FLOOR, (0.5, 0.5, 0.5), origin=(0, 0, 0), size=(3.0, 3.0, 0), holes=hole),
        Primitive("board", CLASS_BOARD, (0.15, 0.3, 0.8), origin=(1.0, 1.0, 0), size=(0.8, 0.8, 0), axis="z"),
    )
    return SceneSpec(primitives=prims, density=density)


def beam_demo_spec(density: float = 650.0) -> SceneSpec:
    """Floor and wall sharing one color, plus a same-colored wall beam: the
    boundaries exist in geometry only."""
    gray = (0.55, 0.55, 0.55)
    prims = (
        Primitive("floor", CLASS_FLOOR, gray, origin=(0, 0, 0), size=(2.6, 2.6, 0)),
        Primitive("wall", CLASS_WALL, gray, origin=(0, 0, 0), size=(2.6, 0, 1.5), axis="x"),
        Primitive("beam", CLASS_BEAM, gray, origin=(0.4, 0, 0.8), size=(1.8, 0.1, 0.1), axis="x"),
    )
    return SceneSpec(primitives=prims, density=density)


@dataclass
class Scene:
    scene_id: int
    cloud: PointCloud
    labels: LabelSet | None


@dataclass
class SceneSet:
    """Labeled, unlabeled, and held-out evaluation scenes."""

    labeled: list
    unlabeled: list
    eval: list
    num_classes: int

    def __post_init__(self):
        ids = [s.scene_id for group in (self.labeled, self.unlabeled, self.eval) for s in group]
        if len(ids) != len(set(ids)):
            raise ValidationError("scene ids must be disjoint across splits")
        for s in self.labeled + self.eval:
            if s.labels is None:
                raise ValidationError(f"scene {s.scene_id} needs ground-truth labels")
            if s.labels.num_classes != self.num_classes:
                raise ValidationError("inconsistent class counts across scenes")

    def all_scenes(self) -> list:
        return self.labeled + self.unlabeled + self.eval


def make_scene_set(
    num_train: int,
    num_labeled: int,
    num_eval: int,
    seed: int,
    density: float = 450.0,
) -> SceneSet:
    """Generate train + eval rooms; the first num_labeled train rooms (after
    a seeded shuffle) keep their labels, the rest become the unlabeled pool."""
    if min(num_train, num_labeled, num_eval) < 0:
        raise ValidationError("scene counts must be >= 0")
    if not 0 <= num_labeled <= num_train:
        raise ValidationError("need 0 <= num_labeled <= num_train")
    scenes = []
    for i in range(num_train + num_eval):
        spec = default_room_spec(derive_seed(seed, 1, i), density=density)
        cloud, labels = generate_synthetic_scene(derive_seed(seed, 2, i), spec)
        scenes.append(Scene(scene_id=i, cloud=cloud, labels=labels))
    train, eval_scenes = scenes[:num_train], scenes[num_train:]
    order = np.random.default_rng(derive_seed(seed, 3)).permutation(num_train)
    labeled = [train[i] for i in order[:num_labeled]]
    unlabeled = [
        Scene(scene_id=train[i].scene_id, cloud=train[i].cloud, labels=None)
        for i in order[num_labeled:]
    ]
    return SceneSet(labeled=labeled, unlabeled=unlabeled, eval=eval_scenes, num_classes=NUM_SCENE_CLASSES)
