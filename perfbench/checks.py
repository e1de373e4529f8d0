"""Correctness checks the benchmark runs on every round.

Each check is made apart from the program: from the benchmark's own brute
force, from the generator's truth, or from properties the method must have.
A check returns a list of failure messages; an empty list means it passed.
`selftest.py` feeds every check a broken input and expects a failure.
"""

from __future__ import annotations

import math

import numpy as np

# Share of clustered points whose truth class is their superpoint's majority
# class. Measured runs sit at 0.99 and above.
PURITY_FLOOR = 0.95
# Points of mIoU by which the model must beat the best constant-class guess.
MIOU_MARGIN = 10.0
KNN_ROWS_PER_ROOM = 48


def round_trip(generated, loaded) -> list:
    """Loaded rooms equal the generated ones bit for bit; `generated` and
    `loaded` are lists of (positions, colors, class_of or None)."""
    fails = []
    for i, (g, l) in enumerate(zip(generated, loaded)):
        for what, a, b in zip(("positions", "colors", "labels"), g, l):
            if (a is None) != (b is None):
                fails.append(f"room {i}: {what} present on one side only")
            elif a is not None and (a.shape != b.shape or a.tobytes() != b.tobytes()):
                fails.append(f"room {i}: {what} differ after the file round trip")
    if len(generated) != len(loaded):
        fails.append(f"{len(generated)} rooms written, {len(loaded)} read")
    return fails


def brute_force_knn(positions: np.ndarray, q: int, k: int) -> np.ndarray:
    """The query first, then every other point by (squared distance, id)."""
    d = positions - positions[q]
    d2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2]
    d2[q] = -1.0
    return np.lexsort((np.arange(positions.shape[0]), d2))[:k]


def knn_rows(positions: np.ndarray, table: np.ndarray, rows) -> list:
    k = table.shape[1]
    return [
        f"k-NN row {q} differs from the brute-force ranking"
        for q in rows
        if not np.array_equal(table[q], brute_force_knn(positions, int(q), k))
    ]


def superpoints(membership: np.ndarray, is_edge: np.ndarray, truth: np.ndarray) -> tuple:
    """(failures, purity): unclustered points must be edge points, and the
    share of clustered points in their group's majority class must clear
    PURITY_FLOOR."""
    fails = []
    stray = np.nonzero((membership < 0) & ~is_edge)[0]
    if stray.size:
        fails.append(f"{stray.size} unclustered points are not edge points")
    p = purity(membership, truth)
    if not p >= PURITY_FLOOR:
        fails.append(f"superpoint purity {p:.4f} is below {PURITY_FLOOR}")
    return fails, p


def purity(membership: np.ndarray, truth: np.ndarray) -> float:
    clustered = membership >= 0
    if not clustered.any():
        return 0.0
    table = np.zeros((int(membership.max()) + 1, int(truth.max()) + 1), dtype=np.int64)
    np.add.at(table, (membership[clustered], truth[clustered]), 1)
    return float(table.max(axis=1).sum() / clustered.sum())


def pseudo_labels(membership: np.ndarray, class_of: np.ndarray) -> list:
    """Final pseudo labels are one value per superpoint and -1 off them."""
    fails = []
    if (class_of[membership < 0] != -1).any():
        fails.append("an unclustered point keeps a pseudo label")
    clustered = membership >= 0
    groups = membership[clustered]
    labels = class_of[clustered]
    lo = np.full(int(groups.max(initial=-1)) + 1, np.iinfo(np.int64).max)
    hi = np.full_like(lo, np.iinfo(np.int64).min)
    np.minimum.at(lo, groups, labels)
    np.maximum.at(hi, groups, labels)
    mixed = int((lo != hi)[np.unique(groups)].sum())
    if mixed:
        fails.append(f"{mixed} superpoints hold more than one pseudo label")
    return fails


LOSS_KEYS = ("seg_labeled", "seg_unlabeled", "edge_labeled", "edge_unlabeled",
              "sp_labeled", "sp_unlabeled", "total")


def losses(log: list, planned_steps: int) -> list:
    """Every logged loss is finite, the step count is as planned, and the
    last epoch's mean labeled seg loss is below the first epoch's."""
    steps = [e for e in log if "event" not in e]
    fails = []
    if len(steps) != planned_steps:
        fails.append(f"{len(steps)} steps logged, {planned_steps} planned")
    bad = [(e["epoch"], e["step"], k) for e in steps for k in LOSS_KEYS if not math.isfinite(e[k])]
    if bad:
        fails.append(f"non-finite losses at (epoch, step, term) {bad[:3]}")
    if not steps:
        return fails + ["no training step logged"]
    first, last = steps[0]["epoch"], steps[-1]["epoch"]

    def mean_seg(epoch):
        return float(np.mean([e["means"]["seg_labeled"] for e in steps if e["epoch"] == epoch]))

    if not mean_seg(last) < mean_seg(first):
        fails.append(f"labeled seg loss did not fall: epoch {first} {mean_seg(first):.4f}, "
                     f"epoch {last} {mean_seg(last):.4f}")
    return fails


def constant_miou(truth: np.ndarray) -> float:
    """mIoU (%) of the best single-class prediction for every point: class c
    scores IoU count_c / N, every other class present in the truth scores 0,
    so the most frequent class wins."""
    counts = np.bincount(truth)
    return 100.0 * counts.max() / truth.size / int((counts > 0).sum())


def miou(value: float, truth: np.ndarray) -> tuple:
    """(failures, constant baseline): mIoU must clear the baseline by MIOU_MARGIN."""
    base = constant_miou(truth)
    if not value >= base + MIOU_MARGIN:
        return [f"mIoU {value:.2f} does not clear the constant-class {base:.2f} by {MIOU_MARGIN}"], base
    return [], base


def params_equal(a, b) -> list:
    """Two parameter sets are equal bit for bit."""
    fails = []
    for (name, x), (_, y) in zip(a.arrays(), b.arrays()):
        if x.shape != y.shape or x.tobytes() != y.tobytes():
            fails.append(f"parameter {name} differs")
    return fails
