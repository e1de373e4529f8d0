"""Loss terms and their gradients with respect to the network outputs.

All losses are literal sums over points (no mean normalization); reports
carry per-term point counts so logs can show per-point means alongside.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .labels import EdgeLabels, LabelSet
from .superpoints import SuperpointPartition, sample_group_indices

LOG_FLOOR = 1e-12


@dataclass
class LossTerm:
    value: float
    grad: np.ndarray
    count: int

    @property
    def empty(self) -> bool:
        return self.count == 0


def cross_entropy_loss(x: np.ndarray, labels: LabelSet) -> LossTerm:
    """Softmax cross entropy summed over mask-true points. On the unlabeled
    branch the mask marks the points that kept an optimized pseudo label, so
    the mask does the weighting."""
    if x.shape[0] != labels.n:
        raise ValidationError("logits and labels cover different point counts")
    if x.shape[1] != labels.num_classes:
        raise ValidationError(f"logits have {x.shape[1]} channels, labels expect {labels.num_classes}")
    grad = np.zeros_like(x)
    rows = np.nonzero(labels.mask)[0]
    if rows.size == 0:
        return LossTerm(value=0.0, grad=grad, count=0)
    xs = x[rows]
    shifted = xs - xs.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    cls = labels.class_of[rows]
    value = float((lse - shifted[np.arange(rows.size), cls]).sum())
    soft = np.exp(shifted - lse[:, None])
    soft[np.arange(rows.size), cls] -= 1.0
    grad[rows] = soft
    return LossTerm(value=value, grad=grad, count=int(rows.size))


# The old name of the unlabeled-branch loss; perfbench/ traces it by this name.
weighted_cross_entropy_loss = cross_entropy_loss


def edge_loss(e: np.ndarray, edges: EdgeLabels) -> LossTerm:
    """Binary cross entropy over both channels, edge target (1,1) else (0,0).

    Log arguments are floored at 1e-12; scores must already lie in [0, 1].
    """
    if e.ndim != 2 or e.shape[1] != 2:
        raise ValidationError(f"edge scores must be (N, 2), got {e.shape}")
    if e.shape[0] != edges.n:
        raise ValidationError("edge scores and labels cover different point counts")
    if e.min() < 0.0 or e.max() > 1.0:
        raise ValidationError("edge scores must lie in [0, 1]")
    t = edges.is_edge.astype(np.float64)[:, None]
    value = float(-(t * np.log(np.maximum(e, LOG_FLOOR)) + (1.0 - t) * np.log(np.maximum(1.0 - e, LOG_FLOOR))).sum())
    grad = np.zeros_like(e)
    lo = e > LOG_FLOOR
    hi = (1.0 - e) > LOG_FLOOR
    grad[lo] += (-t * np.ones_like(e) / np.maximum(e, LOG_FLOOR))[lo]
    grad[hi] += ((1.0 - t) * np.ones_like(e) / np.maximum(1.0 - e, LOG_FLOOR))[hi]
    return LossTerm(value=value, grad=grad, count=e.shape[0])


def consistency_loss(x: np.ndarray, sp: SuperpointPartition, k_samples: int, seed: int) -> LossTerm:
    """Variance-style smoothness penalty inside superpoints.

    For each clustered point, K group members are drawn with the shared
    sampler and the squared distance between the point's features and the
    sample mean is summed over channels; unclustered points contribute
    nothing. The gradient reaches both the point and its sampled members.
    """
    if x.shape[0] != sp.n:
        raise ValidationError("features and partition cover different point counts")
    samples = sample_group_indices(sp, k_samples, seed)
    clustered = sp.membership >= 0
    grad = np.zeros_like(x)
    rows = np.nonzero(clustered)[0]
    if rows.size == 0:
        return LossTerm(value=0.0, grad=grad, count=0)
    mean = x[samples[rows]].mean(axis=1)
    diff = x[rows] - mean
    value = float((diff * diff).sum())
    np.add.at(grad, rows, 2.0 * diff)
    k = samples.shape[1]
    np.add.at(grad, samples[rows].ravel(), np.repeat(-2.0 * diff / k, k, axis=0))
    return LossTerm(value=value, grad=grad, count=int(rows.size))


_TERM_NAMES = ("seg_labeled", "seg_unlabeled", "edge_labeled", "edge_unlabeled", "sp_labeled", "sp_unlabeled")


@dataclass
class LossReport:
    """The six loss terms of one step and their unweighted sum."""

    seg_labeled: float = 0.0
    seg_unlabeled: float = 0.0
    edge_labeled: float = 0.0
    edge_unlabeled: float = 0.0
    sp_labeled: float = 0.0
    sp_unlabeled: float = 0.0
    count_seg_labeled: int = 0
    count_seg_unlabeled: int = 0
    count_edge_labeled: int = 0
    count_edge_unlabeled: int = 0
    count_sp_labeled: int = 0
    count_sp_unlabeled: int = 0

    @property
    def total(self) -> float:
        return (
            self.seg_labeled + self.seg_unlabeled
            + self.edge_labeled + self.edge_unlabeled
            + self.sp_labeled + self.sp_unlabeled
        )

    def terms(self) -> dict:
        return {name: getattr(self, name) for name in _TERM_NAMES}

    def to_dict(self) -> dict:
        """The log fields of one step: the terms, their total, per-term point
        counts and per-point means."""
        doc = self.terms()
        doc["total"] = self.total
        counts = {name: getattr(self, f"count_{name}") for name in _TERM_NAMES}
        doc["counts"] = counts
        doc["means"] = {k: (doc[k] / c if c else 0.0) for k, c in counts.items()}
        return doc

    def to_json_line(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def combine_losses(
    seg_labeled: LossTerm,
    seg_unlabeled: LossTerm,
    edge_labeled: LossTerm,
    edge_unlabeled: LossTerm,
    sp_labeled: LossTerm,
    sp_unlabeled: LossTerm,
) -> LossReport:
    terms = zip(_TERM_NAMES, (seg_labeled, seg_unlabeled, edge_labeled, edge_unlabeled, sp_labeled, sp_unlabeled))
    fields = {}
    for name, term in terms:
        fields[name] = term.value
        fields[f"count_{name}"] = term.count
    return LossReport(**fields)
