"""Tiny per-point feature network with exact reverse-mode gradients.

Forward pipeline on one cloud:

    inp  = [xyz - centroid, rgb]                       (N, 6)
    h1   = relu(inp @ w1 + b1)                         (N, W1)
    m    = mean of h1 over each point's k_feat-NN      (N, W1)
    f    = relu([h1, m] @ w2 + b2)                     (N, Ch)   extractor out
    g    = (f_i + sum of K group samples) / 2          (N, Ch)   smoothing
    x    = g @ wc + bc                                 (N, C)    logits
    e    = sigmoid(we2 @ lrelu(we1 @ x))               (N, 2)    edge scores

Gradients are written out by hand; the test suite checks every parameter
against central finite differences.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields

import numpy as np

from .cloud import PointCloud
from .errors import ParseError, ValidationError
from .superpoints import SuperpointPartition, sample_group_indices
from .util import atomic_write

INPUT_DIM = 6
LRELU_SLOPE = 0.01
_SIGMOID_EPS = 1e-15
CHECKPOINT_FORMAT = "spseg-params"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    width1: int = 16
    c_hidden: int = 32
    num_classes: int = 5
    ep_hidden: int = 6

    def __post_init__(self):
        for name in ("width1", "c_hidden", "num_classes", "ep_hidden"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be >= 1")
        if self.num_classes < 2:
            raise ValidationError("num_classes must be >= 2")


@dataclass
class Params:
    """All trainable arrays; shared by both branches."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    wc: np.ndarray
    bc: np.ndarray
    we1: np.ndarray
    be1: np.ndarray
    we2: np.ndarray
    be2: np.ndarray

    def arrays(self):
        return [(f.name, getattr(self, f.name)) for f in fields(self)]

    def to_vector(self) -> np.ndarray:
        return np.concatenate([a.ravel() for _, a in self.arrays()])

    def from_vector(self, vec: np.ndarray) -> "Params":
        out = {}
        pos = 0
        for name, a in self.arrays():
            out[name] = vec[pos : pos + a.size].reshape(a.shape).copy()
            pos += a.size
        if pos != vec.size:
            raise ValidationError(f"vector length {vec.size} does not match parameter count {pos}")
        return Params(**out)

    def zeros_like(self) -> "Params":
        return Params(**{name: np.zeros_like(a) for name, a in self.arrays()})

    @property
    def config(self) -> ModelConfig:
        return ModelConfig(
            width1=self.w1.shape[1],
            c_hidden=self.w2.shape[1],
            num_classes=self.wc.shape[1],
            ep_hidden=self.we1.shape[1],
        )

    def validate_finite(self):
        for name, a in self.arrays():
            if not np.isfinite(a).all():
                raise ValidationError(f"parameter {name} contains non-finite values")


def _param_shapes(cfg: ModelConfig) -> dict:
    """Shape of every parameter array under cfg, in Params field order."""
    w1, ch, c, e = cfg.width1, cfg.c_hidden, cfg.num_classes, cfg.ep_hidden
    return dict(w1=(INPUT_DIM, w1), b1=(w1,), w2=(2 * w1, ch), b2=(ch,), wc=(ch, c), bc=(c,),
                we1=(c, e), be1=(e,), we2=(e, 2), be2=(2,))


def init_params(cfg: ModelConfig, seed: int) -> Params:
    """Glorot-uniform weights (±sqrt(6/(fan_in+fan_out))), zero biases."""
    rng = np.random.default_rng(seed)

    def init(shape):
        if len(shape) == 1:
            return np.zeros(shape)
        bound = np.sqrt(6.0 / (shape[0] + shape[1]))
        return rng.uniform(-bound, bound, size=shape)

    return Params(**{name: init(shape) for name, shape in _param_shapes(cfg).items()})


@dataclass
class ForwardRecord:
    """The intermediates that backward replays the chain rule through. The
    relu masks are read off h1 and f, since relu(z) > 0 exactly when z > 0.
    The leaky relu keeps its input ze1: for a tiny negative z, 0.01 * z
    rounds to -0.0, so lrelu(z) >= 0 holds where z >= 0 does not."""

    inp: np.ndarray
    nbrs: np.ndarray
    h1: np.ndarray
    m: np.ndarray
    cat: np.ndarray
    f: np.ndarray
    samples: np.ndarray | None
    clustered: np.ndarray | None
    g: np.ndarray
    x: np.ndarray
    ze1: np.ndarray
    a1: np.ndarray
    e: np.ndarray


def _relu(z):
    return np.maximum(z, 0.0)


def _lrelu(z):
    return np.where(z >= 0, z, LRELU_SLOPE * z)


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return np.clip(out, _SIGMOID_EPS, 1.0 - _SIGMOID_EPS)


def network_input(cloud: PointCloud) -> np.ndarray:
    return np.concatenate([cloud.positions - cloud.positions.mean(axis=0), cloud.colors], axis=1)


def _extract(cloud: PointCloud, nbrs: np.ndarray, params: Params):
    """Extractor stages: (inp, h1, m, cat, f)."""
    if nbrs.shape[0] != cloud.n:
        raise ValidationError("neighbor table does not match cloud size")
    if params.w1.shape[0] != INPUT_DIM:
        raise ValidationError(f"w1 expects {params.w1.shape[0]} inputs, model takes {INPUT_DIM}")
    inp = network_input(cloud)
    h1 = _relu(inp @ params.w1 + params.b1)
    m = h1[nbrs].mean(axis=1)
    cat = np.concatenate([h1, m], axis=1)
    f = _relu(cat @ params.w2 + params.b2)
    return inp, h1, m, cat, f


def _smooth(features: np.ndarray, sp: SuperpointPartition, k_smooth: int, seed: int):
    """Superpoint smoothing: (samples, clustered, g)."""
    if features.shape[0] != sp.n:
        raise ValidationError("features do not match partition size")
    samples = sample_group_indices(sp, k_smooth, seed)
    clustered = sp.membership >= 0
    g = np.array(features, dtype=np.float64, copy=True)
    g[clustered] = (g[clustered] + features[samples[clustered]].sum(axis=1)) / 2.0
    return samples, clustered, g


def _edge(x: np.ndarray, params: Params):
    """Edge head stages: (ze1, a1, e)."""
    if x.shape[1] != params.we1.shape[0]:
        raise ValidationError(f"edge head expects {params.we1.shape[0]} channels, got {x.shape[1]}")
    ze1 = x @ params.we1 + params.be1
    a1 = _lrelu(ze1)
    return ze1, a1, _sigmoid(a1 @ params.we2 + params.be2)


def forward(
    cloud: PointCloud,
    nbrs: np.ndarray,
    params: Params,
    sp: SuperpointPartition | None = None,
    k_smooth: int = 8,
    seed: int = 0,
) -> ForwardRecord:
    """Run the full pipeline; pass sp=None to skip superpoint smoothing."""
    inp, h1, m, cat, f = _extract(cloud, nbrs, params)
    if sp is None:
        samples, clustered, g = None, None, f
    else:
        samples, clustered, g = _smooth(f, sp, k_smooth, seed)
    x = classify(g, params)
    ze1, a1, e = _edge(x, params)
    return ForwardRecord(
        inp=inp, nbrs=nbrs, h1=h1, m=m, cat=cat, f=f,
        samples=samples, clustered=clustered, g=g, x=x, ze1=ze1, a1=a1, e=e,
    )


def extract_features(cloud: PointCloud, nbrs: np.ndarray, params: Params) -> np.ndarray:
    """Extractor output only: centered-input affine, neighbor-mean concat, affine."""
    return _extract(cloud, nbrs, params)[-1]


def aggregate_superpoint_features(
    features: np.ndarray, sp: SuperpointPartition, k_smooth: int, seed: int
) -> np.ndarray:
    """Mix each clustered point's feature with K samples from its group:
    g_i = (f_i + sum of sampled f) / 2. Unclustered points pass through.

    Note the 1/2 normalization is deliberate: for a group with constant
    feature v this scales it to v * (K + 1) / 2.
    """
    return _smooth(features, sp, k_smooth, seed)[-1]


def classify(features: np.ndarray, params: Params) -> np.ndarray:
    if features.shape[1] != params.wc.shape[0]:
        raise ValidationError(f"classify expects {params.wc.shape[0]} channels, got {features.shape[1]}")
    return features @ params.wc + params.bc


def edge_head(x: np.ndarray, params: Params) -> np.ndarray:
    """Two-channel edge score per point, strictly inside (0, 1)."""
    return _edge(x, params)[-1]


def backward(
    record: ForwardRecord,
    params: Params,
    d_x: np.ndarray | None = None,
    d_e: np.ndarray | None = None,
) -> Params:
    """Parameter gradients for upstream gradients d_x (on logits) and d_e
    (on edge scores). Smoothing routes half the gradient to the point itself
    and half, split across draws, to each sampled point."""
    if record is None or record.x is None:
        raise ValidationError("backward requires a recorded forward pass")
    if d_x is None and d_e is None:
        raise ValidationError("backward needs at least one upstream gradient")
    g = params.zeros_like()
    dx = np.zeros_like(record.x) if d_x is None else np.array(d_x, dtype=np.float64, copy=True)

    if d_e is not None:
        dze2 = d_e * record.e * (1.0 - record.e)
        g.we2 += record.a1.T @ dze2
        g.be2 += dze2.sum(axis=0)
        da1 = dze2 @ params.we2.T
        dze1 = da1 * np.where(record.ze1 >= 0, 1.0, LRELU_SLOPE)
        g.we1 += record.x.T @ dze1
        g.be1 += dze1.sum(axis=0)
        dx += dze1 @ params.we1.T

    g.wc += record.g.T @ dx
    g.bc += dx.sum(axis=0)
    dg = dx @ params.wc.T

    if record.samples is None:
        df = dg
    else:
        clustered = record.clustered
        df = np.where(clustered[:, None], 0.5 * dg, dg)
        rows = np.nonzero(clustered)[0]
        if rows.size:
            k = record.samples.shape[1]
            contrib = np.repeat(0.5 * dg[rows], k, axis=0)
            np.add.at(df, record.samples[rows].ravel(), contrib)

    dz2 = df * (record.f > 0)
    g.w2 += record.cat.T @ dz2
    g.b2 += dz2.sum(axis=0)
    dcat = dz2 @ params.w2.T
    w1_out = record.h1.shape[1]
    dh1 = dcat[:, :w1_out].copy()
    dm = dcat[:, w1_out:]
    k_feat = record.nbrs.shape[1]
    np.add.at(dh1, record.nbrs.ravel(), np.repeat(dm / k_feat, k_feat, axis=0))
    dz1 = dh1 * (record.h1 > 0)
    g.w1 += record.inp.T @ dz1
    g.b1 += dz1.sum(axis=0)
    return g


def save_params(params: Params, path: str):
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "arrays": {
            name: {"shape": list(a.shape), "data": a.ravel().tolist()}
            for name, a in params.arrays()
        },
    }
    atomic_write(path, json.dumps(doc))


def _read_array(path: str, name: str, entry) -> np.ndarray:
    shape = entry.get("shape") if isinstance(entry, dict) else None
    data = entry.get("data") if isinstance(entry, dict) else None
    if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
        raise ParseError(f"{path}: array {name!r} needs a 'shape' list of non-negative integers")
    if not isinstance(data, list) or not all(type(v) in (int, float) for v in data):
        raise ParseError(f"{path}: array {name!r} needs a 'data' list of numbers")
    if len(data) != math.prod(shape):
        raise ParseError(f"{path}: array {name!r} has {len(data)} values for shape {shape}")
    return np.array(data, dtype=np.float64).reshape(shape)


def load_params(path: str) -> Params:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: a checkpoint must be a JSON object")
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ValidationError(f"{path}: not a parameter checkpoint")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValidationError(f"{path}: unsupported checkpoint version {doc.get('version')}")
    if not isinstance(doc.get("arrays"), dict):
        raise ParseError(f"{path}: 'arrays' must be an object")
    arrays = {name: _read_array(path, name, entry) for name, entry in doc["arrays"].items()}
    try:
        params = Params(**arrays)
    except TypeError as exc:
        raise ValidationError(f"{path}: malformed checkpoint ({exc})") from exc
    try:
        expected = _param_shapes(params.config)
    except (IndexError, ValidationError) as exc:
        raise ParseError(f"{path}: parameter shapes do not form a model ({exc})") from exc
    for name, a in params.arrays():
        if a.shape != expected[name]:
            raise ParseError(f"{path}: array {name!r} has shape {list(a.shape)}, "
                             f"the model needs {list(expected[name])}")
    params.validate_finite()
    return params
