"""Span tracer for the benchmark's traced runs.

The tracer wraps spseg's functions at the names where the program looks them
up: the module globals of `spseg.trainer` (so `train` reaches the wrapped
`forward`, `precompute_scene` the wrapped `grow_color`, and so on), the
`SpatialIndex.knn_table` and `Adam.step` methods, the `sample_group_indices`
globals of `network` and `losses`, and `io.read_cloud`. Every call becomes
one span (name, start, end, parent) kept in memory. Nothing under `src/`
changes, and `uninstall` puts every original back.

A name that the program no longer has is reported in `missing` instead of
failing the run, so a later change that deletes or renames a function still
gets a traced run; the per-layer metric fed by that name reads 0.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass

# Layer labels that differ from "<defining module>.<function name>".
_LABELS = {
    "cross_entropy_loss": "losses.cross_entropy",
    "weighted_cross_entropy_loss": "losses.cross_entropy",
    "precompute_scene": "trainer.precompute_scene_self",
    "train": "trainer.train_self",
    "knn_table": "cloud.knn_table",
    "step": "optim.adam_step",
}

# Names the per-layer metrics are built from. A name absent from the program
# is listed as missing; all other public names of `spseg.trainer` are traced
# too, whether listed here or not.
EXPECTED = (
    "trainer.precompute_scenes",
    "trainer.precompute_scene",
    "trainer.build_index",
    "trainer.estimate_surface",
    "trainer.grow_geometric",
    "trainer.grow_color",
    "trainer.merge_partitions",
    "trainer.compute_edge_labels",
    "trainer.train",
    "trainer.forward",
    "trainer.backward",
    "trainer.cross_entropy_loss",
    "trainer.weighted_cross_entropy_loss",
    "trainer.edge_loss",
    "trainer.consistency_loss",
    "trainer.restrict_partition",
    "trainer.predict_pseudo_labels",
    "trainer.optimize_pseudo_labels",
    "trainer.evaluate",
    "cloud.SpatialIndex.knn_table",
    "optim.Adam.step",
    "network.sample_group_indices",
    "losses.sample_group_indices",
    "io.read_cloud",
)


@dataclass
class Span:
    name: str  # "<phase>.<module>.<function>"
    parent: int  # index of the calling span, -1 at the top
    start: float
    end: float
    points: int  # points of the cloud a forward pass ran on, else -1


class Tracer:
    """Records spans while installed; `phase` prefixes every span name."""

    def __init__(self):
        self.phase = "setup"
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._observers: dict[str, object] = {}

    def observe(self, label: str, fn):
        """Call fn(args, kwargs, result) after each call traced as `label`."""
        self._observers[label] = fn

    def _wrap(self, owner, attr: str, label: str):
        original = owner.__dict__[attr]
        tracer = self
        measure_points = label == "network.forward"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            points = args[0].n if measure_points and args else -1
            span = Span(f"{tracer.phase}.{label}", tracer._stack[-1] if tracer._stack else -1,
                        time.perf_counter(), 0.0, points)
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            observer = tracer._observers.get(label)
            if observer is not None:
                observer(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def install(self, modules: dict):
        """Wrap the traced names; `modules` maps short names to spseg modules."""
        trainer = modules["trainer"]
        targets = []
        for name, fn in sorted(vars(trainer).items()):
            if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__.startswith("spseg"):
                targets.append((trainer, name, fn))
        for dotted in EXPECTED:
            mod, *path = dotted.split(".")
            owner = modules[mod]
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            fn = getattr(owner, path[-1], None) if owner is not None else None
            if fn is None or not callable(fn):
                self.missing.append(dotted)
            elif mod != "trainer":
                targets.append((owner, path[-1], fn))
        for owner, attr, fn in targets:
            label = _LABELS.get(attr) or f"{fn.__module__.rsplit('.', 1)[-1]}.{attr}"
            self._wrap(owner, attr, label)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def self_times(self, lo: int = 0, hi: int | None = None) -> dict:
        """Seconds per span name, each span's duration less its children's,
        over spans[lo:hi] (a window holds whole call trees)."""
        out = defaultdict(float)
        for s in self.spans[lo:hi]:
            out[s.name] += s.end - s.start
            if s.parent >= 0:
                out[self.spans[s.parent].name] -= s.end - s.start
        return dict(out)

    def calls(self, lo: int = 0, hi: int | None = None) -> dict:
        out = defaultdict(int)
        for s in self.spans[lo:hi]:
            out[s.name] += 1
        return dict(out)

    def children_of(self, parent_label: str, label: str, lo: int = 0, hi: int | None = None) -> list:
        """Spans named `label` whose direct caller is named `parent_label`."""
        return [
            s for s in self.spans[lo:hi]
            if s.name == label and s.parent >= 0 and self.spans[s.parent].name == parent_label
        ]

    def to_json(self) -> list:
        return [
            {"name": s.name, "parent": s.parent, "start": s.start, "end": s.end, "points": s.points}
            for s in self.spans
        ]
