"""One benchmark run: set-up, timed rounds of the `spseg train` pipeline,
correctness checks, and the metrics of an untraced or a traced run.

A round is what `spseg train` does with rooms on disk: read every room file
with `io.read_cloud`, precompute all rooms cold (no disk cache) in one
thread, train, evaluate on the held-out rooms and save the parameters.

Every time is the fastest of the run's rounds. On a shared host, other
tenants slow the CPU down by up to 1.9x, in episodes of a second to a few
minutes; that noise only ever adds time. A median over rounds moves with the
share of the run spent in such episodes, while the fastest round stays near
the program's own cost as long as part of the run saw a quiet machine.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

import checks
from spseg import cloud, io, losses, network, optim, trainer
from spseg.scenes import NUM_SCENE_CLASSES, Scene, SceneSet
from spseg.labels import LabelSet
from tracing import Tracer
from workloads import Workload, make_room

MODULES = {"trainer": trainer, "cloud": cloud, "optim": optim, "network": network,
           "losses": losses, "io": io}

PHASES = ("load", "precompute", "train", "eval", "save")

END_TO_END = {
    "setup_s": "s", "precompute_s": "s", "train_s": "s", "total_s": "s",
    "peak_rss_mb": "MiB", "miou": "%",
}

# name -> unit; "<phase>.<module>.<function>_s" is that span name's self time.
PER_LAYER = {
    "precompute.cloud.knn_table_s": "s",
    "precompute.superpoints.grow_color_s": "s",
    "precompute.cloud.estimate_surface_s": "s",
    "precompute.superpoints.grow_geometric_s": "s",
    "precompute.superpoints.merge_partitions_s": "s",
    "precompute.labels.compute_edge_labels_s": "s",
    "precompute.trainer.precompute_scene_self_s": "s",
    "train.cloud.knn_table_s": "s",
    "train.cloud.build_index_calls": "count",
    "train.network.forward_s": "s",
    "train.network.backward_s": "s",
    "train.losses.consistency_loss_s": "s",
    "train.superpoints.sample_group_indices_s": "s",
    "train.losses.cross_entropy_s": "s",
    "train.losses.edge_loss_s": "s",
    "train.optim.adam_step_s": "s",
    "train.trainer.predict_pseudo_labels_s": "s",
    "train.labels.optimize_pseudo_labels_s": "s",
    "train.superpoints.restrict_partition_s": "s",
    "train.trainer.train_self_s": "s",
    "train.steps": "count",
    "train.network.forward_calls": "count",
    "train.network.backward_calls": "count",
    "train.network.forward_points": "count",
    "train.useful_forward_ratio": "ratio",
    "load.io.read_cloud_s": "s",
    "eval.trainer.evaluate_s": "s",
    "precompute.superpoints.groups": "count",
    "precompute.superpoints.unclustered_fraction": "ratio",
    "precompute.superpoints.purity": "ratio",
    "train.labels.plo_kept_fraction": "ratio",
    "train.labels.plo_kept_precision": "ratio",
    "train.labels.raw_precision": "ratio",
}


@dataclass
class Rooms:
    """The generated rooms, their files, and the truth the generator made."""

    paths: list
    generated: list  # (positions, colors, class_of or None) as written
    truth: list  # class_of of every room, unlabeled ones included


def set_up(workload: Workload, seed: int, work_dir: str) -> Rooms:
    """Generate the workload's rooms and write them as cloud files, the way
    `spseg synth` does: unlabeled rooms are written without labels."""
    os.makedirs(work_dir, exist_ok=True)
    rooms = Rooms([], [], [])
    for i in range(workload.rooms):
        room, truth = make_room(seed, i, workload.room_points(i))
        labeled = not workload.labeled <= i < workload.labeled + workload.unlabeled
        path = os.path.join(work_dir, f"room_{i:03d}.txt")
        io.write_cloud(path, room, truth if labeled else None)
        rooms.paths.append(path)
        rooms.generated.append((room.positions, room.colors, truth.class_of if labeled else None))
        rooms.truth.append(truth.class_of)
    return rooms


@dataclass
class Round:
    times: dict
    attempted: int
    failed: int
    checks: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)
    miou: float = float("nan")
    peak_rss_mb: float = float("nan")  # of the process when the round's pipeline ended
    params_sha256: str = ""
    spans: tuple = (0, 0)  # the tracer's spans[lo:hi] made by this round


def _load(workload: Workload, rooms: Rooms):
    scenes, loaded = [], []
    for i, path in enumerate(rooms.paths):
        room, labels = io.read_cloud(path)
        loaded.append((room.positions, room.colors, None if labels is None else labels.class_of))
        if labels is not None:
            labels = LabelSet(class_of=labels.class_of, num_classes=NUM_SCENE_CLASSES, mask=labels.mask)
        scenes.append(Scene(scene_id=i, cloud=room, labels=labels))
    split = (workload.labeled, workload.labeled + workload.unlabeled)
    return SceneSet(labeled=scenes[: split[0]], unlabeled=scenes[split[0]: split[1]],
                    eval=scenes[split[1]:], num_classes=NUM_SCENE_CLASSES), loaded


def run_round(workload: Workload, rooms: Rooms, work_dir: str, tracer: Tracer, seed: int) -> Round:
    """One timed pass of the pipeline, then its checks (outside the timing).

    Operations: one per room load, one per room precompute, one per planned
    training step, one per evaluated room, and the save. An exception fails
    the operations of its phase and of every phase after it.
    """
    cfg = workload.config
    phases = (("load", workload.rooms), ("precompute", workload.rooms),
              ("train", workload.planned_steps()), ("eval", workload.eval), ("save", 1))
    attempted = sum(n for _, n in phases)
    done = 0
    times = {}
    params_path = os.path.join(work_dir, "params.json")
    t_start = time.perf_counter()
    try:
        tracer.phase = "load"
        t = time.perf_counter()
        scene_set, loaded = _load(workload, rooms)
        times["load_s"] = time.perf_counter() - t
        done += workload.rooms

        tracer.phase = "precompute"
        t = time.perf_counter()
        caches = trainer.precompute_scenes(scene_set.all_scenes(), cfg, threads=1)
        times["precompute_s"] = time.perf_counter() - t
        done += workload.rooms

        tracer.phase = "train"
        t = time.perf_counter()
        result = trainer.train(cfg, scene_set, caches)
        times["train_s"] = time.perf_counter() - t
        done += workload.planned_steps()

        tracer.phase = "eval"
        t = time.perf_counter()
        metrics = trainer.evaluate(result.params, scene_set.eval, caches, cfg)
        times["eval_s"] = time.perf_counter() - t
        done += workload.eval

        tracer.phase = "save"
        t = time.perf_counter()
        network.save_params(result.params, params_path)
        times["save_s"] = time.perf_counter() - t
        done += 1
        times["total_s"] = time.perf_counter() - t_start
    except Exception as exc:  # a failed operation is counted, not fatal
        return Round(times, attempted, attempted - done, {"pipeline": [repr(exc)]})
    finally:
        tracer.phase = "check"

    out = Round(times, attempted, 0, miou=metrics.miou, peak_rss_mb=peak_rss_mb())
    out.params_sha256 = hashlib.sha256(result.params.to_vector().tobytes()).hexdigest()
    out.checks["round_trip"] = checks.round_trip(rooms.generated, loaded)
    rng = np.random.default_rng(seed)
    scenes = scene_set.all_scenes()
    out.checks["knn"] = [
        f"room {s.scene_id}: {msg}"
        for s in scenes
        for msg in checks.knn_rows(s.cloud.positions, caches[s.scene_id].knn,
                                   rng.choice(s.cloud.n, checks.KNN_ROWS_PER_ROOM, replace=False))
    ]
    sp_fails, groups, unclustered, clustered, pure = [], 0, 0, 0, 0.0
    for s in scenes:
        cache = caches[s.scene_id]
        mem = cache.merged.membership
        fails, p = checks.superpoints(mem, cache.edges.is_edge, rooms.truth[s.scene_id])
        sp_fails += [f"room {s.scene_id}: {msg}" for msg in fails]
        groups += cache.merged.num_groups
        unclustered += int((mem < 0).sum())
        clustered += int((mem >= 0).sum())
        pure += p * int((mem >= 0).sum())
    out.checks["superpoints"] = sp_fails
    out.quality = {
        "precompute.superpoints.groups": groups,
        "precompute.superpoints.unclustered_fraction": unclustered / (unclustered + clustered),
        "precompute.superpoints.purity": pure / clustered,
    }
    out.checks["pseudo_labels"] = [
        f"room {s.scene_id}: {msg}"
        for s in scene_set.unlabeled
        for msg in checks.pseudo_labels(caches[s.scene_id].merged.membership,
                                        result.pseudo_labels[s.scene_id].class_of)
    ]
    out.checks["losses"] = checks.losses(result.log, workload.planned_steps())
    eval_truth = np.concatenate([rooms.truth[s.scene_id] for s in scene_set.eval])
    out.checks["miou"], out.quality["constant_class_miou"] = checks.miou(metrics.miou, eval_truth)
    out.checks["saved_params"] = checks.params_equal(network.load_params(params_path), result.params)
    return out


def watch_pseudo_labels(tracer: Tracer) -> list:
    """Collect (raw, kept) class arrays of every pseudo-label vote."""
    votes = []
    tracer.observe("labels.optimize_pseudo_labels",
                   lambda args, kwargs, out: votes.append((args[1].class_of, out.class_of)))
    return votes


def pseudo_label_quality(votes: list, truth: list) -> dict:
    """Kept share and precision of the last refresh, against the truth the
    generator made for the unlabeled rooms (used here only, never in training)."""
    if not truth:
        return {}
    last = votes[-len(truth):]
    raw = np.concatenate([r for r, _ in last])
    kept = np.concatenate([k for _, k in last])
    true = np.concatenate(truth)
    mask = kept >= 0
    return {
        "train.labels.plo_kept_fraction": float(mask.mean()),
        "train.labels.plo_kept_precision": float((kept[mask] == true[mask]).mean()) if mask.any() else 0.0,
        "train.labels.raw_precision": float((raw == true).mean()),
    }


def round_layer_metrics(tracer: Tracer, lo: int, hi: int) -> dict:
    """Per-layer figures of the round that made spans[lo:hi]."""
    self_s = tracer.self_times(lo, hi)
    calls = tracer.calls(lo, hi)
    training_forwards = tracer.children_of("train.trainer.train_self", "train.network.forward", lo, hi)
    forward_calls = len(training_forwards)
    backward_calls = calls.get("train.network.backward", 0)
    out = {name: self_s.get(name[:-2], 0.0) for name in PER_LAYER if name.endswith("_s")}
    out.update({
        "train.cloud.build_index_calls": calls.get("train.cloud.build_index", 0),
        "train.steps": calls.get("train.optim.adam_step", 0),
        "train.network.forward_calls": forward_calls,
        "train.network.backward_calls": backward_calls,
        "train.network.forward_points": sum(s.points for s in training_forwards),
        "train.useful_forward_ratio": backward_calls / forward_calls if forward_calls else 0.0,
    })
    return out


def layer_metrics(tracer: Tracer, rounds: list) -> dict:
    """Self times are the fastest round's, name by name, like the end-to-end
    times; counts are the same in every round."""
    per_round = [round_layer_metrics(tracer, *r.spans) for r in rounds]
    return {name: (min if name.endswith("_s") else statistics.median)(m[name] for m in per_round)
            for name in per_round[0]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def run(workload: Workload, seed: int, seconds: float, trace: bool, work_dir: str, start: float) -> dict:
    """Set up once, then run whole rounds for `seconds`: another round starts
    only while a round of the median length so far still fits, and there is
    always one."""
    try:
        rooms = set_up(workload, seed, work_dir)
        setup_s = time.perf_counter() - start
        tracer = Tracer()
        votes = watch_pseudo_labels(tracer)
        if trace:
            tracer.install(MODULES)
        rounds = []
        t_measure = time.perf_counter()
        lengths = []
        try:
            while True:
                t, lo = time.perf_counter(), len(tracer.spans)
                rounds.append(run_round(workload, rooms, work_dir, tracer, seed))
                rounds[-1].spans = (lo, len(tracer.spans))
                now = time.perf_counter()
                lengths.append(now - t)
                if rounds[-1].failed or now - t_measure + statistics.median(lengths) > seconds:
                    break
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    good = [r for r in rounds if not r.failed]
    failures = {name: msgs for r in rounds for name, msgs in r.checks.items() if msgs}
    if len({(r.miou, r.params_sha256) for r in good}) > 1:
        failures["rounds_agree"] = ["rounds of one run disagree on mIoU or parameters"]

    def fastest(key):
        return min(r.times[key] for r in good) if good else float("nan")

    end_to_end = {
        "setup_s": setup_s,
        "precompute_s": fastest("precompute_s"),
        "train_s": fastest("train_s"),
        # Each step at its fastest: what a user waits on a quiet machine.
        "total_s": sum(fastest(f"{phase}_s") for phase in PHASES),
        # One pass of the pipeline, as a user runs it.
        "peak_rss_mb": good[0].peak_rss_mb if good else float("nan"),
        "miou": good[0].miou if good else float("nan"),
    }
    if trace:
        layers = layer_metrics(tracer, good) if good else {}
        layers.update(good[-1].quality if good else {})
        unlabeled = range(workload.labeled, workload.labeled + workload.unlabeled)
        layers.update(pseudo_label_quality(votes, [rooms.truth[i] for i in unlabeled]))
        shown = {name: {"value": float(layers.get(name, 0.0)), "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        shown = {name: {"value": float(end_to_end[name]), "unit": unit} for name, unit in END_TO_END.items()}
    return {
        "correct": not failures,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": shown,
        "record": {
            "workload": workload.name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "environment": environment(),
            "end_to_end": end_to_end,
            "rounds": [{"times": r.times, "attempted": r.attempted, "failed": r.failed,
                        "miou": r.miou, "peak_rss_mb": r.peak_rss_mb,
                        "params_sha256": r.params_sha256, "quality": r.quality}
                       for r in rounds],
            "check_failures": failures,
            "checks_run": sorted({name for r in rounds for name in r.checks}),
            "missing_trace_names": tracer.missing,
            "layer_self_s": tracer.self_times() if trace else {},
            "spans": tracer.to_json() if trace else [],
        },
    }
