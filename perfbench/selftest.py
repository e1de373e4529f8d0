"""Self-test of the benchmark: every check must pass on good input and fail
on broken input, the tracer must survive a name the program no longer has,
and a traced run must produce the same parameters and mIoU as an untraced one.

    python3 perfbench/selftest.py

Exits 0 when every case behaves, 1 otherwise. Takes about half a minute.
"""

import json
import os
import shutil
import sys
import tempfile
import time

from run import OUT, ROOT, prepare

prepare(1)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import pipeline  # noqa: E402
from spseg import io, labels, trainer  # noqa: E402
from spseg.network import ModelConfig, init_params  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, make_room  # noqa: E402

SEED = 11
ROOM = 5_200

results = []


def expect(name: str, fails: list, should_fail: bool):
    ok = bool(fails) == should_fail
    results.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {fails[0] if fails else 'passed'}")


def test_round_trip(room, truth, tmp):
    path = os.path.join(tmp, "room.txt")
    io.write_cloud(path, room, truth)
    back, back_labels = io.read_cloud(path)
    good = [(room.positions, room.colors, truth.class_of)]
    expect("round trip", checks.round_trip(good, [(back.positions, back.colors, back_labels.class_of)]), False)
    flipped = back.positions.copy()
    flipped.view(np.uint64)[7, 1] ^= 1  # one bit of one coordinate
    expect("round trip, one flipped bit", checks.round_trip(good, [(flipped, back.colors, back_labels.class_of)]), True)
    expect("round trip, labels lost", checks.round_trip(good, [(back.positions, back.colors, None)]), True)


def test_knn(room, cache):
    rows = np.arange(0, room.n, 97)
    expect("k-NN rows", checks.knn_rows(room.positions, cache.knn, rows), False)
    permuted = cache.knn.copy()
    permuted[rows[3], [2, 5]] = permuted[rows[3], [5, 2]]
    expect("k-NN rows, a permuted row", checks.knn_rows(room.positions, permuted, rows), True)
    not_first = cache.knn.copy()
    not_first[rows[4], [0, 1]] = not_first[rows[4], [1, 0]]
    expect("k-NN rows, query not first", checks.knn_rows(room.positions, not_first, rows), True)


def test_superpoints(cache, truth):
    mem = cache.merged.membership
    expect("superpoints", checks.superpoints(mem, cache.edges.is_edge, truth.class_of)[0], False)
    edges = cache.edges.is_edge.copy()
    edges[np.nonzero(mem < 0)[0][0]] = False
    expect("superpoints, unclustered non-edge point",
           checks.superpoints(mem, edges, truth.class_of)[0], True)
    mixed = truth.class_of.copy()
    biggest = cache.merged.groups[int(np.argmax([g.size for g in cache.merged.groups]))]
    mixed[biggest[::2]] = (mixed[biggest[::2]] + 1) % 5
    expect("superpoints, mixed-label superpoint", checks.superpoints(mem, cache.edges.is_edge, mixed)[0], True)


def test_pseudo_labels(cache, truth):
    sp = cache.merged
    voted = labels.optimize_pseudo_labels(sp, truth, 0.8).class_of
    expect("pseudo labels", checks.pseudo_labels(sp.membership, voted), False)
    mixed = voted.copy()
    group = next(g for g in sp.groups if voted[g[0]] >= 0 and g.size > 1)
    mixed[group[0]] = (mixed[group[0]] + 1) % 5
    expect("pseudo labels, mixed-label superpoint", checks.pseudo_labels(sp.membership, mixed), True)
    stray = voted.copy()
    stray[sp.unclustered[0]] = 0
    expect("pseudo labels, label on an unclustered point", checks.pseudo_labels(sp.membership, stray), True)


def test_losses():
    def entry(epoch, seg):
        terms = dict.fromkeys(checks.LOSS_KEYS, 1.0)
        return {"epoch": epoch, "step": 0, **terms, "means": {"seg_labeled": seg}}

    log = [entry(1, 2.0), {"event": "pseudo_refresh", "epoch": 2}, entry(2, 1.0)]
    expect("losses", checks.losses(log, 2), False)
    nan = [dict(e) for e in log]
    nan[2]["edge_unlabeled"] = float("nan")
    expect("losses, a NaN loss", checks.losses(nan, 2), True)
    rising = [entry(1, 1.0), entry(2, 2.0)]
    expect("losses, seg loss rising", checks.losses(rising, 2), True)
    expect("losses, a step missing", checks.losses(log, 3), True)


def test_miou(truth):
    base = checks.constant_miou(truth.class_of)
    expect("mIoU", checks.miou(base + checks.MIOU_MARGIN + 1.0, truth.class_of)[0], False)
    expect("mIoU, near the constant-class guess", checks.miou(base + 1.0, truth.class_of)[0], True)


def test_params():
    a = init_params(ModelConfig(), 3)
    b = init_params(ModelConfig(), 3)
    expect("parameters", checks.params_equal(a, b), False)
    b.wc[0, 0] = np.nextafter(b.wc[0, 0], np.inf)
    expect("parameters, one ulp apart", checks.params_equal(a, b), True)


def test_tracer_missing_name():
    originals = dict(vars(trainer))
    removed = trainer.weighted_cross_entropy_loss
    del trainer.weighted_cross_entropy_loss
    try:
        tracer = Tracer()
        try:
            tracer.install(pipeline.MODULES)
            wrapped = trainer.forward is not originals["forward"]
        finally:
            tracer.uninstall()
        gone = ["trainer.weighted_cross_entropy_loss"] == tracer.missing
        restored = all(vars(trainer)[k] is v for k, v in originals.items() if k != "weighted_cross_entropy_loss")
    finally:
        trainer.weighted_cross_entropy_loss = removed
    fails = [] if wrapped and gone and restored else [
        f"wrapped={wrapped} missing={tracer.missing} restored={restored}"]
    expect("tracer, a removed name is reported missing", fails, False)


def test_declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    fails = []
    for key, produced in (("end_to_end", pipeline.END_TO_END), ("per_layer", pipeline.PER_LAYER)):
        names = {m["name"]: m["unit"] for m in declared[key]}
        if names != produced:
            fails.append(f"{key}: BENCHMARK.json declares {sorted(set(names) ^ set(produced))} differently")
    if {w["name"] for w in declared["workloads"]} != set(WORKLOADS):
        fails.append("BENCHMARK.json and workloads.py name different workloads")
    expect("BENCHMARK.json matches the metrics and workloads the benchmark produces", fails, False)


def test_traced_equals_untraced(tmp):
    tiny = Workload(
        name="tiny", labeled=1, unlabeled=1, eval=1, train_points=ROOM, eval_points=ROOM,
        config=trainer.TrainConfig(epochs_total=4, epochs_labeled_only=2, chunk_size=4096, seed=3),
    )
    runs = [
        pipeline.run(tiny, SEED, 0.0, trace, os.path.join(tmp, f"work{trace}"),
                     start=time.perf_counter())["record"]
        for trace in (False, True)
    ]
    plain, traced = (r["rounds"][0] for r in runs)
    fails = []
    if plain["params_sha256"] != traced["params_sha256"]:
        fails.append("traced parameters differ from the untraced run's")
    if plain["miou"] != traced["miou"]:
        fails.append(f"traced mIoU {traced['miou']} differs from untraced {plain['miou']}")
    if runs[0]["check_failures"] != runs[1]["check_failures"]:
        fails.append("traced checks differ from the untraced run's")
    if not runs[1]["spans"]:
        fails.append("the traced run recorded no spans")
    expect("traced run equals untraced run", fails, False)


def main() -> int:
    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=OUT)
    try:
        room, truth = make_room(SEED, 0, ROOM)
        cache = trainer.precompute_scene(room, trainer.TrainConfig())
        test_round_trip(room, truth, tmp)
        test_knn(room, cache)
        test_superpoints(cache, truth)
        test_pseudo_labels(cache, truth)
        test_losses()
        test_miou(truth)
        test_params()
        test_tracer_missing_name()
        test_declared_metrics()
        test_traced_equals_untraced(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{sum(results)} of {len(results)} cases behaved")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
