"""Run one spseg benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload selftrain5k --seed 1 --seconds 38 --trace 0

Run it from anywhere inside a checkout of the repository: spseg is imported
from the checkout's `src/`, never from an installed copy. With `--trace 0`
the metrics are the end-to-end ones; with `--trace 1` the spans of the
traced run give the per-layer ones. The full record (environment, every
round's times, check failures, and for a traced run the spans) goes to
`perfbench/out/<workload>-seed<seed>-trace<0|1>.json`. The exit code is 0
only when every operation succeeded and every check passed.
"""

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def process_start() -> float:
    """This process's start on the perf_counter clock, so set-up time counts
    the interpreter's own start-up and every import."""
    now = time.perf_counter()
    try:
        with open("/proc/self/stat") as fh:
            started = int(fh.read().rsplit(")", 1)[1].split()[19]) / os.sysconf("SC_CLK_TCK")
        return now - (time.clock_gettime(time.CLOCK_BOOTTIME) - started)
    except (OSError, ValueError, IndexError):
        return now


_START = process_start()


def prepare(blas_threads: int):
    """Pin BLAS threads before numpy loads, bypass any scene cache, and put
    the checkout's sources first on the import path."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas_threads)
    os.environ.pop("SPSEG_CACHE_DIR", None)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "spseg", "__init__.py")):
        sys.exit(f"perfbench: no spseg sources at {src}; run it inside a checkout of the repository")
    sys.path.insert(0, src)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=38.0,
                    help="run whole rounds until this much time has been measured (at least one)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--blas-threads", type=int, default=1)
    args = ap.parse_args(argv)
    prepare(args.blas_threads)

    import pipeline
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    os.makedirs(OUT, exist_ok=True)
    result = pipeline.run(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
        work_dir=os.path.join(OUT, f"work-{os.getpid()}"), start=_START,
    )
    record = result.pop("record")
    record.update(result)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT, f"{name}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for msg in (f"{check}: {m}" for check, ms in record["check_failures"].items() for m in ms):
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    sys.exit(main())
