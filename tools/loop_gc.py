"""The garbage collections inside a benchmark workload's timed loop.

    python3 tools/loop_gc.py [--src DIR] [--seeds 1 2] [--workloads locus patchwork]

Runs each workload as ``perfbench/run.py`` does untraced: three set-ups,
each between the speed probes, then ``pass_count`` whole passes over the
op list through ``run_passes``, for the benchmark's ``run_seconds``.
``gc.callbacks`` records every collection that runs inside those passes.
Per workload and seed it prints the passes, the ops, the loop's wall
time in ms and, per generation 0, 1 and 2, the collections and their
summed wall time in ms.  A collection in the loop counts against the
workload's ``ops_per_s``, and a generation-2 collection there can take
several ms, so a change that moves one into the loop shows here.

The library is imported from ``src/`` beside this directory, or from
--src.  Prints one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

import harness

NAMES = ("construct", "patchwork", "locus", "intersect")


def loop_gc(workload: str, seed: int, seconds: float) -> dict:
    """The collections inside the timed passes of one workload run."""
    import run  # perfbench/run.py, beside the workloads
    from spans import NullTracer
    from workloads import WORKLOADS

    wl, tr = WORKLOADS[workload], NullTracer()
    prepared = None
    for _ in range(run.PROBE_WINDOW):
        run.probe()
    for _ in range(run.SETUP_REPEATS):
        prepared = None  # let the previous set-up go before building the next
        prepared = wl.setup(seed, tr)
        for _ in range(run.PROBE_WINDOW):
            run.probe()
    passes = run.pass_count(workload, seconds, len(prepared.ops))
    counts, ms, started = [0, 0, 0], [0.0, 0.0, 0.0], []

    def record(phase: str, info: dict) -> None:
        if phase == "start":
            started.append(time.perf_counter())
        else:
            counts[info["generation"]] += 1
            ms[info["generation"]] += (time.perf_counter() - started.pop()) * 1000

    gc.callbacks.append(record)
    try:
        loop = run.run_passes(wl, prepared.ops, tr, passes)
    finally:
        gc.callbacks.remove(record)
    return {"passes": passes, "ops": len(loop.times), "loop_ms": round(loop.elapsed * 1000, 3),
            "collections": counts, "ms": [round(x, 3) for x in ms]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=harness.ROOT / "src", help="the tropcurve sources to run")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--workloads", nargs="+", choices=NAMES, default=list(NAMES))
    args = ap.parse_args()
    harness.load_tree(args.src)
    seconds = json.loads((harness.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    out = {"python": sys.version.split()[0], "seconds": seconds,
           "loop_gc": {name: {f"seed{s}": loop_gc(name, s, seconds) for s in args.seeds} for name in args.workloads}}
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
