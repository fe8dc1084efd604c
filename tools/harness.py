"""What the timing tools beside this module share: the benchmark
workloads' ops, a repeat loop with gc off, the timing of a stage plan,
the per-group and per-pass medians, and the command line.

Importing it puts ``perfbench/`` on ``sys.path``, so that the workloads'
set-ups can build their ops; ``main`` puts the library's sources there.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the degrees d of honeycomb(d) that the construction and locus ladders time
LADDER = (4, 10, 20, 40, 60)

sys.path.insert(0, str(ROOT / "perfbench"))


def workload_groups(name: str, seed: int, key) -> dict[str, list]:
    """The ops of the benchmark's workload ``name`` at ``seed``, from its
    set-up, run untimed, grouped by ``key(op)`` in first-seen order."""
    from spans import NullTracer
    from workloads import WORKLOADS

    groups: dict[str, list] = {}
    for op in WORKLOADS[name].setup(seed, NullTracer()).ops:
        groups.setdefault(key(op), []).append(op)
    return groups


def repeat(repeats: int, run) -> list:
    """The results of ``run()``, called once per repeat after a collection
    and with gc off."""
    out = []
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        try:
            out.append(run())
        finally:
            gc.enable()
    return out


def time_plan(plan, refusals=()) -> list[float]:
    """Per (fn, calls) of plan, the seconds for fn over every argument
    tuple of calls; a call that raises one of ``refusals`` is timed up to
    the refusal."""
    out = []
    for fn, calls in plan:
        t0 = time.perf_counter()
        for args in calls:
            try:
                fn(*args)
            except refusals:
                pass
        out.append(time.perf_counter() - t0)
    return out


def summary(stages, groups: dict[str, list], runs: list[dict[str, list[float]]], **counts) -> dict:
    """The op count, then ``counts``, then per group and per pass the ms
    per op of each stage.  ``groups`` gives each group's ops and each run
    the seconds of each group's stages, in the order of ``stages``.  A
    group's figure is the median over the runs of its mean; a pass's
    figure is the median over the runs of the sum over all groups, as a
    mean per op."""
    sizes = {name: len(ops) for name, ops in groups.items()}
    n_ops = sum(sizes.values())

    def ms(seconds: list[float], ops: int) -> float:
        return round(statistics.median(seconds) * 1000 / ops, 4)

    return {
        "ops": n_ops,
        **counts,
        "groups": {name: {"ops": n, **{f"{stage}_ms": ms([run[name][k] for run in runs], n)
                                       for k, stage in enumerate(stages)}}
                   for name, n in sizes.items()},
        "pass": {f"{stage}_ms": ms([sum(run[name][k] for name in sizes) for run in runs], n_ops)
                 for k, stage in enumerate(stages)},
    }


def main(doc: str, key: str, per_seed, repeats: int, ladder=None) -> int:
    """A tool's command line, ``[--src DIR] [--seeds 1 2] [--repeats N]``
    (``repeats`` by default): imports the library from --src and prints
    one JSON object, ``per_seed(seed, repeats)`` for each seed under
    ``key`` and, when given, ``ladder(repeats)`` under "ladder"."""
    ap = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="the tropcurve sources to time")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--repeats", type=int, default=repeats)
    args = ap.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    out = {"python": sys.version.split()[0], key: {f"seed{s}": per_seed(s, args.repeats) for s in args.seeds}}
    if ladder is not None:
        out["ladder"] = ladder(args.repeats)
    print(json.dumps(out, indent=1))
    return 0
