"""Time the three stages of an intersect op, per pair group.

    python3 tools/intersect_stages.py [--src DIR] [--seeds 1 2] [--repeats 15]

Takes the ops of the benchmark's intersect workload at each seed (its
set-up, run untimed) and groups them by slice and the two curves'
degrees, e.g. "generic (6,6)" or "half-integer (3,4)".  For each group it
times ``edge_hits`` on every pair, ``classify_hits`` on those hits and
``real_lift`` of every component, one stage at a time over the whole
group, with gc off.  A pair that a stage refuses is timed up to the
refusal; the later stages skip it.  One untimed pass first builds the
per-curve tables the walk reads.

Every figure is in ms per op, wall clock: the median over the repeats of
the group's mean.  ``pass`` sums each stage over all groups, as a mean
per op of one pass.  ``solved`` is the sum of ``FrameHits.solved`` over
one pass and ``refused`` counts the pairs each stage refuses.  The
traced per-layer metric ``intersect.components_ms`` times ``edge_hits``
and ``classify_hits`` as one call, so it cannot show this split.

The library is imported from ``src/`` beside this directory, or from
--src.  Prints one JSON object.
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
STAGES = ("edge_hits", "classify_hits", "real_lift")


def _groups(seed: int) -> dict[str, list[dict]]:
    """The intersect workload's op data by pair group, in first-seen order."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from spans import NullTracer
    from workloads import WORKLOADS

    groups: dict[str, list[dict]] = {}
    for op in WORKLOADS["intersect"].setup(seed, NullTracer()).ops:
        a, b = op.data["a"], op.data["b"]
        groups.setdefault(f"{op.slice} ({a.degree},{b.degree})", []).append(op.data)
    return groups


def _stage_inputs(ops: list[dict]):
    """The arguments of ``classify_hits`` and ``real_lift`` for the ops,
    from one untimed pass, with the solves summed and the refusals counted
    per stage; a pair a stage refuses gives no arguments to later stages."""
    from tropcurve.errors import UnsupportedConfiguration
    from tropcurve.intersect import classify_hits, edge_hits

    hits_args, lift_args = [], []
    solved = 0
    refused = dict.fromkeys(STAGES, 0)
    for d in ops:
        a, b = d["a"], d["b"]
        try:
            hits = edge_hits(a, b)
        except UnsupportedConfiguration:
            refused["edge_hits"] += 1
            continue
        solved += hits.solved
        hits_args.append((a, b, hits))
        try:
            comps = classify_hits(a, b, hits)
        except UnsupportedConfiguration:
            refused["classify_hits"] += 1
            continue
        lift_args.extend((comp, d["pa"], d["pb"]) for comp in comps)
    return hits_args, lift_args, solved, refused


def _time_stage(fn, calls) -> float:
    """Seconds for fn over every argument tuple, refusals included."""
    from tropcurve.errors import UnsupportedConfiguration

    t0 = time.perf_counter()
    for args in calls:
        try:
            fn(*args)
        except UnsupportedConfiguration:
            pass
    return time.perf_counter() - t0


def stages(seed: int, repeats: int) -> dict:
    from tropcurve.intersect import classify_hits, edge_hits, real_lift

    groups = _groups(seed)
    plans = {}
    solved = 0
    refused = dict.fromkeys(STAGES, 0)
    for name, ops in groups.items():
        hits_args, lift_args, group_solved, group_refused = _stage_inputs(ops)
        solved += group_solved
        for stage, n in group_refused.items():
            refused[stage] += n
        plans[name] = (
            (edge_hits, [(d["a"], d["b"]) for d in ops]),
            (classify_hits, hits_args),
            (real_lift, lift_args),
        )
    seconds = {name: {stage: [] for stage in STAGES} for name in groups}
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        try:
            for name, plan in plans.items():
                for stage, (fn, calls) in zip(STAGES, plan):
                    seconds[name][stage].append(_time_stage(fn, calls))
        finally:
            gc.enable()
    n_ops = sum(len(ops) for ops in groups.values())
    return {
        "ops": n_ops,
        "solved": solved,
        "refused": refused,
        "groups": {
            name: {"ops": len(groups[name]),
                   **{f"{stage}_ms": round(statistics.median(s) * 1000 / len(groups[name]), 4)
                      for stage, s in per_stage.items()}}
            for name, per_stage in seconds.items()
        },
        "pass": {
            f"{stage}_ms": round(
                statistics.median(sum(seconds[name][stage][r] for name in groups) for r in range(repeats))
                * 1000 / n_ops, 4)
            for stage in STAGES
        },
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="the tropcurve sources to time")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--repeats", type=int, default=15)
    args = ap.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    out = {
        "python": sys.version.split()[0],
        "stages": {f"seed{s}": stages(s, args.repeats) for s in args.seeds},
    }
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
