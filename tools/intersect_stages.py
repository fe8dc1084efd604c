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

import sys

import harness

STAGES = ("edge_hits", "classify_hits", "real_lift")


def _stage_inputs(ops: list, refused: dict[str, int]):
    """The arguments of ``classify_hits`` and ``real_lift`` for the ops,
    and the sum of their solves, from one untimed pass that counts in
    refused the pairs each stage refuses; a pair a stage refuses gives no
    arguments to later stages."""
    from tropcurve.errors import UnsupportedConfiguration
    from tropcurve.intersect import classify_hits, edge_hits

    hits_args, lift_args = [], []
    solved = 0
    for op in ops:
        d = op.data
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
    return hits_args, lift_args, solved


def stages(seed: int, repeats: int) -> dict:
    from tropcurve.errors import UnsupportedConfiguration
    from tropcurve.intersect import classify_hits, edge_hits, real_lift

    groups = harness.workload_groups("intersect", seed,
                                     lambda op: f"{op.slice} ({op.data['a'].degree},{op.data['b'].degree})")
    plans = {}
    solved = 0
    refused = dict.fromkeys(STAGES, 0)
    for name, ops in groups.items():
        hits_args, lift_args, group_solved = _stage_inputs(ops, refused)
        solved += group_solved
        plans[name] = (
            (edge_hits, [(op.data["a"], op.data["b"]) for op in ops]),
            (classify_hits, hits_args),
            (real_lift, lift_args),
        )
    runs = harness.repeat(repeats, lambda: {name: harness.time_plan(plan, UnsupportedConfiguration)
                                            for name, plan in plans.items()})
    return harness.summary(STAGES, groups, runs, solved=solved, refused=refused)


if __name__ == "__main__":
    sys.exit(harness.main(__doc__, "stages", stages, 15))
