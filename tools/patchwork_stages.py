"""Time the real-structure stages of a patchwork op, per degree group.

    python3 tools/patchwork_stages.py [--src DIR] [--seeds 1 2] [--repeats 15]

Takes the ops of the benchmark's patchwork workload at each seed (its
set-up, run untimed) and groups them by degree, e.g. "d4".  Each op
gives a curve, a sign distribution, a twist set and a phase: a signs op
has its signs and takes the rest from them, a twists op has its twist
set and takes a phase and signs from it, as the op does.  For each group
it times the five conversions (``phase_from_signs``,
``twists_from_signs``, ``twists_from_phase``, ``phase_from_twists`` and
``signs_from_phase``), ``count_components_direct`` on the phase's real
part and ``twist_matrix``, one stage at a time over the whole group,
with gc off.  One untimed pass first builds the per-curve tables the
stages read, and each phase carries its level bits, as in the workload.

Every figure is in ms per op, wall clock: the median over the repeats of
the group's mean.  ``pass`` sums each stage over all groups, as a mean
per op of one pass.  The traced per-layer metrics time the conversions
as one layer (``realstruct.convert_ms``) and the matrix count with its
rank (``realstruct.count_matrix_ms``), so they cannot show this split.

The library is imported from ``src/`` beside this directory, or from
--src.  Prints one JSON object.
"""

from __future__ import annotations

import sys

import harness

STAGES = ("phase_from_signs", "twists_from_signs", "twists_from_phase", "phase_from_twists",
          "signs_from_phase", "count_components_direct", "twist_matrix")


def _plan(ops: list) -> list[tuple]:
    """Per stage, its function and argument tuples over the ops, from one
    untimed pass that also builds every table the stages read."""
    import tropcurve as tc
    from tropcurve.realstruct import twist_matrix

    rows = []
    for op in ops:
        curve = op.data["curve"]
        if op.slice == "signs":
            delta = op.data["delta"]
            twists = tc.twists_from_signs(curve, delta)
            phase = tc.phase_from_signs(curve, delta)
        else:
            twists = op.data["twists"]
            phase = tc.phase_from_twists(curve, twists)
            delta = tc.signs_from_phase(curve, phase)
        tc.twists_from_phase(curve, phase)
        twist_matrix(curve, twists)
        rp = tc.real_part(curve, phase)
        tc.count_components_direct(rp)
        rows.append((curve, delta, twists, phase, rp))
    return [
        (tc.phase_from_signs, [(c, delta) for c, delta, _, _, _ in rows]),
        (tc.twists_from_signs, [(c, delta) for c, delta, _, _, _ in rows]),
        (tc.twists_from_phase, [(c, phase) for c, _, _, phase, _ in rows]),
        (tc.phase_from_twists, [(c, twists) for c, _, twists, _, _ in rows]),
        (tc.signs_from_phase, [(c, phase) for c, _, _, phase, _ in rows]),
        (tc.count_components_direct, [(rp,) for _, _, _, _, rp in rows]),
        (twist_matrix, [(c, twists) for c, _, twists, _, _ in rows]),
    ]


def stages(seed: int, repeats: int) -> dict:
    groups = harness.workload_groups("patchwork", seed, lambda op: f"d{op.degree}")
    plans = {name: _plan(ops) for name, ops in groups.items()}
    runs = harness.repeat(repeats, lambda: {name: harness.time_plan(plan) for name, plan in plans.items()})
    return harness.summary(STAGES, groups, runs)


if __name__ == "__main__":
    sys.exit(harness.main(__doc__, "stages", stages, 15))
