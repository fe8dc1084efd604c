"""Time the stages of a construct op, per degree group, and on large honeycombs.

    python3 tools/construct_stages.py [--src DIR] [--seeds 1 2] [--repeats 15]

Takes the ops of the benchmark's construct workload at each seed (its
set-up, run untimed) and groups them by slice and degree, e.g.
"honeycomb d3" or "perturbed d5".  Each repeat runs every op of a group
as the workload does, stage by stage, and times each stage on its own:
``load_spec``, ``build``, ``phase_from_signs``, ``twists_from_signs``,
``primitive_cycles``, ``complement_components`` and ``render_svg``.  A
curve is built afresh by every repeat, so the per-curve tables that
``primitive_cycles`` and ``complement_components`` read are built inside
their stage, as in the benchmark; ``build`` also reads the sign table off
the spec, as the op does beside the build.  An op that a stage refuses is
timed up to the refusal; its later stages are skipped.  gc is off while
timing (``harness.repeat``).

Every figure is in ms per op, wall clock: the median over the repeats of
the group's mean.  ``pass`` sums each stage over all groups, as a mean
per op of one pass, and ``refused`` counts the ops each stage refuses.

``ladder`` times construction (``honeycomb(d)``) and ``render_svg`` with
all-plus signs on ``honeycomb(d)`` for each given degree
(``harness.LADDER`` by default), the median of LADDER_REPEATS fresh
curves, in ms, with gc off.

The library is imported from ``src/`` beside this directory, or from
--src.  Prints one JSON object.
"""

from __future__ import annotations

import statistics
import sys
import time

import harness

STAGES = ("load_spec", "build", "phase_from_signs", "twists_from_signs", "primitive_cycles",
          "complement_components", "render_svg")
LADDER_REPEATS = 3


def _run_op(op, seconds: list[float]) -> str | None:
    """Run one op stage by stage, adding each stage's time to seconds;
    the name of the stage that refuses it, or None."""
    from spans import REFUSALS, NullTracer
    from workloads import build_curve, signs_of

    from tropcurve import (
        complement_components,
        load_spec,
        phase_from_signs,
        primitive_cycles,
        render_svg,
        twists_from_signs,
    )

    tr = NullTracer()
    state: dict = {}
    steps = (
        lambda: state.update(spec=load_spec(op.data["text"])),
        lambda: state.update(curve=build_curve(tr, state["spec"].curve, op.degree),
                             delta=signs_of(state["spec"])),
        lambda: state.update(phase=phase_from_signs(state["curve"], state["delta"])),
        lambda: state.update(twists=twists_from_signs(state["curve"], state["delta"])),
        lambda: primitive_cycles(state["curve"]),
        lambda: complement_components(state["curve"]),
        lambda: render_svg(state["curve"], state["phase"], state["twists"], None, state["delta"]),
    )
    for k, step in enumerate(steps):
        t0 = time.perf_counter()
        try:
            step()
        except REFUSALS:
            seconds[k] += time.perf_counter() - t0
            return STAGES[k]
        seconds[k] += time.perf_counter() - t0
    return None


def _seconds(ops: list) -> list[float]:
    """Seconds per stage over the ops."""
    total = [0.0] * len(STAGES)
    for op in ops:
        _run_op(op, total)
    return total


def stages(seed: int, repeats: int) -> dict:
    groups = harness.workload_groups("construct", seed, lambda op: f"{op.slice} d{op.degree}")
    groups = dict(sorted(groups.items(), key=lambda kv: (kv[1][0].degree, kv[1][0].slice)))  # ladder order
    refused = dict.fromkeys(STAGES, 0)
    for ops in groups.values():  # untimed: the render's suffix table, and the refusals
        for op in ops:
            stage = _run_op(op, [0.0] * len(STAGES))
            if stage is not None:
                refused[stage] += 1
    runs = harness.repeat(repeats, lambda: {name: _seconds(ops) for name, ops in groups.items()})
    return harness.summary(STAGES, groups, runs, refused=refused)


def ladder(degrees=harness.LADDER) -> dict:
    from tropcurve import SignDistribution, honeycomb, phase_from_signs, render_svg, twists_from_signs

    def one(d: int) -> tuple[int, float, float]:
        t0 = time.perf_counter()
        curve = honeycomb(d)
        build = time.perf_counter() - t0
        delta = SignDistribution(dict.fromkeys(curve.dual.lattice_points, 1))
        phase, twists = phase_from_signs(curve, delta), twists_from_signs(curve, delta)
        t0 = time.perf_counter()
        render_svg(curve, phase, twists, None, delta)
        return len(curve.edges), build, time.perf_counter() - t0

    out = {}
    for d in degrees:
        runs = harness.repeat(LADDER_REPEATS, lambda: one(d))
        out[f"d{d}"] = {"edges": runs[0][0],
                        "build_ms": round(statistics.median(r[1] for r in runs) * 1000, 2),
                        "render_svg_ms": round(statistics.median(r[2] for r in runs) * 1000, 2)}
    return out


if __name__ == "__main__":
    sys.exit(harness.main(__doc__, "stages", stages, 15, lambda _: ladder()))
