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
timing.

Every figure is in ms per op, wall clock: the median over the repeats of
the group's mean.  ``pass`` sums each stage over all groups, as a mean
per op of one pass, and ``refused`` counts the ops each stage refuses.

``ladder`` times construction (``honeycomb(d)``) and ``render_svg`` with
all-plus signs on ``honeycomb(d)`` for each given degree (LADDER by
default), the median of LADDER_REPEATS fresh curves, in ms.

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
STAGES = ("load_spec", "build", "phase_from_signs", "twists_from_signs", "primitive_cycles",
          "complement_components", "render_svg")
LADDER = (10, 20, 40, 60)
LADDER_REPEATS = 3


def _groups(seed: int) -> dict[str, list]:
    """The construct workload's ops by group, in ladder order."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from spans import NullTracer
    from workloads import WORKLOADS

    groups: dict[str, list] = {}
    ops = WORKLOADS["construct"].setup(seed, NullTracer()).ops
    for op in sorted(ops, key=lambda op: (op.degree, op.slice)):
        groups.setdefault(f"{op.slice} d{op.degree}", []).append(op)
    return groups


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


def stages(seed: int, repeats: int) -> dict:
    groups = _groups(seed)
    refused = dict.fromkeys(STAGES, 0)
    for ops in groups.values():  # untimed: the render's suffix table, and the refusals
        for op in ops:
            stage = _run_op(op, [0.0] * len(STAGES))
            if stage is not None:
                refused[stage] += 1
    seconds = {name: {stage: [] for stage in STAGES} for name in groups}
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        try:
            for name, ops in groups.items():
                total = [0.0] * len(STAGES)
                for op in ops:
                    _run_op(op, total)
                for stage, s in zip(STAGES, total):
                    seconds[name][stage].append(s)
        finally:
            gc.enable()
    n_ops = sum(len(ops) for ops in groups.values())
    return {
        "ops": n_ops,
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


def ladder(degrees=LADDER) -> dict:
    from tropcurve import SignDistribution, honeycomb, phase_from_signs, render_svg, twists_from_signs

    out = {}
    for d in degrees:
        build, render = [], []
        for _ in range(LADDER_REPEATS):
            gc.collect()
            gc.disable()
            try:
                t0 = time.perf_counter()
                curve = honeycomb(d)
                build.append(time.perf_counter() - t0)
                delta = SignDistribution(dict.fromkeys(curve.dual.lattice_points, 1))
                phase, twists = phase_from_signs(curve, delta), twists_from_signs(curve, delta)
                t0 = time.perf_counter()
                render_svg(curve, phase, twists, None, delta)
                render.append(time.perf_counter() - t0)
            finally:
                gc.enable()
        out[f"d{d}"] = {"edges": len(curve.edges),
                        "build_ms": round(statistics.median(build) * 1000, 2),
                        "render_svg_ms": round(statistics.median(render) * 1000, 2)}
    return out


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
        "ladder": ladder(),
    }
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
