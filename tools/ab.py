"""Time stages of the library from two source trees in one process.

    python3 tools/ab.py --base DIR [--change DIR] --stage NAME... [--seeds 1 2] [--rounds 21]

Each DIR holds a ``tropcurve/`` package, e.g. a checkout's ``src/``.  Both
load into this process, and each side builds a stage's inputs from the
benchmark workloads' own set-ups at --seeds, run against its own tree
(``harness.Side``).  Without --change the base loads twice: an A/A run,
which states the noise floor.  The sides take turns to go first, round by
round; a round prepares the stage's calls untimed, collects garbage and
times each group's calls with gc off, a refused call up to its refusal.

Prints one JSON object.  Per stage, and per group of its ops: each side's
ops, refused calls, and median and interquartile range over the rounds of
its ms per op; the median over the rounds of base over change (above 1
the change is faster); and the rounds the change won.  A stage whose sides
built different op counts is refused.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from pathlib import Path

import harness


def _round(side: harness.Side, op, groups: dict[str, list]) -> dict[str, tuple[float, int]]:
    """Per group, the seconds of one round of its calls and the refusals."""
    calls = {group: [op(side, item) for item in items] for group, items in groups.items()}
    out = {}
    gc.collect()
    gc.disable()
    try:
        for group, group_calls in calls.items():
            refused, t0 = 0, time.perf_counter()
            for fn, args in group_calls:
                try:
                    fn(*args)
                except side.spans.REFUSALS:
                    refused += 1
            out[group] = time.perf_counter() - t0, refused
    finally:
        gc.enable()
    return out


def _record(sizes: dict[str, int], runs: tuple[list, list], groups: list[str]) -> dict:
    """Each side's record over groups, their ratio and the rounds won."""
    ops = sum(sizes[g] for g in groups)
    ms = [[sum(r[g][0] for g in groups) * 1000 / ops for r in rounds] for rounds in runs]
    sides = {}
    for name, rounds, side_ms in zip(("base", "change"), runs, ms):
        q1, _, q3 = statistics.quantiles(side_ms, n=4, method="inclusive") if len(side_ms) > 1 else side_ms * 3
        sides[name] = {"ops": ops, "refused": sum(rounds[-1][g][1] for g in groups),
                       "median_ms": round(statistics.median(side_ms), 5), "iqr_ms": round(q3 - q1, 5)}
    return {**sides, "ratio": round(statistics.median(b / c for b, c in zip(*ms)), 3),
            "won": sum(c < b for b, c in zip(*ms))}


def run(base: Path, change: Path | None, names: list[str], seeds: list[int], rounds: int) -> dict:
    """The A/B (or, without change, A/A) record of each named stage."""
    sides = (harness.Side(base, "base"), harness.Side(change or base, "change"))
    out = {}
    for name in names:
        setup, op = harness.STAGES[name]
        groups = [setup(side, seeds) for side in sides]
        sizes = [{g: len(items) for g, items in side_groups.items()} for side_groups in groups]
        if sizes[0] != sizes[1] or not sizes[0]:
            raise SystemExit(f"error: {name}: the sides built different op counts, {sizes[0]} and {sizes[1]}")
        runs: tuple[list, list] = ([], [])
        for r in range(rounds):
            for k in (0, 1) if r % 2 == 0 else (1, 0):
                runs[k].append(_round(sides[k], op, groups[k]))
        out[name] = {**_record(sizes[0], runs, list(sizes[0])),
                     "groups": {g: _record(sizes[0], runs, [g]) for g in sizes[0]}}
    return {"python": sys.version.split()[0], "base": str(base), "change": str(change or base),
            "seeds": seeds, "rounds": rounds, "stages": out}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0], epilog="stages: " + " ".join(harness.STAGES))
    ap.add_argument("--base", type=Path, required=True, help="the tree timed against: a directory holding tropcurve/")
    ap.add_argument("--change", type=Path, help="the tree timed (default: the base again, an A/A run)")
    ap.add_argument("--stage", nargs="+", required=True, choices=harness.STAGES, metavar="NAME",
                    help="the stages to time, named as listed below")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2], help="the workloads' seeds")
    ap.add_argument("--rounds", type=int, default=21, help="rounds per side")
    args = ap.parse_args()
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    print(json.dumps(run(args.base, args.change, args.stage, args.seeds, args.rounds), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
