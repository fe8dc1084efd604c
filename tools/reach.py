"""List the functions of the library that its production entry points never call.

    python3 tools/reach.py [--seed 1] [--parts workloads demos verify cli]

Runs, in this process under a ``sys.setprofile`` call recorder:

- ``workloads``: each benchmark workload's set-up at --seed, one pass over
  its ops, and its check of each op that was not refused;
- ``demos``: every script in ``demos/``;
- ``verify``: ``tropcurve verify --seed 0``;
- ``cli``: every other subcommand on a few scenarios (honeycombs and
  explicit curves, with signs, twists or phase lines, a point query, an
  intersecting pair), in text and in JSON where the subcommand takes
  --format, and three inputs refused with exit 1 (a scenario without a
  real structure, --eps without a point, ``verify --trials 0``).

Then prints each function defined in ``src/tropcurve/*.py`` (methods and
nested functions included) that no call reached, as ``module.qualname``
with its file and line, and a last line counting the reached functions.
A function is matched to its code object by file and first line.  The
library is imported from ``src/`` beside this directory.  Demo figures go
to ``demos/out/`` as when the demos run on their own; all other output
is discarded.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PARTS = ("workloads", "demos", "verify", "cli")


def functions() -> dict[tuple[str, int], str]:
    """(file, first line of the code object) -> ``module.qualname`` for
    every function defined in the package."""
    out = {}

    def visit(node, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a decorated function's code starts at its first decorator
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[path, first] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted((SRC / "tropcurve").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), str(path), f"{path.stem}.")
    return out


def record(steps) -> set[tuple[str, int]]:
    """Run each step; the (file, first line) of every Python function called."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for step in steps:
            step()
    finally:
        sys.setprofile(None)
    return {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in seen}


def run_workloads(seed: int) -> None:
    sys.path.insert(0, str(ROOT / "perfbench"))
    from spans import REFUSALS, NullTracer
    from workloads import WORKLOADS

    tr = NullTracer()
    for wl in WORKLOADS.values():
        for op in wl.setup(seed, tr).ops:
            try:
                res = wl.run(op, tr)
            except REFUSALS:
                continue
            wl.check(op, res)


def run_demo(path: Path) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        runpy.run_path(str(path), run_name="__main__")


def run_demos() -> None:
    for path in sorted((ROOT / "demos").glob("*.py")):
        run_demo(path)


def _cli(*argv: str, want: int = 0) -> None:
    from tropcurve.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    if code != want:
        raise SystemExit(f"tropcurve {' '.join(argv)} exited {code}, not {want}")


def run_verify() -> None:
    _cli("verify", "--seed", "0")


def _scenarios() -> dict[str, dict]:
    from tropcurve import SignDistribution, honeycomb, phase_from_signs
    from tropcurve.io_render import _edge_key

    conic = honeycomb(2)
    phase = phase_from_signs(conic, SignDistribution.constant(conic))
    line = {"support": [[0, 0], [1, 0], [0, 1]]}
    return {
        "quartic": {"curve": {"honeycomb": 4}, "real_structure": {"signs": "all+"},
                    "query": {"component": [1, 1], "eps": [0, 0]}},
        "twists": {"curve": {"honeycomb": 3}, "real_structure": {"twists": {
            "edges": [[[0, 1], [1, 0]]], "seed": {"edge": [[0, 1], [1, 0]], "eps": [0, 0]}}}},
        "phase": {"curve": {"honeycomb": 2}, "real_structure": {"phase": {
            _edge_key(conic.edges[e].dual): [list(x) for x in phase.lines[e].elements]
            for e in range(len(conic.edges))}}},
        "signs": {"curve": {"support": [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]],
                            "coefficients": {"0,0": 0, "1,0": "-1/2", "0,1": -1, "2,0": -3,
                                             "1,1": "-2", "0,2": "-4"}},
                  "real_structure": {"signs": {"0,0": 1, "1,0": -1, "0,1": 1, "2,0": 1, "1,1": -1,
                                               "0,2": 1}}},
        "line": {"curve": dict(line, coefficients={"0,0": 0, "1,0": "-13/7", "0,1": "-8/11"}),
                 "real_structure": {"signs": "all+"}},
        "line_origin": {"curve": dict(line, coefficients={"0,0": 0, "1,0": 0, "0,1": 0}),
                        "real_structure": {"signs": "all+"}},
        "no_structure": {"curve": {"honeycomb": 4}},
    }


def run_cli() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        spec = {}
        for name, data in _scenarios().items():
            spec[name] = os.path.join(tmp, f"{name}.trop.json")
            with open(spec[name], "w", encoding="utf-8") as fh:
                json.dump(data, fh)
        broken = spec.pop("no_structure")
        for fmt in ("text", "json"):
            for name in spec:
                for command in ("build", "analyze", "hyperbolic"):
                    _cli(command, "--spec", spec[name], "--format", fmt)
            _cli("hyperbolic", "--spec", spec["twists"], "--point", "(1,1)", "--eps", "1,0", "--format", fmt)
            _cli("intersect", "--a", spec["line"], "--b", spec["line_origin"], "--format", fmt)
            _cli("build", "--spec", spec["signs"], "--format", fmt, "--out", os.path.join(tmp, "out"))
        for name in spec:
            _cli("render", "--spec", spec[name], "--locus", "--out", os.path.join(tmp, f"{name}.svg"))
        # one refusal of each kind that exits 1: a scenario, a flag value, a flag
        _cli("build", "--spec", broken, want=1)
        _cli("hyperbolic", "--spec", spec["signs"], "--eps", "0,0", want=1)
        _cli("verify", "--trials", "0", want=1)


def unreached(steps) -> list[str]:
    """``module.qualname (file:line)`` of each function no step called."""
    sys.path.insert(0, str(SRC))
    reached = record(steps)
    return [f"{name} ({os.path.relpath(path, ROOT)}:{line})"
            for (path, line), name in sorted(functions().items(), key=lambda kv: kv[1])
            if (os.path.realpath(path), line) not in reached]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1, help="seed of the benchmark workloads")
    ap.add_argument("--parts", nargs="+", choices=PARTS, default=list(PARTS))
    args = ap.parse_args()
    runs = {"workloads": lambda: run_workloads(args.seed), "demos": run_demos, "verify": run_verify,
            "cli": run_cli}
    missed = unreached([runs[p] for p in args.parts])
    for line in missed:
        print(line)
    total = len(functions())
    print(f"reached {total - len(missed)} of {total} functions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
