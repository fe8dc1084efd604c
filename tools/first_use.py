"""First-use cost of each per-curve table, and cold against warm loci.

    python3 tools/first_use.py [--src DIR] [--seeds 1 2] [--repeats 5]

Part 1 takes the distinct curves of the benchmark's locus workload at
each seed (its set-up, run untimed), rebuilds each curve from its
polynomial so that nothing is cached, and times the first use of every
table, one table at a time in dependency order, so each time excludes the
tables it reads.  Each table is named as in the curve's table store, and
the key tables of ``_Cells`` (``atom_keys``, ``region_class``,
``copy_keys``) are timed on their first read.  ``locus_sum_ms`` sums the
tables a locus op on a hyperbolic curve builds (``LOCUS``).  ``_Base``
and ``_sign_rule`` are built in the workload's set-up, and
``region_class`` and ``copy_keys`` only by point queries and component
reports; they are reported outside the sum.

Part 2 times ``hyperbolicity_locus`` on ``honeycomb(d)`` with every
bounded edge twisted (a hyperbolic curve, so the face labelling runs):
cold, the first call on a fresh curve whose phase is already built, and
warm, a later call.

Every figure is the median over the repeats, in ms, wall clock.  The
library is imported from ``src/`` beside this directory, or from --src.
Prints one JSON object.
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
LADDER = (4, 10, 20, 40)
LOCUS = ("sides", "sides_at", "region_edges", "_cycles", "_cycle_rows", "_side_ends", "_side_rule", "_Cells",
         "atom_keys")


def _tables():
    """(name, first use) per table, in dependency order."""
    from tropcurve import realstruct as rs

    return (
        ("sides", lambda c: c.dual.sides),
        ("sides_at", lambda c: c.dual.sides_at),
        ("region_edges", lambda c: c.region_edges),
        ("_cycles", lambda c: c._cycles),
        ("_cycle_rows", rs._cycle_rows),
        ("_side_ends", rs._side_ends),
        ("_side_rule", rs._side_rule),
        ("_Cells", rs._cells),
        ("atom_keys", lambda c: rs._cells(c).atom_keys),
        ("region_class", lambda c: rs._cells(c).region_class),
        ("copy_keys", lambda c: rs._cells(c).copy_keys),
    )


def _locus_curves(seed: int):
    """The locus workload's distinct curves, as polynomials."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from spans import NullTracer
    from workloads import WORKLOADS

    ops = WORKLOADS["locus"].setup(seed, NullTracer()).ops
    seen, polys = set(), []
    for op in ops:
        curve = op.data["curve"]
        if id(curve) not in seen:
            seen.add(id(curve))
            polys.append(curve.poly)
    return polys


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return (time.perf_counter() - t0) * 1000


def first_use(seed: int, repeats: int) -> dict:
    from tropcurve import TropicalPolynomial, curve_from_polynomial
    from tropcurve import realstruct as rs

    polys = _locus_curves(seed)
    tables = _tables()
    sums = {name: [] for name in ("_Base", "_sign_rule", *(n for n, _ in tables))}
    for _ in range(repeats):
        curves = [curve_from_polynomial(TropicalPolynomial(p.coefficients)) for p in polys]
        run = dict.fromkeys(sums, 0.0)
        gc.collect()
        gc.disable()
        try:
            for curve in curves:
                run["_Base"] += _timed(rs._base, curve)
                run["_sign_rule"] += _timed(rs._sign_rule, curve)
                for name, use in tables:
                    run[name] += _timed(use, curve)
        finally:
            gc.enable()
        for name, ms in run.items():
            sums[name].append(ms)
    return {
        "curves": len(polys),
        "ms": {name: round(statistics.median(ms), 3) for name, ms in sums.items()},
        "locus_sum_ms": round(statistics.median(sum(sums[n][r] for n in LOCUS) for r in range(repeats)), 3),
    }


def ladder(repeats: int) -> dict:
    from tropcurve import TwistSet, honeycomb, hyperbolicity_locus, phase_from_twists

    out = {}
    for d in LADDER:
        cold, warm = [], []
        for _ in range(repeats):
            curve = honeycomb(d)
            phase = phase_from_twists(curve, TwistSet.from_edges(curve, curve.bounded_edges))
            gc.collect()
            cold.append(_timed(hyperbolicity_locus, curve, phase))
            warm.append(min(_timed(hyperbolicity_locus, curve, phase) for _ in range(3)))
        if not hyperbolicity_locus(curve, phase).hyperbolic:
            raise SystemExit(f"honeycomb({d}) with every edge twisted is not hyperbolic")
        out[f"d{d}"] = {"edges": len(curve.edges), "cold_ms": round(statistics.median(cold), 3),
                        "warm_ms": round(statistics.median(warm), 3)}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="the tropcurve sources to time")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    out = {
        "python": sys.version.split()[0],
        "first_use": {f"seed{s}": first_use(s, args.repeats) for s in args.seeds},
        "ladder": ladder(max(1, args.repeats // 2)),
    }
    print(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
