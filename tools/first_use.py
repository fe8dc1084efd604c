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

Part 2 times ``hyperbolicity_locus`` on ``honeycomb(d)`` for each d of
``harness.LADDER``, with every bounded edge twisted (a hyperbolic curve,
so the face labelling runs): cold, the first call on a fresh curve whose
phase is already built, and warm, the least of three later calls; over
half the repeats, at least one.

Every figure is the median over the repeats, in ms, wall clock, with gc
off (``harness.repeat``).  The library is imported from ``src/`` beside this directory, or from --src.
Prints one JSON object.
"""

from __future__ import annotations

import statistics
import sys
import time

import harness

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
    groups = harness.workload_groups("locus", seed, lambda op: id(op.data["curve"]))
    return [ops[0].data["curve"].poly for ops in groups.values()]


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return (time.perf_counter() - t0) * 1000


def first_use(seed: int, repeats: int) -> dict:
    from tropcurve import TropicalPolynomial, curve_from_polynomial
    from tropcurve import realstruct as rs

    polys = _locus_curves(seed)
    uses = (("_Base", rs._base), ("_sign_rule", rs._sign_rule), *_tables())

    def one() -> dict[str, float]:
        curves = [curve_from_polynomial(TropicalPolynomial(p.coefficients)) for p in polys]
        run = {name: 0.0 for name, _ in uses}
        for curve in curves:
            for name, use in uses:
                run[name] += _timed(use, curve)
        return run

    runs = harness.repeat(repeats, one)
    return {
        "curves": len(polys),
        "ms": {name: round(statistics.median(run[name] for run in runs), 3) for name, _ in uses},
        "locus_sum_ms": round(statistics.median(sum(run[n] for n in LOCUS) for run in runs), 3),
    }


def ladder(repeats: int) -> dict:
    from tropcurve import TwistSet, honeycomb, hyperbolicity_locus, phase_from_twists

    def one(d: int) -> tuple[int, float, float]:
        curve = honeycomb(d)
        phase = phase_from_twists(curve, TwistSet.from_edges(curve, curve.bounded_edges))
        ms = []
        for _ in range(4):
            t0 = time.perf_counter()
            report = hyperbolicity_locus(curve, phase)
            ms.append((time.perf_counter() - t0) * 1000)
        if not report.hyperbolic:
            raise SystemExit(f"honeycomb({d}) with every edge twisted is not hyperbolic")
        return len(curve.edges), ms[0], min(ms[1:])

    out = {}
    for d in harness.LADDER:
        runs = harness.repeat(max(1, repeats // 2), lambda: one(d))
        out[f"d{d}"] = {"edges": runs[0][0], "cold_ms": round(statistics.median(r[1] for r in runs), 3),
                        "warm_ms": round(statistics.median(r[2] for r in runs), 3)}
    return out


if __name__ == "__main__":
    sys.exit(harness.main(__doc__, "first_use", first_use, 5, ladder))
