"""The stages that ``ab.py`` times, and a loader that imports a source
tree's ``tropcurve`` under a name of its own.

A stage is one step of a chain, named ``chain.step``.  A chain runs its
steps in turn on each of its items (most from a benchmark workload's
set-up, each with its group): a step maps (side, results so far, item)
to a call (fn, args), and fn(*args) is its result.  ``STAGES`` holds each
stage as a (set-up, op) pair.  Stage k's set-up keeps the items that no
step before k refuses; its op runs those steps afresh, untimed, and
returns the call of step k, which is timed.  Importing this module puts
``perfbench/`` on ``sys.path``.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from contextlib import suppress
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the degrees d of honeycomb(d) that the honeycomb chain builds
LADDER = (4, 10, 20, 40, 60)

sys.path.insert(0, str(ROOT / "perfbench"))


def load_tree(directory, name: str = "tropcurve"):
    """The package ``directory/tropcurve``, imported afresh under ``name``.
    Its imports are relative, so they resolve under that name and two trees
    load side by side in one process."""
    path = Path(directory).resolve() / "tropcurve"
    if not (path / "__init__.py").is_file():
        raise SystemExit(f"error: {directory} has no tropcurve/__init__.py")
    for old in [n for n in sys.modules if n.split(".")[0] == name]:
        del sys.modules[old]
    spec = importlib.util.spec_from_file_location(name, path / "__init__.py", submodule_search_locations=[str(path)])
    sys.modules[name] = package = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(package)
    return package


class Side:
    """One source tree, loaded as ``tropcurve_<name>``, with perfbench's
    workloads and spans imported afresh while it is bound as ``tropcurve``;
    the rest of ``sys.modules`` is left as it was."""

    def __init__(self, directory, name: str):
        self.tc = load_tree(directory, f"tropcurve_{name}")

        def bound(n: str) -> bool:
            return n.split(".")[0] == "tropcurve" or n in ("workloads", "spans", "gen")

        saved = {n: sys.modules.pop(n) for n in [n for n in sys.modules if bound(n)]}
        sys.modules.update({"tropcurve" + n[len(self.tc.__name__):]: m for n, m in list(sys.modules.items())
                            if n.split(".")[0] == self.tc.__name__})
        try:
            self.workloads, self.spans = importlib.import_module("workloads"), importlib.import_module("spans")
        finally:
            for n in [n for n in sys.modules if bound(n)]:
                del sys.modules[n]
            sys.modules.update(saved)
        self.runs: dict = {}  # per chain and seeds, its items and the steps each passed (``_setup``)

    def ops(self, workload: str, seeds) -> list:
        """The ops of the benchmark's workload at each seed, from its set-up."""
        return [op for s in seeds for op in self.workloads.WORKLOADS[workload].setup(s, self.spans.NullTracer()).ops]


def _run(side: Side, steps: dict, item, refusals=()) -> dict:
    """The results of steps in order on item, up to one that raises one of
    refusals."""
    results = {}
    with suppress(*refusals):
        for name, step in steps.items():
            fn, args = step(side, results, item)
            results[name] = fn(*args)
    return results


def _setup(chain: str, k: int, side: Side, seeds) -> dict[str, list]:
    """The items that no step before k refuses, by group, from one untimed
    run of every step per side, which also builds the tables they read."""
    items, steps = CHAINS[chain]
    if (chain, *seeds) not in side.runs:
        side.runs[chain, *seeds] = [(group, item, len(_run(side, steps, item, side.spans.REFUSALS)))
                                    for group, item in items(side, seeds)]
    groups: dict[str, list] = {}
    for group, item, done in side.runs[chain, *seeds]:
        if done >= k:
            groups.setdefault(group, []).append(item)
    return groups


def _op(chain: str, k: int, side: Side, item) -> tuple:
    steps = list(CHAINS[chain][1].items())
    return steps[k][1](side, _run(side, dict(steps[:k]), item), item)


# -- construct: the steps of each construct op, by slice and degree --------
CONSTRUCT = {
    "load_spec": lambda s, r, op: (s.tc.load_spec, (op.data["text"],)),
    "build": lambda s, r, op: (s.workloads.build_curve, (s.spans.NullTracer(), r["load_spec"].curve, op.degree)),
    "signs_of": lambda s, r, op: (s.workloads.signs_of, (r["load_spec"],)),
    "phase_from_signs": lambda s, r, op: (s.tc.phase_from_signs, (r["build"], r["signs_of"])),
    "twists_from_signs": lambda s, r, op: (s.tc.twists_from_signs, (r["build"], r["signs_of"])),
    "primitive_cycles": lambda s, r, op: (s.tc.primitive_cycles, (r["build"],)),
    "complement_components": lambda s, r, op: (s.tc.complement_components, (r["build"],)),
    "render_svg": lambda s, r, op: (s.tc.render_svg, (r["build"], r["phase_from_signs"], r["twists_from_signs"],
                                                      None, r["signs_of"])),
}


# -- patchwork: the real-structure routes on each op's prebuilt curve -------
def _patchwork_inputs(side: Side, seeds) -> list:
    """Per patchwork op, by degree, its curve, signs and twist set: a signs
    op takes its twist set from its signs, a twists op its signs from the
    phase of its twist set, as the op does."""
    rs, out = side.tc.realstruct, []
    for op in side.ops("patchwork", seeds):
        row = dict(op.data)
        if op.slice == "signs":
            row["twists"] = rs.twists_from_signs(row["curve"], row["delta"])
        else:
            row["delta"] = rs.signs_from_phase(row["curve"], rs.phase_from_twists(row["curve"], row["twists"]))
        out.append((f"d{op.degree}", row))
    return out


PATCHWORK = {
    "phase_from_signs": lambda s, r, i: (s.tc.phase_from_signs, (i["curve"], i["delta"])),
    "twists_from_signs": lambda s, r, i: (s.tc.twists_from_signs, (i["curve"], i["delta"])),
    "twists_from_phase": lambda s, r, i: (s.tc.twists_from_phase, (i["curve"], r["phase_from_signs"])),
    "phase_from_twists": lambda s, r, i: (s.tc.phase_from_twists, (i["curve"], i["twists"])),
    "signs_from_phase": lambda s, r, i: (s.tc.signs_from_phase, (i["curve"], r["phase_from_twists"])),
    "twist_matrix": lambda s, r, i: (s.tc.realstruct.twist_matrix, (i["curve"], i["twists"])),
    "kernel": lambda s, r, i: (s.tc.kernel, (r["twist_matrix"],)),
    "count_components_matrix": lambda s, r, i: (s.tc.count_components_matrix, (i["curve"], i["twists"])),
    "real_part": lambda s, r, i: (s.tc.real_part, (i["curve"], r["phase_from_twists"])),
    "count_components_direct": lambda s, r, i: (s.tc.count_components_direct, (r["real_part"],)),
}


# -- intersect: each pair's walk, classification and real lifts -------------
def _lifts(real_lift, comps, pa, pb) -> list:
    return [real_lift(comp, pa, pb) for comp in comps]


INTERSECT = {
    "edge_hits": lambda s, r, d: (s.tc.intersect.edge_hits, (d["a"], d["b"])),
    "classify_hits": lambda s, r, d: (s.tc.intersect.classify_hits, (d["a"], d["b"], r["edge_hits"])),
    "real_lift": lambda s, r, d: (_lifts, (s.tc.intersect.real_lift, r["classify_hits"], d["pa"], d["pb"])),
}


# -- first_use: the locus curves rebuilt, then each table's first use -------
def _locus_curves(side: Side, seeds) -> list:
    """The locus workload's distinct curves, as polynomials, by degree."""
    curves = {id(op.data["curve"]): op.data["curve"] for op in side.ops("locus", seeds)}
    return [(f"d{c.degree}", c.poly) for c in curves.values()]


# the curve, then the first use of each table on the realstruct module and
# the curve, in dependency order; the key tables of _Cells on first read
TABLES = {
    "curve_from_polynomial": lambda s, r, p: (s.tc.curve_from_polynomial, (s.tc.TropicalPolynomial(p.coefficients),)),
    **{name: lambda s, r, p, use=use: (use, (s.tc.realstruct, r["curve_from_polynomial"])) for name, use in (
        ("_Base", lambda rs, c: rs._base(c)),
        ("_sign_solver", lambda rs, c: rs._sign_solver(c)),
        ("sides", lambda rs, c: c.dual.sides),
        ("sides_at", lambda rs, c: c.dual.sides_at),
        ("region_edges", lambda rs, c: c.region_edges),
        ("_cycles", lambda rs, c: c._cycles),
        ("_cycle_rows", lambda rs, c: rs._cycle_rows(c)),
        ("_side_ends", lambda rs, c: rs._side_ends(c)),
        ("_Cells", lambda rs, c: rs._cells(c)),
        ("atom_keys", lambda rs, c: rs._cells(c).atom_keys),
        ("region_class", lambda rs, c: rs._cells(c).region_class),
        ("copy_keys", lambda rs, c: rs._cells(c).copy_keys))},
}


# -- honeycomb: the degree ladder -----------------------------------------
def _all_plus(tc, curve) -> tuple:
    delta = tc.SignDistribution(dict.fromkeys(curve.dual.lattice_points, 1))
    return curve, tc.phase_from_signs(curve, delta), tc.twists_from_signs(curve, delta), None, delta


def _all_twisted(tc, curve):
    return tc.TwistSet.from_edges(curve, curve.bounded_edges)


HONEYCOMB = {
    "build": lambda s, r, d: (s.tc.honeycomb, (d,)),
    "render_svg": lambda s, r, d: (s.tc.render_svg, _all_plus(s.tc, r["build"])),
    "phase_from_twists": lambda s, r, d: (s.tc.phase_from_twists, (r["build"], _all_twisted(s.tc, r["build"]))),
    # hyperbolicity_locus on that phase: its first call, then its second
    "locus_cold": lambda s, r, d: (s.tc.hyperbolicity_locus, (r["build"], r["phase_from_twists"])),
    "locus_warm": lambda s, r, d: (s.tc.hyperbolicity_locus, (r["build"], r["phase_from_twists"])),
    # after the locus steps, so that they find the curve's tables cold; the
    # locus builds no cycle table, so this step pays the first use of the
    # curve's cycles and cycle rows
    "is_dividing": lambda s, r, d: (s.tc.is_dividing, (r["build"], _all_twisted(s.tc, r["build"]))),
    # on those tables, the twist matrix and its rank alone
    "count_components_matrix": lambda s, r, d: (s.tc.count_components_matrix,
                                                (r["build"], _all_twisted(s.tc, r["build"]))),
    # the bridge criterion on the fully twisted set
    "honeycomb_locus": lambda s, r, d: (s.tc.honeycomb_locus, (r["build"], _all_twisted(s.tc, r["build"]))),
    # the bridge flat at (1, 1), under the d - 3 diagonal bridges above it
    "hyp_alpha_flat": lambda s, r, d: (s.tc.hyp_alpha_flat, (r["build"], (1, 1))),
}

# per chain, its items (side, seeds) -> [(group, item)] and its steps
CHAINS = {
    "construct": (lambda side, seeds: [(f"{op.slice} d{op.degree}", op) for op in sorted(
        side.ops("construct", seeds), key=lambda op: (op.degree, op.slice))], CONSTRUCT),
    "patchwork": (_patchwork_inputs, PATCHWORK),
    "intersect": (lambda side, seeds: [(f"{op.slice} ({op.data['a'].degree},{op.data['b'].degree})", op.data)
                                       for op in side.ops("intersect", seeds)], INTERSECT),
    "first_use": (_locus_curves, TABLES),
    "honeycomb": (lambda side, seeds: [(f"d{d}", d) for d in LADDER], HONEYCOMB),
}

STAGES = {f"{chain}.{name}": (partial(_setup, chain, k), partial(_op, chain, k))
          for chain, (_, steps) in CHAINS.items() for k, name in enumerate(steps)}
