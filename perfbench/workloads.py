"""The four workloads: inputs from the seed, one op, its outcome, its check.

Each workload is a closed loop with one caller: the next op starts when the
previous one returns.  ``setup`` generates every input from the seed and
builds what the workload keeps prebuilt; ``run`` is the timed op and goes
through ``tr.call`` at each call into a library module, so a traced run
gets one span per call; ``outcome`` is the canonical text that goes into
the run digest; ``check`` compares the op's result with an independent
route and runs outside the timed region.  Ops run in a seeded shuffled
order, so each group of similar ops is spread over the whole run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction

from tropcurve import (
    SignDistribution,
    TropicalPolynomial,
    TwistSet,
    bezout_total,
    complement_components,
    count_components_direct,
    count_components_matrix,
    curve_from_polynomial,
    div_space,
    honeycomb,
    honeycomb_locus,
    hyperbolic_wrt_point,
    hyperbolicity_locus,
    intersection_components,
    is_admissible,
    is_dividing,
    kernel,
    load_spec,
    multi_bridges,
    phase_from_signs,
    phase_from_twists,
    primitive_cycles,
    real_lift,
    real_part,
    render_svg,
    signs_from_phase,
    twists_from_phase,
    twists_from_signs,
)
from tropcurve.errors import SingularSubdivision
from tropcurve.gf2 import Gf2Vector
from tropcurve.realstruct import EPS4, twist_matrix

import gen


@dataclass
class Op:
    slice: str           # which slice of the workload the op belongs to
    degree: int
    data: dict = field(default_factory=dict)


@dataclass
class Prepared:
    ops: list[Op]
    properties: dict     # input properties known before the loop


class Draws:
    """Seeded rejection sampling of non-singular curves, with per-degree
    tallies so the natural rejection rate can be reported."""

    def __init__(self, rng, tr):
        self.rng = rng
        self.tr = tr
        self.tries: dict[tuple[str, int], int] = {}
        self.rejected: dict[tuple[str, int], int] = {}

    def curve(self, kind: str, d: int, want_honeycomb: bool | None = None):
        """Draw specs until one builds; returns (spec, curve)."""
        while True:
            text = gen.scenario_text(
                gen.curve_json(d, gen.coefficients(self.rng, kind, d)), {"signs": "all+"}
            )
            spec = self.tr.call("io_render", "load_spec", load_spec, text)
            key = (kind, d)
            self.tries[key] = self.tries.get(key, 0) + 1
            try:
                curve = build_curve(self.tr, spec.curve, d)
            except SingularSubdivision:
                self.rejected[key] = self.rejected.get(key, 0) + 1
                continue
            if want_honeycomb is None or curve.is_honeycomb() == want_honeycomb:
                return spec, curve

    def rejection_rates(self) -> dict:
        return {
            f"rejection_rate.{kind}.d{d}": round(self.rejected.get((kind, d), 0) / n, 4)
            for (kind, d), n in sorted(self.tries.items())
        }


def build_curve(tr, curve_data: dict, degree: int):
    """The curve layer's construction from a normalized scenario curve."""
    if "honeycomb" in curve_data:
        info = {"degree": degree, "support": len(gen.lattice(degree))}
        return tr.call("curve", "build", honeycomb, curve_data["honeycomb"], info=info)
    coeffs = {gen.parse_key(k): Fraction(v) for k, v in curve_data["coefficients"].items()}
    info = {"degree": degree, "support": len(coeffs)}
    return tr.call(
        "curve", "build", lambda: curve_from_polynomial(TropicalPolynomial(coeffs)), info=info
    )


def honeycomb_curve(tr, d: int):
    """A prebuilt honeycomb, read from its scenario text like other inputs."""
    text = gen.scenario_text(gen.curve_json(d, None), {"signs": "all+"})
    spec = tr.call("io_render", "load_spec", load_spec, text)
    return build_curve(tr, spec.curve, d)


def signs_of(spec) -> SignDistribution:
    return SignDistribution({gen.parse_key(k): v for k, v in spec.real_structure["signs"].items()})


def _sorted_edges(curve, edge_ids) -> list:
    return sorted(sorted(curve.edges[e].dual) for e in edge_ids)


def _share(flags) -> float:
    flags = list(flags)
    return round(sum(flags) / len(flags), 4) if flags else 0.0


# -- construct ------------------------------------------------------------

# (honeycomb ops, perturbed-lift ops) per degree in one pass; perturbed
# lifts are kept at the generator's natural rejection rate.  A rejection
# may come early in construction or late, so one high-degree lift would
# swing the pass time by several percent from seed to seed: lifts stop at
# d=5.  The counts put the 50th percentile op inside the d=3 group and the
# 90th inside the d=6 group, which is all honeycombs so rejections cannot
# move it.
CONSTRUCT_LADDER = {1: (3, 3), 2: (6, 6), 3: (22, 22), 4: (8, 8), 5: (4, 4), 6: (8, 0),
                    7: (2, 0), 8: (2, 0), 9: (1, 0), 10: (1, 0)}


class Construct:
    name = "construct"
    cli_command = "build"

    def setup(self, seed, tr) -> Prepared:
        rng = gen.workload_rng(self.name, seed)
        ops = []
        for d, (n_honeycomb, n_perturbed) in CONSTRUCT_LADDER.items():
            for kind in ["honeycomb"] * n_honeycomb + ["perturbed"] * n_perturbed:
                coeffs = None if kind == "honeycomb" else gen.perturbed_coefficients(rng, d)
                signs = gen.random_signs(rng, gen.lattice(d))
                text = gen.scenario_text(gen.curve_json(d, coeffs), gen.signs_json(signs))
                ops.append(Op(kind, d, {"text": text}))
        rng.shuffle(ops)
        return Prepared(ops, {"ops_per_curve": 1.0})

    def run(self, op, tr):
        spec = tr.call("io_render", "load_spec", load_spec, op.data["text"])
        curve = build_curve(tr, spec.curve, op.degree)
        delta = signs_of(spec)
        phase = tr.call("realstruct", "phase_from_signs", phase_from_signs, curve, delta)
        twists = tr.call("realstruct", "twists_from_signs", twists_from_signs, curve, delta)
        cycles = tr.call("curve", "primitive_cycles", primitive_cycles, curve)
        comps = tr.call("curve", "complement_components", complement_components, curve)
        svg = tr.call("io_render", "render_svg", render_svg, curve, phase, twists, None, delta)
        tr.count("io_render.svg_bytes", len(svg))
        return {"curve": curve, "phase": phase, "twists": twists, "cycles": cycles,
                "comps": comps, "svg": svg}

    def outcome(self, op, res) -> str:
        c = res["curve"]
        svg = hashlib.sha256(res["svg"].encode()).hexdigest()
        return repr((c.degree, len(c.vertices), len(c.edges), c.is_honeycomb(), len(res["cycles"]),
                     len(res["comps"]), _sorted_edges(c, res["twists"].edges), svg))

    def check(self, op, res) -> str | None:
        via_phase = twists_from_phase(res["curve"], res["phase"]).edges
        if via_phase != res["twists"].edges:
            return "twists_from_signs != twists_from_phase . phase_from_signs"
        return None

    def properties(self, prepared, first) -> dict:
        out = {"honeycomb_share": _share(res["curve"].is_honeycomb() for status, res in first
                                         if status == "ok")}
        for d in sorted({op.degree for op in prepared.ops if op.slice == "perturbed"}):
            refused = [status == "refused" for op, (status, _) in zip(prepared.ops, first)
                       if op.slice == "perturbed" and op.degree == d]
            out[f"rejection_rate.perturbed.d{d}"] = _share(refused)
        return out

    def cli_input(self, op):
        return op.data["text"], []

    def cli_expect(self, op, res) -> dict:
        c = res["curve"]
        return {
            "degree": c.degree, "vertices": len(c.vertices), "bounded_edges": len(c.bounded_edges),
            "primitive_cycles": len(res["cycles"]), "complement_components": len(res["comps"]),
            "honeycomb": c.is_honeycomb(),
        }


# -- patchwork ------------------------------------------------------------

# prebuilt curves as (kind, degree, ops per pass).  Op cost grows with
# degree: the 50th percentile falls inside the d=4 group and the 90th
# inside the d=7 group.  Lifts stop at d=5, where a rejected draw is cheap,
# so set-up time does not swing with the seed.
PATCHWORK_CURVES = [
    ("perturbed", 2, 12),
    ("honeycomb", 3, 12), ("perturbed", 3, 12),
    ("honeycomb", 4, 12), ("near", 4, 12), ("perturbed", 4, 12), ("perturbed", 4, 12),
    ("honeycomb", 5, 12), ("perturbed", 5, 12),
    ("honeycomb", 6, 12),
    ("honeycomb", 7, 24),
]


class Patchwork:
    name = "patchwork"
    cli_command = "analyze"

    def setup(self, seed, tr) -> Prepared:
        rng = gen.workload_rng(self.name, seed)
        draws = Draws(rng, tr)
        curves = []
        for kind, d, _ in PATCHWORK_CURVES:
            if kind == "honeycomb":
                curve_json, curve = gen.curve_json(d, None), honeycomb_curve(tr, d)
            else:
                spec, curve = draws.curve(kind, d)
                curve_json = spec.curve
            basis = tr.call("realstruct", "div_space", div_space, curve).basis
            curves.append((curve_json, curve, basis))
        ops = []
        for (_, d, n), (curve_json, curve, basis) in zip(PATCHWORK_CURVES, curves):
            for k in range(n):
                if k % 2 == 0:
                    delta = SignDistribution(gen.random_signs(rng, curve.dual.lattice_points))
                    ops.append(Op("signs", d, {"curve_json": curve_json, "curve": curve, "delta": delta}))
                else:
                    bits = 0
                    for v in basis:
                        if rng.random() < 0.5:
                            bits ^= v.bits
                    twists = TwistSet.from_vector(curve, Gf2Vector(len(curve.bounded_edges), bits))
                    ops.append(Op("twists", d, {"curve_json": curve_json, "curve": curve, "twists": twists}))
        props = {"honeycomb_share": _share(c.is_honeycomb() for _, c, _ in curves),
                 "ops_per_curve": round(len(ops) / len(curves), 4)}
        props.update(draws.rejection_rates())
        rng.shuffle(ops)
        return Prepared(ops, props)

    def run(self, op, tr):
        curve = op.data["curve"]
        rs = "realstruct"
        if op.slice == "signs":
            delta = op.data["delta"]
            phase = tr.call(rs, "phase_from_signs", phase_from_signs, curve, delta)
            twists = tr.call(rs, "twists_from_signs", twists_from_signs, curve, delta)
            via_phase = tr.call(rs, "twists_from_phase", twists_from_phase, curve, phase)
            tr.call(rs, "phase_from_twists", phase_from_twists, curve, twists)
            tr.call(rs, "signs_from_phase", signs_from_phase, curve, phase)
            via_signs = twists
        else:
            twists = op.data["twists"]
            phase = tr.call(rs, "phase_from_twists", phase_from_twists, curve, twists)
            delta = tr.call(rs, "signs_from_phase", signs_from_phase, curve, phase)
            via_signs = tr.call(rs, "twists_from_signs", twists_from_signs, curve, delta)
            phase_s = tr.call(rs, "phase_from_signs", phase_from_signs, curve, delta)
            via_phase = tr.call(rs, "twists_from_phase", twists_from_phase, curve, phase_s)
        admissible = tr.call(rs, "is_admissible", is_admissible, curve, twists)
        dividing = tr.call(rs, "is_dividing", is_dividing, curve, twists) if admissible else False
        space = tr.call(rs, "div_space", div_space, curve)
        matrix = tr.call(rs, "twist_matrix", twist_matrix, curve, twists)
        kdim = tr.call("gf2", "kernel", kernel, matrix).dim
        by_matrix = tr.call(rs, "count_components_matrix", count_components_matrix, curve, twists)
        rp = tr.call(rs, "real_part", real_part, curve, phase)
        direct = tr.call(rs, "count_components_direct", count_components_direct, rp)
        tr.count("realstruct.components_total", direct.count)
        tr.count("realstruct.ovals_total", sum(c.kind == "oval" for c in direct.components))
        return {"twists": twists, "via_signs": via_signs, "via_phase": via_phase,
                "admissible": admissible, "dividing": dividing, "space": space, "kernel_dim": kdim,
                "by_matrix": by_matrix, "direct": direct}

    def outcome(self, op, res) -> str:
        curve = op.data["curve"]
        kinds = sorted((c.kind, c.nesting_depth) for c in res["direct"].components)
        return repr((_sorted_edges(curve, res["twists"].edges), res["admissible"], res["dividing"],
                     res["kernel_dim"], res["by_matrix"], res["direct"].count, kinds,
                     res["direct"].nesting_parent))

    def check(self, op, res) -> str | None:
        if res["by_matrix"] != res["direct"].count:
            return f"matrix count {res['by_matrix']} != direct count {res['direct'].count}"
        if res["space"].contains(res["twists"].vector) != res["dividing"]:
            return "div_space membership != is_dividing"
        if res["via_signs"].edges != res["via_phase"].edges:
            return "twists_from_signs != twists_from_phase . phase_from_signs"
        if res["via_signs"].edges != res["twists"].edges:
            return "twist round trip through a phase and signs changed the twist set"
        return None

    def properties(self, prepared, first) -> dict:
        return {}

    def cli_input(self, op):
        if op.slice == "signs":
            structure = gen.signs_json(op.data["delta"].signs)
        else:
            structure = gen.twists_json(op.data["curve"], op.data["twists"].edges)
        return gen.scenario_text(op.data["curve_json"], structure), []

    def cli_expect(self, op, res) -> dict:
        return {
            "twist_count": len(res["twists"].edges), "admissible": res["admissible"],
            "dividing": res["dividing"], "kernel_dim": res["kernel_dim"],
            "components_matrix": res["by_matrix"], "components_direct": res["direct"].count,
        }


# -- locus ----------------------------------------------------------------

# Slice sizes put the 50th percentile op inside the d=3 group and the
# 90th inside the d=4 group.
# honeycomb slice: ops per degree, each with its own random dividing twist
# set (a random union of multi-bridges)
LOCUS_HONEYCOMB = {2: 6, 3: 8, 4: 16, 5: 4, 6: 3, 10: 1}
# near-honeycomb slice: (curves, sign draws per curve) per degree
LOCUS_NEAR = {2: (2, 2), 3: (4, 2), 4: (4, 2), 5: (2, 2)}
# low-degree perturbed non-honeycomb slice, where the known locus defect
# lives; kept at its natural rate
LOCUS_PERTURBED = {2: (36, 1), 3: (20, 3)}
# single-point queries (the CLI --point path) per degree
LOCUS_POINTS = {2: 4, 3: 4, 4: 4, 5: 4, 6: 4}


class Locus:
    name = "locus"
    cli_command = "hyperbolic"

    def setup(self, seed, tr) -> Prepared:
        rng = gen.workload_rng(self.name, seed)
        draws = Draws(rng, tr)
        ops = []
        for d, n in LOCUS_HONEYCOMB.items():
            curve = honeycomb_curve(tr, d)
            bridges = tr.call("hyperbolic", "multi_bridges", multi_bridges, curve)
            for _ in range(n):
                edges = set()
                for b in bridges:
                    if rng.random() < 0.5:
                        edges |= b.edges
                twists = TwistSet.from_edges(curve, edges)
                phase = tr.call("realstruct", "phase_from_twists", phase_from_twists, curve, twists)
                ops.append(Op("honeycomb", d, {"curve": curve, "phase": phase, "twists": twists,
                                               "structure": gen.twists_json(curve, edges)}))
        for kind, table in (("near", LOCUS_NEAR), ("perturbed", LOCUS_PERTURBED)):
            for d, (n_curves, n_signs) in table.items():
                for _ in range(n_curves):
                    spec, curve = draws.curve(kind, d, want_honeycomb=False if kind == "perturbed" else None)
                    for _ in range(n_signs):
                        signs = gen.random_signs(rng, curve.dual.lattice_points)
                        phase = tr.call("realstruct", "phase_from_signs", phase_from_signs, curve,
                                        SignDistribution(signs))
                        ops.append(Op(kind, d, {"curve": curve, "phase": phase,
                                                "curve_json": spec.curve,
                                                "structure": gen.signs_json(signs)}))
        for d, n in LOCUS_POINTS.items():
            bases = [op for op in ops if op.slice != "perturbed" and op.degree == d]
            for _ in range(n):
                base = rng.choice(bases)
                alpha = rng.choice(base.data["curve"].dual.lattice_points)
                eps = rng.choice(EPS4)
                ops.append(Op("point", d, dict(base.data, alpha=alpha, eps=eps)))
        loci = [op for op in ops if op.slice != "point"]
        props = {"honeycomb_share": _share(op.data["curve"].is_honeycomb() for op in loci),
                 "ops_per_curve": round(len(ops) / len({id(op.data["curve"]) for op in loci}), 4)}
        props.update(draws.rejection_rates())
        rng.shuffle(ops)
        return Prepared(ops, props)

    def run(self, op, tr):
        curve, phase = op.data["curve"], op.data["phase"]
        info = {"degree": op.degree}
        if op.slice == "point":
            return tr.call("hyperbolic", "hyperbolic_wrt_point", hyperbolic_wrt_point,
                           curve, phase, op.data["alpha"], op.data["eps"], info=info)
        report = tr.call("hyperbolic", "hyperbolicity_locus", hyperbolicity_locus, curve, phase,
                         info=info)
        tr.count("hyperbolic.hyperbolic", int(report.hyperbolic))
        tr.count("hyperbolic.locus_atoms_total", len(report.signed_locus))
        return report

    def outcome(self, op, res) -> str:
        if op.slice == "point":
            return repr((res.hyperbolic, res.failing_condition, res.detail))
        return repr((res.hyperbolic, res.kernel_dim, res.component_count, res.stable,
                     sorted(res.locus), sorted(res.signed_locus)))

    def check(self, op, res) -> str | None:
        if op.slice != "honeycomb":
            return None
        via_bridges = honeycomb_locus(op.data["curve"], op.data["twists"])
        if via_bridges != res.locus:
            return f"honeycomb_locus {sorted(via_bridges)} != locus {sorted(res.locus)}"
        if res.hyperbolic != bool(via_bridges):
            return "hyperbolic flag disagrees with the bridge locus"
        return None

    def properties(self, prepared, first) -> dict:
        flags = [res.hyperbolic for op, (status, res) in zip(prepared.ops, first)
                 if op.slice != "point" and status == "ok"]
        return {"hyperbolic.hyperbolic_share": _share(flags)}

    def cli_input(self, op):
        curve_json = op.data.get("curve_json", {"honeycomb": op.degree})
        extra = []
        if op.slice == "point":
            alpha, eps = op.data["alpha"], op.data["eps"]
            extra = ["--point", f"({alpha[0]},{alpha[1]})", "--eps", f"{eps[0]},{eps[1]}"]
        return gen.scenario_text(curve_json, op.data["structure"]), extra

    def cli_expect(self, op, res) -> dict:
        if op.slice == "point":
            return {"hyperbolic": res.hyperbolic, "failing_condition": res.failing_condition,
                    "detail": res.detail}
        return {
            "hyperbolic": res.hyperbolic, "kernel_dim": res.kernel_dim,
            "component_count": res.component_count, "stable": res.stable,
            "locus": sorted(list(a) for a in res.locus), "locus_size": len(res.locus),
        }


# -- intersect --------------------------------------------------------------

# generic pairs: ops per (degree a, degree b), each with its own random
# translation; the counts put the 50th percentile op inside the (4,4)
# group and the 90th inside the (6,6) group.  Pool curves are near-honeycomb
# lifts up to INTERSECT_LIFT_MAX_DEGREE and honeycombs above, where lifts
# are mostly rejected and rejections are dear.
INTERSECT_LIFT_MAX_DEGREE = 5
INTERSECT_PAIRS = {(3, 3): 12, (3, 5): 8, (4, 4): 16, (4, 6): 4, (5, 5): 12, (5, 7): 4,
                   (6, 6): 10, (7, 7): 4}
INTERSECT_HALF = 8             # half-integer translates per honeycomb pair
INTERSECT_HONEYCOMB_PAIRS = ((3, 3), (3, 4))
INTERSECT_VERTEX_ON_EDGE = 6   # a vertex placed inside an edge of the other curve


class Intersect:
    name = "intersect"
    cli_command = None

    def setup(self, seed, tr) -> Prepared:
        rng = gen.workload_rng(self.name, seed)
        draws = Draws(rng, tr)

        def with_phase(curve):
            delta = SignDistribution(gen.random_signs(rng, curve.dual.lattice_points))
            return curve, tr.call("realstruct", "phase_from_signs", phase_from_signs, curve, delta)

        def translated(curve, shift):
            return tr.call("curve", "translated", curve.translated, shift)

        degrees = sorted({d for pair in INTERSECT_PAIRS for d in pair})
        pool = {}
        for d in degrees:
            if d <= INTERSECT_LIFT_MAX_DEGREE:
                pool[d] = with_phase(draws.curve("near", d)[1])
            else:
                pool[d] = with_phase(honeycomb_curve(tr, d))
        ops = []
        for (da, db), n in INTERSECT_PAIRS.items():
            for _ in range(n):
                shift = (Fraction(rng.randrange(-400, 400), 101), Fraction(rng.randrange(-400, 400), 103))
                (a, pa), (b, pb) = pool[da], pool[db]
                ops.append(Op("generic", da, {"a": a, "pa": pa, "b": translated(b, shift), "pb": pb}))
        honey = {}
        for d in sorted({d for pair in INTERSECT_HONEYCOMB_PAIRS for d in pair}):
            honey[d] = with_phase(honeycomb_curve(tr, d))
        for da, db in INTERSECT_HONEYCOMB_PAIRS:
            for _ in range(INTERSECT_HALF):
                shift = (Fraction(rng.randint(-4, 4), 2), Fraction(rng.randint(-4, 4), 2))
                (a, pa), (b, pb) = honey[da], honey[db]
                ops.append(Op("half-integer", da, {"a": a, "pa": pa, "b": translated(b, shift), "pb": pb}))
        bent = [with_phase(draws.curve("perturbed", d, want_honeycomb=False)[1]) for d in (3, 4)]
        for k in range(INTERSECT_VERTEX_ON_EDGE):
            a, pa = bent[k % 2]
            b, pb = honey[3]
            hosts = [e for e in a.bounded_edges
                     if a.edges[e].direction not in ((1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1))]
            host = rng.choice(hosts)
            mid = a.edge_point(host, a.edge_tmax(host) / 2)
            v = rng.choice(b.vertices)
            ops.append(Op("vertex-on-edge", a.degree, {
                "a": a, "pa": pa, "b": translated(b, (mid[0] - v[0], mid[1] - v[1])), "pb": pb}))
        curves = [c for c, _ in pool.values()] + [c for c, _ in honey.values()] + [c for c, _ in bent]
        props = {"honeycomb_share": _share(op.data["a"].is_honeycomb() and op.data["b"].is_honeycomb()
                                           for op in ops),
                 "ops_per_curve": round(len(ops) / len(curves), 4)}
        props.update(draws.rejection_rates())
        rng.shuffle(ops)
        return Prepared(ops, props)

    def run(self, op, tr):
        a, b = op.data["a"], op.data["b"]
        tr.count("intersect.edge_pairs", len(a.edges) * len(b.edges))
        comps = tr.call("intersect", "intersection_components", intersection_components, a, b)
        lifts = []
        for comp in comps:
            tr.count(f"intersect.kind.{comp.kind}")
            lifts.append(tr.call("intersect", "real_lift", real_lift, comp, op.data["pa"], op.data["pb"]))
        return {"comps": comps, "lifts": lifts}

    def outcome(self, op, res) -> str:
        rows = []
        for comp, lift in zip(res["comps"], res["lifts"]):
            rows.append((comp.kind, comp.multiplicity, comp.point, comp.segment,
                         lift.variant, lift.reals, lift.pairs, lift.possible))
        return repr(rows)

    def check(self, op, res) -> str | None:
        comps = res["comps"]
        if not comps or any(c.kind != "transverse" for c in comps):
            return None
        a, b = op.data["a"], op.data["b"]
        total = bezout_total(a, b)
        if total != a.degree * b.degree:
            return f"bezout_total {total} != {a.degree}*{b.degree}"
        for comp, lift in zip(comps, res["lifts"]):
            if lift.variant.startswith("forced") and (lift.reals - comp.multiplicity) % 2:
                return f"parity of real lifts broken on a multiplicity-{comp.multiplicity} point"
        return None

    def properties(self, prepared, first) -> dict:
        return {}


WORKLOADS = {w.name: w for w in (Construct(), Patchwork(), Locus(), Intersect())}
