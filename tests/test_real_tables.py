"""The per-curve real-structure tables against the routes they replaced:
a golden digest of realstruct outputs, the old solve_affine route of
phase_from_twists, validation messages, non-interned phase lines,
translated copies that share the tables, and the per-edge and union-find
builders of the sidedness table, the cell model and the cycle check,
with the invariants they raise."""

import copy
import re
import hashlib
import random
from fractions import Fraction

import pytest

from tropcurve import (
    PhaseLine,
    SignDistribution,
    TwistSet,
    count_components_direct,
    count_components_matrix,
    curve_from_polynomial,
    honeycomb,
    is_admissible,
    phase_from_signs,
    phase_from_twists,
    primitive_cycles,
    real_part,
    signs_from_phase,
    twists_from_phase,
    twists_from_signs,
)
from tropcurve.curve import _check_cycle
from tropcurve.errors import DegeneratePolygon, InvariantViolation, NotAdmissible, SingularSubdivision, ValidationError
from tropcurve.gf2 import Gf2Vector, solve_affine
from tropcurve.realstruct import RealPhaseStructure, edge_twisted, twist_matrix
from tropcurve.selfcheck import random_lift, random_sign_distribution

from conftest import make_line

# sha256 of _golden_lines(), recorded before realstruct read its rules
# from per-curve tables
GOLDEN_DIGEST = "0513e19245ab0cc2c5e6015b99dd2f10d6182ceafbe505f15a981b4f5402bb5e"


def _lift_curves(seed: int, draws: int):
    rng = random.Random(seed)
    out = []
    for _ in range(draws):
        try:
            out.append(curve_from_polynomial(random_lift(rng)))
        except (SingularSubdivision, DegeneratePolygon):
            continue
    return out


def _phase_key(phase):
    return [(ln.rep, ln.direction) for ln in phase.lines]


def _report_key(report):
    return (
        report.count,
        [
            (sorted(c.edge_copies), c.kind, c.nesting_depth,
             None if c.interior_regions is None else sorted(c.interior_regions))
            for c in report.components
        ],
        report.nesting_parent,
    )


def _curve_lines(curve, rng):
    lines = []
    nb = len(curve.bounded_edges)
    for _ in range(3):
        delta = random_sign_distribution(rng, curve)
        phase = phase_from_signs(curve, delta)
        twists = twists_from_signs(curve, delta)
        lines.append(("phase", _phase_key(phase)))
        lines.append(("twists", sorted(twists.edges), sorted(twists_from_phase(curve, phase).edges)))
        lines.append(("signs", list(signs_from_phase(curve, phase).signs.items())))
        lines.append(("solved", _phase_key(phase_from_twists(curve, twists))))
        if curve.degree is not None:
            lines.append(("report", _report_key(count_components_direct(real_part(curve, phase)))))
            lines.append(("matrix", twist_matrix(curve, twists).row_bits,
                          count_components_matrix(curve, twists)))
    for _ in range(3):
        twists = TwistSet.from_vector(curve, Gf2Vector(nb, rng.getrandbits(nb) if nb else 0))
        seed = (curve.bounded_edges[-1], (1, 1)) if nb else None
        try:
            lines.append(("free", _phase_key(phase_from_twists(curve, twists, seed))))
        except NotAdmissible as exc:
            lines.append(("free", str(exc)))
        lines.append(("admissible", is_admissible(curve, twists)))
    return lines


def _golden_lines():
    rng = random.Random(20260)
    curves = [honeycomb(d) for d in range(1, 8)] + _lift_curves(7, 80)
    out = []
    for curve in curves:
        out.append(("curve", sorted((p, str(a)) for p, a in curve.poly.coefficients.items())))
        out.extend(_curve_lines(curve, rng))
    return out


def test_golden_digest_of_realstruct_outputs():
    text = "\n".join(repr(line) for line in _golden_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGEST


def _sign_rule_reference(curve, eid):
    """The sign rule of a bounded edge from the cells on its two sides."""
    e = curve.edges[eid]
    p, q = e.dual
    v3, v4 = (next(x for x in curve.vertex_cell[v] if x not in e.dual) for v in (e.tail, e.head))
    if (v3[0] - v4[0]) % 2 == 0 and (v3[1] - v4[1]) % 2 == 0:
        return (v3, v4), 0
    return (p, q, v3, v4), 1


def _phase_from_twists_reference(curve, twists, seed=None):
    """The solve_affine route: one affine system per call, the offset read
    as a sign distribution, the induced phase translated onto the seed."""
    if seed is None:
        seed = (curve.bounded_edges[0] if curve.bounded_edges else 0, (0, 0))
    pts = curve.dual.lattice_points
    index = {p: k for k, p in enumerate(pts)}
    constraints = []
    for eid in curve.bounded_edges:
        points, offset = _sign_rule_reference(curve, eid)
        t = 1 if eid in twists.edges else 0
        constraints.append((Gf2Vector.from_indices(len(pts), (index[x] for x in points)), t ^ offset))
    flat = solve_affine(constraints, len(pts))
    if flat is None:
        raise NotAdmissible("no sign distribution induces this twist set")
    delta = SignDistribution({p: -1 if flat.offset.bits >> index[p] & 1 else 1 for p in pts})
    phase = phase_from_signs(curve, delta)
    seed_edge, seed_eps = seed
    if not phase.lines[seed_edge].contains(seed_eps):
        phase = phase.translate(min((seed_eps[0] ^ a, seed_eps[1] ^ b) for a, b in phase.lines[seed_edge].elements))
    return phase


def _outcome(route, *args):
    try:
        return route(*args)
    except NotAdmissible as exc:
        return ("NotAdmissible", str(exc))


def test_phase_from_twists_matches_the_solve_affine_route():
    rng = random.Random(41)
    curves = [honeycomb(d) for d in range(1, 6)] + _lift_curves(3, 30)
    draws = inadmissible = 0
    while draws < 240:
        curve = rng.choice(curves)
        nb = len(curve.bounded_edges)
        if rng.random() < 0.5:
            twists = twists_from_signs(curve, random_sign_distribution(rng, curve))
        else:
            twists = TwistSet.from_vector(curve, Gf2Vector(nb, rng.getrandbits(nb) if nb else 0))
        seed = None
        if nb and rng.random() < 0.5:
            seed = (rng.choice(range(len(curve.edges))), (rng.randrange(2), rng.randrange(2)))
        got = _outcome(phase_from_twists, curve, twists, seed)
        assert got == _outcome(_phase_from_twists_reference, curve, twists, seed)
        inadmissible += isinstance(got, tuple)
        draws += 1
    assert 20 < inadmissible < 220


def test_twist_matrix_matches_the_cycle_intersections():
    from tropcurve import primitive_cycles

    rng = random.Random(5)
    for curve in [honeycomb(d) for d in range(2, 6)] + _lift_curves(5, 20):
        cycles = primitive_cycles(curve)
        twists = twists_from_signs(curve, random_sign_distribution(rng, curve))
        rows = []
        for ci in cycles:
            rows.append(sum(1 << j for j, cj in enumerate(cycles)
                            if len(ci.edges & cj.edges & twists.edges) % 2))
        assert twist_matrix(curve, twists).row_bits == tuple(rows)


def test_validation_messages_are_unchanged():
    c = honeycomb(2)
    phase = phase_from_signs(c, SignDistribution.constant(c))
    wrong = list(phase.lines)
    wrong[1] = PhaseLine((0, 0), (1, 1) if wrong[1].direction != (1, 1) else (1, 0))
    with pytest.raises(ValidationError, match=rf"^edge 1: phase direction {re_tuple(wrong[1].direction)} "
                                              rf"!= {re_tuple(phase.lines[1].direction)}$"):
        signs_from_phase(c, RealPhaseStructure(tuple(wrong)))
    # one flipped level breaks the vertex condition at both ends of the edge
    eid = c.bounded_edges[0]
    flipped = list(phase.lines)
    flipped[eid] = PhaseLine.from_level(flipped[eid].direction, 1 ^ flipped[eid].level)
    first = min(c.edges[eid].tail, c.edges[eid].head)
    with pytest.raises(ValidationError, match=rf"^vertex {first}: phase lines share a common point$"):
        real_part(c, RealPhaseStructure(tuple(flipped)))
    # a dual graph without its cell: every level flipped passes the (empty)
    # vertex condition but is not induced around the triangle
    line = copy.copy(make_line())
    line.vertex_edges = ()
    base = phase_from_signs(make_line(), SignDistribution.constant(line))
    odd = RealPhaseStructure(tuple(PhaseLine.from_level(ln.direction, 1 ^ ln.level) for ln in base.lines))
    with pytest.raises(ValidationError, match="^phase structure is not induced by any sign distribution$"):
        signs_from_phase(line, odd)
    with pytest.raises(ValidationError, match=r"misses lattice points \[\(1, 1\)\]"):
        phase_from_signs(c, SignDistribution({p: 1 for p in c.dual.lattice_points if p != (1, 1)}))
    with pytest.raises(ValidationError, match=r"has extra points \[\(5, 5\)\]"):
        twists_from_signs(c, SignDistribution({**SignDistribution.constant(c).signs, (5, 5): 1}))


def re_tuple(t):
    return re.escape(repr(t))


def test_phase_of_non_interned_lines_gives_the_same_results():
    rng = random.Random(8)
    for curve in (honeycomb(4), *_lift_curves(11, 12)):
        phase = phase_from_signs(curve, random_sign_distribution(rng, curve))
        fresh = RealPhaseStructure(tuple(PhaseLine(ln.rep, ln.direction) for ln in phase.lines))
        assert fresh == phase
        assert all(a is not b for a, b in zip(fresh.lines, phase.lines))
        assert signs_from_phase(curve, fresh) == signs_from_phase(curve, phase)
        assert twists_from_phase(curve, fresh) == twists_from_phase(curve, phase)
        for eid in curve.bounded_edges:
            assert edge_twisted(curve, fresh, eid) == edge_twisted(curve, phase, eid)
        if curve.degree is not None:
            got = count_components_direct(real_part(curve, fresh))
            assert _report_key(got) == _report_key(count_components_direct(real_part(curve, phase)))


def _every_table():
    """Each ``curve_table`` of the package, by its store name."""
    import importlib
    import pkgutil

    import tropcurve
    from tropcurve.curve import TropicalCurve, curve_table

    spaces = [vars(TropicalCurve)]
    for info in pkgutil.iter_modules(tropcurve.__path__):
        if not info.name.startswith("_"):
            spaces.append(vars(importlib.import_module(f"tropcurve.{info.name}")))
    found = {id(t): t for space in spaces for t in space.values() if isinstance(t, curve_table)}
    tables = {t.__name__: t for t in found.values()}
    assert len(tables) == len(found), "two tables share a store name"
    return tables


def test_every_table_is_one_object_for_a_curve_and_its_copies():
    # whichever of a curve and its copies builds a table first, and
    # whether the copy was made before or after the build
    from tropcurve.selfcheck import random_nonsingular_curve

    tables = _every_table()
    assert {"region_edges", "region_exits", "walk_order", "_cycles", "_edge_by_dual",
            "_Base", "_Cells", "_sign_rule", "_side_ends", "_cycle_rows", "div_space"} <= set(tables)
    offset = (Fraction(7, 3), Fraction(-5, 2))
    rng = random.Random(5)
    lift = next(c for c in (random_nonsingular_curve(rng, 4) for _ in range(50)) if not c.is_honeycomb())
    for curve in (honeycomb(3), lift):
        for name, table in tables.items():
            for copy_first in (True, False):
                fresh = _fresh(curve)
                early = fresh.translated(offset).translated(offset)
                first, second = (early, fresh) if copy_first else (fresh, early)
                built = table(first)
                assert table(second) is built, name
                assert table(fresh.translated(offset)) is built, name
                assert fresh._tables[name] is built and early._tables is fresh._tables
        # the store holds every table under its own name, and nothing else
        for table in tables.values():
            table(fresh)
        assert fresh._tables.keys() == tables.keys()


def test_translated_copies_share_the_tables_and_agree():
    rng = random.Random(9)
    for curve in (honeycomb(3), honeycomb(5), *_lift_curves(13, 10)):
        delta = random_sign_distribution(rng, curve)
        phase = phase_from_signs(curve, delta)
        moved = curve.translated((Fraction(7, 3), Fraction(-5, 2)))
        assert moved._tables is curve._tables
        assert moved.region_edges is curve.region_edges
        twists = twists_from_signs(curve, delta)
        assert twists_from_signs(moved, delta) == twists
        assert twists_from_phase(moved, phase) == twists_from_phase(curve, phase)
        assert phase_from_twists(moved, twists) == phase_from_twists(curve, twists)
        assert signs_from_phase(moved, phase) == signs_from_phase(curve, phase)
        if curve.degree is not None:
            assert (_report_key(count_components_direct(real_part(moved, phase)))
                    == _report_key(count_components_direct(real_part(curve, phase))))
        # a copy made before any table was built shares the tables it builds
        fresh = curve_from_polynomial(curve.poly)
        early = fresh.translated((Fraction(1, 2), Fraction(0)))
        assert twists_from_phase(early, phase) == twists_from_phase(curve, phase)
        assert early._tables is fresh._tables and fresh._tables
        assert early.region_edges is fresh.region_edges


def test_a_phase_read_for_one_curve_is_checked_again_for_another():
    # a phase carries the level bits its curve's tables read; another
    # curve's tables must still check it, with the same messages as a
    # phase that was never read
    from tropcurve.selfcheck import random_nonsingular_curve

    rng = random.Random(21)
    checked = 0
    for d in (2, 3, 4):
        curve = honeycomb(d)
        for _ in range(6):
            other = random_nonsingular_curve(rng, d)
            phase = phase_from_signs(other, random_sign_distribution(rng, other))
            twists_from_phase(other, phase)
            never_read = RealPhaseStructure(phase.lines)
            for route in (signs_from_phase, twists_from_phase, real_part):
                try:
                    want = route(curve, never_read)
                except ValidationError as exc:
                    with pytest.raises(ValidationError, match=f"^{re.escape(str(exc))}$"):
                        route(curve, phase)
                    checked += 1
                else:
                    got = route(curve, phase)
                    assert (got.edge_copies == want.edge_copies if route is real_part else got == want)
            # the other curve's tables still read the phase it was built for
            assert twists_from_phase(other, phase) == twists_from_phase(other, never_read)
    assert checked >= 10


def test_shared_edge_table_lists_each_edge_between_two_interior_points():
    from tropcurve import primitive_cycles
    from tropcurve.realstruct import _cycle_rows

    curves = [honeycomb(d) for d in range(2, 9)] + _lift_curves(6, 60)
    assert any(c.degree is None for c in curves)
    for curve in curves:
        index = {cyc.center: i for i, cyc in enumerate(primitive_cycles(curve))}
        want = []
        for k, eid in enumerate(curve.bounded_edges):
            p, q = curve.edges[eid].dual
            if p in index and q in index:
                want.append((1 << k, *sorted((index[p], index[q]))))
        assert _cycle_rows(curve)[2] == tuple(want)
        assert len({(i, j) for _, i, j in want}) == len(want)


def test_two_cycles_sharing_two_edges_violate_an_invariant():
    from tropcurve import primitive_cycles
    from tropcurve.curve import PrimitiveCycle
    from tropcurve.errors import InvariantViolation
    from tropcurve.realstruct import _cycle_rows

    curve = honeycomb(4)
    a, b, c = primitive_cycles(curve)
    # give b one more edge of a, one that no other cycle has
    own = next(iter(a.edges - b.edges - c.edges))
    broken = copy.copy(curve)
    broken._tables = {"_cycles": (a, PrimitiveCycle(b.center, b.edges | {own}), c)}
    with pytest.raises(InvariantViolation, match="^cycles 0 and 1 share more than one edge$"):
        _cycle_rows(broken)


def _twist_matrix_without(part):
    """``twist_matrix`` with its shared-edge terms or its diagonal dropped."""
    from tropcurve.gf2 import Gf2Matrix

    def broken(curve, twists):
        full = twist_matrix(curve, twists).row_bits
        rows = tuple(r & 1 << i if part == "shared" else r & ~(1 << i) for i, r in enumerate(full))
        return Gf2Matrix(len(rows), len(rows), rows)

    return broken


@pytest.mark.parametrize("part", ["shared", "diagonal"])
def test_component_counts_check_kills_a_broken_twist_matrix(part, monkeypatch):
    from tropcurve.selfcheck import run_check

    monkeypatch.setattr("tropcurve.realstruct.twist_matrix", _twist_matrix_without(part))
    result = run_check("component-counts", random.Random(0), 5)
    assert not result.passed and "matrix" in result.detail, result.detail


# -- the per-vertex and per-side table builders against the per-edge and
# union-find builders they replaced ------------------------------------


def _outward_direction_reference(curve, eid, v):
    e = curve.edges[eid]
    if e.tail == v:
        return e.direction
    if not (e.bounded and e.head == v):
        raise InvariantViolation(f"vertex {v} is not an end of edge {eid}")
    return (-e.direction[0], -e.direction[1])


def _side_ends_reference(curve):
    """The sidedness rule per edge end: the other edges at the end, one
    class check and two determinants each."""
    from tropcurve.geometry import det2
    from tropcurve.realstruct import _base

    classes = _base(curve).classes
    ends = {}
    for e in curve.edges:
        eid = e.index
        for v in (e.tail, e.head) if e.bounded else (e.tail,):
            others = [o for o in curve.vertex_edges[v] if o != eid]
            if len({classes[x] for x in (eid, *others)}) != 3:
                raise InvariantViolation(f"edge {eid}: direction classes at vertex {v} are not distinct")
            s0, s1 = (det2(e.direction, _outward_direction_reference(curve, o, v)) for o in others)
            if s0 * s1 >= 0:
                raise InvariantViolation(f"edge {eid}: the other edges at vertex {v} are not on opposite sides")
            ends[eid, v] = (others[0], s0 > 0)
    return ends


class _Cells_reference:
    """The cell model from a union-find of the atoms glued across each
    side, and the rays of each side found by a scan of every edge."""

    def __init__(self, curve):
        from itertools import product

        from tropcurve.gf2 import PHASE_LINES
        from tropcurve.realstruct import EPS4, _base, _code, _union

        curve.require_degree()
        base = _base(curve)
        edges = curve.edges
        atom = {p: 4 * k for k, p in enumerate(base.points)}
        parent = list(range(4 * len(base.points)))
        weight2 = [2] * len(parent)
        ray_glue = [0] * len(edges)
        for side in curve.dual.sides:
            g = _code(side.glue)
            rays = [e.index for e in edges if not e.bounded and e.direction == side.normal]
            if len(rays) != len(side.points) - 1:
                raise InvariantViolation("each side must carry as many rays as its lattice length")
            for eid in rays:
                ray_glue[eid] = g
            for alpha in side.points:
                a = atom[alpha]
                for c in range(4):
                    _union(parent, a + c, a + (c ^ g))
                for c in {min(c, c ^ g) for c in range(4)}:
                    weight2[a + c] -= 2
        for x, p in enumerate(parent):
            parent[x] = parent[p]
        self.glued = parent
        self.atom_keys = keys = tuple(product(base.points, EPS4))
        self.region_class = {keys[x]: keys[p] for x, p in enumerate(parent)}
        self.copy_keys = tuple(product(range(len(edges)), EPS4))
        self.copy_cell2 = tuple(0 if g and c < c ^ g else -2 for g in ray_glue for c in range(4))
        self.edge_atoms = tuple((atom[e.dual[0]], atom[e.dual[1]]) for e in edges)
        vertex_atoms = tuple(atom[cell[0]] for cell in curve.vertex_cell)
        self.end_atoms = tuple(
            (vertex_atoms[e.tail], vertex_atoms[e.head]) if e.bounded else (vertex_atoms[e.tail],) for e in edges
        )
        for eid, (a, _) in enumerate(self.edge_atoms):
            for c in range(4):
                weight2[a + c] += self.copy_cell2[4 * eid + c]
        for a in vertex_atoms:
            for c in range(4):
                weight2[a + c] += 2
        for corner in curve.dual.polygon:
            weight2[atom[corner]] += 2
        self.weight2 = tuple(weight2)
        # the face labelling's rows, read off the per-copy cells, with the
        # copy codes off and on each edge's phase line at levels 0 and 1
        rows = []
        for e, (a, b), ends in zip(edges, self.edge_atoms, self.end_atoms):
            cls = (e.direction[0] & 1, e.direction[1] & 1)
            codes = tuple(
                tuple(c for c in range(4) if PHASE_LINES[cls, level].contains(EPS4[c]) == drawn)
                for level in (0, 1) for drawn in (False, True)
            )
            rows.append((a, b, ends, self.copy_cell2[4 * e.index:4 * e.index + 4], (codes[:2], codes[2:])))
        self.edge_rows = tuple(rows)


_CELL_FIELDS = ("glued", "weight2", "edge_rows", "atom_keys", "region_class", "copy_keys")


def _check_cycle_reference(curve, eids, alpha):
    """A cycle check by vertex degrees and a search of the vertex graph."""
    degree_count = {}
    for eid in eids:
        e = curve.edges[eid]
        if not e.bounded:
            raise InvariantViolation(f"cycle around {alpha} uses an unbounded edge")
        for v in (e.tail, e.head):
            degree_count[v] = degree_count.get(v, 0) + 1
    if any(c != 2 for c in degree_count.values()):
        raise InvariantViolation(f"edges around {alpha} do not close up")
    verts = list(degree_count)
    reached = {verts[0]}
    frontier = [verts[0]]
    adj = {v: [] for v in verts}
    for eid in eids:
        e = curve.edges[eid]
        adj[e.tail].append(e.head)
        adj[e.head].append(e.tail)
    while frontier:
        v = frontier.pop()
        for w in adj[v]:
            if w not in reached:
                reached.add(w)
                frontier.append(w)
    if len(reached) != len(verts):
        raise InvariantViolation(f"cycle around {alpha} is disconnected")


def _table_curves():
    from tropcurve.selfcheck import random_nonsingular_curve

    rng = random.Random(25)
    return [honeycomb(d) for d in range(1, 9)] + [random_nonsingular_curve(rng, d) for d in range(2, 8) for _ in range(4)]


def _fresh(curve):
    """The curve rebuilt from its polynomial, with nothing cached."""
    return curve_from_polynomial(curve.poly)


def _invariant(build, *args):
    try:
        return build(*args)
    except InvariantViolation as exc:
        return ("InvariantViolation", str(exc))


def _with_directions(curve, directions):
    """A copy of the curve with the given edges' directions replaced and
    no tables built."""
    import dataclasses

    edges = list(curve.edges)
    for eid, d in directions.items():
        edges[eid] = dataclasses.replace(edges[eid], direction=d)
    broken = copy.copy(curve)
    broken.edges = tuple(edges)
    broken._tables = {}
    return broken


def test_side_ends_and_cells_match_the_references():
    from tropcurve.realstruct import _cells, _side_ends

    for curve in _table_curves():
        curve = _fresh(curve)
        assert _side_ends(curve) == _side_ends_reference(curve)
        cells, want = _cells(curve), _Cells_reference(curve)
        for name in _CELL_FIELDS:
            assert getattr(cells, name) == getattr(want, name), name


def test_sign_rule_matches_the_reference():
    from tropcurve.realstruct import _base, _sign_rule

    for curve in _table_curves():
        curve = _fresh(curve)
        bit = _base(curve).point_bit
        masks, offsets = [], 0
        for k, eid in enumerate(curve.bounded_edges):
            points, offset = _sign_rule_reference(curve, eid)
            masks.append(sum(bit[p] for p in points))
            offsets |= offset << k
        assert _sign_rule(curve) == (tuple(masks), offsets)


def test_cycle_check_matches_the_reference_on_broken_cycles():
    rng = random.Random(26)
    checked = set()
    for curve in _table_curves():
        cycles = primitive_cycles(curve)
        rays = [e.index for e in curve.edges if not e.bounded]
        for cyc in cycles:
            assert _check_cycle(curve, cyc.edges, cyc.center) is None
            variants = [cyc.edges - {rng.choice(sorted(cyc.edges))}, cyc.edges | {rng.choice(rays)}]
            variants += [cyc.edges | other.edges for other in cycles if not (other.edges & cyc.edges)][:2]
            variants += [cyc.edges ^ other.edges for other in cycles if other is not cyc][:2]
            for eids in variants:
                got = _invariant(_check_cycle, curve, eids, cyc.center)
                assert got == _invariant(_check_cycle_reference, curve, eids, cyc.center)
                checked.add(next(k for k in ("unbounded", "close up", "disconnected") if k in got[1]) if got else "ok")
    assert checked == {"ok", "unbounded", "close up", "disconnected"}


def test_side_ends_and_cells_raise_as_the_references_on_broken_curves():
    from tropcurve.realstruct import _cells, _side_ends

    rng = random.Random(27)
    raised = set()
    for curve in _table_curves()[1:12]:
        for _ in range(6):
            eid = rng.randrange(len(curve.edges))
            d = curve.edges[eid].direction
            new = rng.choice([(-d[0], -d[1]), rng.choice(curve.edges).direction, (1, 2), (2, -1)])
            broken = _with_directions(curve, {eid: new})
            got = _invariant(_side_ends, broken)
            assert got == _invariant(_side_ends_reference, _with_directions(curve, {eid: new}))
            cells = _invariant(_cells, broken)
            want = _invariant(_Cells_reference, _with_directions(curve, {eid: new}))
            if isinstance(want, tuple):
                assert cells == want
            else:
                assert all(getattr(cells, name) == getattr(want, name) for name in _CELL_FIELDS)
            raised.update(
                k for x in (got, cells) if isinstance(x, tuple)
                for k in ("not distinct", "opposite sides", "lattice length") if k in x[1]
            )
    assert raised == {"not distinct", "opposite sides", "lattice length"}


# the messages below were recorded with the per-edge and union-find builders


def test_side_ends_invariants_name_the_first_failing_end():
    from tropcurve.realstruct import _side_ends

    c = honeycomb(3)
    # edge 6 takes the class of edge 2 at their common vertex 2; the first
    # failing end in edge order is edge 2's tail
    with pytest.raises(InvariantViolation, match="^edge 2: direction classes at vertex 2 are not distinct$"):
        _side_ends(_with_directions(c, {6: c.edges[2].direction}))
    # ray 5 turned back at vertex 5: the other two edges there, 7 (at its
    # head) and 8, see both others on one side
    ray = c.edges[5]
    with pytest.raises(InvariantViolation, match="^edge 7: the other edges at vertex 5 are not on opposite sides$"):
        _side_ends(_with_directions(c, {5: (-ray.direction[0], -ray.direction[1])}))


def test_cells_invariant_counts_the_rays_of_each_side():
    from tropcurve.realstruct import _cells

    c = honeycomb(3)
    normal = next(s.normal for s in c.dual.sides if s.normal != c.edges[0].direction)
    with pytest.raises(InvariantViolation, match="^each side must carry as many rays as its lattice length$"):
        _cells(_with_directions(c, {0: normal}))


def test_cycle_invariants():
    c3, c5 = honeycomb(3), honeycomb(5)
    (cyc,) = primitive_cycles(c3)
    with pytest.raises(InvariantViolation, match=r"^edges around \(1, 1\) do not close up$"):
        _check_cycle(c3, cyc.edges - {min(cyc.edges)}, cyc.center)
    around = {x.center: x.edges for x in primitive_cycles(c5)}
    with pytest.raises(InvariantViolation, match=r"^cycle around \(1, 1\) is disconnected$"):
        _check_cycle(c5, around[1, 1] | around[3, 1], (1, 1))
    with pytest.raises(InvariantViolation, match=r"^cycle around \(1, 1\) uses an unbounded edge$"):
        _check_cycle(c3, cyc.edges | {0}, cyc.center)


def test_a_ray_on_an_interior_region_reaches_the_cycle_check():
    # the cycles read each interior region's edges unfiltered, so a ray
    # there raises instead of being dropped
    c = honeycomb(3)
    (cyc,) = primitive_cycles(c)
    broken = copy.copy(c)
    broken._tables = {}
    broken.region_edges = {**c.region_edges, cyc.center: c.region_edges[cyc.center] + (0,)}
    with pytest.raises(InvariantViolation, match=r"^cycle around \(1, 1\) uses an unbounded edge$"):
        primitive_cycles(broken)


def test_a_first_locus_builds_no_copy_keys_or_region_class():
    from tropcurve import hyperbolicity_locus
    from tropcurve.realstruct import _cells

    hyperbolic = 0
    for d in range(2, 7):
        for every in (True, False):
            curve = honeycomb(d)
            if every:
                phase = phase_from_twists(curve, TwistSet.from_edges(curve, curve.bounded_edges))
            else:
                phase = phase_from_signs(curve, SignDistribution.constant(curve))
            report = hyperbolicity_locus(curve, phase)
            hyperbolic += report.hyperbolic
            built = vars(_cells(curve)) if _cells.__name__ in curve._tables else {}
            assert "copy_keys" not in built and "region_class" not in built
    assert hyperbolic >= 5
