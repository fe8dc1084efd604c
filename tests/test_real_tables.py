"""The per-curve real-structure tables against the routes they replaced:
a golden digest of realstruct outputs, the old solve_affine route of
phase_from_twists, validation messages, non-interned phase lines and
translated copies that share the tables."""

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
    real_part,
    signs_from_phase,
    twists_from_phase,
    twists_from_signs,
)
from tropcurve.errors import DegeneratePolygon, NotAdmissible, SingularSubdivision, ValidationError
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
    delta = SignDistribution({p: -1 if flat.offset.bit(index[p]) else 1 for p in pts})
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


def test_translated_copies_share_the_tables_and_agree():
    rng = random.Random(9)
    for curve in (honeycomb(3), honeycomb(5), *_lift_curves(13, 10)):
        delta = random_sign_distribution(rng, curve)
        phase = phase_from_signs(curve, delta)
        moved = curve.translated((Fraction(7, 3), Fraction(-5, 2)))
        assert moved._real_tables is curve._real_tables
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
        assert early._real_tables is fresh._real_tables and fresh._real_tables
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
    broken._real_tables = {}
    vars(broken)["_cycles"] = (a, PrimitiveCycle(b.center, b.edges | {own}), c)
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
    from tropcurve.selfcheck import check_component_counts

    monkeypatch.setattr("tropcurve.realstruct.twist_matrix", _twist_matrix_without(part))
    result = check_component_counts(random.Random(0), 5)
    assert not result.passed and "matrix" in result.detail, result.detail
