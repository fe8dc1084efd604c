import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from tropcurve import (
    SignDistribution,
    TropicalPolynomial,
    bezout_total,
    curve_from_polynomial,
    honeycomb,
    intersection_components,
    is_relatively_twisted,
    phase_from_signs,
    real_lift,
    tangency_possible,
    transverse_multiplicity,
)
from tropcurve.curve import _curve_from_heights
from tropcurve.errors import (
    DegeneratePolygon,
    InvariantViolation,
    ParallelDirections,
    PhasesDiffer,
    SingularSubdivision,
    UnsupportedConfiguration,
    ValidationError,
    WrongKind,
)
from tropcurve.geometry import sub
from tropcurve.gf2 import PHASE_LINES
from tropcurve.intersect import (
    CONJ_PAIR,
    TANGENT_DOUBLE,
    TWO_REAL,
    FrameHits,
    IntersectionComponent,
    _point,
    classify_hits,
    edge_hits,
)
from tropcurve.realstruct import RealPhaseStructure, signs_from_phase
from tropcurve.selfcheck import (
    INTERSECTION_SHIFTS,
    _outward_direction,
    _fraction_hits,
    intersection_outcome,
    pair_scan_intersections,
    random_intersection_pair,
    random_lift,
    random_nonsingular_curve,
    random_overlap_configurations,
    random_sign_distribution,
    random_steep_crossing_pair,
    relative_twist_geometric,
    run_check,
)

from conftest import make_line


def all_plus(curve):
    return phase_from_signs(curve, SignDistribution.constant(curve))


def line_phase(curve, flip=False):
    """A line phase; flipping the x-coefficient sign swaps the diagonal line."""
    signs = {(0, 0): 1, (1, 0): -1 if flip else 1, (0, 1): 1}
    return phase_from_signs(curve, SignDistribution(signs))


def hook_curve(m):
    """Curve with an unbounded edge of primitive direction (-(m-1), 1),
    meeting a diagonal line edge with multiplicity m (m >= 2)."""
    coeffs = {(0, 0): Fraction(0)}
    for j in range(m):
        coeffs[(1, j)] = Fraction(-((2 * j - (m - 1)) ** 2), 1)
    return curve_from_polynomial(TropicalPolynomial(coeffs))


def test_transverse_multiplicity_values():
    assert transverse_multiplicity((1, 1), (1, -1)) == 2
    assert transverse_multiplicity((1, 0), (0, 1)) == 1
    for m in range(1, 6):
        assert transverse_multiplicity((1, 1), (1, -m + 1)) == m
    with pytest.raises(ParallelDirections):
        transverse_multiplicity((1, 1), (-1, -1))


def test_two_generic_lines_meet_once():
    a = make_line()
    b = make_line(0, -5, -3)
    comps = intersection_components(a, b)
    assert [c.kind for c in comps] == ["transverse"]
    assert comps[0].multiplicity == 1
    out = real_lift(comps[0], all_plus(a), all_plus(b))
    assert (out.variant, out.reals, out.pairs) == ("forced-real", 1, 0)
    assert bezout_total(a, b) == 1


def test_transverse_multiplicity_two_both_phases():
    q = curve_from_polynomial(
        TropicalPolynomial({(0, 0): 0, (1, 0): -2, (0, 1): -2, (1, 1): 0})
    )
    line = make_line(0, 1, 1)  # vertex (-1,-1); diagonal ray through (0,0)
    comps = intersection_components(line, q)
    assert [c.kind for c in comps] == ["transverse"]
    assert comps[0].multiplicity == 2
    equal = real_lift(comps[0], line_phase(line), all_plus(q))
    assert (equal.variant, equal.reals, equal.pairs) == ("forced-real", 2, 0)
    distinct = real_lift(comps[0], line_phase(line, flip=True), all_plus(q))
    assert (distinct.variant, distinct.reals, distinct.pairs) == ("forced-pairs", 0, 1)


@pytest.mark.parametrize("m", [3, 4])
def test_transverse_higher_multiplicities(m):
    curve = hook_curve(m)
    ray = next(
        e for e in curve.edges if not e.bounded and e.direction == (-(m - 1), 1)
    )
    anchor = curve.edge_anchor(ray.index)
    # place the line vertex so its diagonal ray crosses the hook ray
    probe = (anchor[0] - 2 * (m - 1), anchor[1] + 2)
    vertex = (probe[0] - 3, probe[1] - 3)
    line = make_line(0, -vertex[0], -vertex[1])
    comps = intersection_components(line, curve)
    hits = [c for c in comps if c.kind == "transverse" and c.multiplicity == m]
    assert len(hits) == 1
    comp = hits[0]
    if m % 2 == 1:
        out = real_lift(comp, line_phase(line), all_plus(curve))
        assert (out.variant, out.reals, out.pairs) == ("forced-mixed", 1, (m - 1) // 2)
    else:
        equal = real_lift(comp, line_phase(line), all_plus(curve))
        assert (equal.reals, equal.pairs) == (2, (m - 2) // 2)
        distinct = real_lift(comp, line_phase(line, flip=True), all_plus(curve))
        assert (distinct.variant, distinct.pairs) == ("forced-pairs", m // 2)


def edge_in_edge_fixture():
    conic = honeycomb(2)
    line = make_line(0, 5, 5)  # vertex (-5,-5); diagonal ray covers the bounded edge
    comps = intersection_components(conic, line)
    assert [c.kind for c in comps] == ["edge-in-edge"]
    comp = comps[0]
    assert comp.inner == "a"
    assert comp.multiplicity == 2
    return conic, line, comp


def test_edge_in_edge_cases():
    conic, line, comp = edge_in_edge_fixture()
    seg = comp.segment
    assert seg == (((Fraction(1), Fraction(1))), (Fraction(2), Fraction(2)))

    twisted_equal = real_lift(comp, all_plus(conic), line_phase(line))
    assert (twisted_equal.variant, twisted_equal.reals) == ("forced-real", 2)
    assert twisted_equal.locations is None
    assert not tangency_possible(comp, all_plus(conic), line_phase(line))

    distinct = real_lift(comp, all_plus(conic), line_phase(line, flip=True))
    assert (distinct.variant, distinct.reals) == ("forced-real", 2)
    assert distinct.locations == seg  # located at the vertices of the inner edge

    untwisting = SignDistribution(
        {p: (-1 if p == (0, 0) else 1) for p in conic.dual.lattice_points}
    )
    phase_nt = phase_from_signs(conic, untwisting)
    indet = real_lift(comp, phase_nt, line_phase(line))
    assert indet.variant == "indeterminate"
    assert set(indet.possible) == {TWO_REAL, CONJ_PAIR, TANGENT_DOUBLE}
    assert tangency_possible(comp, phase_nt, line_phase(line))


def overlap_fixture():
    conic = honeycomb(2)
    line = make_line(0, Fraction(-3, 2), Fraction(-3, 2))  # vertex on the edge interior
    comps = intersection_components(conic, line)
    assert [c.kind for c in comps] == ["segment-overlap"]
    return conic, line, comps[0]


def test_segment_overlap_cases():
    conic, line, comp = overlap_fixture()
    assert comp.multiplicity == 2
    assert comp.segment == ((Fraction(3, 2), Fraction(3, 2)), (Fraction(2), Fraction(2)))

    ph_c = all_plus(conic)
    ph_l = line_phase(line)
    assert ph_c.lines[comp.edge_a] == ph_l.lines[comp.edge_b]
    assert is_relatively_twisted(comp, ph_c, ph_l)
    indet = real_lift(comp, ph_c, ph_l)
    assert indet.variant == "indeterminate"
    assert tangency_possible(comp, ph_c, ph_l)

    other = phase_from_signs(line, SignDistribution({(0, 0): 1, (1, 0): -1, (0, 1): -1}))
    assert ph_c.lines[comp.edge_a] == other.lines[comp.edge_b]
    assert not is_relatively_twisted(comp, ph_c, other)
    forced = real_lift(comp, ph_c, other)
    assert (forced.variant, forced.reals, forced.locations) == ("forced-real", 2, None)
    assert not tangency_possible(comp, ph_c, other)

    distinct = phase_from_signs(line, SignDistribution({(0, 0): 1, (1, 0): -1, (0, 1): 1}))
    assert ph_c.lines[comp.edge_a] != distinct.lines[comp.edge_b]
    out = real_lift(comp, ph_c, distinct)
    assert (out.variant, out.reals) == ("forced-real", 2)
    assert out.locations == comp.segment  # the two vertices of the overlap
    with pytest.raises(PhasesDiffer):
        is_relatively_twisted(comp, ph_c, distinct)


def _with_level_flipped(phase, eid):
    lines = list(phase.lines)
    lines[eid] = PHASE_LINES[lines[eid].direction, 1 ^ lines[eid].level]
    return RealPhaseStructure(tuple(lines))


def test_relative_twist_refuses_a_phase_not_valid_for_its_curve():
    """``is_relatively_twisted`` reads the minus bits of signs inducing
    each phase, so a phase that agrees on the overlap but breaks a vertex
    condition elsewhere is refused as every conversion refuses it."""
    conic, line, comp = overlap_fixture()
    ph_c, ph_l = all_plus(conic), line_phase(line)
    assert is_relatively_twisted(comp, ph_c, ph_l)
    bad_c = _with_level_flipped(ph_c, next(e for e in range(len(conic.edges)) if e != comp.edge_a))
    bad_l = _with_level_flipped(ph_l, next(e for e in range(len(line.edges)) if e != comp.edge_b))
    for phases in ((bad_c, ph_l), (ph_c, bad_l)):
        with pytest.raises(ValidationError, match="phase lines share a common point"):
            is_relatively_twisted(comp, *phases)


def _isolated_vertex_pair():
    q = curve_from_polynomial(TropicalPolynomial({(0, 0): 0, (1, 0): -2, (0, 1): -2, (1, 1): 0}))
    return q, make_line(0, 0, 4)  # vertex (0,-4); diagonal ray through the vertex (2,-2)


def test_isolated_vertex_component():
    q, line = _isolated_vertex_pair()
    comps = intersection_components(q, line)
    assert [c.kind for c in comps] == ["isolated-vertex"]
    comp = comps[0]
    assert comp.vertex_owner == "a"
    assert comp.multiplicity == 2
    out = real_lift(comp, all_plus(q), all_plus(line))
    assert out.variant == "indeterminate"
    assert out.non_real_possible
    with pytest.raises(WrongKind):
        tangency_possible(comp, all_plus(q), all_plus(line))


def test_shared_vertex_is_unsupported():
    a = make_line()
    b = make_line()  # same vertex, same rays: identical point sets
    with pytest.raises(UnsupportedConfiguration):
        intersection_components(a, b)


def test_vertex_on_vertex_is_unsupported():
    conic = honeycomb(2)
    line = make_line(0, -1, -1)  # line vertex at the conic vertex (1,1)
    with pytest.raises(UnsupportedConfiguration):
        intersection_components(conic, line)


def _random_overlap_fixture(rng):
    """A segment overlap between a random curve's class edge and a line
    whose vertex sits in the interior of that edge."""
    for _ in range(60):
        d = rng.randrange(2, 4)
        curve = random_nonsingular_curve(rng, d)
        candidates = [
            eid
            for eid in curve.bounded_edges
            if curve.edges[eid].direction in ((1, 1),)
        ]
        if not candidates:
            continue
        eid = rng.choice(candidates)
        t = curve.edge_tmax(eid)
        u0 = curve.edge_point(eid, t * Fraction(rng.randrange(1, 4), 4))
        if u0 in curve.vertices:
            continue
        line = make_line(0, -u0[0], -u0[1])
        try:
            comps = intersection_components(curve, line)
        except UnsupportedConfiguration:
            continue
        overlaps = [c for c in comps if c.kind == "segment-overlap"]
        if len(overlaps) != 1:
            continue
        return curve, line, overlaps[0]
    raise RuntimeError("no overlap fixture found")


def _congruence_case(comp):
    """Which branch of the sign rule the fixture lands in: True when the
    opposite cell vertices agree mod 2 after aligning the dual edges."""
    curve_a, curve_b = comp.curve_a, comp.curve_b
    ea, eb = curve_a.edges[comp.edge_a], curve_b.edges[comp.edge_b]
    pa, qa = ea.dual
    pb, qb = eb.dual
    if eb.direction != ea.direction:
        pb, qb = qb, pb
    shift = (pa[0] - pb[0], pa[1] - pb[1])
    ends = dict(comp.end_vertices)
    (v3a,) = [v for v in curve_a.vertex_cell[ends["a"]] if v not in (pa, qa)]
    (v3b,) = [v for v in curve_b.vertex_cell[ends["b"]] if v not in eb.dual]
    dx = v3a[0] - v3b[0] - shift[0]
    dy = v3a[1] - v3b[1] - shift[1]
    return dx % 2 == 0 and dy % 2 == 0


def relative_twist_signs(comp, phase_a, phase_b):
    """Relative twist from sign distributions after aligning the two dual
    edges by a translation: a reference of ``is_relatively_twisted`` that
    reads two ``signs_from_phase`` dicts, beside the geometric rule."""
    delta_a = signs_from_phase(comp.curve_a, phase_a)
    delta_b = signs_from_phase(comp.curve_b, phase_b)
    ea = comp.curve_a.edges[comp.edge_a]
    eb = comp.curve_b.edges[comp.edge_b]
    pa, qa = ea.dual
    pb, qb = eb.dual
    if eb.direction != ea.direction:
        if eb.direction != (-ea.direction[0], -ea.direction[1]):
            raise InvariantViolation("overlapping edges must be parallel")
        pb, qb = qb, pb
    shift = sub(pa, pb)
    if sub(qa, qb) != shift:
        raise InvariantViolation("the two dual edges must differ by one translation")
    # third vertex of the dual cell of each overlap-end vertex
    v3 = {}
    for tag, vid in comp.end_vertices:
        curve, edge = (comp.curve_a, ea) if tag == "a" else (comp.curve_b, eb)
        (v3[tag],) = [v for v in curve.vertex_cell[vid] if v not in edge.dual]
    sa, sb = delta_a.signs, delta_b.signs
    if sa[pa] * sa[qa] * sb[pb] * sb[qb] != 1:
        raise InvariantViolation("equal phases force the premise product")
    v3a, v3b = v3["a"], v3["b"]
    if (v3a[0] - v3b[0] - shift[0]) % 2 == 0 and (v3a[1] - v3b[1] - shift[1]) % 2 == 0:
        r1 = sa[v3a] * sa[pa] * sb[v3b] * sb[pb] == -1
        r2 = sa[v3a] * sa[qa] * sb[v3b] * sb[qb] == -1
    else:
        r1 = sa[pa] * sa[v3a] * sb[qb] * sb[v3b] == 1
        r2 = sa[qa] * sa[v3a] * sb[pb] * sb[v3b] == 1
    if r1 != r2:
        raise InvariantViolation("the sign rule reads differently at the two dual vertices")
    return r1


def test_relative_twist_routes_agree(rng):
    seen_cases = set()
    trials = 0
    while trials < 100:
        curve, line, comp = _random_overlap_fixture(rng)
        seen_cases.add(_congruence_case(comp))
        delta = random_sign_distribution(rng, curve)
        phase_c = phase_from_signs(curve, delta)
        want = phase_c.lines[comp.edge_a]
        # the two line structures matching the curve's phase on the overlap
        matching = []
        for signs in (
            {(0, 0): 1, (1, 0): 1, (0, 1): 1},
            {(0, 0): 1, (1, 0): -1, (0, 1): -1},
            {(0, 0): 1, (1, 0): -1, (0, 1): 1},
            {(0, 0): 1, (1, 0): 1, (0, 1): -1},
        ):
            ph = phase_from_signs(line, SignDistribution(dict(signs)))
            if ph.lines[comp.edge_b] == want:
                matching.append(ph)
        assert len(matching) == 2
        for ph_l in matching:
            geo = relative_twist_geometric(comp, phase_c, ph_l)
            sgn = relative_twist_signs(comp, phase_c, ph_l)
            assert is_relatively_twisted(comp, phase_c, ph_l) == geo == sgn
            trials += 1
    assert trials >= 100
    assert seen_cases == {True, False}, "both congruence cases must be exercised"


def test_relative_twist_routes_agree_on_random_pairs():
    # every shift kind, so overlaps along rays and between edges that run
    # opposite ways are reached as well as a vertex inside an edge
    rng = random.Random(18)
    configurations, kinds = 0, Counter()
    for comp, phase_a, phase_b in random_overlap_configurations(rng, 1200):
        ea, eb = comp.curve_a.edges[comp.edge_a], comp.curve_b.edges[comp.edge_b]
        kinds["ray"] += not (ea.bounded and eb.bounded)
        kinds["opposite"] += ea.direction != eb.direction
        twisted = is_relatively_twisted(comp, phase_a, phase_b)
        assert twisted == relative_twist_geometric(comp, phase_a, phase_b)
        assert twisted == relative_twist_signs(comp, phase_a, phase_b)
        kinds["twisted"] += twisted
        configurations += 1
    assert configurations >= 100
    assert 0 < kinds["twisted"] < configurations
    assert kinds["ray"] > 0 and kinds["opposite"] > 0


def test_lift_outcome_symmetry_under_common_translation(rng):
    a = make_line()
    b = make_line(0, -5, -3)
    comp = intersection_components(a, b)[0]
    pa, pb = all_plus(a), line_phase(b, flip=True)
    base = real_lift(comp, pa, pb)
    for eps in ((0, 1), (1, 0), (1, 1)):
        out = real_lift(comp, pa.translate(eps), pb.translate(eps))
        assert (out.variant, out.reals, out.pairs) == (base.variant, base.reals, base.pairs)


def test_transverse_lift_symmetric_in_the_two_curves():
    q = curve_from_polynomial(
        TropicalPolynomial({(0, 0): 0, (1, 0): -2, (0, 1): -2, (1, 1): 0})
    )
    line = make_line(0, 1, 1)
    comp_ab = intersection_components(line, q)[0]
    comp_ba = intersection_components(q, line)[0]
    assert comp_ab.kind == comp_ba.kind == "transverse"
    for ph_l in (line_phase(line), line_phase(line, flip=True)):
        out_ab = real_lift(comp_ab, ph_l, all_plus(q))
        out_ba = real_lift(comp_ba, all_plus(q), ph_l)
        assert (out_ab.variant, out_ab.reals, out_ab.pairs) == (
            out_ba.variant, out_ba.reals, out_ba.pairs,
        )


def test_translation_moves_only_locations(rng):
    conic = honeycomb(2)
    line = make_line(0, 5, 5)
    comp = intersection_components(conic, line)[0]
    out = real_lift(comp, all_plus(conic), line_phase(line, flip=True))
    off = (Fraction(7, 3), Fraction(-2, 5))
    conic2 = conic.translated(off)
    line2 = line.translated(off)
    comp2 = intersection_components(conic2, line2)[0]
    out2 = real_lift(comp2, all_plus(conic2), line_phase(line2, flip=True))
    assert comp2.kind == comp.kind and comp2.multiplicity == comp.multiplicity
    assert (out2.variant, out2.reals, out2.pairs) == (out.variant, out.reals, out.pairs)
    assert out2.locations == tuple((p[0] + off[0], p[1] + off[1]) for p in out.locations)


def test_bezout_small_cases(rng):
    line = make_line(0, Fraction(-13, 7), Fraction(-8, 11))
    for d in (1, 2, 3, 4):
        curve = random_nonsingular_curve(rng, d)
        total = bezout_total(line, curve)
        assert total == d


def test_int_scan_matches_pair_scan_on_random_pairs():
    rng = random.Random(7)
    seen = Counter()
    for k in range(1000):
        kind = INTERSECTION_SHIFTS[k % len(INTERSECTION_SHIFTS)]
        a, b, shift = random_intersection_pair(rng, kind)
        moved = b.translated(shift)
        ints = intersection_outcome(edge_hits, a, moved)
        assert ints == intersection_outcome(pair_scan_intersections, a, moved), (
            k, kind, a.poly.coefficients, b.poly.coefficients, shift,
        )
        if isinstance(ints[1], tuple):
            seen["refused"] += 1
        else:
            seen.update({c.kind for c in ints[1]})
    assert set(seen) == {"transverse", "isolated-vertex", "edge-in-edge", "segment-overlap", "refused"}, seen


def test_honeycomb_pair_degree_20():
    a = honeycomb(20)
    b = honeycomb(20).translated((Fraction(1, 7), Fraction(-2, 9)))
    comps = intersection_components(a, b)
    assert len(comps) == 400
    assert {c.kind for c in comps} == {"transverse"}
    assert bezout_total(a, b) == 400


def _classified(curve_a, curve_b):
    """Every field of every component, or the refusal message."""
    try:
        comps = intersection_components(curve_a, curve_b)
    except UnsupportedConfiguration as exc:
        return ("refused", str(exc))
    return [
        (c.kind, c.multiplicity, c.point, c.segment, c.edge_a, c.edge_b,
         c.vertex_owner, c.vertex_id, c.inner, c.end_vertices)
        for c in comps
    ]


def _outward_directions(curve, v):
    return {_outward_direction(curve, eid, v) for eid in curve.vertex_edges[v]}


def _vertex_placements(rng, count):
    """``count`` pairs of d*simplex lifts with a vertex of the second moved
    onto a vertex of the first that shares one of its outward directions."""
    pool = []
    while len(pool) < 40:
        try:
            curve = curve_from_polynomial(random_lift(rng))
        except (DegeneratePolygon, SingularSubdivision):
            continue
        if curve.degree is not None:
            pool.append(curve)
    placed = 0
    while placed < count:
        a, b = rng.sample(pool, 2)
        va, vb = rng.randrange(len(a.vertices)), rng.randrange(len(b.vertices))
        if _outward_directions(a, va) & _outward_directions(b, vb):
            placed += 1
            yield a, b.translated(sub(a.vertices[va], b.vertices[vb]))


# sha256 of the classified outcomes below, recorded when refusals wrote
# their point as the CLI does, (21/2,53/8)
CLASSIFIED_DIGEST = "16b5fffb1d6ad81c7b896db9c92a3a1e70effc4019e77d834e3d96062666b54a"


def _digest_pairs():
    """The 1100 pairs both golden digests run on: 800 draws cycling the
    shift kinds and 300 vertex-on-vertex placements."""
    rng = random.Random(10)
    pairs = []
    for k in range(800):
        a, b, shift = random_intersection_pair(rng, INTERSECTION_SHIFTS[k % len(INTERSECTION_SHIFTS)])
        pairs.append((a, b.translated(shift)))
    pairs.extend(_vertex_placements(random.Random(11), 300))
    return pairs


def test_classified_outcomes_match_recorded_digest():
    outcomes = [_classified(a, b) for a, b in _digest_pairs()]
    seen = set()
    for out in outcomes:
        if isinstance(out, tuple):
            seen.add(out[1].split(") ")[-1])  # drop the point a message may start with
        else:
            seen.update(c[0] for c in out)
    assert seen == {
        "transverse", "isolated-vertex", "edge-in-edge", "segment-overlap",
        "is a vertex of both curves", "overlap endpoint is a vertex of both curves",
        "overlap components chain through a shared vertex", "curves share an unbounded ray",
    }, seen
    digest = hashlib.sha256("\n".join(map(repr, outcomes)).encode()).hexdigest()
    assert digest == CLASSIFIED_DIGEST


# sha256 of every real lift on the pairs above, recorded before transverse
# crossings were classified where the walk solves them
LIFT_DIGEST = "145b553d4269d483243dd25e2b9ce007b982eff8191b20f198f6a567ef905c10"


def _lifts(rng, curve_a, curve_b):
    """Every field of the real lift of every component under random phases
    of the two curves, or None for a refused pair."""
    phase_a = phase_from_signs(curve_a, random_sign_distribution(rng, curve_a))
    phase_b = phase_from_signs(curve_b, random_sign_distribution(rng, curve_b))
    try:
        comps = intersection_components(curve_a, curve_b)
    except UnsupportedConfiguration:
        return None
    return [
        (c.kind, lift.variant, lift.reals, lift.pairs, lift.locations, lift.possible,
         lift.non_real_possible, lift.note)
        for c in comps
        for lift in (real_lift(c, phase_a, phase_b),)
    ]


def test_real_lifts_match_recorded_digest():
    rng = random.Random(13)
    outcomes = [_lifts(rng, a, b) for a, b in _digest_pairs()]
    variants = Counter(row[1] for out in outcomes if out for row in out)
    assert set(variants) == {"forced-real", "forced-pairs", "indeterminate"}, variants
    digest = hashlib.sha256("\n".join(map(repr, outcomes)).encode()).hexdigest()
    assert digest == LIFT_DIGEST


def test_the_walk_solves_the_recorded_number_of_pairs():
    # recorded when each edge of A was walked by its own call; the walks
    # that refuse a pair (a shared ray) are left out
    solved = refused = 0
    for a, b in _digest_pairs():
        try:
            solved += edge_hits(a, b).solved
        except UnsupportedConfiguration:
            refused += 1
    assert (solved, refused) == (12910, 389)


def _simplex_lift(rng, d):
    """A d*simplex lift: a random positive definite quadratic form, sheared
    so that regions are not hexagons, plus rational noise."""
    while True:
        qa, qc = rng.randint(1, 6), rng.randint(1, 6)
        qb = rng.randint(-2 * min(qa, qc), 2 * min(qa, qc))
        if qb * qb < 4 * qa * qc:
            break
    noise = rng.choice((1, 4, 16))
    return TropicalPolynomial({
        (i, j): -(qa * i * i + qb * i * j + qc * j * j)
        + Fraction(rng.randint(-noise, noise), 8 * rng.choice((1, 2, 3, 5, 7)))
        for i in range(d + 1)
        for j in range(d + 1 - i)
    })


def _placement(rng, a, b, kind):
    """A shift of b of the given ``INTERSECTION_SHIFTS`` kind against a, as
    ``selfcheck.random_intersection_pair`` draws it."""
    if kind == "half-integer":
        return (Fraction(rng.randint(-6, 6), 2), Fraction(rng.randint(-6, 6), 2))
    if kind == "vertex-on-vertex":
        return sub(rng.choice(a.vertices), rng.choice(b.vertices))
    hosts = [(host, other, eid) for host, other in ((a, b), (b, a)) for eid in host.bounded_edges]
    if kind == "vertex-on-edge" and hosts:
        host, other, eid = rng.choice(hosts)
        e = host.edges[eid]
        p, q = host.vertices[e.tail], host.vertices[e.head]
        mid = ((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)
        v = rng.choice(other.vertices)
        return sub(mid, v) if host is a else sub(v, mid)
    return (Fraction(rng.randrange(-600, 600), 101), Fraction(rng.randrange(-600, 600), 103))


def test_walk_matches_pair_scan_on_arbitrary_simplex_lifts():
    # degrees 1 to 6, regions with up to 8 sides
    rng = random.Random(12)
    pool = []
    for d in range(1, 7):
        while sum(c.degree == d for c in pool) < 5:
            try:
                pool.append(curve_from_polynomial(_simplex_lift(rng, d)))
            except SingularSubdivision:
                continue
    assert max(len(eids) for c in pool for eids in c.region_edges.values()) >= 8
    seen = Counter()
    for k in range(200):
        kind = INTERSECTION_SHIFTS[k % len(INTERSECTION_SHIFTS)]
        a, b = rng.choice(pool), rng.choice(pool)
        moved = b.translated(_placement(rng, a, b, kind))
        walk = intersection_outcome(edge_hits, a, moved)
        assert walk == intersection_outcome(pair_scan_intersections, a, moved), (k, kind)
        if isinstance(walk[1], tuple):
            seen["refused"] += 1
        else:
            seen.update(c.kind for c in walk[1])
    assert set(seen) == {"transverse", "isolated-vertex", "edge-in-edge", "segment-overlap", "refused"}, seen


def test_walk_work_follows_the_output():
    a = honeycomb(20)
    b = honeycomb(20).translated((Fraction(1, 7), Fraction(-2, 9)))
    hits = edge_hits(a, b)
    comps = classify_hits(a, b, hits)
    assert len(comps) == 400
    # the pair scan solves 630 * 630 = 396,900 pairs; the walk solves 1,749
    assert hits.solved <= 2 * (len(a.edges) + len(comps))


def test_a_walk_solves_only_the_edges_its_direction_faces():
    # the line's vertex (13/2, 10/3) lies in the region of (3, 0) of honeycomb(3);
    # its ray (-1, 0) crosses ray 17, edge 13 and edge 6 of the hexagon
    # into the region of (0, 2), and its rays (0, -1) and (1, 1) face no
    # edge of the region they start in
    a = make_line().translated((Fraction(13, 2), Fraction(10, 3)))
    b = honeycomb(3)
    hits = edge_hits(a, b)
    assert [(gens[0], gens[1]) for gens in hits.points.values()] == [(0, 6), (0, 13), (0, 17)]
    # rays 16 and 17 in (3, 0), edge 13 in (2, 1), edges 4 and 6 in the
    # hexagon; the region of (0, 2) has no edge facing (-1, 0).  Solving
    # every edge of each region met would take 12.
    assert hits.solved == 5


# a cubic whose bounded edge 5 has direction (1, 2), from (39/8, 33/8) to (43/8, 41/8)
SLANTED_CUBIC = {
    (0, 0): Fraction(7, 4), (0, 1): Fraction(-5, 8), (0, 2): Fraction(-7), (0, 3): Fraction(-35, 2),
    (1, 0): Fraction(-11, 8), (1, 1): Fraction(-6), (1, 2): Fraction(-51, 4),
    (2, 0): Fraction(-25, 4), (2, 1): Fraction(-55, 4), (3, 0): Fraction(-67, 4),
}


def _crossing_pair(case):
    if case == "half-integer":
        # every hit lies on the pair's frame lattice (m = 1), inside both edges
        return honeycomb(3), honeycomb(3).translated((Fraction(1, 2), Fraction(-1, 2)))
    # the conic's vertex (1, 1) onto the midpoint (41/8, 37/8) of the cubic's edge 5
    return (curve_from_polynomial(TropicalPolynomial(SLANTED_CUBIC)),
            honeycomb(2).translated((Fraction(33, 8), Fraction(29, 8))))


@pytest.mark.parametrize("case", ["half-integer", "vertex-on-edge"])
def test_crossings_are_the_hits_inside_both_edges(case):
    a, b = _crossing_pair(case)
    hits = edge_hits(a, b)
    vertices = set(a.vertices) | set(b.vertices)
    # a hit lies on both curves, so it is inside both edges iff it is a vertex of neither
    inside = {key for key in hits.points
              if (Fraction(key[0], hits.den * key[2]), Fraction(key[1], hits.den * key[2])) not in vertices}
    crossings = {key for key, gens in hits.points.items() if type(gens) is tuple}
    assert crossings == inside
    for key in crossings:
        ea, eb, mult = hits.points[key]
        assert mult == transverse_multiplicity(a.edges[ea].direction, b.edges[eb].direction)
    points, segments = _fraction_hits(hits)
    scan_points, scan_segments = pair_scan_intersections(a, b)
    assert list(points.items()) == list(scan_points.items())
    assert segments == scan_segments
    assert intersection_outcome(edge_hits, a, b) == intersection_outcome(pair_scan_intersections, a, b)
    kinds = Counter(c.kind for c in classify_hits(a, b, hits))
    if case == "half-integer":
        assert {key[2] for key in hits.points} == {1}
        assert len(crossings) == 9 and kinds == {"transverse": 9}
    else:
        assert len(crossings) == 4 and kinds == {"transverse": 4, "isolated-vertex": 1}


def test_an_unmarked_crossing_is_an_invariant_violation():
    # a point inside one edge of each curve reaches classify_hits only as a crossing
    a, b = _crossing_pair("half-integer")
    hits = edge_hits(a, b)
    key, (ea, eb, _) = next((key, gens) for key, gens in hits.points.items() if type(gens) is tuple)
    unmarked = FrameHits(hits.den, {key: {("a", ea), ("b", eb)}}, [], 0)
    with pytest.raises(InvariantViolation, match="not marked as a crossing$"):
        classify_hits(a, b, unmarked)


# -- projective symmetry -------------------------------------------------


# S3 permutes the homogeneous coordinates of d*simplex: each map sends the
# support point (i, j) of a degree-d curve to another, and a point (X, Y)
# of the plane by the linear map it induces
_S3 = {
    "xy": (lambda d, i, j: (j, i), lambda pt: (pt[1], pt[0])),
    "xz": (lambda d, i, j: (d - i - j, j), lambda pt: (-pt[0], pt[1] - pt[0])),
}


def _s3_image(curve, move):
    """The curve on the heights moved to the support points ``move`` gives,
    over the same den."""
    frame = curve.frame
    return _curve_from_heights({move(curve.degree, i, j): h for (i, j), h in frame.heights.items()}, frame.den)


def _s3_rows(curve_a, curve_b, move=lambda pt: pt):
    """Kind, multiplicity and the moved point or segment of every
    component, sorted, or the type of the refusal."""
    try:
        comps = intersection_components(curve_a, curve_b)
    except UnsupportedConfiguration as exc:
        return type(exc)
    return sorted(
        (c.kind, c.multiplicity, None if c.point is None else move(c.point),
         None if c.segment is None else tuple(sorted(map(move, c.segment))))
        for c in comps
    )


def _s3_mismatches(draws: int):
    """Over ``draws`` seeded pairs, the shift kinds in turn, and both maps:
    (mismatched pairs, components, pairs refused on both sides)."""
    rng = random.Random(16)
    mismatched = components = refused = 0
    for k in range(draws):
        a, b, shift = random_intersection_pair(rng, INTERSECTION_SHIFTS[k % len(INTERSECTION_SHIFTS)])
        b = b.translated(shift)
        for move_support, move_point in _S3.values():
            rows = _s3_rows(a, b, move_point)
            image = _s3_rows(_s3_image(a, move_support), _s3_image(b, move_support))
            if rows != image:
                mismatched += 1
            elif isinstance(rows, list):
                components += len(rows)
            else:
                refused += 1
    return mismatched, components, refused


def test_intersections_commute_with_s3():
    mismatched, components, refused = _s3_mismatches(200)
    assert mismatched == 0
    assert components > 1000 and refused > 0


def test_s3_images_catch_a_point_builder_that_swaps_the_coordinates(monkeypatch):
    def swapped(den, key):
        x, y, m = key
        return Fraction(y, den * m), Fraction(x, den * m)

    monkeypatch.setattr("tropcurve.intersect._point", swapped)
    mismatched, _, _ = _s3_mismatches(40)
    assert mismatched > 10




# -- the points of components --------------------------------------------


def test_points_are_the_fractions_of_their_keys():
    rng = random.Random(40)
    keys = [(0, 0, 1), (-7, 7, 1), (6, -9, 3), (10**30 + 1, -(10**30), 7)]
    keys += [(rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6), rng.randint(1, 12)) for _ in range(2000)]
    for key in keys:
        den = rng.randint(1, 10403)
        x, y, m = key
        built, want = _point(den, key), (Fraction(x, den * m), Fraction(y, den * m))
        assert all(type(c) is Fraction for c in built)
        assert [(c.numerator, c.denominator) for c in built] == [(c.numerator, c.denominator) for c in want]
        assert built == want and hash(built) == hash(want) and repr(built) == repr(want)


def test_components_carry_the_fractions_of_their_keys(monkeypatch):
    def plain(den, key):
        x, y, m = key
        return Fraction(x, den * m), Fraction(y, den * m)

    rng = random.Random(40)
    draws = [INTERSECTION_SHIFTS[k % len(INTERSECTION_SHIFTS)] for k in range(80)] + ["steep"] * 20
    classified = []
    for kind in draws:
        a, b, shift = random_steep_crossing_pair(rng) if kind == "steep" else random_intersection_pair(rng, kind)
        b = b.translated(shift)
        try:
            hits = edge_hits(a, b)
            classified.append((a, b, hits, classify_hits(a, b, hits)))
        except UnsupportedConfiguration:
            continue
    monkeypatch.setattr("tropcurve.intersect._point", plain)
    kinds = Counter()
    for a, b, hits, comps in classified:
        want = classify_hits(a, b, hits)
        assert comps == want and repr(comps) == repr(want)
        kinds.update(comp.kind for comp in comps)
    assert set(kinds) == {"transverse", "isolated-vertex", "edge-in-edge", "segment-overlap"}, kinds


# -- the component record ------------------------------------------------


# the text the frozen dataclass printed, curves left out
_RECORD_REPRS = {
    "transverse": (
        "IntersectionComponent(kind='transverse', multiplicity=1, point=(Fraction(-1, 1), Fraction(0, 1)),"
        " segment=None, edge_a=0, edge_b=1, vertex_owner=None, vertex_id=None, inner=None, end_vertices=None)"
    ),
    "isolated-vertex": (
        "IntersectionComponent(kind='isolated-vertex', multiplicity=2, point=(Fraction(2, 1), Fraction(-2, 1)),"
        " segment=None, edge_a=None, edge_b=2, vertex_owner='a', vertex_id=1, inner=None, end_vertices=None)"
    ),
    "segment-overlap": (
        "IntersectionComponent(kind='segment-overlap', multiplicity=2, point=None,"
        " segment=((Fraction(3, 2), Fraction(3, 2)), (Fraction(2, 1), Fraction(2, 1))), edge_a=3, edge_b=2,"
        " vertex_owner=None, vertex_id=None, inner=None, end_vertices=(('b', 0), ('a', 1)))"
    ),
}


def _record_pair(kind):
    if kind == "transverse":
        return make_line(), make_line(0, 1, -2)
    if kind == "isolated-vertex":
        return _isolated_vertex_pair()
    return overlap_fixture()[:2]


@pytest.mark.parametrize("kind", sorted(_RECORD_REPRS))
def test_component_repr_is_the_dataclass_text(kind):
    (comp,) = intersection_components(*_record_pair(kind))
    assert comp.kind == kind
    assert repr(comp) == _RECORD_REPRS[kind]


def test_component_equality_hash_and_immutability():
    a, b = _isolated_vertex_pair()
    (first,), (second,) = intersection_components(a, b), intersection_components(a, b)
    assert first is not second
    assert first == second and hash(first) == hash(second)
    # the curves compare by identity: the same polynomial built again is another curve
    (rebuilt,) = intersection_components(_isolated_vertex_pair()[0], b)
    assert rebuilt != first
    assert rebuilt._replace(curve_a=a) == first
    with pytest.raises(AttributeError):
        first.multiplicity = 3
    assert isinstance(first, tuple) and first[:2] == ("isolated-vertex", 2)


def test_component_fields_keep_their_order():
    assert IntersectionComponent._fields == (
        "kind", "multiplicity", "curve_a", "curve_b", "point", "segment", "edge_a", "edge_b",
        "vertex_owner", "vertex_id", "inner", "end_vertices",
    )
    a, b = make_line(), make_line(0, 1, -2)
    bare = IntersectionComponent("transverse", 1, a, b)
    assert bare[4:] == (None,) * 8


def test_intersection_routes_kill_a_capped_transverse_multiplicity(monkeypatch):
    clean = run_check("intersection-routes", random.Random(6), 4)
    assert clean.passed, clean.detail
    assert "2 steep crossings" in clean.detail and "0 pairs" not in clean.detail
    # the pair scan's hits are marked as crossings by ``selfcheck._frame_hits``,
    # which reads the module attribute, so this is the name to patch
    monkeypatch.setattr("tropcurve.intersect.transverse_multiplicity", lambda e_dir, ep_dir: 1)
    capped = run_check("intersection-routes", random.Random(6), 4)
    assert not capped.passed
    assert "outcomes differ" in capped.detail
