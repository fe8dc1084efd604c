import dataclasses
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from tropcurve import (
    TropicalCurve,
    TropicalPolynomial,
    complement_components,
    curve_from_polynomial,
    honeycomb,
    phase_from_signs,
    primitive_cycles,
    render_svg,
    twists_from_signs,
)
from tropcurve import curve as curve_module
from tropcurve.curve import (
    Edge,
    _boundary_segments,
    _curve_from_heights,
    _line_walk,
)
from tropcurve.errors import DegeneratePolygon, DegreeUnset, InvariantViolation, SingularSubdivision
from tropcurve.geometry import (
    canonical_direction,
    convex_hull,
    det2,
    hull_lattice_points,
    polygon_twice_area,
    rot90,
    sub,
)
from tropcurve.selfcheck import (
    _verify_curve,
    construction_outcome,
    fraction_region_point,
    pair_scan_curve,
    random_lift,
    random_nonsingular_curve,
    random_sign_distribution,
    run_check,
)


def test_line_from_all_zero_coefficients(make_line=None):
    curve = curve_from_polynomial(TropicalPolynomial({(0, 0): 0, (1, 0): 0, (0, 1): 0}))
    assert curve.degree == 1
    assert curve.vertices == ((Fraction(0), Fraction(0)),)
    assert len(curve.bounded_edges) == 0
    assert sorted(e.direction for e in curve.edges) == [(-1, 0), (0, -1), (1, 1)]


def test_quadratic_lift_conic_counts():
    # independent oracle: Euler counts of the standard triangulation of the
    # 2-simplex (4 unit cells, 3 interior edges, 6 boundary edges)
    curve = curve_from_polynomial(
        TropicalPolynomial({(i, j): -(i * i + i * j + j * j) for i in range(3) for j in range(3 - i)})
    )
    assert len(curve.vertices) == 4
    assert len(curve.bounded_edges) == 3
    assert len(curve.edges) - len(curve.bounded_edges) == 6
    assert len(curve.dual.cells) == 4


def test_flat_lift_is_singular():
    with pytest.raises(SingularSubdivision):
        curve_from_polynomial(
            TropicalPolynomial({(i, j): 0 for i in range(3) for j in range(3 - i)})
        )


def test_skipped_lattice_point_is_singular():
    # coefficients pulling (1,1) below every upper facet of the square
    with pytest.raises(SingularSubdivision):
        curve_from_polynomial(
            TropicalPolynomial({(0, 0): 0, (2, 0): 0, (0, 2): 0, (1, 1): -10, (1, 0): -1,
                                (0, 1): -1, (2, 1): -3, (1, 2): -3, (2, 2): -2})
        )


@pytest.mark.parametrize(
    "coefficients, reason",
    [
        # side point on its neighbours' chord, then below it
        ({(0, 0): 0, (1, 0): 0, (2, 0): 0, (0, 1): -1, (1, 1): -1, (0, 2): -4}, "not strictly concave"),
        ({(0, 0): 0, (1, 0): -1, (2, 0): 0, (0, 1): -1, (1, 1): -2, (0, 2): -4}, "not strictly concave"),
        # flat unit square: one cell with four points, a tie in the climb
        ({(0, 0): 0, (1, 0): 0, (0, 1): 0, (1, 1): 0}, "lie on one plane"),
        # (1,1) pulled below the triangle (0,1),(1,0),(2,1) of twice-area 2
        ({(0, 0): -3, (1, 0): -1, (2, 0): -2, (3, 0): -6, (0, 1): -1, (1, 1): -9,
          (2, 1): -2, (0, 2): -2, (1, 2): -3, (0, 3): -7}, "crossed edge"),
        # flat unit square again, with heights over the denominators 2, 3, 5 and 30
        ({(0, 0): Fraction(1, 2), (1, 0): Fraction(1, 3), (0, 1): Fraction(1, 5),
          (1, 1): Fraction(1, 30)}, "lie on one plane"),
    ],
)
def test_walk_rejections_are_singular_subdivisions(coefficients, reason):
    with pytest.raises(SingularSubdivision, match=reason):
        curve_from_polynomial(TropicalPolynomial(coefficients))


def test_walk_matches_pair_scan_on_random_lifts():
    # mixed supports and lifts, many singular: same refusal or same curve
    rng = random.Random(2)
    accepted = 0
    for _ in range(1000):
        poly = random_lift(rng)
        walk = construction_outcome(curve_from_polynomial, poly)
        assert walk == construction_outcome(pair_scan_curve, poly), poly.coefficients
        accepted += isinstance(walk, tuple)
    assert 200 <= accepted <= 800


def test_degenerate_polygon():
    with pytest.raises(DegeneratePolygon):
        curve_from_polynomial(TropicalPolynomial({(0, 0): 0, (1, 0): 0, (2, 0): 0}))


def test_min_convention_rejected_by_shape():
    # negative exponents cannot encode a min-plus input
    with pytest.raises(ValueError):
        TropicalPolynomial({(-1, 0): 0, (0, 0): 0, (0, 1): 0})


def _check_structure(curve):
    # balancing, 3-valence, vertex count, dual orthogonality
    area2 = 0
    for cell in curve.dual.cells:
        (a, b, c) = cell
        area2 += abs(det2(sub(b, a), sub(c, a)))
    assert area2 == len(curve.dual.cells)
    assert len(curve.vertices) == len(curve.dual.cells)
    for v, incident in enumerate(curve.vertex_edges):
        assert len(incident) == 3
        sx = sy = 0
        for eid in incident:
            e = curve.edges[eid]
            d = e.direction if (e.tail == v or not e.bounded) else (-e.direction[0], -e.direction[1])
            sx += d[0]
            sy += d[1]
        assert (sx, sy) == (0, 0)
    for e in curve.edges:
        assert rot90(sub(e.dual[1], e.dual[0])) == e.direction


def test_honeycomb_invariants():
    for d in range(1, 7):
        c = honeycomb(d)
        assert c.degree == d
        assert c.is_honeycomb()
        assert len(c.bounded_edges) == 3 * d * (d - 1) // 2
        assert len(c.vertices) == d * d
        _check_structure(c)


def test_honeycomb_degree_20():
    c = honeycomb(20)
    assert len(c.vertices) == 400
    assert len(c.edges) == 630
    _check_structure(c)
    assert len(primitive_cycles(c)) == 19 * 18 // 2


def test_honeycomb_builds_what_its_heights_build_alone():
    # honeycomb(d) hands its hull and lattice points to the builder; the
    # general path, which derives them from the heights, builds the same
    for d in range(1, 16):
        c = honeycomb(d)
        ref = _curve_from_heights(dict(c.frame.heights), 1)
        assert c.dual == ref.dual and c.edges == ref.edges and c.degree == ref.degree == d
        assert (c.frame.vertices, c.frame.edges) == (ref.frame.vertices, ref.frame.edges)


def test_honeycomb_examples():
    assert len(honeycomb(1).bounded_edges) == 0
    assert len(honeycomb(4).bounded_edges) == 18
    assert len(primitive_cycles(honeycomb(6))) == 10


def test_regular_subdivision_exactness():
    # every curve vertex makes its three cell monomials equal and all
    # others strictly smaller (100 random lifts, degrees <= 4)
    rng = random.Random(31)
    for _ in range(100):
        d = rng.randrange(1, 5)
        curve = random_nonsingular_curve(rng, d)
        poly = curve.poly
        for vid, pt in enumerate(curve.vertices):
            cell = curve.vertex_cell[vid]
            vals = {(i, j): a + i * pt[0] + j * pt[1] for (i, j), a in poly.coefficients.items()}
            top = max(vals.values())
            for ij in poly.support:
                if ij in cell:
                    assert vals[ij] == top
                else:
                    assert vals[ij] < top
        _check_structure(curve)


def test_primitive_cycles_counts_and_hexagons():
    assert primitive_cycles(honeycomb(1)) == []
    for d in range(2, 8):
        c = honeycomb(d)
        cycles = primitive_cycles(c)
        assert len(cycles) == (d - 1) * (d - 2) // 2
        for cyc in cycles:
            assert len(cyc.edges) == 6


def test_cycle_of_cubic_is_a_hexagon():
    # independent oracle: count dual-subdivision edges at the interior point
    c = honeycomb(3)
    incident = [e for e in c.edges if (1, 1) in e.dual and e.bounded]
    assert len(incident) == 6
    (cycle,) = primitive_cycles(c)
    assert cycle.center == (1, 1)
    assert len(cycle.edges) == 6


def test_complement_components_counts():
    for d in range(1, 8):
        comps = complement_components(honeycomb(d))
        assert len(comps) == (d + 1) * (d + 2) // 2
        bounded = [c for c in comps if c.bounded]
        assert len(bounded) == (d - 1) * (d - 2) // 2
    comps = complement_components(honeycomb(4))
    assert {c.dual_point for c in comps if c.bounded} == {(1, 1), (1, 2), (2, 1)}


def test_complement_components_need_degree():
    square = curve_from_polynomial(
        TropicalPolynomial({(0, 0): 0, (1, 0): -2, (0, 1): -2, (1, 1): 0})
    )
    assert square.degree is None
    with pytest.raises(DegreeUnset):
        complement_components(square)


def test_honeycomb_edge_directions():
    c = honeycomb(5)
    for e in c.edges:
        assert canonical_direction(e.direction) in {(1, 0), (0, 1), (1, 1)}


def test_translation_moves_vertices_only():
    c = honeycomb(3)
    moved = c.translated((Fraction(5, 3), Fraction(-7, 2)))
    assert moved.dual == c.dual
    assert moved.degree == 3
    assert moved.vertices[0] == (c.vertices[0][0] + Fraction(5, 3), c.vertices[0][1] - Fraction(7, 2))
    _check_structure(moved)


def test_translated_builds_nothing_and_swaps_only_the_frame():
    c = honeycomb(4)
    for _ in range(2):
        attrs, tables = dict(vars(c)), dict(c._tables)
        moved = c.translated((Fraction(5, 3), Fraction(-7, 2)))
        assert vars(c).keys() == attrs.keys() and all(vars(c)[k] is v for k, v in attrs.items())
        assert c._tables == tables and moved._tables is c._tables
        assert [k for k, v in vars(moved).items() if v is not attrs.get(k)] == ["frame"]
        primitive_cycles(moved)  # the second round translates a curve with a built store
    assert c._tables


def test_translated_copies_build_fraction_data_on_first_use():
    c = honeycomb(4)
    first = (Fraction(5, 3), Fraction(-7, 2))
    second = (Fraction(1, 4), Fraction(2))
    moved = c.translated(first).translated(second)  # the middle copy is never read
    assert "vertices" not in vars(moved) and "poly" not in vars(moved)
    assert moved.region_edges is c.region_edges
    once = c.translated((first[0] + second[0], first[1] + second[1]))
    assert moved.frame == once.frame
    assert moved.vertices == once.vertices == tuple(
        (x + first[0] + second[0], y + first[1] + second[1]) for x, y in c.vertices
    )
    assert moved.poly.coefficients == once.poly.coefficients
    _check_structure(moved)


def test_fraction_vertices_and_coefficients_match_the_stdlib_constructor():
    """``vertices`` and ``poly`` build their ``Fraction``s by one gcd into
    the two slots (``geometry._fraction``): equal to ``Fraction(x, den)``,
    with the same type and repr, on honeycombs (den 1), lifts (den 8) and
    translated copies of both (den 6 and 24)."""
    rng = random.Random(53)
    curves = [honeycomb(d) for d in (1, 3, 6)] + [random_nonsingular_curve(rng, d) for d in (2, 4, 6) for _ in range(2)]
    curves += [c.translated((Fraction(5, 3), Fraction(-7, 2))) for c in curves]
    assert sorted({c.frame.den for c in curves}) == [1, 6, 8, 24]
    for c in curves:
        den = c.frame.den
        got = [x for point in c.vertices for x in point] + list(c.poly.coefficients.values())
        want = [Fraction(x, den) for point in c.frame.vertices for x in point]
        want += [Fraction(h, den) for h in c.frame.heights.values()]
        assert got == want
        assert [(type(x), repr(x)) for x in got] == [(type(x), repr(x)) for x in want]


def test_region_exits_follow_region_edges_and_are_shared_by_copies():
    rng = random.Random(31)
    for c in (honeycomb(4), random_nonsingular_curve(rng, 4)):
        assert c.region_exits.keys() == c.region_edges.keys()
        for alpha, row in c.region_exits.items():
            assert tuple(eid for eid, _, _ in row) == c.region_edges[alpha]
            for eid, bx, by in row:
                (beta,) = set(c.edges[eid].dual) - {alpha}
                assert (bx, by) == (beta[0] - alpha[0], beta[1] - alpha[1])
        copy = c.translated((Fraction(5, 3), Fraction(-7, 2)))
        copy_of_copy = copy.translated((Fraction(1, 4), Fraction(2)))
        assert copy.region_exits is c.region_exits
        assert copy_of_copy.region_exits is c.region_exits
        assert copy_of_copy.region_edges is c.region_edges


def test_walk_order_walks_every_edge_once_from_a_placed_vertex():
    rng = random.Random(37)
    curves = [honeycomb(d) for d in (1, 2, 5)]
    curves += [random_nonsingular_curve(rng, d) for d in (2, 3, 4, 6) for _ in range(3)]
    for c in curves:
        order = c.walk_order
        assert sorted(eid for eid, _, _, _ in order) == list(range(len(c.edges)))
        placed = {0}
        for eid, start, forward, w in order:
            e = c.edges[eid]
            assert start in placed
            assert start == (e.tail if forward else e.head)
            if w >= 0:
                assert e.bounded and w == (e.head if forward else e.tail) and w not in placed
                placed.add(w)
        assert placed == set(range(len(c.vertex_edges)))
        copy = c.translated((Fraction(5, 3), Fraction(-7, 2)))
        copy_of_copy = copy.translated((Fraction(1, 4), Fraction(2)))
        assert copy.walk_order is order and copy_of_copy.walk_order is order


def test_a_curve_stores_only_its_frame():
    # the construct op's calls read the frame, never the Fraction view
    rng = random.Random(17)
    built = 0
    while built < 8:
        poly = random_lift(rng)
        try:
            curve = curve_from_polynomial(poly)
        except (DegeneratePolygon, SingularSubdivision):
            continue
        built += 1
        delta = random_sign_distribution(rng, curve)
        phase = phase_from_signs(curve, delta)
        twists = twists_from_signs(curve, delta)
        primitive_cycles(curve)
        if curve.degree is not None:
            complement_components(curve)
        render_svg(curve, phase, twists, None, delta)
        assert "vertices" not in vars(curve) and "poly" not in vars(curve)
        assert curve.poly.coefficients == poly.coefficients


def test_curve_invariants_are_typed():
    c = honeycomb(2)
    flipped = list(c.edges)
    e = flipped[c.bounded_edges[0]]
    flipped[e.index] = Edge(e.index, e.tail, e.head, (-e.direction[0], -e.direction[1]), e.dual, e.bounded)
    with pytest.raises(InvariantViolation, match="^balancing fails at vertex "):
        _verify_curve(TropicalCurve(tuple(flipped), c.dual, c.degree, c.frame))


def test_region_points_dominate():
    rng = random.Random(59)
    curves = [honeycomb(d) for d in (1, 2, 4)] + [random_nonsingular_curve(rng, d) for d in (2, 3, 5)]
    curves.append(curves[-1].translated((Fraction(2, 5), Fraction(1, 7))))
    for c in curves:
        for alpha in c.dual.lattice_points:
            w = c.region_point(alpha)
            assert c.dominating(w) == alpha
            assert w == fraction_region_point(c, alpha)


def test_is_honeycomb_matches_the_canonical_direction_rule():
    def by_classes(curve):
        return all(canonical_direction(e.direction) in ((1, 0), (0, 1), (1, 1)) for e in curve.edges)

    for d in range(1, 13):
        c = honeycomb(d)
        assert c.is_honeycomb() and by_classes(c)
    rng = random.Random(47)
    seen, curves = set(), 0
    while curves < 300:
        try:
            c = curve_from_polynomial(random_lift(rng))
        except (DegeneratePolygon, SingularSubdivision):
            continue
        curves += 1
        assert c.is_honeycomb() == by_classes(c)
        seen.add(c.is_honeycomb())
    assert seen == {True, False}


def test_point_location_check_passes():
    result = run_check("point-location", random.Random(61), 8)
    assert result.passed, result.detail


def _assert_frame_matches_fractions(curve):
    """The curve's integer frame equals one rebuilt from its ``Fraction``
    vertices and coefficients over the frame's den."""
    frame = curve.frame

    def on_den(value):
        scaled = value * frame.den
        assert scaled.denominator == 1, (value, frame.den)
        return scaled.numerator

    assert frame.vertices == tuple((on_den(x), on_den(y)) for x, y in curve.vertices)
    expected = []
    for e in curve.edges:
        x, y = curve.edge_anchor(e.index)
        tmax = curve.edge_tmax(e.index)
        expected.append((on_den(x), on_den(y), *e.direction, None if tmax is None else on_den(tmax)))
    assert frame.edges == tuple(expected)
    assert frame.heights == {p: on_den(a) for p, a in curve.poly.coefficients.items()}


def test_curve_frame_matches_a_frame_rebuilt_from_fractions():
    rng = random.Random(41)
    built = 0
    while built < 40:
        poly = random_lift(rng)
        try:
            curve = curve_from_polynomial(poly)
        except (DegeneratePolygon, SingularSubdivision):
            continue
        built += 1
        _assert_frame_matches_fractions(curve)
        # the pair scan builds its own frame from the vertices it solves
        scanned = pair_scan_curve(poly)
        _assert_frame_matches_fractions(scanned)
        assert scanned.frame == curve.frame
        moved = scanned if rng.random() < 0.5 else curve
        for _ in range(3):
            offset = tuple(Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 7, 12, 101))) for _ in range(2))
            moved = moved.translated(offset)
            _assert_frame_matches_fractions(moved)


def test_region_index_matches_the_dual_edge_scan():
    # complement_components and primitive_cycles read the region index;
    # the oracle scans every dual edge for every lattice point
    rng = random.Random(43)
    curves = [honeycomb(d) for d in (1, 3, 5)]
    curves += [random_nonsingular_curve(rng, d) for d in (2, 4, 6)]
    for curve in curves:
        for comp in complement_components(curve):
            assert comp.boundary_edges == frozenset(e.index for e in curve.edges if comp.dual_point in e.dual)
        for cycle in primitive_cycles(curve):
            assert cycle.edges == frozenset(e.index for e in curve.edges if cycle.center in e.dual and e.bounded)


# A reference copy of the builder as it was before honeycomb and
# curve_from_polynomial shared one int builder: the polynomial's Fraction
# coefficients scaled by their lcm, the cells found by a full gift wrap,
# and the edge records sorted by a key function over their dual pair.


class _ScanRefusal(SingularSubdivision):
    """A refusal by the reference's full scan; its messages name the
    scan's cells, not the line walk's witnesses."""


def _walk_cells(height, boundary, area2):
    """Gift-wrap the upper hull of the lifted support, one cell per step.

    Starting from a boundary unit segment, each unvisited edge is crossed
    to the unique unimodular cell on its left, found by a scan of every
    lifted point (``_cell_apex``).  Returns the cell (counterclockwise
    triple) lying left of each directed edge, or raises ``_ScanRefusal``.

    Lifted points collinear with an interior edge need no check of their
    own: the first cell reached next to such an edge is entered across
    another of its edges, where two of those points tie.
    """
    lifted = sorted(height.items())
    left = {}
    pending = [min(boundary)]
    while pending:
        p, q = pending.pop()
        if (p, q) in left:
            continue
        cell = (p, q, _cell_apex(lifted, height, p, q))
        for a, b in zip(cell, cell[1:] + cell[:1]):
            if (a, b) in left:
                raise _ScanRefusal(f"cells {left[(a, b)]} and {cell} overlap")
            left[(a, b)] = cell
            if (b, a) not in left and (a, b) not in boundary:
                pending.append((b, a))
    count = len(left) // 3
    if count != area2:
        raise _ScanRefusal(f"{count} unimodular cells for a polygon of twice-area {area2}")
    return left


def _cell_apex(lifted, height, p, q):
    """Third point of the upper-hull cell left of the hull edge p->q.

    It is the point r with det(q-p, r-p) > 0 whose lifted plane through
    p and q is steepest; the slope is num/den below, compared by
    cross-multiplication.
    """
    px, py = p
    ux, uy = q[0] - px, q[1] - py
    uu = ux * ux + uy * uy
    hp = height[p]
    rise = height[q] - hp
    apex = None
    best_num, best_den = 0, 1
    tie = False
    for r, h in lifted:
        wx, wy = r[0] - px, r[1] - py
        den = ux * wy - uy * wx
        if den <= 0:
            continue
        num = (h - hp) * uu - rise * (ux * wx + uy * wy)
        lhs, rhs = num * best_den, best_num * den
        if apex is None or lhs > rhs:
            apex, best_num, best_den, tie = r, num, den, False
        elif lhs == rhs:
            tie = True
    if apex is None:
        raise _ScanRefusal(f"no cell left of the edge {p}-{q}")
    if tie:
        raise _ScanRefusal(f"the cell left of {p}-{q} has more than three points")
    if best_den != 1:
        raise _ScanRefusal(f"cell {(p, q, apex)} has Euclidean area > 1/2")
    return apex


def _curve_from_polynomial_reference(poly):
    scale = lcm(*(a.denominator for a in poly.coefficients.values()))
    height = {p: a.numerator * (scale // a.denominator) for p, a in poly.coefficients.items()}
    return _curve_from_heights_reference(height, scale)


def _curve_from_heights_reference(height, scale):
    from tropcurve.curve import DualSubdivision, IntFrame, _frame_edges, _simplex_degree

    hull = convex_hull(list(height))
    if len(hull) < 3:
        raise DegeneratePolygon("support hull is not 2-dimensional")
    lattice = hull_lattice_points(hull)
    missing = [pt for pt in lattice if pt not in height]
    if missing:
        raise SingularSubdivision(f"lattice points {missing} are not in the support")
    boundary = _boundary_segments(hull, height)
    left = _walk_cells(height, boundary, polygon_twice_area(hull))
    placed = []
    for cell in set(left.values()):
        p, q, r = cell
        ux, uy = q[0] - p[0], q[1] - p[1]
        wx, wy = r[0] - p[0], r[1] - p[1]
        b1, b2 = height[p] - height[q], height[p] - height[r]
        placed.append(((wy * b1 - uy * b2, ux * b2 - wx * b1), cell))
    placed.sort()
    vertex_index = {cell: k for k, (_, cell) in enumerate(placed)}
    vertices = tuple(xy for xy, _ in placed)
    records = []
    for (a, b), cell in left.items():
        if (b, a) not in left:
            records.append(((b, a), vertex_index[cell], None, rot90(sub(a, b))))
        elif a < b:
            records.append(((a, b), vertex_index[left[(b, a)]], vertex_index[cell], rot90(sub(b, a))))
    records.sort(key=lambda rec: (min(rec[0]), max(rec[0])))
    edges = tuple(
        Edge(idx, tail, head, direction, pair, head is not None)
        for idx, (pair, tail, head, direction) in enumerate(records)
    )
    dual_cells = tuple(tuple(sorted(cell)) for _, cell in placed)
    dual = DualSubdivision(tuple(hull), tuple(lattice), dual_cells)
    frame = IntFrame(scale, vertices, _frame_edges(edges, vertices), height)
    curve = TropicalCurve(edges, dual, _simplex_degree(hull), frame)
    _verify_curve(curve)
    return curve


def _built(build, *args):
    """The curve's construction (the frame's height order included), or the
    refusal's type and message."""
    try:
        c = build(*args)
    except (ValueError, SingularSubdivision, DegeneratePolygon, InvariantViolation) as exc:
        return type(exc), str(exc)
    return c.edges, c.dual, c.degree, c.frame, list(c.frame.heights), list(c.poly.coefficients)


def _as_the_reference(got, want):
    """Whether ``_built`` outcomes agree: the same construction, or the same
    refusal.  Where the reference's full scan refuses, the walk refuses
    with a ``SingularSubdivision`` that names its own witness instead."""
    if want[0] is _ScanRefusal:
        return got[0] is SingularSubdivision
    return got == want


def test_honeycombs_are_built_as_the_reference():
    for d in range(1, 13):
        coeffs = {(i, j): Fraction(-(i * i + i * j + j * j)) for i in range(d + 1) for j in range(d + 1 - i)}
        want = _built(_curve_from_polynomial_reference, TropicalPolynomial(coeffs))
        assert _built(honeycomb, d) == want
        assert _built(curve_from_polynomial, TropicalPolynomial(coeffs)) == want


def test_random_lifts_are_built_or_refused_as_the_reference():
    rng = random.Random(40)
    kinds = {}
    for _ in range(500):
        poly = random_lift(rng)
        got = _built(curve_from_polynomial, poly)
        assert _as_the_reference(got, _built(_curve_from_polynomial_reference, poly)), poly.coefficients
        kind = "refused" if isinstance(got[0], type) else "built"
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds["built"] >= 200 and kinds["refused"] >= 100, kinds


@pytest.mark.parametrize("coefficients", [
    {(0, 0): 0, (1, 0): 0, (2, 0): 0},
    {(0, 0): 0, (0, 3): Fraction(1, 2)},
    {(0, 0): 0, (2, 0): 0, (0, 2): 0},
    {(i, j): 0 for i in range(3) for j in range(3 - i)},
    {(0, 0): 0, (1, 0): 0, (0, 1): 0, (1, 1): 0},
    {(0, 0): Fraction(1, 2), (1, 0): Fraction(1, 3), (0, 1): Fraction(1, 5), (1, 1): Fraction(1, 30)},
    {(0, 0): 0, (1, 0): 0, (2, 0): 0, (0, 1): -1, (1, 1): -1, (0, 2): -4},
    {(0, 0): -3, (1, 0): -1, (2, 0): -2, (3, 0): -6, (0, 1): -1, (1, 1): -9,
     (2, 1): -2, (0, 2): -2, (1, 2): -3, (0, 3): -7},
    {(0, 0): 0, (2, 0): 0, (0, 2): 0, (1, 1): -10, (1, 0): -1, (0, 1): -1, (2, 1): -3, (1, 2): -3, (2, 2): -2},
])
def test_singular_and_degenerate_inputs_are_refused_as_the_reference(coefficients):
    poly = TropicalPolynomial(coefficients)
    got = _built(curve_from_polynomial, poly)
    assert isinstance(got[0], type)
    assert _as_the_reference(got, _built(_curve_from_polynomial_reference, poly))


def test_honeycomb_degree_below_one_is_refused():
    with pytest.raises(ValueError, match="degree must be >= 1"):
        honeycomb(0)
    for d, name in ((True, "bool"), (3.0, "float"), ("3", "str")):
        with pytest.raises(TypeError, match=f"^degree must be an int, not {name}$"):
            honeycomb(d)


def test_a_fraction_coefficient_is_kept_as_given():
    a = Fraction(-3, 7)
    poly = TropicalPolynomial({(0, 0): a, (1, 0): 0, (0, 1): Fraction(2)})
    assert poly.coefficients[(0, 0)] is a
    assert [type(v) for v in poly.coefficients.values()] == [Fraction] * 3


def test_edge_equality_hash_and_repr_equal_a_frozen_dataclass():
    Ref = dataclasses.make_dataclass("Edge", ["index", "tail", "head", "direction", "dual", "bounded"], frozen=True)
    curves = [honeycomb(3), random_nonsingular_curve(random.Random(33), 4)]
    for c in curves:
        for e in c.edges:
            fields = (e.index, e.tail, e.head, e.direction, e.dual, e.bounded)
            ref = Ref(*fields)
            assert repr(e) == repr(ref)
            assert hash(e) == hash(ref) == hash(fields)
            assert e == Edge(*fields) and not e != Edge(*fields)
            assert e != ref and ref != e and e != fields
    a, b = curves[0].edges[:2]
    assert a != b and hash(a) != hash(b)


def test_an_edge_is_unequal_to_its_fields_and_to_a_subclass_edge():
    class SubEdge(Edge):
        __slots__ = ()

    Ref = dataclasses.make_dataclass("Edge", ["index", "tail", "head", "direction", "dual", "bounded"], frozen=True)
    SubRef = dataclasses.make_dataclass("SubEdge", [], bases=(Ref,), frozen=True)
    for e in honeycomb(2).edges:
        fields = (e.index, e.tail, e.head, e.direction, e.dual, e.bounded)
        # the frozen dataclass's class check, which the record keeps
        assert Ref(*fields) != SubRef(*fields) and not Ref(*fields) == SubRef(*fields)
        sub = SubEdge(*fields)
        assert e != sub and sub != e and not e == sub and not sub == e
        assert hash(sub) == hash(e)
        assert e != fields and fields != e and not e == fields


# -- the line walk against the full gift wrap ---------------------------------

# the climb alone accepts this cubic; the concavity test at a crossing refuses it
_PINNED_CUBIC = {(0, 0): 4, (0, 1): -3, (0, 2): -16, (0, 3): -33, (1, 0): -3, (1, 1): -16, (1, 2): -27,
                 (2, 0): -13, (2, 1): -30, (3, 0): -35}
# the climb and the concavity tests at crossings accept this quartic; the
# test at an edge a new cell closes refuses it
_PINNED_QUARTIC = {(0, 0): 0, (0, 1): -2, (0, 2): -8, (0, 3): -18, (0, 4): -32, (1, 0): -2, (1, 1): -6,
                   (1, 2): -11, (1, 3): -26, (2, 0): -8, (2, 1): -10, (2, 2): -24, (3, 0): -18, (3, 1): -26,
                   (4, 0): -32}


def _height_tables():
    """Seeded (height, scale) tables: honeycombs d = 1..12, the pinned
    cubic and quartic, random lifts on simplex and non-simplex polygons,
    perturbed quadratic heights on simplices, and random interior heights
    inside strictly concave sides."""
    def simplex(d):
        return [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]

    tables = [({(i, j): -(i * i + i * j + j * j) for i, j in simplex(d)}, 1) for d in range(1, 13)]
    tables += [(dict(_PINNED_CUBIC), 1), (dict(_PINNED_QUARTIC), 1)]
    rng = random.Random(33)
    for _ in range(600):
        coefficients = random_lift(rng).coefficients
        scale = lcm(*(a.denominator for a in coefficients.values()))
        tables.append(({p: a.numerator * (scale // a.denominator) for p, a in coefficients.items()}, scale))
    for _ in range(300):
        d, spread = rng.randint(2, 7), rng.choice((2, 8, 24))
        tables.append(({(i, j): -16 * (i * i + i * j + j * j) + rng.randint(-spread, spread)
                        for i, j in simplex(d)}, 16))
    for _ in range(300):
        d = rng.randint(2, 6)
        tables.append(({(i, j): -8 * (i * i + i * j + j * j) if 0 in (i, j, d - i - j) else rng.randint(-8 * d * d, 0)
                        for i, j in simplex(d)}, 1))
    return tables


def _walk_input(height):
    """(hull, boundary segments, twice the area) for the walks, or None when
    the build refuses the heights before any walk."""
    hull = convex_hull(list(height))
    if len(hull) < 3 or any(p not in height for p in hull_lattice_points(hull)):
        return None
    try:
        boundary = _boundary_segments(hull, height)
    except SingularSubdivision:
        return None
    return hull, boundary, polygon_twice_area(hull)


def _left_of(cells):
    """The cell left of each directed edge, keyed as ``_walk_cells`` keys it."""
    return {(a, b): cell for cell in cells for a, b in zip(cell, cell[1:] + cell[:1])}


def test_the_line_walk_finds_the_cells_of_the_full_scan():
    built = 0
    for height, scale in _height_tables():
        walk = _walk_input(height)
        if walk is None:
            continue
        hull, boundary, area2 = walk
        try:
            want = _walk_cells(height, boundary, area2)
        except SingularSubdivision:
            continue
        cells, _, _ = _line_walk(height, boundary, area2, hull)
        assert list(_left_of(cells).items()) == list(want.items()), height
        built += 1
    assert built >= 600, built


_POINT = r"\(-?\d+, -?\d+\)"
_CELL = rf"\({_POINT}, {_POINT}, {_POINT}\)"
# the walk's refusals that the seeded tables reach; no seeded table has two
# cells left of one edge, a wrong count of cells or a line that misses the
# polygon
_WALK_REFUSALS = {
    kind: re.compile(rf"the lift is not strictly concave across the {kind} edge {_POINT}-{_POINT}: "
                     rf"the lifted {_POINT} is not below the plane of the cell {_CELL}")
    for kind in ("crossed", "closed")
}
_WALK_REFUSALS["tie"] = re.compile(rf"the lifted {_POINT}, {_POINT}, {_POINT} and {_POINT} lie on one plane")


def test_the_walk_refuses_exactly_what_the_full_scan_refuses():
    # past the checks before the walk, the walk refuses the tables the
    # scan refuses, each with a witness of a kind above, and builds the
    # reference's curve from all the others
    counts = dict.fromkeys(("built", *_WALK_REFUSALS), 0)
    for height, scale in _height_tables():
        if _walk_input(height) is None:
            continue
        got = _built(_curve_from_heights, height, scale)
        want = _built(_curve_from_heights_reference, height, scale)
        assert _as_the_reference(got, want), height
        if want[0] is _ScanRefusal:
            kind, = (kind for kind, pattern in _WALK_REFUSALS.items() if pattern.fullmatch(got[1]))
        else:
            kind = "built"
        counts[kind] += 1
    assert counts == {"built": 698, "crossed": 216, "closed": 1, "tie": 38}


def _refusal(height):
    with pytest.raises(SingularSubdivision) as refusal:
        _curve_from_heights(height, 1)
    return str(refusal.value)


def test_walk_refusals_name_their_witnesses():
    assert _refusal(dict(_PINNED_CUBIC)) == (
        "the lift is not strictly concave across the crossed edge (0, 1)-(1, 1): "
        "the lifted (1, 2) is not below the plane of the cell ((1, 1), (0, 1), (2, 0))")
    assert _refusal(dict(_PINNED_QUARTIC)) == (
        "the lift is not strictly concave across the closed edge (1, 1)-(1, 0): "
        "the lifted (2, 1) is not below the plane of the cell ((1, 0), (1, 1), (0, 1))")
    assert _refusal({(0, 0): 0, (1, 0): 0, (0, 1): 0, (1, 1): 0}) == (
        "the lifted (0, 0), (1, 0), (0, 1) and (1, 1) lie on one plane")


def test_the_certificate_refuses_what_the_climb_alone_accepts(monkeypatch):
    height = dict(_PINNED_CUBIC)
    hull, boundary, area2 = _walk_input(height)
    with pytest.raises(SingularSubdivision, match="^the lift is not strictly concave across the crossed edge "):
        _line_walk(height, boundary, area2, hull)
    with pytest.raises(_ScanRefusal, match=re.escape("cell ((0, 1), (2, 0), (1, 2)) has Euclidean area > 1/2")):
        _walk_cells(height, boundary, area2)
    monkeypatch.setattr(curve_module, "_require_concave", lambda *args: None)
    cells, _, _ = _line_walk(height, boundary, area2, hull)
    assert len(cells) == area2


def _outcome(height, scale):
    try:
        _curve_from_heights(height, scale)
    except Exception as exc:
        return f"{type(exc).__name__} {exc}"
    return "built"


def test_the_walk_builds_and_refuses_alike_under_python_O():
    tables = _height_tables()[-60:] + [(_PINNED_CUBIC, 1), (_PINNED_QUARTIC, 1)]
    want = [_outcome(*t) for t in tables]
    assert sum(line.startswith("SingularSubdivision ") for line in want) >= 20
    script = (
        "import sys\n"
        "from tropcurve.curve import _curve_from_heights\n"
        "for height, scale in eval(sys.stdin.read()):\n"
        "    try:\n"
        "        _curve_from_heights(height, scale)\n"
        "    except Exception as exc:\n"
        "        print(type(exc).__name__, exc)\n"
        "    else:\n"
        "        print('built')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-O", "-c", script], input=repr(tables), env=env,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == want
    assert all(line == "built" or line.startswith("SingularSubdivision ") for line in want)
