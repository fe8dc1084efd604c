"""The Newton polygon's sides (``DualSubdivision.sides``): against the
d*simplex formulas they replaced, on polygons other than simplices, and
a golden digest of every output that reads the boundary."""

import hashlib
import random
from fractions import Fraction
from math import gcd

import pytest

from tropcurve import (
    TropicalPolynomial,
    complement_components,
    count_components_direct,
    curve_from_polynomial,
    honeycomb,
    phase_from_signs,
    primitive_cycles,
    real_part,
)
from tropcurve.errors import DegeneratePolygon, DegreeUnset, SingularSubdivision
from tropcurve.geometry import (
    convex_hull,
    det2,
    dot2,
    hull_lattice_count,
    hull_lattice_points,
    point_strictly_in_hull,
    side_lattice_points,
    sub,
)
from tropcurve.realstruct import _cells, region_class
from tropcurve.selfcheck import random_lift, random_sign_distribution

from test_real_tables import _Cells_reference

# sha256 of _golden_lines(), recorded before the sides were read off the hull
GOLDEN_DIGEST = "d109bba257bccbf3ae2252ccd8ad8b01b538dcd54d87aa8bd7d42c044e2ff52e"


def _lift_curves(seed: int, draws: int):
    rng = random.Random(seed)
    out = []
    for _ in range(draws):
        try:
            out.append(curve_from_polynomial(random_lift(rng)))
        except (SingularSubdivision, DegeneratePolygon):
            continue
    return out


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


def _degree_unset(call):
    try:
        call()
    except DegreeUnset:
        return True
    return False


def _curve_lines(curve, rng):
    points = curve.dual.lattice_points
    lines = [
        ("points", [curve.region_frame_point(alpha) for alpha in points]),
        ("cycles", [(c.center, sorted(c.edges)) for c in primitive_cycles(curve)]),
        ("moved", [curve.translated((Fraction(1, 3), Fraction(-5, 2))).region_frame_point(a) for a in points]),
    ]
    if curve.degree is None:
        lines.append(("unset", [
            _degree_unset(lambda: _cells(curve)),
            _degree_unset(lambda: complement_components(curve)),
            _degree_unset(lambda: region_class(curve, points[0], (0, 0))),
        ]))
        return lines
    # the cell weights, which the face labelling no longer reads, from the
    # reference cell model
    cells, reference = _cells(curve), _Cells_reference(curve)
    lines.append(("cells", cells.glued, reference.weight2, reference.copy_cell2, sorted(cells.region_class.items())))
    lines.append(("classes", [region_class(curve, alpha, eps) for alpha in points for eps in ((0, 1), (1, 1))]))
    lines.append(("bounded", [c.bounded for c in complement_components(curve)]))
    for _ in range(3):
        phase = phase_from_signs(curve, random_sign_distribution(rng, curve))
        lines.append(("report", _report_key(count_components_direct(real_part(curve, phase)))))
    return lines


def _golden_lines():
    rng = random.Random(1919)
    curves = [honeycomb(d) for d in range(1, 7)] + _lift_curves(19, 60)
    out = []
    for curve in curves:
        out.append(("curve", sorted((p, str(a)) for p, a in curve.poly.coefficients.items())))
        out.extend(_curve_lines(curve, rng))
    return out


def test_boundary_outputs_match_the_recorded_digest():
    text = "\n".join(repr(line) for line in _golden_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGEST


def _simplex_strata(d):
    """The hand-written strata of the d*simplex: outward ray direction ->
    (glue, lattice points of the side)."""
    return {
        (-1, 0): ((1, 0), [(0, j) for j in range(d + 1)]),
        (0, -1): ((0, 1), [(i, 0) for i in range(d + 1)]),
        (1, 1): ((1, 1), [(i, d - i) for i in range(d + 1)]),
    }


def _strata_of_point(alpha, d):
    return {n for n, (_, pts) in _simplex_strata(d).items() if alpha in pts}


def _simplex_curves():
    return [honeycomb(d) for d in range(1, 9)] + [c for c in _lift_curves(5, 80) if c.degree is not None]


def test_simplex_sides_match_the_hand_written_strata():
    curves = _simplex_curves()
    assert len(curves) > 15
    for curve in curves:
        d = curve.degree
        strata = _simplex_strata(d)
        sides = curve.dual.sides
        assert len(sides) == 3
        assert {s.normal: (s.glue, sorted(s.points)) for s in sides} == {
            n: (g, sorted(pts)) for n, (g, pts) in strata.items()
        }
        for alpha in curve.dual.lattice_points:
            through = curve.dual.sides_at.get(alpha, ())
            assert {s.normal for s in through} == _strata_of_point(alpha, d)
            assert len(through) == len(_strata_of_point(alpha, d))


def _rectangle(a, b):
    return curve_from_polynomial(TropicalPolynomial({
        (i, j): -(i * i + i * j + j * j) for i in range(a + 1) for j in range(b + 1)
    }))


def _cut_corner(a, b, lo, hi):
    return curve_from_polynomial(TropicalPolynomial({
        (i, j): -(i * i + i * j + j * j) for i in range(a + 1) for j in range(b + 1) if lo <= i + j <= hi
    }))


@pytest.mark.parametrize(
    "curve",
    [_rectangle(1, 1), _rectangle(3, 2), _cut_corner(3, 3, 1, 5), _cut_corner(2, 3, 0, 4), _cut_corner(3, 2, 1, 3)]
    + [c for c in _lift_curves(11, 60) if c.degree is None][:8],
    ids=lambda c: ",".join(f"{i}{j}" for i, j in c.dual.polygon),
)
def test_sides_of_other_polygons(curve):
    polygon = curve.dual.polygon
    lattice = set(curve.dual.lattice_points)
    sides = curve.dual.sides
    assert curve.degree is None and len(sides) == len(polygon)
    for k, side in enumerate(sides):
        a, b = polygon[k], polygon[(k + 1) % len(polygon)]
        nx, ny = side.normal
        assert gcd(nx, ny) == 1
        assert side.glue == (nx % 2, ny % 2)
        # outward: the polygon lies on the side's inner half-plane, and the
        # normal is perpendicular to the side
        assert all((p[0] - a[0]) * nx + (p[1] - a[1]) * ny <= 0 for p in polygon)
        assert det2(side.normal, sub(b, a)) != 0 and (b[0] - a[0]) * nx + (b[1] - a[1]) * ny == 0
        on_line = [p for p in lattice if (p[0] - a[0]) * nx + (p[1] - a[1]) * ny == 0]
        assert sorted(side.points) == sorted(on_line)
        # counterclockwise, in unit steps from one vertex to the next
        assert side.points[0] == a and side.points[-1] == b
        steps = {sub(q, p) for p, q in zip(side.points, side.points[1:])}
        assert len(steps) == 1 and gcd(*steps.pop()) == 1
    at = curve.dual.sides_at
    boundary = {p for p in lattice if not point_strictly_in_hull(list(polygon), p)}
    assert set(at) == boundary
    assert all(len(through) in (1, 2) for through in at.values())
    assert {p for p, through in at.items() if len(through) == 2} == set(polygon)
    assert all(p in side.points for p, through in at.items() for side in through)


def test_side_lattice_points_walk_the_segment():
    for a, b in [((0, 0), (4, 0)), ((3, 1), (0, 4)), ((2, 5), (2, 0)), ((0, 0), (2, 4)), ((1, 1), (4, 3))]:
        pts = side_lattice_points(a, b)
        assert pts[0] == a and pts[-1] == b
        assert len(pts) == len(set(pts)) and set(pts) == set(hull_lattice_points([a, b]))


def _in_hull_reference(hull, p):
    """Closed containment in a counterclockwise hull: the test the column
    enumeration replaced."""
    n = len(hull)
    if n == 1:
        return p == hull[0]
    if n == 2:
        u, w = sub(hull[1], hull[0]), sub(p, hull[0])
        return det2(u, w) == 0 and 0 <= dot2(u, w) <= dot2(u, u)
    return all(det2(sub(hull[(i + 1) % n], hull[i]), sub(p, hull[i])) >= 0 for i in range(n))


def _random_hull_points(rng):
    """A point, a segment or a polygon's points, anywhere in the plane."""
    cx, cy = rng.randint(-40, 40), rng.randint(-40, 40)
    kind = rng.choice(["point", "segment", "polygon", "polygon"])
    if kind == "point":
        return [(cx, cy)]
    if kind == "segment":
        dx, dy = rng.randint(-6, 6), rng.randint(-6, 6)
        return [(cx + dx * t, cy + dy * t) for t in rng.sample(range(-4, 5), rng.randint(2, 4))]
    r = rng.randint(1, 15)
    return [(cx + rng.randint(-r, r), cy + rng.randint(-r, r)) for _ in range(rng.randint(3, 8))]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hull_lattice_points_by_column_match_the_bounding_box_scan(seed):
    rng = random.Random(seed)
    kinds = set()
    for _ in range(400):
        hull = convex_hull(_random_hull_points(rng))
        kinds.add(min(len(hull), 3))
        xs, ys = [p[0] for p in hull], [p[1] for p in hull]
        box = [
            (x, y)
            for x in range(min(xs), max(xs) + 1)
            for y in range(min(ys), max(ys) + 1)
            if _in_hull_reference(hull, (x, y))
        ]
        points = hull_lattice_points(hull)
        assert points == box, hull
        assert len(points) == hull_lattice_count(hull), hull
    assert kinds == {1, 2, 3}
