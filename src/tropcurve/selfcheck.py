"""Built-in oracle cross-checks, runnable from the CLI verify command.

Each check pits two independent routes against each other (cell-walk
construction vs pair scan, twist-matrix count vs quadrant-model count,
the face tree of the quadrant model vs components by vertex-copy
connectivity and a fresh scan per cut,
the locus report read off one face tree (nest verdict, component count,
innermost oval's disk face) vs the oracle ``locus_from_report``, which
takes the verdict and kernel dimension from the twist matrix's rank
(``is_hyperbolic``) and the innermost oval from the whole component
report, and vs the pencil sweep, plus the bridge locus on honeycombs,
degree product vs enumerated multiplicities) on randomized inputs.
Production runs one route per quantity; the second routes are these
oracles, among them the twist round trip (twists_from_phase recovers what
phase_from_twists got), the geometric sidedness rule behind the sign
rule (edge_twisted_geometric for edges, relative_twist_geometric for
overlaps) and the pointwise pencil sweep of the locus, which keeps the
pencil subdivision at a point (``SigmaV``, ``is_generic``).
One check holds the component reports to theorems instead of a second
route: the classical restrictions on real plane curves (real-topology).
Point location (point-location) holds the curve's int argmax and region
points to the ``Fraction`` argmax of the polynomial and a ``Fraction``
centroid.

``CHECKS`` lists every check in run order with its seed offset and trial
budget.  A check ``check_*(rng, trials)`` returns the detail of its pass and
raises ``Mismatch`` where its routes disagree.  ``run_check`` is the one
place that turns a run into a ``CheckResult``: a pass, a ``Mismatch``, or
any other exception, which fails the check naming the exception.
``run_all`` runs ``CHECKS`` for the CLI verify command.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import floor, gcd, lcm
from typing import Callable

from . import intersect
from .curve import (
    DualSubdivision,
    Edge,
    IntFrame,
    TropicalCurve,
    TropicalPolynomial,
    _frame_edges,
    _simplex_degree,
    curve_from_polynomial,
    honeycomb,
)
from .errors import (
    DegeneratePolygon,
    InvariantViolation,
    NotAdmissible,
    NotDividing,
    NotGenericAfterRetries,
    PointOnCurve,
    SingularSubdivision,
    UnsupportedConfiguration,
)
from .geometry import (
    IVec,
    Point,
    canonical_direction,
    convex_hull,
    det2,
    dot2,
    hull_lattice_points,
    intersect_param_lines,
    line_param,
    on_frame,
    point_strictly_in_hull,
    polygon_twice_area,
    primitive,
    rot90,
    sub,
)
from .gf2 import _LINE_NORMALS, Gf2Matrix, Gf2Subspace, Gf2Vector, kernel
from .hyperbolic import (
    HyperbolicityReport,
    PointVerdict,
    honeycomb_locus,
    hyperbolic_wrt_point,
    hyperbolicity_locus,
    is_hyperbolic,
    multi_bridges,
)
from .intersect import (
    SEGMENT_OVERLAP,
    TRANSVERSE,
    FrameHits,
    IntersectionComponent,
    _point,
    bezout_total,
    classify_hits,
    edge_hits,
    intersection_components,
    is_relatively_twisted,
    real_lift,
)
from .realstruct import (
    EPS4,
    ComponentReport,
    CurveComponentInfo,
    Eps,
    RealPart,
    RealPhaseStructure,
    SignDistribution,
    TwistSet,
    _cells,
    _xor,
    adm_space,
    count_components_direct,
    count_components_matrix,
    div_space,
    edge_twisted,
    is_admissible,
    is_dividing,
    phase_from_signs,
    phase_from_twists,
    real_part,
    region_class,
    twists_from_phase,
    twists_from_signs,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


class Mismatch(Exception):
    """Raised by a check when its routes disagree; the message says where."""


# draws of random_nonsingular_curve before it gives up
_LIFT_TRIES = 300


def random_nonsingular_curve(rng: random.Random, degree: int) -> TropicalCurve:
    """Random concave-dominant integer lift, rejected until non-singular."""
    for _ in range(_LIFT_TRIES):
        coeffs = {}
        for i in range(degree + 1):
            for j in range(degree + 1 - i):
                base = -2 * (i * i + i * j + j * j)
                coeffs[(i, j)] = Fraction(8 * base + rng.randrange(0, 16), 8)
        try:
            return curve_from_polynomial(TropicalPolynomial(coeffs))
        except SingularSubdivision:
            continue
    raise RuntimeError(f"no non-singular degree-{degree} curve after {_LIFT_TRIES} tries")


def _tie_line(p: IVec, q: IVec, ap: Fraction, aq: Fraction) -> tuple[Point, IVec]:
    """Base point and direction of {X : ap + p.X = aq + q.X}."""
    n = sub(p, q)
    c = aq - ap
    if n[0] != 0:
        base = (Fraction(c, n[0]), Fraction(0))
    else:
        base = (Fraction(0), Fraction(c, n[1]))
    return base, rot90(sub(q, p))


def pair_scan_curve(poly: TropicalPolynomial) -> TropicalCurve:
    """Reference construction of ``curve_from_polynomial`` by an O(n^3) pair scan.

    For every pair of support points the locus where both monomials are
    maximal is a (possibly empty) interval on their tie line, and the
    nonempty intervals are exactly the edges of the subdivision.
    """
    support = sorted(poly.support)
    hull = convex_hull(support)
    if len(hull) < 3:
        raise DegeneratePolygon("support hull is not 2-dimensional")
    coeffs = poly.coefficients

    dual_edges = []  # (p, q, lo, hi, direction) with lo/hi None for unbounded
    for i, p in enumerate(support):
        for q in support[i + 1:]:
            base, d = _tie_line(p, q, coeffs[p], coeffs[q])
            lo = hi = None
            feasible = True
            collinear_tie = False
            for s in support:
                if s == p or s == q:
                    continue
                g0 = coeffs[p] - coeffs[s] + dot2(sub(p, s), base)
                g1 = dot2(sub(p, s), d)
                if g1 == 0:
                    if g0 < 0:
                        feasible = False
                        break
                    if g0 == 0:
                        collinear_tie = True
                elif g1 > 0:
                    bound = Fraction(-g0, g1)
                    if lo is None or bound > lo:
                        lo = bound
                else:
                    bound = Fraction(-g0, g1)
                    if hi is None or bound < hi:
                        hi = bound
            if not feasible or (lo is not None and hi is not None and lo >= hi):
                continue
            if collinear_tie or primitive(sub(q, p)) != sub(q, p):
                raise SingularSubdivision(f"dual edge {p}-{q} carries weight > 1")
            dual_edges.append((p, q, base, d, lo, hi))

    # vertices: finite interval endpoints, deduplicated; dual cell = argmax there
    vertex_points: dict[Point, tuple[IVec, ...]] = {}
    for p, q, base, d, lo, hi in dual_edges:
        for t in (lo, hi):
            if t is None:
                continue
            pt = (base[0] + d[0] * t, base[1] + d[1] * t)
            if pt not in vertex_points:
                cell = poly.argmax(pt)
                if len(cell) != 3:
                    raise SingularSubdivision(
                        f"vertex at {pt} is dual to a cell with {len(cell)} points"
                    )
                if abs(det2(sub(cell[1], cell[0]), sub(cell[2], cell[0]))) != 1:
                    raise SingularSubdivision(f"cell {cell} has Euclidean area > 1/2")
                vertex_points[pt] = cell

    order = sorted(vertex_points)
    vertex_index = {pt: k for k, pt in enumerate(order)}
    cells = tuple(vertex_points[pt] for pt in order)

    lattice = hull_lattice_points(hull)
    used = {v for cell in cells for v in cell}
    missing = [pt for pt in lattice if pt not in used]
    if missing:
        raise SingularSubdivision(f"lattice points {missing} are not vertices of the subdivision")
    # unimodular cells tile the polygon iff their count equals its twice-area
    if len(cells) != polygon_twice_area(hull):
        raise SingularSubdivision("subdivision does not tile the Newton polygon")

    # assemble curve edges (sorted by dual pair for determinism)
    dual_edges.sort(key=lambda rec: tuple(sorted((rec[0], rec[1]))))
    edges = []
    for p, q, base, d, lo, hi in dual_edges:
        if lo is not None and hi is not None:
            a = (base[0] + d[0] * lo, base[1] + d[1] * lo)
            b = (base[0] + d[0] * hi, base[1] + d[1] * hi)
            idx = len(edges)
            edges.append(
                Edge(idx, vertex_index[a], vertex_index[b], primitive(d), (p, q), True)
            )
        else:
            if lo is None and hi is None:
                raise SingularSubdivision("support line without any bounding monomial")
            if hi is None:
                anchor = (base[0] + d[0] * lo, base[1] + d[1] * lo)
                out_dir, dual_pair = primitive(d), (p, q)
            else:
                anchor = (base[0] + d[0] * hi, base[1] + d[1] * hi)
                out_dir, dual_pair = primitive((-d[0], -d[1])), (q, p)
            idx = len(edges)
            edges.append(Edge(idx, vertex_index[anchor], None, out_dir, dual_pair, False))

    # its own frame from the solved vertices: den is the lcm of every
    # coefficient and vertex-coordinate denominator
    den = lcm(*(a.denominator for a in coeffs.values()), *(c.denominator for v in order for c in v))
    verts = tuple(on_frame(x, y, den) for x, y in order)
    heights = {p: a.numerator * (den // a.denominator) for p, a in coeffs.items()}
    frame = IntFrame(den, verts, _frame_edges(edges, verts), heights)
    degree = _simplex_degree(hull)
    dual = DualSubdivision(tuple(hull), tuple(lattice), cells)
    curve = TropicalCurve(tuple(edges), dual, degree, frame)
    _verify_curve(curve)
    return curve


def _verify_curve(curve: TropicalCurve) -> None:
    """The invariants of a built curve: one vertex per cell of a
    unimodular tiling, three balanced edges at each vertex, and each edge
    directed as its dual edge turned by rot90."""
    area2 = polygon_twice_area(list(curve.dual.polygon))
    if len(curve.vertex_cell) != area2:
        raise SingularSubdivision(
            f"{len(curve.vertex_cell)} vertices for a polygon of twice-area {area2}"
        )
    for v, incident in enumerate(curve.vertex_edges):
        if len(incident) != 3:
            raise InvariantViolation(f"vertex {v} is {len(incident)}-valent")
        sx = sy = 0
        for eid in incident:
            e = curve.edges[eid]
            d = e.direction
            if e.bounded and e.head == v:
                d = (-d[0], -d[1])  # inward at head; flip to point away from v
            sx += d[0]
            sy += d[1]
        if (sx, sy) != (0, 0):
            raise InvariantViolation(f"balancing fails at vertex {v}")
    for e in curve.edges:
        dual_dir = sub(e.dual[1], e.dual[0])
        if rot90(dual_dir) != e.direction:
            raise InvariantViolation(f"edge {e.index} direction is not the dual rotation")


_DENOMINATORS = (1, 2, 3, 4, 5, 7, 8)


def random_lift(rng: random.Random) -> TropicalPolynomial:
    """A lift drawn from a mix that both constructions must agree on.

    The support is a d*simplex, a rectangle or a rectangle with cut
    corners, sometimes with one point dropped; the heights are a
    near-honeycomb concave lift, a perturbed random quadratic form, or
    random rationals with mixed denominators.  Many draws are singular.
    """
    shape = rng.randrange(3)
    if shape == 0:
        lo, a = 0, rng.randint(1, 4)
        b = hi = a
    else:
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        lo, hi = (0, a + b) if shape == 1 else (rng.randint(0, 1), rng.randint(max(a, b, 2), a + b))
    support = [(i, j) for i in range(a + 1) for j in range(b + 1) if lo <= i + j <= hi]
    if len(support) > 3 and rng.random() < 0.2:
        support.remove(rng.choice(support))

    kind = rng.randrange(3)
    if kind == 0:
        return TropicalPolynomial({
            (i, j): Fraction(-16 * (i * i + i * j + j * j) + rng.randrange(16), 8) for i, j in support
        })
    if kind == 1:
        while True:
            qa, qc = rng.randint(1, 6), rng.randint(1, 6)
            qb = rng.randint(-2 * min(qa, qc), 2 * min(qa, qc))
            if qb * qb < 4 * qa * qc:
                break
        return TropicalPolynomial({
            (i, j): -(qa * i * i + qb * i * j + qc * j * j)
            + Fraction(rng.randint(-8, 8), 8 * rng.choice(_DENOMINATORS))
            for i, j in support
        })
    return TropicalPolynomial({
        p: Fraction(rng.randint(-24, 24), rng.choice(_DENOMINATORS)) for p in support
    })


def construction_outcome(build, poly: TropicalPolynomial):
    """The refusal type, or the (vertices, edges, dual) a construction gives."""
    try:
        curve = build(poly)
    except (DegeneratePolygon, SingularSubdivision) as exc:
        return type(exc)
    return (curve.vertices, curve.edges, curve.dual)


def pair_scan_intersections(curve_a: TropicalCurve, curve_b: TropicalCurve):
    """Reference route of ``intersect.edge_hits``: every edge pair solved in
    ``Fraction`` on the curves' own coordinates."""
    if curve_a is curve_b:
        raise UnsupportedConfiguration("the two curves must be distinct point sets")
    points: dict[Point, set] = {}
    segments: list[tuple[Point, Point, int, int]] = []
    for ea in curve_a.edges:
        pa, da, ta = curve_a.edge_anchor(ea.index), ea.direction, curve_a.edge_tmax(ea.index)
        for eb in curve_b.edges:
            pb, db, tb = curve_b.edge_anchor(eb.index), eb.direction, curve_b.edge_tmax(eb.index)
            res = intersect_param_lines(pa, da, pb, db)
            if res is None:
                continue
            if res[0] == "point":
                t, s = res[1], res[2]
                if t < 0 or (ta is not None and t > ta):
                    continue
                if s < 0 or (tb is not None and s > tb):
                    continue
                pt = (pa[0] + da[0] * t, pa[1] + da[1] * t)
                points.setdefault(pt, set()).add(("a", ea.index))
                points[pt].add(("b", eb.index))
                continue
            # collinear supporting lines: intersect the parameter intervals
            sigma = 1 if db == da else -1
            t0 = line_param(pa, da, pb)
            if sigma == 1:
                b_lo, b_hi = t0, (None if tb is None else t0 + tb)
            else:
                b_lo, b_hi = (None if tb is None else t0 - tb), t0
            lo = Fraction(0) if b_lo is None else max(Fraction(0), b_lo)
            if ta is None and b_hi is None:
                raise UnsupportedConfiguration("curves share an unbounded ray")
            hi = b_hi if ta is None else (ta if b_hi is None else min(ta, b_hi))
            if lo > hi:
                continue
            p1 = (pa[0] + da[0] * lo, pa[1] + da[1] * lo)
            if lo == hi:
                points.setdefault(p1, set()).add(("a", ea.index))
                points[p1].add(("b", eb.index))
                continue
            p2 = (pa[0] + da[0] * hi, pa[1] + da[1] * hi)
            if p2 < p1:
                p1, p2 = p2, p1
            segments.append((p1, p2, ea.index, eb.index))
    return points, segments


INTERSECTION_SHIFTS = ("generic", "half-integer", "vertex-on-edge", "vertex-on-vertex")


def random_intersection_pair(rng: random.Random, kind: str):
    """Two random curves of degree 1 to 4 and a shift of ``kind`` for the second.

    "generic" draws (k/101, l/103) and "half-integer" halves in [-2, 2];
    "vertex-on-edge" moves a vertex of one curve onto the midpoint of a
    bounded edge of the other (generic when neither has a bounded edge);
    "vertex-on-vertex" moves a vertex of the second onto one of the first,
    where collinear edges of the two can touch in a single point.
    """
    a = random_nonsingular_curve(rng, rng.randint(1, 4))
    b = random_nonsingular_curve(rng, rng.randint(1, 4))
    if kind == "half-integer":
        return a, b, (Fraction(rng.randint(-4, 4), 2), Fraction(rng.randint(-4, 4), 2))
    if kind == "vertex-on-vertex":
        return a, b, sub(rng.choice(a.vertices), rng.choice(b.vertices))
    hosts = [(host, other, eid) for host, other in ((a, b), (b, a)) for eid in host.bounded_edges]
    if kind == "vertex-on-edge" and hosts:
        host, other, eid = rng.choice(hosts)
        e = host.edges[eid]
        p, q = host.vertices[e.tail], host.vertices[e.head]
        mid = ((p[0] + q[0]) / 2, (p[1] + q[1]) / 2)
        v = rng.choice(other.vertices)
        return a, b, (sub(mid, v) if host is a else sub(v, mid))
    return a, b, (Fraction(rng.randrange(-400, 400), 101), Fraction(rng.randrange(-400, 400), 103))


def random_steep_crossing_pair(rng: random.Random):
    """Two random curves of degree 1 to 4 and a shift for the second that
    puts an interior point of one of its edges on an interior point of an
    edge of the first, the two directions with |det| >= 2: a transverse
    crossing of multiplicity >= 2 unless the point happens to be special.
    Honeycomb directions never meet with |det| >= 2, so curves are drawn
    until one pair of edges has a non-honeycomb direction between them."""
    for _ in range(100):
        a = random_nonsingular_curve(rng, rng.randint(1, 4))
        b = random_nonsingular_curve(rng, rng.randint(1, 4))
        steep = [(ea, eb) for ea in a.edges for eb in b.edges if abs(det2(ea.direction, eb.direction)) >= 2]
        if steep:
            ea, eb = rng.choice(steep)
            return a, b, sub(_edge_point(rng, a, ea), _edge_point(rng, b, eb))
    raise RuntimeError("no pair of edges with |det| >= 2 after 100 tries")


def _edge_point(rng: random.Random, curve: TropicalCurve, edge) -> Point:
    """A random point strictly inside ``edge`` of ``curve``."""
    tmax = curve.edge_tmax(edge.index)
    t = Fraction(rng.randint(1, 9), 2) if tmax is None else tmax * Fraction(rng.randint(1, 9), 10)
    p, d = curve.edge_anchor(edge.index), edge.direction
    return p[0] + d[0] * t, p[1] + d[1] * t


def random_overlap_configurations(rng: random.Random, pairs: int):
    """The segment overlaps of ``pairs`` random intersection pairs, the
    shift kinds in turn, each under random phases of both curves: yields
    (component, phase of A, phase of B) for every translate of B's phase
    whose line on the overlap equals A's.  Refused pairs are skipped."""
    for n in range(pairs):
        a, b, shift = random_intersection_pair(rng, INTERSECTION_SHIFTS[n % len(INTERSECTION_SHIFTS)])
        b = b.translated(shift)
        try:
            comps = intersection_components(a, b)
        except UnsupportedConfiguration:
            continue
        for comp in comps:
            if comp.kind != SEGMENT_OVERLAP:
                continue
            phase_a = phase_from_signs(a, random_sign_distribution(rng, a))
            phase_b = phase_from_signs(b, random_sign_distribution(rng, b))
            for eps in EPS4:
                moved = phase_b.translate(eps)
                if moved.lines[comp.edge_b] == phase_a.lines[comp.edge_a]:
                    yield comp, phase_a, moved


def intersection_outcome(scan, curve_a: TropicalCurve, curve_b: TropicalCurve):
    """The hits an edge scan finds, as ``Fraction`` points in scan order
    (None if the scan refuses), and the components ``classify_hits`` makes
    of them or the refusal as (type, message).

    ``scan`` is ``edge_hits``, whose int hits are mapped back to
    ``Fraction``, or ``pair_scan_intersections``, whose hits are put on the
    pair's frame for classification.
    """
    hits = None
    try:
        found = scan(curve_a, curve_b)
        if isinstance(found, FrameHits):
            points, segments = _fraction_hits(found)
        else:
            points, segments = found
            found = _frame_hits(curve_a, curve_b, points, segments)
        hits = (list(points.items()), segments)
        return hits, classify_hits(curve_a, curve_b, found)
    except UnsupportedConfiguration as exc:
        return hits, (type(exc), str(exc))


def _fraction_hits(hits: FrameHits):
    """``hits`` as the pair scan gives them: ``Fraction`` points, each
    crossing (edge_a, edge_b, mult) as the set of its two edges."""
    den = hits.den
    points = {
        _point(den, key): {("a", gens[0]), ("b", gens[1])} if type(gens) is tuple else gens
        for key, gens in hits.points.items()
    }
    segments = [(_point(den, p1), _point(den, p2), ea, eb) for p1, p2, ea, eb in hits.segments]
    return points, segments


def _frame_hits(curve_a: TropicalCurve, curve_b: TropicalCurve, points, segments) -> FrameHits:
    """The pair scan's ``Fraction`` hits keyed on the pair's frame, as
    ``edge_hits`` keys them.  A point on exactly one edge of each curve
    that is a vertex of neither is a crossing (edge_a, edge_b, mult), with
    mult from ``intersect.transverse_multiplicity``, looked up when called;
    every other point keeps its set of edges."""
    den = lcm(curve_a.frame.den, curve_b.frame.den)
    vertices = set(curve_a.vertices) | set(curve_b.vertices)

    def key(pt):
        m = lcm(*(c.denominator // gcd(c.denominator, den) for c in pt))
        return tuple(c.numerator * (den * m // c.denominator) for c in pt) + (m,)

    def mark(pt, gens):
        pairs = sorted(gens)
        if [tag for tag, _ in pairs] != ["a", "b"] or pt in vertices:
            return gens
        (_, ea), (_, eb) = pairs
        mult = intersect.transverse_multiplicity(curve_a.edges[ea].direction, curve_b.edges[eb].direction)
        return (ea, eb, mult)

    return FrameHits(
        den,
        {key(pt): mark(pt, gens) for pt, gens in points.items()},
        [(key(p1), key(p2), ea, eb) for p1, p2, ea, eb in segments],
        0,
    )


def random_sign_distribution(rng: random.Random, curve: TropicalCurve) -> SignDistribution:
    return SignDistribution({p: rng.choice((1, -1)) for p in curve.dual.lattice_points})


# -- the geometric sidedness rule ---------------------------------------
#
# The oracle of the sign rule across two edge ends
# (``realstruct._sign_twist``): at each end of a piece of curve, follow
# each phase element of the piece onto the edge it continues along, and
# compare the sides those edges leave on.


def _outward_direction(curve: TropicalCurve, eid: int, v: int) -> IVec:
    """The direction of edge eid leaving its end v."""
    e = curve.edges[eid]
    dx, dy = e.direction
    return (dx, dy) if e.tail == v else (-dx, -dy)


def _continuation_edge(curve: TropicalCurve, phase: RealPhaseStructure, eid: int, v: int, eps: Eps) -> int:
    """The unique other edge at v whose phase line contains eps."""
    found = None
    for oid in curve.vertex_edges[v]:
        if oid == eid:
            continue
        if phase.lines[oid].contains(eps):
            if found is not None:
                raise InvariantViolation("phase continuation is not unique")
            found = oid
    if found is None:
        raise InvariantViolation("phase continuation does not exist")
    return found


def continuation_side(
    curve: TropicalCurve, phase: RealPhaseStructure, eid: int, v: int, ref_dir: IVec, eps: Eps
) -> bool:
    """Whether the phase continuation of eps at the end v of edge eid
    leaves v on the left of ref_dir."""
    cont = _continuation_edge(curve, phase, eid, v, eps)
    s = det2(ref_dir, _outward_direction(curve, cont, v))
    if s == 0:
        raise InvariantViolation("a phase continuation is never parallel to the edge it continues")
    return s > 0


def sides_differ(
    elements: tuple[Eps, Eps], side_a: Callable[[Eps], bool], side_b: Callable[[Eps], bool]
) -> bool:
    """The sidedness rule: a piece of curve between two ends is twisted
    iff, for a phase element eps on it, the continuations at the two ends
    leave on opposite sides.  The verdict must not depend on the element."""
    verdicts = {side_a(eps) != side_b(eps) for eps in elements}
    if len(verdicts) != 1:
        raise InvariantViolation("twist verdict must not depend on the phase element")
    return verdicts.pop()


def _continuations_differ(elements: tuple[Eps, Eps], ref_dir: IVec, end0, end1) -> bool:
    """``sides_differ`` on the continuations at two ends, each given as
    (curve, phase, edge, vertex), against one reference direction."""
    return sides_differ(elements, *(partial(continuation_side, *end, ref_dir) for end in (end0, end1)))


def edge_twisted_geometric(curve: TropicalCurve, phase: RealPhaseStructure, eid: int) -> bool:
    """The sidedness rule for a bounded edge, read off the geometry: the
    continuations of a phase element of the edge at its two ends leave on
    opposite sides of it.  Reference route of ``realstruct.edge_twisted``."""
    e = curve.edges[eid]
    if not e.bounded:
        raise InvariantViolation("only bounded edges carry a twist")
    return _continuations_differ(
        phase.lines[eid].elements, e.direction, (curve, phase, eid, e.tail), (curve, phase, eid, e.head)
    )


def relative_twist_geometric(
    comp: IntersectionComponent, phase_a: RealPhaseStructure, phase_b: RealPhaseStructure
) -> bool:
    """Sidedness rule across the overlap: a shared phase element whose
    continuations at the two overlap endpoints leave on distinct sides of
    the supporting line.  Reference route of
    ``intersect.is_relatively_twisted``."""
    ref_dir = comp.curve_a.edges[comp.edge_a].direction
    hosts = {"a": (comp.curve_a, phase_a, comp.edge_a), "b": (comp.curve_b, phase_b, comp.edge_b)}
    end0, end1 = ((*hosts[tag], vid) for tag, vid in comp.end_vertices)
    return _continuations_differ(phase_a.lines[comp.edge_a].elements, ref_dir, end0, end1)


# -- the pencil oracle of the pointwise locus ----------------------------
#
# The three pencil conditions at a generic point of one component.  Each
# point gets one pencil scan (``_pencil_scan``) on the curve's integer
# frame, rescaled by the int factor that puts the point on it too: it
# decides genericity and gives the sector of every vertex and the
# determinant of every ray x edge crossing, which is all the conditions
# read.  The conditions never look at an edge whose direction lies outside
# the three pencil classes, so they match the innermost-oval locus on
# honeycombs and near them, not on every curve.


# rays of the pencil subdivision at a point: label -> outward direction
RAY_DIR = {(1, 0): (1, 0), (0, 1): (0, 1), (1, 1): (-1, -1)}
# sectors flanking each ray: (side with det(ray, w) > 0, side with < 0)
_FLANK = {(1, 0): ((1, 1), (0, 1)), (0, 1): ((1, 0), (1, 1)), (1, 1): ((0, 1), (1, 0))}
_LINE_RAY_DIRS = ((-1, 0), (0, -1), (1, 1))


@dataclass(frozen=True)
class SigmaV:
    """Subdivision of the plane by the three pencil rays at the apex."""

    apex: Point

    def classify(self, p: Point):
        w = sub(p, self.apex)
        if w == (0, 0):
            return ("apex",)
        if w[1] == 0 and w[0] > 0:
            return ("ray", (1, 0))
        if w[0] == 0 and w[1] > 0:
            return ("ray", (0, 1))
        if w[0] == w[1] and w[0] < 0:
            return ("ray", (1, 1))
        if w[0] > 0 and w[1] > 0:
            return ("sector", (1, 1))
        if w[0] < 0 and w[1] > w[0]:
            return ("sector", (1, 0))
        if not (w[1] < 0 and w[0] > w[1]):
            raise InvariantViolation(f"{p} lies in no part of the pencil subdivision at {self.apex}")
        return ("sector", (0, 1))


def is_generic(v: Point, curve: TropicalCurve) -> bool:
    """True when the three pencil rays meet the curve transversely in
    edge interiors (no vertex hits, no overlaps)."""
    v = (Fraction(v[0]), Fraction(v[1]))
    den, x, y = curve.frame_point(v)
    if len(curve.frame.argmax(den, x, y)) >= 2:
        raise PointOnCurve(f"{v} lies on the curve")
    return _pencil_scan(curve, den, x, y) is not None


def _pencil_scan(curve: TropicalCurve, den: int, x: int, y: int):
    """The pencil at the point v = (x/den, y/den) off the curve, or None
    when v is not generic; den is a multiple of the curve's frame den.

    Returns the sector label of every vertex and, per edge, the
    (ray label, |det|) of each pencil ray crossing its interior.  It runs
    on the curve's integer frame rescaled to den.  v is generic iff no
    vertex lies on a ray: an edge collinear with a ray reaches the closed
    ray only through v or through an end vertex on the ray, and a crossing
    at an edge end is a vertex on the ray.
    """
    frame = curve.frame
    verts, edges = frame.rescaled(den // frame.den)
    sig = SigmaV((x, y))
    sector: list[IVec] = []
    for u in verts:
        cls = sig.classify(u)
        if cls[0] != "sector":
            return None
        sector.append(cls[1])
    vx, vy = sig.apex
    crossings: dict[int, list[tuple[IVec, int]]] = {}
    for label, (rx, ry) in RAY_DIR.items():
        for eid, (px, py, dx, dy, length) in enumerate(edges):
            dd = rx * dy - ry * dx
            if not dd:
                continue
            # v + t*ray = tail + s*direction at t = tn/dd, s = sn/dd
            wx, wy = px - vx, py - vy
            tn = wx * dy - wy * dx
            sn = wx * ry - wy * rx
            if dd < 0:
                dd, tn, sn = -dd, -tn, -sn
            if tn > 0 and sn > 0 and (length is None or sn < length * dd):
                crossings.setdefault(eid, []).append((label, dd))
    return sector, crossings


# candidates that _generic_point tests from its start
_GENERIC_TRIES = 60


def _generic_point(curve: TropicalCurve, alpha: IVec, start: int = 0):
    """A generic point in the component of alpha, with its pencil scan.

    The candidates are the region point and the region point moved by
    (1/(101+17k), 1/(113+19k)), each tested on ints over the lcm of the
    denominators involved."""
    frame = curve.frame
    den0, x0, y0 = curve.region_frame_point(alpha)
    inside = (alpha,)
    for k in range(start, start + _GENERIC_TRIES):
        if k == 0:
            den, x, y = den0, x0, y0
        else:
            mx, my = 101 + 17 * k, 113 + 19 * k
            den = lcm(den0, mx, my)
            s = den // den0
            x, y = x0 * s + den // mx, y0 * s + den // my
            # a single dominating term also puts the candidate off the
            # curve; region_frame_point has checked it for k == 0
            if frame.argmax(den, x, y) != inside:
                continue
        scan = _pencil_scan(curve, den, x, y)
        if scan is not None:
            return (Fraction(x, den), Fraction(y, den)), scan
    raise NotGenericAfterRetries(f"no generic point found in the component of {alpha}")


class _ComponentAnalysis:
    """Geometry of the pencil conditions at a generic point of one
    component; everything that does not depend on the symmetry."""

    def __init__(self, curve: TropicalCurve, phase: RealPhaseStructure,
                 alpha: IVec, start: int = 0):
        self.curve = curve
        self.phase = phase
        self.alpha = alpha
        self.v, (self.sector, crossings) = _generic_point(curve, alpha, start=start)
        self.cond1_failure: str | None = None
        for vid, label in enumerate(self.sector):
            if any(abs(det2(curve.edges[e].direction, label)) > 1 for e in curve.vertex_edges[vid]):
                self.cond1_failure = (
                    f"vertex {vid} in sector {label} has no edge of direction {label}"
                )
                break

        self.cond2_edges: list[int] = sorted(
            eid for eid, hits in crossings.items() if any(det == 2 for _, det in hits)
        )

        # condition 3 bookkeeping
        self.cond3_contained: list[int] = []   # must be twisted
        self.cond3_overlaps: list[dict] = []   # relative-twist checks
        for eid in curve.bounded_edges:
            e = curve.edges[eid]
            cls = canonical_direction(e.direction)
            if cls not in ((1, 0), (0, 1), (1, 1)):
                continue
            in_tail = self.sector[e.tail] == cls
            in_head = self.sector[e.head] == cls
            if in_tail and in_head:
                self.cond3_contained.append(eid)
                continue
            if not (in_tail or in_head):
                continue
            cands = []
            for label, _ in crossings.get(eid, ()):
                ray = RAY_DIR[label]
                for d in (e.direction, (-e.direction[0], -e.direction[1])):
                    sgn = det2(ray, d)
                    entered = _FLANK[label][0] if sgn > 0 else _FLANK[label][1]
                    if entered == cls:
                        if d not in _LINE_RAY_DIRS:
                            raise InvariantViolation("entry direction must be a line ray")
                        cands.append((label, d))
            if len(cands) != 1:
                raise InvariantViolation("edge meets its sector across exactly one ray")
            label, d = cands[0]
            w_vid = e.head if d == e.direction else e.tail
            if self.sector[w_vid] != cls:
                raise InvariantViolation(f"edge {eid} enters its sector but its far end lies outside it")
            self.cond3_overlaps.append(self._overlap_record(eid, label, d, w_vid))

    def _overlap_record(self, eid, ray_label, d, w_vid):
        curve, phase = self.curve, self.phase
        e = curve.edges[eid]
        line = phase.lines[eid]
        # far-end continuations on the curve side, per phase element
        side_w = {
            eps: continuation_side(curve, phase, eid, w_vid, e.direction, eps)
            for eps in line.elements
        }
        # the two other rays of the pencil line with its vertex on the crossing
        rv_dir = (-RAY_DIR[ray_label][0], -RAY_DIR[ray_label][1])
        third_dir = next(
            x for x in _LINE_RAY_DIRS if x not in (d, rv_dir)
        )
        return {
            "eid": eid,
            "level": line.level,
            "elements": line.elements,
            "side_w": side_w,
            "rv": (rv_dir, canonical_direction(rv_dir)),
            "third": (third_dir, canonical_direction(third_dir)),
            "ref_dir": e.direction,
        }

    def verdict(self, eps: Eps, twisted: frozenset[int]) -> PointVerdict:
        if self.cond1_failure is not None:
            return PointVerdict(self.alpha, eps, False, 1, self.cond1_failure)
        for eid in self.cond2_edges:
            if not self.phase.lines[eid].contains(eps):
                return PointVerdict(
                    self.alpha, eps, False, 2,
                    f"edge {eid} crosses a ray with determinant 2 but {eps} is not on its phase line",
                )
        for eid in self.cond3_contained:
            if eid not in twisted:
                return PointVerdict(
                    self.alpha, eps, False, 3,
                    f"edge {eid} lies inside its sector but is not twisted",
                )
        for rec in self.cond3_overlaps:
            if self._relatively_twisted(rec, eps):
                return PointVerdict(
                    self.alpha, eps, False, 3,
                    f"edge {rec['eid']} is relatively twisted against the pencil line",
                )
        return PointVerdict(self.alpha, eps, True)

    def _relatively_twisted(self, rec, eps: Eps) -> bool:
        rv_dir, rv_cls = rec["rv"]
        third_dir, third_cls = rec["third"]
        n_rv = _LINE_NORMALS[rv_cls]
        n_third = _LINE_NORMALS[third_cls]
        c_rv = (eps[0] * n_rv[0] + eps[1] * n_rv[1]) & 1
        c_third = 1 ^ rec["level"] ^ c_rv

        def side_u0(phi: Eps) -> bool:
            # continuation of phi at u0 along the pencil line
            on_rv = ((phi[0] * n_rv[0] + phi[1] * n_rv[1]) & 1) == c_rv
            on_third = ((phi[0] * n_third[0] + phi[1] * n_third[1]) & 1) == c_third
            if on_rv == on_third:
                raise InvariantViolation("a phase element continues along exactly one pencil ray")
            return det2(rec["ref_dir"], rv_dir if on_rv else third_dir) > 0

        return sides_differ(rec["elements"], side_u0, rec["side_w"].__getitem__)


def pointwise_verdicts(
    curve: TropicalCurve, phase: RealPhaseStructure
) -> dict[tuple[IVec, Eps], PointVerdict]:
    """The pencil conditions at a generic point of every component copy.

    The oracle for ``hyperbolicity_locus``: the copies with a hyperbolic
    verdict form the signed locus by the pointwise route.
    """
    twisted = frozenset(twists_from_phase(curve, phase).edges)
    per_point: dict[tuple[IVec, Eps], PointVerdict] = {}
    for alpha in curve.dual.lattice_points:
        classes = sorted({region_class(curve, alpha, e)[1] for e in EPS4})
        ana = _ComponentAnalysis(curve, phase, alpha)
        for eps in classes:
            per_point[(alpha, eps)] = ana.verdict(eps, twisted)
    return per_point


def pointwise_signed_locus(
    curve: TropicalCurve, phase: RealPhaseStructure
) -> frozenset[tuple[IVec, Eps]]:
    """The copies where ``pointwise_verdicts`` finds the curve hyperbolic."""
    return frozenset(key for key, v in pointwise_verdicts(curve, phase).items() if v.hyperbolic)


def locus_from_report(curve: TropicalCurve, phase: RealPhaseStructure) -> HyperbolicityReport:
    """The oracle for ``hyperbolicity_locus``: the verdict and kernel
    dimension by the rank route (``is_hyperbolic``), the innermost oval
    and its interior taken from the whole component report
    (``count_components_direct``), with every other component's witness
    atom checked to lie outside that interior, and the stable limit by its
    definition: a honeycomb whose every bounded edge is twisted and whose
    every phase line lies at level 1.  The report is built on a fresh copy
    of the phase, so its real part is labelled anew, not read back from
    the face tree the phase keeps."""
    d = curve.require_degree()
    phase.validate_for(curve)
    twists = twists_from_phase(curve, phase)
    hyp, k = is_hyperbolic(curve, twists)
    atoms: set[tuple[IVec, Eps]] = set()
    if hyp and d == 1:
        atoms = {(a, e) for a in curve.dual.lattice_points for e in EPS4}
    elif hyp:
        report = count_components_direct(real_part(curve, RealPhaseStructure(phase.lines)))
        ovals = [c for c in report.components if c.kind == "oval"]
        if len(ovals) != d // 2:
            raise InvariantViolation("hyperbolic curve must have floor(d/2) ovals")
        depths = sorted(c.nesting_depth for c in ovals)
        if depths != list(range(1, len(ovals) + 1)):
            raise InvariantViolation("oval nesting must be a chain")
        innermost = max(ovals, key=lambda c: c.nesting_depth)
        for other in report.components:
            if other is innermost:
                continue
            eid, eps0 = min(other.edge_copies)
            witness = (curve.edges[eid].dual[0], eps0)
            if witness in innermost.interior_regions:
                raise InvariantViolation("innermost oval interior must not contain other components")
        atoms = set(innermost.interior_regions)
    # each atom's region_class, read off the curve's table
    signed = frozenset(map(_cells(curve).region_class.__getitem__, atoms)) if atoms else frozenset()
    return HyperbolicityReport(
        hyperbolic=hyp,
        kernel_dim=k,
        component_count=1 + k,
        stable=(
            curve.is_honeycomb()
            and twists.edges == frozenset(curve.bounded_edges)
            and all(line.level for line in phase.lines)
        ),
        locus=frozenset(a for a, _ in signed),
        signed_locus=signed,
    )


class _UnionFind:
    """Union-find over arbitrary hashable keys."""

    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        """Root of x, halving the path on the way."""
        parent = self.parent
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[rx] = ry


def region_find(rp: RealPart, cut: frozenset[tuple[int, Eps]]) -> _UnionFind:
    """Union-find of the quadrant region atoms, crossing every edge
    copy not in `cut` and gluing along the boundary strata."""
    curve = rp.curve
    uf = _UnionFind()
    for e in curve.edges:
        p, q = e.dual
        for eps in EPS4:
            if (e.index, eps) not in cut:
                uf.union((p, eps), (q, eps))
    for side in curve.dual.sides:
        for alpha in side.points:
            for eps in EPS4:
                uf.union((alpha, eps), (alpha, _xor(eps, side.glue)))
    return uf


def side_euler_characteristics(
    rp: RealPart, cut: frozenset[tuple[int, Eps]], uf: _UnionFind
) -> dict:
    """Euler characteristic of each side of the cut (a disjoint union
    of curve components), by counting open cells of the arrangement."""
    curve = rp.curve
    chi: dict = {}

    def bump(root, delta):
        chi[root] = chi.get(root, 0) + delta

    for alpha in curve.dual.lattice_points:
        for eps in EPS4:
            bump(uf.find((alpha, eps)), 1)
    on_cut_vertices = {
        (curve.edges[eid].tail, eps) for (eid, eps) in cut
    } | {
        (curve.edges[eid].head, eps) for (eid, eps) in cut if curve.edges[eid].bounded
    }
    for e in curve.edges:
        for eps in EPS4:
            if (e.index, eps) in cut:
                continue
            bump(uf.find((e.dual[0], eps)), -1)
    for side in curve.dual.sides:
        g = side.glue
        classes = sorted({min(eps, _xor(eps, g)) for eps in EPS4})
        # one interval of the stratum per lattice point of the side
        for alpha in side.points:
            for cls in classes:
                bump(uf.find((alpha, cls)), -1)
        rays = [e.index for e in curve.edges if not e.bounded and e.direction == side.normal]
        for eid in rays:
            for cls in classes:
                if (eid, cls) in cut or (eid, _xor(cls, g)) in cut:
                    continue  # boundary point lies on the cut curve
                bump(uf.find((curve.edges[eid].dual[0], cls)), 1)
    for v in range(len(curve.vertices)):
        for eps in EPS4:
            if (v, eps) in on_cut_vertices:
                continue
            bump(uf.find((curve.vertex_cell[v][0], eps)), 1)
    for corner in curve.dual.polygon:
        bump(uf.find((corner, (0, 0))), 1)
    return chi


def vertex_copy_components(rp: RealPart) -> list[frozenset[tuple[int, Eps]]]:
    """Connected components of the real part as sets of edge copies,
    ordered by their least copy: drawn copies of one symmetry meet at
    their shared vertices, and both copies of a ray at the one boundary
    point where they glue (its phase direction is its stratum's glue
    vector)."""
    edges = rp.curve.edges
    uf = _UnionFind()
    copies = sorted(rp.edge_copies)
    for eid, eps in copies:
        e = edges[eid]
        uf.union(("vertex", e.tail, eps), ("vertex", e.head, eps) if e.bounded else ("ray", eid))
    groups: dict = {}
    for eid, eps in copies:
        groups.setdefault(uf.find(("vertex", edges[eid].tail, eps)), []).append((eid, eps))
    return [frozenset(g) for g in groups.values()]


def cut_scan_components(rp: RealPart) -> ComponentReport:
    """Reference route of ``count_components_direct``: components by
    vertex-copy connectivity, then for each one a fresh union-find of the
    atoms cut along it and a fresh cell count, and nesting from witness
    atoms."""
    atoms = [(alpha, eps) for alpha in rp.curve.dual.lattice_points for eps in EPS4]
    infos = []
    for K in vertex_copy_components(rp):
        uf = region_find(rp, K)
        roots = sorted({uf.find(a) for a in atoms})
        if len(roots) == 1:
            infos.append((K, "pseudo-line", None))
            continue
        if len(roots) != 2:
            raise InvariantViolation("a closed curve cuts the projective plane into 1 or 2 sides")
        chi = side_euler_characteristics(rp, K, uf)
        chis = sorted(chi[r] for r in roots)
        if chis != [0, 1]:
            raise InvariantViolation(f"oval sides must be a disk and a Moebius side, got chi={chis}")
        disk_root = next(r for r in roots if chi[r] == 1)
        interior = frozenset(a for a in atoms if uf.find(a) == disk_root)
        infos.append((K, "oval", interior))
    return _nesting_report(rp.curve, infos)


def _nesting_report(
    curve: TropicalCurve, infos: list[tuple[frozenset[tuple[int, Eps]], str, frozenset | None]]
) -> ComponentReport:
    """The report for components given as (edge copies, kind, interior):
    nesting among ovals from a witness atom of K inside the disk side of K'."""
    n = len(infos)
    witness = []
    for copies, _, _ in infos:
        eid, eps = min(copies)
        witness.append((curve.edges[eid].dual[0], eps))
    inside = [[False] * n for _ in range(n)]
    for j, (_, kind, interior) in enumerate(infos):
        if kind != "oval":
            continue
        for i in range(n):
            if i != j and witness[i] in interior:
                inside[i][j] = True
    depths = []
    for i, (_, kind, _) in enumerate(infos):
        if kind == "pseudo-line":
            depths.append(0)
        else:
            depths.append(1 + sum(1 for j in range(n) if inside[i][j]))
    parents: list[int | None] = []
    for i in range(n):
        containers = [j for j in range(n) if inside[i][j]]
        if not containers:
            parents.append(None)
        else:
            parents.append(max(containers, key=lambda j: depths[j]))
    if sum(1 for _, kind, _ in infos if kind == "pseudo-line") > 1:
        raise InvariantViolation("the real part has more than one pseudo-line")
    return ComponentReport(
        count=n,
        components=tuple(
            CurveComponentInfo(copies, kind, depths[i], interior)
            for i, (copies, kind, interior) in enumerate(infos)
        ),
        nesting_parent=tuple(parents),
    )


def report_difference(got: ComponentReport, want: ComponentReport) -> str | None:
    """The first component where two reports differ, or None."""
    if got.count != want.count:
        return f"count {got.count} != {want.count}"
    for i, (a, b) in enumerate(zip(got.components, want.components)):
        for field in ("edge_copies", "kind", "nesting_depth", "interior_regions"):
            if getattr(a, field) != getattr(b, field):
                return f"component {i}: {field} differs"
        if got.nesting_parent[i] != want.nesting_parent[i]:
            return (
                f"component {i}: nesting_parent {got.nesting_parent[i]} != {want.nesting_parent[i]}"
            )
    return None


def check_component_counts(rng: random.Random, trials: int) -> str:
    """Twist-matrix count against the quadrant-model count."""
    for k in range(trials):
        d = rng.randrange(1, 6)
        curve = random_nonsingular_curve(rng, d)
        delta = random_sign_distribution(rng, curve)
        twists = twists_from_signs(curve, delta)
        if not is_admissible(curve, twists):
            raise Mismatch(f"trial {k}: inadmissible twist set from signs")
        via_matrix = count_components_matrix(curve, twists)
        phase = phase_from_signs(curve, delta)
        rp = real_part(curve, phase)
        report = count_components_direct(rp)
        if via_matrix != report.count:
            raise Mismatch(f"trial {k} (d={d}): matrix {via_matrix} != model {report.count}")
        diff = report_difference(report, cut_scan_components(rp))
        if diff is not None:
            raise Mismatch(f"trial {k} (d={d}): direct vs cut scan: {diff}")
        member = div_space(curve).contains(twists.vector)
        if member != is_dividing(curve, twists):
            raise Mismatch(f"trial {k}: dividing test disagrees")
        if twists_from_phase(curve, phase_from_twists(curve, twists)).edges != twists.edges:
            raise Mismatch(f"trial {k} (d={d}): twist round trip failed")
    return f"{trials} random curves"


def climbing_sign_walk(rng: random.Random, curve: TropicalCurve, steps: int):
    """Sign distributions along a seeded walk that flips one random sign
    per step and keeps the flip unless the twist-matrix count of real
    components drops.  Random signs alone rarely give M-curves; the climb
    reaches them.  Yields the first distribution and every kept one."""
    delta = random_sign_distribution(rng, curve)
    count = count_components_matrix(curve, twists_from_signs(curve, delta))
    yield delta
    points = curve.dual.lattice_points
    for _ in range(steps):
        p = rng.choice(points)
        trial = SignDistribution({**delta.signs, p: -delta.signs[p]})
        n = count_components_matrix(curve, twists_from_signs(curve, trial))
        if n >= count:
            delta, count = trial, n
            yield delta


def real_topology_violation(degree: int, report: ComponentReport, dividing: bool) -> str | None:
    """The first classical restriction on real plane curves of the degree
    that the real scheme breaks, or None.  With d = 2k or 2k+1,
    g = (d-1)(d-2)/2, l components, and p - n the even ovals (inside an
    even number of ovals, so of odd nesting depth) less the odd ones."""
    d, k = degree, degree // 2
    g = (d - 1) * (d - 2) // 2
    l = report.count
    ovals = [c for c in report.components if c.kind == "oval"]
    if l > g + 1:
        return f"Harnack: {l} components > g + 1 = {g + 1}"
    if l - len(ovals) != d % 2:
        return f"{l - len(ovals)} pseudo-lines in degree {d}"
    deepest = max((c.nesting_depth for c in ovals), default=0)
    if deepest > k:
        return f"Bezout: a nest of depth {deepest} > k = {k}"
    if deepest == k and len(ovals) > k:
        return f"Bezout: a nest of depth k = {k} beside {len(ovals) - k} more ovals"
    if dividing and (l - g - 1) % 2:
        return f"Klein: a dividing curve with {l} components, g + 1 = {g + 1}"
    if d % 2:
        return None
    even = sum(1 for c in ovals if c.nesting_depth % 2)
    chi = even - (len(ovals) - even)
    bound = 3 * k * (k - 1) // 2
    if not -bound <= chi <= bound + 1:
        return f"Petrovsky: p - n = {chi} outside [{-bound}, {bound + 1}]"
    if l == g + 1 and (chi - k * k) % 8:
        return f"Gudkov-Rokhlin: an M-curve with p - n = {chi}, k^2 = {k * k}"
    if l == g and (chi - k * k) % 8 not in (1, 7):
        return f"Gudkov-Krakhnov-Kharlamov: an (M-1)-curve with p - n = {chi}, k^2 = {k * k}"
    if dividing and (chi - k * k) % 4:
        return f"Arnold: a dividing curve with p - n = {chi}, k^2 = {k * k}"
    return None


def check_real_topology(rng: random.Random, trials: int) -> str:
    """Every real scheme met on climbing sign walks, over honeycombs and
    random concave lifts of degree 1 to 7, against the classical
    restrictions on real plane curves (``real_topology_violation``): the
    patchworked curve is a real algebraic curve of its degree."""
    schemes = m_curves = dividing_sets = 0
    for k in range(trials):
        d = rng.randrange(1, 8)
        curve = honeycomb(d) if k % 2 else random_nonsingular_curve(rng, d)
        g = (d - 1) * (d - 2) // 2
        for delta in climbing_sign_walk(rng, curve, 5 * len(curve.dual.lattice_points)):
            report = count_components_direct(real_part(curve, phase_from_signs(curve, delta)))
            dividing = is_dividing(curve, twists_from_signs(curve, delta))
            problem = real_topology_violation(d, report, dividing)
            if problem is not None:
                signs = sorted(p for p, s in delta.signs.items() if s < 0)
                raise Mismatch(f"trial {k} (d={d}): {problem}; minus signs at {signs}")
            schemes += 1
            m_curves += report.count == g + 1
            dividing_sets += dividing
    return f"{trials} sign walks, {schemes} real schemes, {m_curves} M-curves, {dividing_sets} dividing"


def check_twist_rules(rng: random.Random, trials: int) -> str:
    """The sign rule of one edge (``edge_twisted``) against the geometric
    sidedness rule on every bounded edge, under each valid level
    configuration of the lines at its ends, and the phase route of the
    twists (the sign rule on the phase's minus bits) against
    ``edge_twisted`` on every bounded edge of the phase, as built from
    signs and as rebuilt from its lines, on honeycombs and random lifts;
    then the relative twist of every segment overlap against the
    geometric rule across its two ends, on random intersection pairs
    (``random_overlap_configurations``).

    An edge's dual points p, q and its cells' third points r, s decide
    the levels of the five edges at its ends, and flipping the signs of
    q, r and s flips three independent sets of them, so the 8 flips of
    those signs against the drawn ones give the 8 level configurations
    that are valid at both ends."""
    configurations = 0
    for k in range(trials):
        curves = [honeycomb(rng.randrange(1, 6))]
        try:
            curves.append(curve_from_polynomial(random_lift(rng)))
        except (SingularSubdivision, DegeneratePolygon):
            pass
        for curve in curves:
            delta = random_sign_distribution(rng, curve)
            phase = phase_from_signs(curve, delta)
            # the phase from signs reads their minus bits; rebuilt from its
            # lines, it finds its own along the sign tree
            for read in (phase, RealPhaseStructure(phase.lines)):
                twisted = twists_from_phase(curve, read).edges
                differ = [eid for eid in curve.bounded_edges if (eid in twisted) != edge_twisted(curve, phase, eid)]
                if differ:
                    raise Mismatch(f"trial {k}: twists_from_phase and edge_twisted differ on edges {differ}")
            for eid in curve.bounded_edges:
                e = curve.edges[eid]
                q = e.dual[1]
                (r,), (s,) = (set(curve.vertex_cell[v]).difference(e.dual) for v in (e.tail, e.head))
                for flips in range(8):
                    flipped = [x for n, x in enumerate((q, r, s)) if flips >> n & 1]
                    config = phase_from_signs(
                        curve, SignDistribution({**delta.signs, **{x: -delta.signs[x] for x in flipped}})
                    )
                    if edge_twisted(curve, config, eid) != edge_twisted_geometric(curve, config, eid):
                        raise Mismatch(f"trial {k}: edge {eid} with the signs at {flipped} flipped")
                    configurations += 1
    overlaps = 0
    for k in range(trials):
        for comp, phase_a, phase_b in random_overlap_configurations(rng, 8):
            if is_relatively_twisted(comp, phase_a, phase_b) != relative_twist_geometric(comp, phase_a, phase_b):
                raise Mismatch(
                    f"trial {k}: overlap of edges {comp.edge_a} and {comp.edge_b} between {comp.end_vertices}"
                )
            overlaps += 1
    return (
        f"{trials} honeycombs and random lifts, {configurations} edge configurations,"
        f" {overlaps} overlap configurations"
    )


def _bridge_union(rng: random.Random) -> tuple[int, TropicalCurve, set[int]]:
    """A honeycomb of degree 2..5 and a random union of its bridges."""
    d = rng.randrange(2, 6)
    curve = honeycomb(d)
    edges: set[int] = set()
    for b in multi_bridges(curve):
        if rng.random() < 0.5:
            edges |= b.edges
    return d, curve, edges


def check_honeycomb_locus(rng: random.Random, trials: int) -> str:
    """Bridge criterion vs innermost oval (face and report routes) vs
    pencil sweep, on random dividing twist sets and then on the fully
    twisted honeycombs of degree 2..7.  Those are hyperbolic, so a route
    that answers "not hyperbolic" for one degree fails; they draw nothing
    from rng.  Last, the bridge pass's "dividing" against the cycle route
    (``is_dividing``) on random unions of bridges with one bounded edge
    flipped, and then on random admissible sets (sums of ``adm_space``'s
    basis) on honeycombs of degree 2 to 5, which reach ``NotDividing``:
    it accepts iff the cycle route finds the set dividing, and refuses as
    the cycle route does otherwise.  Each report's phase also answers a
    point query on every copy (``_check_point_queries``)."""
    draws = []
    for k in range(trials):
        d, curve, edges = _bridge_union(rng)
        draws.append((f"trial {k} (d={d})", curve, edges))
    for d in range(2, 8):
        curve = honeycomb(d)
        draws.append((f"fully twisted d={d}", curve, curve.bounded_edges))
    for label, curve, edges in draws:
        twists = TwistSet.from_edges(curve, edges)
        via_bridges = honeycomb_locus(curve, twists)
        phase = phase_from_twists(curve, twists)
        report = hyperbolicity_locus(curve, phase)
        if report != locus_from_report(curve, phase):
            raise Mismatch(f"{label}: face and report routes differ")
        if report.locus != via_bridges:
            raise Mismatch(f"{label}: bridges {sorted(via_bridges)} != oval {sorted(report.locus)}")
        if report.hyperbolic != bool(via_bridges):
            raise Mismatch(f"{label}: hyperbolic={report.hyperbolic} but locus={sorted(via_bridges)}")
        sweep = pointwise_signed_locus(curve, phase)
        if report.signed_locus != sweep:
            raise Mismatch(f"{label}: oval and sweep differ on {sorted(report.signed_locus ^ sweep)}")
        _check_point_queries(label, curve, phase, report)
    cases = []
    for k in range(trials):
        # flipping a one-edge bridge gives another union, so the cycle
        # route, not the draw, says which answer is right
        d, curve, edges = _bridge_union(rng)
        twists = TwistSet.from_edges(curve, edges ^ {rng.choice(curve.bounded_edges)})
        cases.append((f"flip trial {k} (d={d})", curve, twists))
    for k in range(trials):
        d = rng.randrange(2, 6)
        curve = honeycomb(d)
        bits = 0
        for v in adm_space(curve).basis:
            if rng.random() < 0.5:
                bits ^= v.bits
        twists = TwistSet.from_vector(curve, Gf2Vector(len(curve.bounded_edges), bits))
        cases.append((f"admissible trial {k} (d={d})", curve, twists))
    for label, curve, twists in cases:
        try:
            dividing = is_dividing(curve, twists)
            want = "accepted" if dividing else "NotDividing: the bridge criterion needs a dividing twist set"
        except NotAdmissible as exc:
            want = f"NotAdmissible: {exc}"
        try:
            honeycomb_locus(curve, twists)
            got = "accepted"
        except (NotAdmissible, NotDividing) as exc:
            got = f"{type(exc).__name__}: {exc}"
        if got != want:
            raise Mismatch(f"{label}: bridges {got}, cycles {want}")
    return f"{trials} random dividing twist sets and the fully twisted honeycombs of degree 2..7"


def check_locus_routes(rng: random.Random, trials: int) -> str:
    """Innermost-oval signed locus against the component-report route and
    the pencil sweep on random lifts, and every copy's point query against
    that signed locus (``_check_point_queries``)."""
    for k in range(trials):
        d = rng.randrange(2, 6)
        curve = random_nonsingular_curve(rng, d)
        phase = phase_from_signs(curve, random_sign_distribution(rng, curve))
        report = hyperbolicity_locus(curve, phase)
        if report != locus_from_report(curve, phase):
            raise Mismatch(f"trial {k} (d={d}): face and report routes differ")
        oval = report.signed_locus
        sweep = pointwise_signed_locus(curve, phase)
        if oval != sweep:
            raise Mismatch(f"trial {k} (d={d}): oval and sweep differ on {sorted(oval ^ sweep)}")
        _check_point_queries(f"trial {k} (d={d})", curve, phase, report)
    return f"{trials} random curves"


def _check_point_queries(label: str, curve: TropicalCurve, phase: RealPhaseStructure,
                         report: HyperbolicityReport) -> None:
    """The point route (``hyperbolic_wrt_point``, one atom of the face
    tree) against the locus route: every copy is hyperbolic iff its
    ``region_class`` lies in the report's signed locus."""
    for alpha in curve.dual.lattice_points:
        for eps in EPS4:
            got = hyperbolic_wrt_point(curve, phase, alpha, eps).hyperbolic
            if got != (region_class(curve, alpha, eps) in report.signed_locus):
                raise Mismatch(f"{label}: the point query at {alpha} eps={eps} says hyperbolic={got} against the signed locus")


def check_bezout(rng: random.Random, trials: int) -> str:
    """Sum of enumerated multiplicities against the degree product."""
    done = 0
    attempts = 0
    while done < trials and attempts < trials * 20:
        attempts += 1
        da = rng.randrange(1, 5)
        db = rng.randrange(1, 5)
        a = random_nonsingular_curve(rng, da)
        b = random_nonsingular_curve(rng, db)
        shift = (
            Fraction(rng.randrange(-400, 400), 101),
            Fraction(rng.randrange(-400, 400), 103),
        )
        b = b.translated(shift)
        try:
            total = bezout_total(a, b)
            comps = intersection_components(a, b)
        except UnsupportedConfiguration:
            continue
        if any(c.kind != "transverse" for c in comps):
            continue  # generic position only
        if total != da * db:
            raise Mismatch(f"(d={da},{db}): total {total} != {da * db}")
        delta_a = random_sign_distribution(rng, a)
        delta_b = random_sign_distribution(rng, b)
        pa, pb = phase_from_signs(a, delta_a), phase_from_signs(b, delta_b)
        for comp in comps:
            out = real_lift(comp, pa, pb)
            if out.variant.startswith("forced"):
                if (out.reals - comp.multiplicity) % 2 != 0:
                    raise Mismatch(f"(d={da},{db}): parity broken on mult-{comp.multiplicity} component")
        done += 1
    if done < trials:
        raise Mismatch(f"only {done}/{trials} generic pairs found")
    return f"{trials} generic pairs"


def check_intersection_routes(rng: random.Random, trials: int) -> str:
    """Integer edge-pair scan against the ``Fraction`` pair scan: the same
    hits in the same order, and so the same components or refusal.

    After the ``trials`` pairs of the four shift kinds come ``trials // 4``
    (at least 2) steep crossings (``random_steep_crossing_pair``).  The walk
    records a crossing with its own |det|, while the pair scan's hits reach
    ``transverse_multiplicity``, so only pairs with a crossing of
    multiplicity >= 2 tell a wrong multiplicity apart; the pairs of the
    four shift kinds rarely have one.
    """
    draws = [INTERSECTION_SHIFTS[k % len(INTERSECTION_SHIFTS)] for k in range(trials)]
    draws += ["steep"] * max(trials // 4, 2)
    multiple = 0
    for k, kind in enumerate(draws):
        if kind == "steep":
            a, b, shift = random_steep_crossing_pair(rng)
        else:
            a, b, shift = random_intersection_pair(rng, kind)
        moved = b.translated(shift)
        ints = intersection_outcome(edge_hits, a, moved)
        if ints != intersection_outcome(pair_scan_intersections, a, moved):
            names = [{p: str(c) for p, c in sorted(x.poly.coefficients.items())} for x in (a, b)]
            raise Mismatch(
                f"trial {k} ({kind}): outcomes differ on a={names[0]} b={names[1]}"
                f" shifted by ({shift[0]}, {shift[1]})"
            )
        comps = ints[1]
        if type(comps) is list and any(c.kind == TRANSVERSE and c.multiplicity >= 2 for c in comps):
            multiple += 1
    return (
        f"{trials} random pairs and {len(draws) - trials} steep crossings,"
        f" {multiple} pairs with a crossing of multiplicity >= 2"
    )


def check_construction(rng: random.Random, trials: int) -> str:
    """The cell-walk construction against the pair scan on mixed random lifts."""
    accepted = 0
    for k in range(trials):
        poly = random_lift(rng)
        walk = construction_outcome(curve_from_polynomial, poly)
        scan = construction_outcome(pair_scan_curve, poly)
        if walk != scan:
            coeffs = {p: str(a) for p, a in sorted(poly.coefficients.items())}
            raise Mismatch(f"trial {k}: outcomes differ on {coeffs}")
        accepted += isinstance(walk, tuple)
    return f"{trials} random lifts, {accepted} non-singular"


def _recession_direction(curve: TropicalCurve, alpha: IVec) -> IVec:
    """The primitive form of the sum of the hull sides through the
    boundary point alpha, each turned outward (a normal weighted by its
    side's lattice length), by a scan of the hull."""
    hull = list(curve.dual.polygon)
    n = len(hull)
    normals = []
    for i in range(n):
        a, b = hull[i], hull[(i + 1) % n]
        u = sub(b, a)
        if det2(u, sub(alpha, a)) == 0 and 0 <= dot2(u, sub(alpha, a)) <= dot2(u, u):
            nv = rot90(u)
            normals.append((-nv[0], -nv[1]))  # outward for a ccw hull
    if not normals:
        raise InvariantViolation(f"{alpha} is not on the hull boundary")
    sx = sum(v[0] for v in normals)
    sy = sum(v[1] for v in normals)
    return primitive((sx, sy))


def fraction_region_point(curve: TropicalCurve, alpha: IVec) -> Point | None:
    """Reference route of ``TropicalCurve.region_point``: the ``Fraction``
    centroid of the region's corner vertices, pushed along the recession
    direction by 1, 2, 4, ... while the region is unbounded, each point
    tested by ``TropicalPolynomial.argmax``.  None if no point is found."""
    corners = [curve.vertices[v] for v, cell in enumerate(curve.vertex_cell) if alpha in cell]
    n = len(corners)
    base = (sum((c[0] for c in corners), Fraction(0)) / n, sum((c[1] for c in corners), Fraction(0)) / n)
    inside = (alpha,)
    if point_strictly_in_hull(list(curve.dual.polygon), alpha):
        return base if curve.poly.argmax(base) == inside else None
    push = _recession_direction(curve, alpha)
    t = Fraction(1)
    for _ in range(80):
        cand = (base[0] + push[0] * t, base[1] + push[1] * t)
        if curve.poly.argmax(cand) == inside:
            return cand
        t *= 2
    return None


def _point_queries(rng: random.Random, curve: TropicalCurve) -> list[Point]:
    """The vertices (three-way ties), the midpoint of every bounded edge
    and a point on every ray (two-way ties), and as many random rationals
    near the vertices, with denominators coprime to the frame's den."""
    queries = list(curve.vertices)
    for e in curve.edges:
        queries.append(curve.edge_point(e.index, curve.edge_tmax(e.index) / 2 if e.bounded else Fraction(1, 2)))
    den = curve.frame.den
    xs = [floor(c) for v in curve.vertices for c in v]
    lo, hi = min(xs) - 2, max(xs) + 2
    for _ in curve.vertices:
        q = rng.choice((11, 13, 17, 19, 23, 29, 31))
        while gcd(q, den) > 1:
            q += 1
        queries.append((Fraction(rng.randint(lo * q, hi * q), q), Fraction(rng.randint(lo * q, hi * q), q)))
    return queries


def check_point_location(rng: random.Random, trials: int) -> str:
    """The curve's int argmax (``TropicalCurve.argmax``, which
    ``dominating`` reads) against ``TropicalPolynomial.argmax``
    at the points ``_point_queries`` draws, and ``region_point`` against
    ``fraction_region_point`` on every lattice point, on honeycombs, random
    lifts and chains of translated copies (frame den > 1)."""
    queries = regions = 0
    for k in range(trials):
        curves = [honeycomb(rng.randrange(1, 7))]
        try:
            curves.append(curve_from_polynomial(random_lift(rng)))
        except (SingularSubdivision, DegeneratePolygon):
            pass
        moved = rng.choice(curves)
        for _ in range(2):
            q, r = rng.choice((2, 3, 5, 7)), rng.choice((2, 3, 5, 7))
            moved = moved.translated((Fraction(rng.randrange(1, q) + q * rng.randint(-3, 3), q),
                                      Fraction(rng.randrange(1, r) + r * rng.randint(-3, 3), r)))
            curves.append(moved)
        for curve in curves:
            name = {p: str(a) for p, a in sorted(curve.poly.coefficients.items())}
            for p in _point_queries(rng, curve):
                if curve.argmax(p) != curve.poly.argmax(p):
                    raise Mismatch(
                        f"trial {k}: argmax {curve.argmax(p)} != {curve.poly.argmax(p)} at ({p[0]}, {p[1]})"
                        f" on {name}"
                    )
                queries += 1
            for alpha in curve.dual.lattice_points:
                got, want = curve.region_point(alpha), fraction_region_point(curve, alpha)
                if got != want:
                    raise Mismatch(f"trial {k}: region point of {alpha} is {got}, not {want}, on {name}")
                regions += 1
    return f"{trials} trials, {queries} argmax queries, {regions} region points"


def check_rank_nullity(rng: random.Random, trials: int) -> str:
    """The rank (one forward pass on lowest pivots) against the kernel (one
    reduction on highest pivots), and the kernel's basis against its own
    canonical form."""
    for _ in range(trials):
        rows = rng.randrange(1, 40)
        cols = rng.randrange(1, 40)
        m = Gf2Matrix(rows, cols, tuple(rng.getrandbits(cols) for _ in range(rows)))
        ker = kernel(m)
        if m.rank() + ker.dim != cols:
            raise Mismatch(f"{rows}x{cols} matrix")
        if Gf2Subspace.from_vectors(cols, ker.basis) != ker:
            raise Mismatch(f"{rows}x{cols} matrix: kernel basis not in canonical form")
        for v in ker.basis:
            if not m.mul_vector(v).is_zero:
                raise Mismatch("kernel vector not annihilated")
    return f"{trials} random matrices"


# name -> (check, seed offset, trial budget from the --trials value), in run order
CHECKS: dict[str, tuple[Callable[[random.Random, int], str], int, Callable[[int], int]]] = {
    "rank-nullity": (check_rank_nullity, 1, lambda t: max(t * 4, 50)),
    "construction": (check_construction, 4, lambda t: max(t * 8, 50)),
    "component-counts": (check_component_counts, 0, lambda t: t),
    "twist-rules": (check_twist_rules, 7, lambda t: t),
    "real-topology": (check_real_topology, 8, lambda t: t),
    "honeycomb-locus": (check_honeycomb_locus, 2, lambda t: max(t // 2, 5)),
    "locus-routes": (check_locus_routes, 5, lambda t: max(t // 2, 5)),
    "bezout": (check_bezout, 3, lambda t: max(t // 2, 5)),
    "intersection-routes": (check_intersection_routes, 6, lambda t: max(t // 2, 5)),
    "point-location": (check_point_location, 9, lambda t: max(t // 2, 5)),
}


def run_check(name: str, rng: random.Random, trials: int) -> CheckResult:
    """Run the check ``name`` of ``CHECKS`` on ``trials`` draws from ``rng``.
    It passes with the detail the check returns; a ``Mismatch`` fails it
    with its message, and any other exception fails it naming the
    exception."""
    check = CHECKS[name][0]
    try:
        return CheckResult(name, True, check(rng, trials))
    except Mismatch as exc:
        return CheckResult(name, False, str(exc))
    except Exception as exc:
        return CheckResult(name, False, f"{type(exc).__name__}: {exc}")


def run_all(seed: int = 0, trials: int = 25) -> list[CheckResult]:
    """Every check of ``CHECKS`` in order, each on its own seeded rng."""
    return [
        run_check(name, random.Random(seed + offset), budget(trials))
        for name, (_, offset, budget) in CHECKS.items()
    ]
