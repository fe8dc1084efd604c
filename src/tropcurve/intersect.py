"""Intersection components of two tropical curves and their real lifts.

Components of the set-theoretic intersection are enumerated by exact
pairwise edge intersection and classified into the four supported
kinds: transverse point, isolated vertex of one curve, a bounded edge
inside another edge, and a proper segment overlap.  Anything else
raises UnsupportedConfiguration rather than guessing: an unbounded
overlap (found by the scan), and, from classification, a point hit that
is a vertex of both curves, an overlap endpoint that is a vertex of
both, and overlaps chained through a shared endpoint.

Edges of a non-singular curve meet only at their end vertices, so
classification reads incidence off each hit's own edges: a hit point is
a vertex of a curve iff it ends one of that curve's edges through it.

The edge-pair scan (``edge_hits``) runs on one integer frame per call:
both curves' vertices become int pairs over D, the lcm of every
vertex-coordinate denominator, and each bounded edge gets the int length
D * tmax.  Pairs are solved and compared on ints; a ``Fraction`` point is
built only for a hit.  ``classify_hits`` turns the hits into components.
The ``Fraction`` pair scan ``selfcheck.pair_scan_intersections`` is the
oracle that must find the same hits in the same order.

Twists of lifted overlaps use the sidedness rule of ``realstruct``: the
production route for relative twists is ``relative_twist_geometric``.
``relative_twist_signs`` reads the same verdict off sign distributions
and is kept as the oracle that the tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import lcm

from .curve import TropicalCurve, integer_frame
from .errors import (
    ParallelDirections,
    PhasesDiffer,
    UnsupportedConfiguration,
    WrongKind,
)
from .geometry import Point, det2
from .realstruct import (
    RealPhaseStructure,
    _outward_direction,
    continuation_side,
    edge_twisted,
    sides_differ,
    signs_from_phase,
)

TWO_REAL = "two-real"
CONJ_PAIR = "conjugate-pair"
TANGENT_DOUBLE = "tangent-double-real"

TRANSVERSE = "transverse"
ISOLATED_VERTEX = "isolated-vertex"
EDGE_IN_EDGE = "edge-in-edge"
SEGMENT_OVERLAP = "segment-overlap"


@dataclass(frozen=True)
class IntersectionComponent:
    kind: str
    multiplicity: int
    curve_a: TropicalCurve = field(repr=False)
    curve_b: TropicalCurve = field(repr=False)
    point: Point | None = None
    segment: tuple[Point, Point] | None = None
    edge_a: int | None = None
    edge_b: int | None = None
    vertex_owner: str | None = None      # isolated vertex: "a" or "b"
    vertex_id: int | None = None
    inner: str | None = None             # edge-in-edge: whose edge is contained
    end_vertices: tuple[tuple[str, int], tuple[str, int]] | None = None

    def sort_key(self):
        if self.segment is not None:
            return self.segment
        return (self.point, self.point)


@dataclass(frozen=True)
class LiftOutcome:
    """How an intersection component lifts to points of actual curves."""

    variant: str  # "forced-real" | "forced-pairs" | "forced-mixed" | "indeterminate"
    reals: int = 0
    pairs: int = 0
    locations: tuple[Point, ...] | None = None  # None means unlocated
    possible: tuple[str, ...] = ()
    non_real_possible: bool = False
    note: str = ""


def transverse_multiplicity(e_dir, ep_dir) -> int:
    d = det2(e_dir, ep_dir)
    if d == 0:
        raise ParallelDirections(f"{e_dir} and {ep_dir} are parallel")
    return abs(d)


def intersection_components(curve_a: TropicalCurve, curve_b: TropicalCurve):
    """Classified connected components of the set-theoretic intersection."""
    return classify_hits(curve_a, curve_b, *edge_hits(curve_a, curve_b))


def edge_hits(curve_a: TropicalCurve, curve_b: TropicalCurve):
    """Every edge pair's intersection, as the ``points`` and ``segments``
    that ``classify_hits`` takes.

    Both curves go on one integer frame: coordinates over D, the lcm of
    every vertex-coordinate denominator.  Each edge pair is solved and
    compared on ints; only a hit becomes a ``Fraction`` point.
    """
    if curve_a is curve_b:
        raise UnsupportedConfiguration("the two curves must be distinct point sets")
    den = lcm(*(c.denominator for curve in (curve_a, curve_b) for v in curve.vertices for c in v))
    _, edges_a = integer_frame(curve_a, den)
    _, edges_b = integer_frame(curve_b, den)
    points: dict[Point, set] = {}
    segments: list[tuple[Point, Point, int, int]] = []
    for ea, (px, py, dax, day, ta) in enumerate(edges_a):
        for eb, (qx, qy, dbx, dby, tb) in enumerate(edges_b):
            wx, wy = qx - px, qy - py
            dd = dax * dby - day * dbx
            if dd:
                # p + t*da = q + s*db at t = tn/dd, s = sn/dd
                tn = wx * dby - wy * dbx
                sn = wx * day - wy * dax
                if dd < 0:
                    dd, tn, sn = -dd, -tn, -sn
                if tn < 0 or (ta is not None and tn > ta * dd):
                    continue
                if sn < 0 or (tb is not None and sn > tb * dd):
                    continue
                scale = den * dd
                pt = (Fraction(px * dd + dax * tn, scale), Fraction(py * dd + day * tn, scale))
                points.setdefault(pt, set()).add(("a", ea))
                points[pt].add(("b", eb))
                continue
            if wx * day - wy * dax:
                continue  # parallel supporting lines
            # collinear supporting lines: intersect the int parameter intervals
            t0 = wx // dax if dax else wy // day
            if (dbx, dby) == (dax, day):
                b_lo, b_hi = t0, (None if tb is None else t0 + tb)
            else:
                b_lo, b_hi = (None if tb is None else t0 - tb), t0
            lo = 0 if b_lo is None else max(0, b_lo)
            if ta is None and b_hi is None:
                raise UnsupportedConfiguration("curves share an unbounded ray")
            hi = b_hi if ta is None else (ta if b_hi is None else min(ta, b_hi))
            if lo > hi:
                continue
            p1 = (Fraction(px + dax * lo, den), Fraction(py + day * lo, den))
            if lo == hi:
                points.setdefault(p1, set()).add(("a", ea))
                points[p1].add(("b", eb))
                continue
            p2 = (Fraction(px + dax * hi, den), Fraction(py + day * hi, den))
            if p2 < p1:
                p1, p2 = p2, p1
            segments.append((p1, p2, ea, eb))
    return points, segments


def classify_hits(curve_a: TropicalCurve, curve_b: TropicalCurve, points, segments):
    """Components from an edge-pair scan's hits, sorted.

    ``points`` maps each hit point to the ("a"|"b", edge) pairs through it,
    in the order the scan (A's edges outer, B's inner) first met it;
    ``segments`` holds (p1, p2, edge_a, edge_b) overlaps with p1
    lexicographically first.

    Incidence is read off each hit's own edges.  Edges of a non-singular
    curve meet only at their end vertices, so a vertex on a hit edge is one
    of its ends, a point hit on an overlap is one of the overlap's
    endpoints, and two overlaps touch only at a shared endpoint.  Three
    configurations raise UnsupportedConfiguration: a point hit that is a
    vertex of both curves, an overlap endpoint that is a vertex of both,
    and two overlaps sharing an endpoint (a chain).
    """
    ends = {pt for p1, p2, _, _ in segments for pt in (p1, p2)}
    if len(ends) < 2 * len(segments):  # an endpoint shared by two overlaps
        raise UnsupportedConfiguration("overlap components chain through a shared vertex")

    components = []
    for p1, p2, ea, eb in segments:
        components.append(_classify_segment(curve_a, curve_b, p1, p2, ea, eb))
    for pt, gens in points.items():
        if pt not in ends:
            components.append(_classify_point(curve_a, curve_b, pt, gens))
    components.sort(key=lambda comp: comp.sort_key())
    return components


def _end_vertex(curve: TropicalCurve, eids, pt: Point) -> int | None:
    """The vertex at ``pt`` among the ends of the edges ``eids``, or None."""
    for eid in eids:
        e = curve.edges[eid]
        for v in (e.tail, e.head):
            if v is not None and curve.vertices[v] == pt:
                return v
    return None


def _vertex_multiplicity(curve: TropicalCurve, vid: int, line_dir) -> int:
    total = 0
    for eid in curve.vertex_edges[vid]:
        total += abs(det2(_outward_direction(curve, eid, vid), line_dir))
    assert total % 2 == 0, "balanced vertex gives an even determinant sum"
    return total // 2


def _classify_point(curve_a, curve_b, pt: Point, gens) -> IntersectionComponent:
    a_edges = sorted(eid for tag, eid in gens if tag == "a")
    b_edges = sorted(eid for tag, eid in gens if tag == "b")
    va = _end_vertex(curve_a, a_edges, pt)
    vb = _end_vertex(curve_b, b_edges, pt)
    if va is not None and vb is not None:
        raise UnsupportedConfiguration(f"{pt} is a vertex of both curves")
    if va is None and vb is None:
        assert len(a_edges) == 1 and len(b_edges) == 1
        mult = transverse_multiplicity(
            curve_a.edges[a_edges[0]].direction, curve_b.edges[b_edges[0]].direction
        )
        return IntersectionComponent(
            TRANSVERSE, mult, curve_a, curve_b, point=pt, edge_a=a_edges[0], edge_b=b_edges[0]
        )
    # pt is interior to the one edge of the other curve through it
    if va is not None:
        (host,) = b_edges
        mult = _vertex_multiplicity(curve_a, va, curve_b.edges[host].direction)
        return IntersectionComponent(
            ISOLATED_VERTEX, mult, curve_a, curve_b,
            point=pt, edge_b=host, vertex_owner="a", vertex_id=va,
        )
    (host,) = a_edges
    mult = _vertex_multiplicity(curve_b, vb, curve_a.edges[host].direction)
    return IntersectionComponent(
        ISOLATED_VERTEX, mult, curve_a, curve_b,
        point=pt, edge_a=host, vertex_owner="b", vertex_id=vb,
    )


def _classify_segment(curve_a, curve_b, p1: Point, p2: Point, ea: int, eb: int) -> IntersectionComponent:
    # each end of the overlap ends edge ea or edge eb, so it is a vertex of A, of B, or of both
    ends = []
    for pt in (p1, p2):
        va, vb = _end_vertex(curve_a, (ea,), pt), _end_vertex(curve_b, (eb,), pt)
        if va is not None and vb is not None:
            raise UnsupportedConfiguration("overlap endpoint is a vertex of both curves")
        ends.append(("a", va) if va is not None else ("b", vb))
    seg = (p1, p2)
    if ends[0][0] == ends[1][0]:
        # the whole bounded edge of one curve, inside the interior of the other's edge
        return IntersectionComponent(
            EDGE_IN_EDGE, 2, curve_a, curve_b, segment=seg, edge_a=ea, edge_b=eb, inner=ends[0][0],
        )
    return IntersectionComponent(
        SEGMENT_OVERLAP, 2, curve_a, curve_b, segment=seg,
        edge_a=ea, edge_b=eb, end_vertices=(ends[0], ends[1]),
    )


# -- real lifts ----------------------------------------------------------


def relative_twist_geometric(
    comp: IntersectionComponent, phase_a: RealPhaseStructure, phase_b: RealPhaseStructure
) -> bool:
    """Sidedness rule across the overlap: a shared phase element whose
    continuations at the two overlap endpoints leave on distinct sides of
    the supporting line."""
    ref_dir = comp.curve_a.edges[comp.edge_a].direction
    hosts = {"a": (comp.curve_a, phase_a, comp.edge_a), "b": (comp.curve_b, phase_b, comp.edge_b)}
    end0, end1 = (
        partial(continuation_side, *hosts[tag], vid, ref_dir) for tag, vid in comp.end_vertices
    )
    return sides_differ(phase_a.lines[comp.edge_a].elements, end0, end1)


def relative_twist_signs(
    comp: IntersectionComponent, phase_a: RealPhaseStructure, phase_b: RealPhaseStructure
) -> bool:
    """Relative twist from sign distributions after aligning the two dual
    edges by a translation.  Reference route for the tests; production
    uses relative_twist_geometric."""
    delta_a = signs_from_phase(comp.curve_a, phase_a)
    delta_b = signs_from_phase(comp.curve_b, phase_b)
    ea = comp.curve_a.edges[comp.edge_a]
    eb = comp.curve_b.edges[comp.edge_b]
    pa, qa = ea.dual
    pb, qb = eb.dual
    if eb.direction != ea.direction:
        assert eb.direction == (-ea.direction[0], -ea.direction[1])
        pb, qb = qb, pb
    shift = (pa[0] - pb[0], pa[1] - pb[1])
    assert (qa[0] - qb[0], qa[1] - qb[1]) == shift
    # third vertex of the dual cell of each overlap-end vertex
    v3 = {}
    for tag, vid in comp.end_vertices:
        curve = comp.curve_a if tag == "a" else comp.curve_b
        cell = curve.vertex_cell[vid]
        dual_pair = (pa, qa) if tag == "a" else (comp.curve_b.edges[comp.edge_b].dual)
        (third,) = [v for v in cell if v not in dual_pair]
        v3[tag] = third
    sa, sb = delta_a.signs, delta_b.signs
    assert sa[pa] * sa[qa] * sb[pb] * sb[qb] == 1, "equal phases force the premise product"
    v3a = v3["a"]
    v3b = v3["b"]
    v3b_shifted = (v3b[0] + shift[0], v3b[1] + shift[1])
    if (v3a[0] - v3b_shifted[0]) % 2 == 0 and (v3a[1] - v3b_shifted[1]) % 2 == 0:
        r1 = sa[v3a] * sa[pa] * sb[v3b] * sb[pb] == -1
        r2 = sa[v3a] * sa[qa] * sb[v3b] * sb[qb] == -1
        assert r1 == r2
        return r1
    r1 = sa[pa] * sa[v3a] * sb[qb] * sb[v3b] == 1
    r2 = sa[qa] * sa[v3a] * sb[pb] * sb[v3b] == 1
    assert r1 == r2
    return r1


def is_relatively_twisted(
    comp: IntersectionComponent, phase_a: RealPhaseStructure, phase_b: RealPhaseStructure
) -> bool:
    if comp.kind != SEGMENT_OVERLAP:
        raise WrongKind("relative twist is defined for segment overlaps")
    if phase_a.lines[comp.edge_a] != phase_b.lines[comp.edge_b]:
        raise PhasesDiffer("relative twist needs equal phase lines on the overlap")
    return relative_twist_geometric(comp, phase_a, phase_b)


def tangency_possible(
    comp: IntersectionComponent, phase_a: RealPhaseStructure, phase_b: RealPhaseStructure
) -> bool:
    """Necessary condition for a double real lift on the component."""
    if comp.kind == EDGE_IN_EDGE:
        if phase_a.lines[comp.edge_a] != phase_b.lines[comp.edge_b]:
            return False
        if comp.inner == "a":
            return not edge_twisted(comp.curve_a, phase_a, comp.edge_a)
        return not edge_twisted(comp.curve_b, phase_b, comp.edge_b)
    if comp.kind == SEGMENT_OVERLAP:
        if phase_a.lines[comp.edge_a] != phase_b.lines[comp.edge_b]:
            return False
        return is_relatively_twisted(comp, phase_a, phase_b)
    raise WrongKind("tangency is only meaningful for overlap components")


def _forced(mult: int, reals: int, pairs: int, locations=None) -> LiftOutcome:
    assert reals + 2 * pairs == mult, "lift counts must add up to the multiplicity"
    if reals and pairs:
        return LiftOutcome("forced-mixed", reals, pairs, locations)
    if reals:
        return LiftOutcome("forced-real", reals, 0, locations)
    return LiftOutcome("forced-pairs", 0, pairs, locations)


_INDET_NOTE = (
    "two-real and conjugate-pair are realised by infinitely many curves; "
    "tangent-double-real by exactly two pairs of realisations"
)


def real_lift(
    comp: IntersectionComponent, phase_a: RealPhaseStructure, phase_b: RealPhaseStructure
) -> LiftOutcome:
    """Forced or indeterminate real structure of the lifted intersection."""
    if comp.kind == TRANSVERSE:
        m = comp.multiplicity
        if m % 2 == 1:
            return _forced(m, 1, (m - 1) // 2)
        # even multiplicity forces equal direction classes, so the lines compare
        assert phase_a.lines[comp.edge_a].direction == phase_b.lines[comp.edge_b].direction
        if phase_a.lines[comp.edge_a] == phase_b.lines[comp.edge_b]:
            return _forced(m, 2, (m - 2) // 2)
        return _forced(m, 0, m // 2)
    if comp.kind == EDGE_IN_EDGE:
        inner_curve = comp.curve_a if comp.inner == "a" else comp.curve_b
        inner_phase = phase_a if comp.inner == "a" else phase_b
        inner_edge = comp.edge_a if comp.inner == "a" else comp.edge_b
        if phase_a.lines[comp.edge_a] != phase_b.lines[comp.edge_b]:
            return _forced(2, 2, 0, locations=comp.segment)
        if edge_twisted(inner_curve, inner_phase, inner_edge):
            return _forced(2, 2, 0)
        return LiftOutcome(
            "indeterminate", possible=(TWO_REAL, CONJ_PAIR, TANGENT_DOUBLE), note=_INDET_NOTE
        )
    if comp.kind == SEGMENT_OVERLAP:
        if phase_a.lines[comp.edge_a] != phase_b.lines[comp.edge_b]:
            return _forced(2, 2, 0, locations=comp.segment)
        if is_relatively_twisted(comp, phase_a, phase_b):
            return LiftOutcome(
                "indeterminate", possible=(TWO_REAL, CONJ_PAIR, TANGENT_DOUBLE), note=_INDET_NOTE
            )
        return _forced(2, 2, 0)
    assert comp.kind == ISOLATED_VERTEX
    return LiftOutcome(
        "indeterminate", non_real_possible=True,
        note="a nearby line can meet the lifted curve in non-real points",
    )


def bezout_total(curve_a: TropicalCurve, curve_b: TropicalCurve) -> int:
    """Sum of multiplicities; equals deg*deg when all components are compact."""
    curve_a.require_degree()
    curve_b.require_degree()
    return sum(comp.multiplicity for comp in intersection_components(curve_a, curve_b))
