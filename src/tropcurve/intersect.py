"""Intersection components of two tropical curves and their real lifts.

Components of the set-theoretic intersection are found by walking one
curve's edges through the other's complement regions (``edge_hits``)
and classified into the four supported kinds: transverse point, isolated
vertex of one curve, a bounded edge inside another edge, and a proper
segment overlap.  Anything else raises UnsupportedConfiguration rather
than guessing: an unbounded overlap (found by the walk), and, from
classification, a point hit that is a vertex of both curves, an overlap
endpoint that is a vertex of both, and overlaps chained through a shared
endpoint.

Edges of a non-singular curve meet only at their end vertices, so
classification reads incidence off each hit's own edges: a hit point is
a vertex of a curve iff it ends one of that curve's edges through it.

``edge_hits`` finds the hits by walking A's edges through B's complement
regions, on the curves' own integer frames rescaled to the pair's frame
1/D, D = lcm of the two dens.  One vertex of A is located in B by B's
int argmax (``IntFrame.argmax``).  Each edge of A is walked from a
vertex whose place in B is known, and the walk hands the place of its
far end to the other vertex.  The order of the walks depends on A alone,
so it is compiled once per curve (``TropicalCurve.walk_order``) and one
call runs every walk in one loop.  A ray of A that starts in an open
region of B with no exit facing its direction meets nothing and is not
walked.  An edge is solved as an int pair only
against the B edges through the points where it meets B and, in each
region it crosses, the boundary edges that face its direction g: the edge
from alpha to beta when (beta - alpha) . g > 0 (``region_exits``).  A
region is convex, so the walk meets any other boundary line only at or
behind where it stands, and there only on the edge or vertex it entered
through, whose edges are already solved.  The work follows the crossings,
not |E_A| * |E_B|.  Hits are keyed by ints on the pair's frame;
``classify_hits`` compares ints and builds ``Fraction`` points for the
components only.  The ``Fraction`` pair scan
``selfcheck.pair_scan_intersections`` is the oracle that must find the
same hits in the same order.

A component is an ``IntersectionComponent``, a ``typing.NamedTuple``:
its fields are read by name, and a component is also a tuple of its
fields in declaration order.  Equality and hashing are field-wise,
with the two curves compared by identity; the repr leaves the curves out.
One record is built per component, and a ``NamedTuple`` builds in about a
third of the time of a frozen dataclass, whose ``__init__`` sets each
field through ``object.__setattr__``.

Most hits are crossings strictly inside one edge of each curve, which the
walk's int solve proves (0 < t < T_a and 0 < s < T_b).  Such a point is no
vertex of either curve, and no other edge pair meets there, so the walk
records it as a crossing (edge_a, edge_b, |det|) and ``classify_hits``
builds its transverse component directly; the pair scan's hits are marked
the same way before classification.  Hits at an edge end, collinear hits
and overlaps go through the incidence reading above.  A forced real
lift without locations is one shared frozen ``LiftOutcome`` per
(reals, pairs), whose counts add up to the multiplicity by construction.

Twists of lifted overlaps use the sign rule of ``realstruct``, which
reads the minus bits of signs inducing each phase: ``edge_twisted`` for
an edge inside another, and ``is_relatively_twisted`` for a segment
overlap, which applies the same two-end rule (``realstruct._sign_twist``)
across the overlap's two ends, one on each curve.  Its oracle is
``selfcheck.relative_twist_geometric`` (the continuations at each end).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from operator import itemgetter
from typing import NamedTuple

from .curve import TropicalCurve
from .errors import (
    InvariantViolation,
    ParallelDirections,
    PhasesDiffer,
    UnsupportedConfiguration,
    WrongKind,
)
from .geometry import Point, _fraction, det2
from .realstruct import RealPhaseStructure, _sign_twist, edge_twisted

TWO_REAL = "two-real"
CONJ_PAIR = "conjugate-pair"
TANGENT_DOUBLE = "tangent-double-real"

TRANSVERSE = "transverse"
ISOLATED_VERTEX = "isolated-vertex"
EDGE_IN_EDGE = "edge-in-edge"
SEGMENT_OVERLAP = "segment-overlap"


class IntersectionComponent(NamedTuple):
    """One classified component of A ∩ B.

    Equality and hashing are field-wise; the curves compare by identity.
    """

    kind: str
    multiplicity: int
    curve_a: TropicalCurve
    curve_b: TropicalCurve
    point: Point | None = None
    segment: tuple[Point, Point] | None = None
    edge_a: int | None = None
    edge_b: int | None = None
    vertex_owner: str | None = None      # isolated vertex: "a" or "b"
    vertex_id: int | None = None
    inner: str | None = None             # edge-in-edge: whose edge is contained
    end_vertices: tuple[tuple[str, int], tuple[str, int]] | None = None

    def __repr__(self) -> str:
        # the curves are left out: their default repr names a memory address
        return (
            f"IntersectionComponent(kind={self.kind!r}, multiplicity={self.multiplicity!r}, "
            f"point={self.point!r}, segment={self.segment!r}, edge_a={self.edge_a!r}, "
            f"edge_b={self.edge_b!r}, vertex_owner={self.vertex_owner!r}, "
            f"vertex_id={self.vertex_id!r}, inner={self.inner!r}, end_vertices={self.end_vertices!r})"
        )


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
    return classify_hits(curve_a, curve_b, edge_hits(curve_a, curve_b))


class FrameHits(NamedTuple):
    """The edge pairs of two curves that meet, on the pair's frame 1/den.

    A point is keyed (x, y, m), the point (x/(den*m), y/(den*m)) with the
    least m >= 1, so equal points have equal keys.  ``points`` maps each
    hit point, in the order of its lex-first (edge_a, edge_b) pair, to one
    of two values:

    - a crossing (edge_a, edge_b, mult) when the point lies strictly inside
      one edge of each curve.  It is no vertex of either curve, no other
      edge pair meets there, and mult = |det| of the two primitive
      directions;
    - otherwise the set of ("a"|"b", edge) pairs through it: a hit at an
      end of an edge, or a collinear pair touching in one point.

    ``segments`` holds (p1, p2, edge_a, edge_b) overlaps in pair order,
    with p1 lexicographically first.  ``solved`` counts the edge pairs
    solved: a walk solves only the region edges its direction faces.
    """

    den: int
    points: dict[tuple[int, int, int], tuple[int, int, int] | set]
    segments: list
    solved: int


# where a walk stands on curve B: in the open region of a lattice point,
# inside an edge, or at a vertex
_REGION, _EDGE, _VERTEX = 0, 1, 2


def edge_hits(curve_a: TropicalCurve, curve_b: TropicalCurve) -> FrameHits:
    """Every edge pair's intersection, found by walking A's edges through
    B's complement regions (see the module docstring).  Each pair the walk
    meets is solved on ints exactly as the pair scan solves it.

    The walks run in one loop over ``curve_a.walk_order``.  ``solve`` reads
    the edge being walked (its tail p, direction da and int length ta, on
    the pair's frame) from this scope, solves it against one B edge and
    keeps the result in ``results``, a fresh dict per edge of A, so each B
    edge met is solved once per walk.  A walk stands at a point of B (an
    edge or a vertex of B), in an open region, or on an overlap, and the
    place where it ends is handed to the vertex its edge places.
    """
    if curve_a is curve_b:
        raise UnsupportedConfiguration("the two curves must be distinct point sets")
    frame_a, frame_b = curve_a.frame, curve_b.frame
    den = lcm(frame_a.den, frame_b.den)
    ka = den // frame_a.den  # A's edges are rescaled as they are walked
    _, edges_b = frame_b.rescaled(den // frame_b.den)
    a_edges = frame_a.edges
    b_edges = curve_b.edges
    exits = curve_b.region_exits
    b_vertex_edges = curve_b.vertex_edges
    b_cells = curve_b.vertex_cell
    found: list = []  # (edge_a, edge_b, point key or (key, key), crossing multiplicity or 0)
    place: list = [None] * len(frame_a.vertices)
    x0, y0 = frame_a.vertices[0]
    place[0] = _locate(curve_b, den, (x0 * ka, y0 * ka))
    solved = 0

    def solve(eb):
        if eb in results:
            return results[eb]
        qx, qy, dbx, dby, tb = edges_b[eb]
        res = None
        wx, wy = qx - px, qy - py
        dd = dax * dby - day * dbx
        if dd:
            # p + t*da = q + s*db at t = tn/dd, s = sn/dd
            tn = wx * dby - wy * dbx
            sn = wx * day - wy * dax
            if dd < 0:
                dd, tn, sn = -dd, -tn, -sn
            if 0 <= tn and (ta is None or tn <= ta * dd) and 0 <= sn and (tb is None or sn <= tb * dd):
                res = (tn, dd, sn)
                x, y = px * dd + dax * tn, py * dd + day * tn
                if dd == 1:
                    key = (x, y, 1)
                else:
                    g = gcd(x, y, dd)
                    key = (x // g, y // g, dd // g)
                # strictly inside both edges: a crossing of multiplicity dd
                inside = 0 < tn and (ta is None or tn < ta * dd) and 0 < sn and (tb is None or sn < tb * dd)
                found.append((ea, eb, key, dd if inside else 0))
        elif not wx * day - wy * dax:
            # collinear supporting lines: intersect the int parameter intervals
            t0 = wx // dax if dax else wy // day
            same = (dbx, dby) == (dax, day)
            if same:
                b_lo, b_hi = t0, (None if tb is None else t0 + tb)
            else:
                b_lo, b_hi = (None if tb is None else t0 - tb), t0
            lo = 0 if b_lo is None else max(0, b_lo)
            if ta is None and b_hi is None:
                raise UnsupportedConfiguration("curves share an unbounded ray")
            hi = b_hi if ta is None else (ta if b_hi is None else min(ta, b_hi))
            if lo <= hi:
                res = (lo, hi, b_lo, b_hi, same)
                p1 = (px + dax * lo, py + day * lo, 1)
                if lo == hi:
                    found.append((ea, eb, p1, 0))
                else:
                    p2 = (px + dax * hi, py + day * hi, 1)
                    found.append((ea, eb, (p1, p2) if p1 < p2 else (p2, p1), 0))
        results[eb] = res
        return res

    for ea, v, forward, w in curve_a.walk_order:
        kind, at = place[v]
        px, py, dax, day, ta = a_edges[ea]
        gx, gy = (dax, day) if forward else (-dax, -day)
        if ta is None and kind == _REGION:
            for _, bx, by in exits[at]:
                if bx * gx + by * gy > 0:
                    break
            else:
                continue  # a ray that faces no exit of its region meets nothing
        px, py = px * ka, py * ka
        if ta is not None:
            ta *= ka
        results = {}
        # walk ea from its tail (forward) or its head, starting at place[v];
        # u, the distance walked, is u_n/u_d in units of the primitive
        # direction over den
        u_n, u_d = 0, 1
        while True:
            if kind == _REGION:
                # the region is convex: a hit further along than u is its exit,
                # on an edge whose other dual point beta has (beta - alpha) . g > 0
                for eb, bx, by in exits[at]:
                    if bx * gx + by * gy <= 0:
                        continue
                    res = solve(eb)
                    if res is None or len(res) != 3:
                        continue
                    tn, dd, sn = res
                    n = tn if forward else ta * dd - tn
                    if n * u_d > u_n * dd:
                        break
                else:
                    break  # the far end lies in this region
                u_n, u_d = n, dd
                e = b_edges[eb]
                tb = edges_b[eb][4]
                if sn == 0:
                    kind, at = _VERTEX, e.tail
                elif tb is not None and sn == tb * dd:
                    kind, at = _VERTEX, e.head
                elif ta is not None and n == ta * dd:
                    kind, at = _EDGE, eb
                    break
                else:
                    # through the interior of eb, into the region across it
                    p, q = e.dual
                    at = q if p == at else p
                continue
            # at a point of B: solve every B edge through it, then pick the
            # side the walk leaves on by the lex-max slope along the walk
            if kind == _VERTEX:
                for eb in b_vertex_edges[at]:
                    solve(eb)
                if ta is not None and u_n == ta * u_d:
                    break
                cell = b_cells[at]
                slopes = [c[0] * gx + c[1] * gy for c in cell]
                top = max(slopes)
                lead = [c for c, s in zip(cell, slopes) if s == top]
                if len(lead) == 1:
                    kind, at = _REGION, lead[0]
                    continue
                along = [eb for eb in b_vertex_edges[at] if set(b_edges[eb].dual) == set(lead)]
                if len(along) != 1:
                    raise InvariantViolation(f"{len(along)} edges of B at vertex {at} run along edge {ea} of A")
                g = along[0]
            else:
                solve(at)
                if ta is not None and u_n == ta * u_d:
                    break
                p, q = b_edges[at].dual
                sp, sq = p[0] * gx + p[1] * gy, q[0] * gx + q[1] * gy
                if sp != sq:
                    kind, at = _REGION, (p if sp > sq else q)
                    continue
                g = at
            # along an overlap with g to its far end: a vertex of g, or the end of ea
            res = results[g]
            if res is None or len(res) != 5:
                raise InvariantViolation(f"edge {ea} of A runs along edge {g} of B but does not overlap it")
            lo, hi, b_lo, b_hi, same = res
            e = b_edges[g]
            if forward:
                u_n, u_d = hi, 1
                if hi != b_hi:
                    kind, at = _EDGE, g
                    break
                kind, at = _VERTEX, (e.head if same else e.tail)
            else:
                u_n, u_d = ta - lo, 1
                if lo != b_lo:
                    kind, at = _EDGE, g
                    break
                kind, at = _VERTEX, (e.tail if same else e.head)
        solved += len(results)
        if w >= 0:
            place[w] = (kind, at)
    found.sort(key=itemgetter(0, 1))
    points: dict[tuple[int, int, int], tuple | set] = {}
    segments = []
    for ea, eb, hit, mult in found:
        if mult:
            points[hit] = (ea, eb, mult)
        elif len(hit) == 3:
            points.setdefault(hit, set()).update((("a", ea), ("b", eb)))
        else:
            segments.append((hit[0], hit[1], ea, eb))
    return FrameHits(den, points, segments, solved)


def _locate(curve: TropicalCurve, den: int, xy) -> tuple:
    """The walk place of the point xy/den, by the curve's int argmax."""
    top = curve.frame.argmax(den, *xy)
    if len(top) == 1:
        return _REGION, top[0]
    if len(top) == 2:
        return _EDGE, curve.edge_by_dual(*top)
    return _VERTEX, curve.vertex_cell.index(top)


def classify_hits(curve_a: TropicalCurve, curve_b: TropicalCurve, hits: FrameHits):
    """Components from an edge scan's hits (see ``FrameHits``), sorted.

    A crossing is a transverse component as it stands.  Every other point
    hit is a vertex of at least one curve, and its incidence is read off
    the hit's own edges.  Edges of a non-singular curve meet only at their
    end vertices, so a vertex on a hit edge is one of its ends, a point hit
    on an overlap is one of the overlap's endpoints, and two overlaps touch
    only at a shared endpoint.  Three configurations raise
    UnsupportedConfiguration: a point hit that is a vertex of both curves,
    an overlap endpoint that is a vertex of both, and two overlaps sharing
    an endpoint (a chain).  Everything is compared on the pair's frame;
    ``Fraction`` points are built for the components only.
    """
    den, points, segments, _ = hits
    ends = {pt for p1, p2, _, _ in segments for pt in (p1, p2)}
    if len(ends) < 2 * len(segments):  # an endpoint shared by two overlaps
        raise UnsupportedConfiguration("overlap components chain through a shared vertex")

    pair = (curve_a, den // curve_a.frame.den, curve_b, den // curve_b.frame.den)
    # sort on one common frame, den * common
    common = lcm(*(key[2] for key in points))
    keyed = []
    for p1, p2, ea, eb in segments:
        keyed.append((_lex(p1, common) + _lex(p2, common), _classify_segment(pair, den, p1, p2, ea, eb)))
    for key, gens in points.items():
        if type(gens) is tuple:
            ea, eb, mult = gens
            comp = IntersectionComponent(TRANSVERSE, mult, curve_a, curve_b, _point(den, key), None, ea, eb)
        elif key in ends:
            continue
        else:
            comp = _classify_point(pair, den, key, gens)
        lex = _lex(key, common)
        keyed.append((lex + lex, comp))
    keyed.sort(key=itemgetter(0))
    return [comp for _, comp in keyed]


def _lex(key, common: int):
    x, y, m = key
    f = common // m
    return x * f, y * f


def _point(den: int, key) -> Point:
    """The point of a key, as ``Fraction(x, den*m), Fraction(y, den*m)``."""
    x, y, m = key
    d = den * m
    return _fraction(x, d), _fraction(y, d)


def _end_vertex(curve: TropicalCurve, k: int, eids, key) -> int | None:
    """The vertex at ``key`` among the ends of the edges ``eids``, or None;
    k rescales the curve's frame to the pair's."""
    x, y, m = key
    if m != 1:
        return None
    verts = curve.frame.vertices
    for eid in eids:
        e = curve.edges[eid]
        for v in (e.tail, e.head):
            if v is not None and verts[v][0] * k == x and verts[v][1] * k == y:
                return v
    return None


def _vertex_multiplicity(curve: TropicalCurve, vid: int, line_dir) -> int:
    """Half the determinant sum of the vertex's edges with line_dir: by
    balancing the outward directions sum to zero, so the sum is even.  The
    sum takes absolute values, so it reads each edge's direction as it
    stands."""
    total = 0
    for eid in curve.vertex_edges[vid]:
        total += abs(det2(curve.edges[eid].direction, line_dir))
    return total // 2


def _classify_point(pair, den: int, key, gens) -> IntersectionComponent:
    curve_a, ka, curve_b, kb = pair
    a_edges = [eid for tag, eid in gens if tag == "a"]
    b_edges = [eid for tag, eid in gens if tag == "b"]
    va = _end_vertex(curve_a, ka, a_edges, key)
    vb = _end_vertex(curve_b, kb, b_edges, key)
    pt = _point(den, key)
    written = f"({pt[0]},{pt[1]})"  # as the CLI writes a point: (21/2,53/8)
    if va is not None and vb is not None:
        raise UnsupportedConfiguration(f"{written} is a vertex of both curves")
    if va is None and vb is None:
        if len(a_edges) != 1 or len(b_edges) != 1:
            raise InvariantViolation(f"{written} is a vertex of neither curve but lies on several edges of one")
        raise InvariantViolation(f"{written} lies inside one edge of each curve but is not marked as a crossing")
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


def _classify_segment(pair, den: int, p1, p2, ea: int, eb: int) -> IntersectionComponent:
    curve_a, ka, curve_b, kb = pair
    # each end of the overlap ends edge ea or edge eb, so it is a vertex of A, of B, or of both
    ends = []
    for key in (p1, p2):
        va, vb = _end_vertex(curve_a, ka, (ea,), key), _end_vertex(curve_b, kb, (eb,), key)
        if va is not None and vb is not None:
            raise UnsupportedConfiguration("overlap endpoint is a vertex of both curves")
        ends.append(("a", va) if va is not None else ("b", vb))
    seg = (_point(den, p1), _point(den, p2))
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


def is_relatively_twisted(
    comp: IntersectionComponent, phase_a: RealPhaseStructure, phase_b: RealPhaseStructure
) -> bool:
    """The sign rule across the overlap's two ends, one on each curve
    (``realstruct._sign_twist``)."""
    if comp.kind != SEGMENT_OVERLAP:
        raise WrongKind("relative twist is defined for segment overlaps")
    if phase_a.lines[comp.edge_a] != phase_b.lines[comp.edge_b]:
        raise PhasesDiffer("relative twist needs equal phase lines on the overlap")
    hosts = {"a": (comp.curve_a, phase_a, comp.edge_a), "b": (comp.curve_b, phase_b, comp.edge_b)}
    return _sign_twist(*((*hosts[tag], vid) for tag, vid in comp.end_vertices))


def tangency_possible(
    comp: IntersectionComponent, phase_a: RealPhaseStructure, phase_b: RealPhaseStructure
) -> bool:
    """Necessary condition for a double real lift on the component: the
    lift ``real_lift`` decides leaves a tangency possible."""
    if comp.kind not in (EDGE_IN_EDGE, SEGMENT_OVERLAP):
        raise WrongKind("tangency is only meaningful for overlap components")
    return TANGENT_DOUBLE in real_lift(comp, phase_a, phase_b).possible


@cache
def _forced_outcome(reals: int, pairs: int) -> LiftOutcome:
    """The unlocated forced lift of ``reals`` real points and ``pairs``
    conjugate pairs; frozen, so shared by every caller."""
    if reals and pairs:
        return LiftOutcome("forced-mixed", reals, pairs)
    if reals:
        return LiftOutcome("forced-real", reals)
    return LiftOutcome("forced-pairs", 0, pairs)


# the lift of an overlap that its phases leave open; frozen, so shared
_INDETERMINATE = LiftOutcome(
    "indeterminate",
    possible=(TWO_REAL, CONJ_PAIR, TANGENT_DOUBLE),
    note="two-real and conjugate-pair are realised by infinitely many curves; "
    "tangent-double-real by exactly two pairs of realisations",
)


def real_lift(
    comp: IntersectionComponent, phase_a: RealPhaseStructure, phase_b: RealPhaseStructure
) -> LiftOutcome:
    """Forced or indeterminate real structure of the lifted intersection."""
    if comp.kind == TRANSVERSE:
        m = comp.multiplicity
        if m % 2 == 1:
            return _forced_outcome(1, (m - 1) // 2)
        # even multiplicity forces equal direction classes, so the lines compare
        if phase_a.lines[comp.edge_a].direction != phase_b.lines[comp.edge_b].direction:
            raise InvariantViolation("an even crossing joins edges of one direction class")
        if phase_a.lines[comp.edge_a] == phase_b.lines[comp.edge_b]:
            return _forced_outcome(2, (m - 2) // 2)
        return _forced_outcome(0, m // 2)
    if comp.kind in (EDGE_IN_EDGE, SEGMENT_OVERLAP):
        if phase_a.lines[comp.edge_a] != phase_b.lines[comp.edge_b]:
            return LiftOutcome("forced-real", 2, 0, comp.segment)
        if comp.kind == SEGMENT_OVERLAP:
            undecided = is_relatively_twisted(comp, phase_a, phase_b)
        elif comp.inner == "a":
            undecided = not edge_twisted(comp.curve_a, phase_a, comp.edge_a)
        else:
            undecided = not edge_twisted(comp.curve_b, phase_b, comp.edge_b)
        return _INDETERMINATE if undecided else _forced_outcome(2, 0)
    if comp.kind != ISOLATED_VERTEX:
        raise InvariantViolation(f"unknown component kind {comp.kind!r}")
    return LiftOutcome(
        "indeterminate", non_real_possible=True,
        note="a nearby line can meet the lifted curve in non-real points",
    )


def bezout_total(curve_a: TropicalCurve, curve_b: TropicalCurve) -> int:
    """Sum of multiplicities; equals deg*deg when all components are compact."""
    curve_a.require_degree()
    curve_b.require_degree()
    return sum(comp.multiplicity for comp in intersection_components(curve_a, curve_b))
