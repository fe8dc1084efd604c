"""Non-singular plane tropical curves and their dual subdivisions.

A curve is the corner locus of a max-plus polynomial.  Its dual
subdivision is the projection of the upper hull of the lifted support
{(p, a_p)}.  One int builder, ``_curve_from_heights(height, scale)``,
builds every curve from int heights a_p * scale: it walks that hull cell
by cell (gift wrapping across each edge), in Python ints; every accepted
cell is unimodular, so each vertex solves a determinant-1 system and is
exact in (1/scale)*Z^2.  ``curve_from_polynomial`` scales ``Fraction``
coefficients by the lcm of their denominators, and ``honeycomb`` hands
over its int heights with scale 1.  Singular inputs are rejected.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property, update_wrapper
from fractions import Fraction
from math import lcm
from typing import Mapping, NamedTuple

from .errors import DegeneratePolygon, DegreeUnset, InvariantViolation, SingularSubdivision
from .geometry import (
    IVec,
    Point,
    convex_hull,
    hull_lattice_points,
    on_frame,
    polygon_twice_area,
    primitive,
    rot90,
    side_lattice_points,
    sub,
)

# the primitive edge directions of a honeycomb, both orientations
_HONEYCOMB_DIRECTIONS = frozenset({(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)})


class TropicalPolynomial:
    """max_{(i,j)} (a_ij + i*x + j*y) with exact rational coefficients."""

    def __init__(self, coefficients: Mapping[IVec, Fraction | int]):
        if not coefficients:
            raise ValueError("empty support")
        self.coefficients: dict[IVec, Fraction] = {}
        for (i, j), a in coefficients.items():
            if i < 0 or j < 0:
                raise ValueError(f"support point {(i, j)} outside the positive quadrant")
            self.coefficients[(int(i), int(j))] = a if type(a) is Fraction else Fraction(a)
        self.support = frozenset(self.coefficients)

    def argmax(self, point: Point) -> tuple[IVec, ...]:
        x, y = point
        terms = [(a + i * x + j * y, (i, j)) for (i, j), a in self.coefficients.items()]
        best = max(t for t, _ in terms)
        return tuple(sorted(ij for t, ij in terms if t == best))


class Side(NamedTuple):
    """A side of the Newton polygon: the boundary stratum of the toric
    compactification that the rays leaving along ``normal`` meet."""

    normal: IVec              # primitive and outward
    glue: IVec                # normal mod 2: the quadrant copies glue across the stratum by it
    points: tuple[IVec, ...]  # lattice points, counterclockwise


@dataclass(frozen=True)
class DualSubdivision:
    polygon: tuple[IVec, ...]            # hull vertices, counterclockwise
    lattice_points: tuple[IVec, ...]
    cells: tuple[tuple[IVec, IVec, IVec], ...]

    @cached_property
    def sides(self) -> tuple[Side, ...]:
        """The polygon's sides, counterclockwise from ``polygon[0]``."""
        hull = self.polygon
        out = []
        for a, b in zip(hull, hull[1:] + hull[:1]):
            nx, ny = primitive((b[1] - a[1], a[0] - b[0]))  # outward for a ccw hull
            out.append(Side((nx, ny), (nx & 1, ny & 1), tuple(side_lattice_points(a, b))))
        return tuple(out)

    @cached_property
    def sides_at(self) -> dict[IVec, tuple[Side, ...]]:
        """Boundary lattice point -> the sides through it (two at a
        vertex of the polygon); interior points are absent."""
        at: dict[IVec, tuple[Side, ...]] = {}
        for side in self.sides:
            for p in side.points:
                at[p] = at.get(p, ()) + (side,)
        return at


@dataclass(frozen=True)
class Edge:
    index: int
    tail: int                # vertex index (anchor for rays)
    head: int | None         # None for rays
    direction: IVec          # primitive; tail->head for bounded, outward for rays
    dual: tuple[IVec, IVec]  # rot90(dual[1] - dual[0]) == direction
    bounded: bool


@dataclass(frozen=True)
class PrimitiveCycle:
    center: IVec
    edges: frozenset[int]


@dataclass(frozen=True)
class ComplementComponent:
    dual_point: IVec
    bounded: bool
    boundary_edges: frozenset[int]


@dataclass(frozen=True)
class IntFrame:
    """A curve on the integer frame 1/den: den is a multiple of every
    vertex-coordinate and coefficient denominator.  ``vertices`` are int
    pairs, ``edges`` are (x, y, dx, dy, T) per edge, its tail, primitive
    direction and int length T = den * tmax (None for a ray), and
    ``heights`` are the coefficients times den."""

    den: int
    vertices: tuple[IVec, ...]
    edges: tuple[tuple[int, int, int, int, int | None], ...]
    heights: dict[IVec, int]

    @cached_property
    def _terms(self) -> tuple[tuple[int, int, int], ...]:
        """(i, j, height) per support point, in (i, j) order."""
        return tuple((i, j, h) for (i, j), h in sorted(self.heights.items()))

    def argmax(self, den: int, x: int, y: int) -> tuple[IVec, ...]:
        """The support points whose terms are largest at the point
        (x/den, y/den), den a multiple of the frame's: h*(den // self.den)
        + i*x + j*y compared as ints.  In (i, j) order."""
        k = den // self.den
        terms = self._terms
        vals = [h * k + i * x + j * y for i, j, h in terms]
        best = max(vals)
        if vals.count(best) == 1:
            i, j, _ = terms[vals.index(best)]
            return ((i, j),)
        return tuple((i, j) for (i, j, _), v in zip(terms, vals) if v == best)

    def rescaled(self, k: int):
        """The vertices and edges over k * den."""
        return (self.vertices, self.edges) if k == 1 else self._moved(k, 0, 0)

    def translated(self, off: Point) -> "IntFrame":
        """The frame moved by ``off``, over lcm(den, offset denominators)."""
        den = lcm(self.den, off[0].denominator, off[1].denominator)
        k = den // self.den
        sx, sy = on_frame(off[0], off[1], den)
        heights = {(i, j): h * k - i * sx - j * sy for (i, j), h in self.heights.items()}
        return IntFrame(den, *self._moved(k, sx, sy), heights)

    def _moved(self, k: int, sx: int, sy: int):
        """The vertices and edges scaled by k, then shifted by (sx, sy)."""
        verts = tuple((x * k + sx, y * k + sy) for x, y in self.vertices)
        edges = tuple(
            (x * k + sx, y * k + sy, dx, dy, None if t is None else t * k) for x, y, dx, dy, t in self.edges
        )
        return verts, edges


def _frame_edges(edges, verts):
    out = []
    for e in edges:
        x, y = verts[e.tail]
        dx, dy = e.direction
        length = None
        if e.bounded:
            hx, hy = verts[e.head]
            # exact: the direction is primitive and head - tail is an int multiple of it
            length = (hx - x) // dx if dx else (hy - y) // dy
        out.append((x, y, dx, dy, length))
    return tuple(out)


class curve_table:
    """A table derived from a curve's combinatorics: ``build(curve)`` runs
    on the first read for the curve, and the table is kept in the curve's
    store ``curve._tables`` under the builder's name.  A translated copy
    shares its curve's store, so the table is built once for the curve and
    all its copies, by whichever of them reads it first.

    On a ``TropicalCurve`` method it reads as an attribute
    (``curve.region_exits``); on a module function or class it reads as a
    call (``_base(curve)``).  Builder names are unique across the package.
    """

    def __init__(self, build):
        update_wrapper(self, build, updated=())
        self.build = build

    def __call__(self, curve: "TropicalCurve"):
        tables = curve._tables
        try:
            return tables[self.__name__]
        except KeyError:
            table = tables[self.__name__] = self.build(curve)
            return table

    def __get__(self, curve, owner=None):
        return self if curve is None else self(curve)


class TropicalCurve:
    """Vertices, edges and dual subdivision of a non-singular curve.

    Instances are immutable in practice; comparison is by identity.  The
    integer frame (``frame``) is the only coordinates a curve stores: the
    ``Fraction`` coefficients (``poly``) and vertices (``vertices``) are
    read off it on first use, per copy.  Every table derived from the
    combinatorics (the region index and exits, the walk order, the
    primitive cycles, the dual-edge index, realstruct's rule tables) is a
    ``curve_table``, built once on first use into the store ``_tables``
    that translated copies share.
    """

    def __init__(self, edges, dual, degree, frame: IntFrame):
        self.edges: tuple[Edge, ...] = edges
        self.dual: DualSubdivision = dual
        self.degree: int | None = degree
        self.frame: IntFrame = frame
        incident: list[list[int]] = [[] for _ in dual.cells]
        for e in edges:
            incident[e.tail].append(e.index)
            if e.head is not None:
                incident[e.head].append(e.index)
        self.vertex_edges: tuple[tuple[int, ...], ...] = tuple(map(tuple, incident))
        self.bounded_edges: tuple[int, ...] = tuple(e.index for e in edges if e.bounded)
        self.bounded_index: dict[int, int] = {eid: k for k, eid in enumerate(self.bounded_edges)}
        # edge directions are primitive, so no canonical form is needed
        self._honeycomb = all(e.direction in _HONEYCOMB_DIRECTIONS for e in edges)
        # dual cell of each vertex, aligned by construction
        self.vertex_cell: tuple[tuple[IVec, IVec, IVec], ...] = dual.cells
        # the curve_table store; copy.copy shares it with translated copies
        self._tables: dict = {}

    # -- coordinates, per copy, and derived tables, each built on first use

    @cached_property
    def poly(self) -> TropicalPolynomial:
        den = self.frame.den
        return TropicalPolynomial({p: Fraction(h, den) for p, h in self.frame.heights.items()})

    @cached_property
    def vertices(self) -> tuple[Point, ...]:
        den = self.frame.den
        return tuple((Fraction(x, den), Fraction(y, den)) for x, y in self.frame.vertices)

    @curve_table
    def region_edges(self) -> dict[IVec, tuple[int, ...]]:
        """Lattice point -> ids of the edges whose dual contains it: the
        boundary of its complement component, in edge order."""
        index: dict[IVec, list[int]] = {alpha: [] for alpha in self.dual.lattice_points}
        for e in self.edges:
            index[e.dual[0]].append(e.index)
            index[e.dual[1]].append(e.index)
        return {alpha: tuple(eids) for alpha, eids in index.items()}

    @curve_table
    def region_exits(self) -> dict[IVec, tuple[tuple[int, int, int], ...]]:
        """Lattice point alpha -> (eid, bx, by) for each edge of
        ``region_edges[alpha]``, in its order, with (bx, by) = beta - alpha
        for beta the edge's other dual point.  A walk in direction g leaves
        the region only through edges with (bx, by) . g > 0."""
        exits = {}
        for alpha, eids in self.region_edges.items():
            ax, ay = alpha
            row = []
            for eid in eids:
                p, q = self.edges[eid].dual
                bx, by = q if p == alpha else p
                row.append((eid, bx - ax, by - ay))
            exits[alpha] = tuple(row)
        return exits

    @curve_table
    def walk_order(self) -> tuple[tuple[int, int, bool, int], ...]:
        """(eid, start, forward, placed) for every edge, in the order
        ``intersect.edge_hits`` walks them: depth first from vertex 0, by a
        stack of vertices, each vertex's edges in ``vertex_edges`` order.
        Edge eid is walked from vertex ``start``, which is its tail iff
        ``forward`` (a ray always leaves its tail).  A bounded edge whose
        far end no earlier entry placed places it (``placed``, else -1),
        so every entry starts at vertex 0 or at a vertex placed before it.
        The order depends on the combinatorics alone."""
        edges, vertex_edges = self.edges, self.vertex_edges
        order = []
        walked = [False] * len(edges)
        placed = [False] * len(vertex_edges)
        placed[0] = True
        stack = [0]
        while stack:
            v = stack.pop()
            for eid in vertex_edges[v]:
                if walked[eid]:
                    continue
                walked[eid] = True
                e = edges[eid]
                w = -1
                if e.bounded:
                    far = e.head if e.tail == v else e.tail
                    if not placed[far]:
                        placed[far] = True
                        stack.append(far)
                        w = far
                order.append((eid, v, e.tail == v, w))
        return tuple(order)

    @curve_table
    def _cycles(self) -> tuple[PrimitiveCycle, ...]:
        """The primitive cycles, checked once; ``primitive_cycles`` reads
        them.  The cycle around an interior lattice point is every edge of
        its region; ``_check_cycle`` raises if one of them is a ray."""
        boundary = self.dual.sides_at
        cycles = []
        for alpha, eids in self.region_edges.items():
            if alpha not in boundary:
                eids = frozenset(eids)
                _check_cycle(self, eids, alpha)
                cycles.append(PrimitiveCycle(alpha, eids))
        return tuple(cycles)

    @curve_table
    def _edge_by_dual(self) -> dict[frozenset[IVec], int]:
        """Dual edge {p, q} -> the id of its edge; ``edge_by_dual`` reads it."""
        return {frozenset(e.dual): e.index for e in self.edges}

    # -- basic queries -------------------------------------------------

    def edge_by_dual(self, p: IVec, q: IVec) -> int:
        return self._edge_by_dual[frozenset((p, q))]

    def edge_anchor(self, eid: int) -> Point:
        return self.vertices[self.edges[eid].tail]

    def edge_tmax(self, eid: int) -> Fraction | None:
        """Parameter of the head along the primitive direction (None for rays)."""
        e = self.edges[eid]
        if not e.bounded:
            return None
        a = self.vertices[e.tail]
        b = self.vertices[e.head]
        d = e.direction
        if d[0] != 0:
            return (b[0] - a[0]) / d[0]
        return (b[1] - a[1]) / d[1]

    def edge_point(self, eid: int, t: Fraction) -> Point:
        a = self.edge_anchor(eid)
        d = self.edges[eid].direction
        return (a[0] + d[0] * t, a[1] + d[1] * t)

    def frame_point(self, p: Point) -> tuple[int, int, int]:
        """(D, x, y): the point p is (x/D, y/D), D = lcm(frame.den, p's
        denominators)."""
        den = lcm(self.frame.den, p[0].denominator, p[1].denominator)
        return (den, *on_frame(p[0], p[1], den))

    def argmax(self, p: Point) -> tuple[IVec, ...]:
        """The support points whose terms are largest at p, by the frame's
        int argmax; ``poly.argmax`` is the ``Fraction`` route."""
        return self.frame.argmax(*self.frame_point(p))

    def dominating(self, p: Point) -> IVec | None:
        am = self.argmax(p)
        return am[0] if len(am) == 1 else None

    def is_honeycomb(self) -> bool:
        return self._honeycomb

    def require_degree(self) -> int:
        if self.degree is None:
            raise DegreeUnset("operation needs a curve of degree d (Newton polygon d*simplex)")
        return self.degree

    # -- region sampling -------------------------------------------------

    def region_point(self, alpha: IVec) -> Point:
        """A rational point strictly inside the complement component of alpha."""
        den, x, y = self.region_frame_point(alpha)
        return (Fraction(x, den), Fraction(y, den))

    def region_frame_point(self, alpha: IVec) -> tuple[int, int, int]:
        """``region_point`` as (D, x, y), the point (x/D, y/D): the centroid
        of the region's corner vertices, D = n * frame.den for n corners,
        pushed by 1, 2, 4, ... along the sides' outward normals at alpha
        while the region is unbounded."""
        if alpha not in self.dual.lattice_points:
            raise ValueError(f"{alpha} is not a lattice point of the Newton polygon")
        frame = self.frame
        corners = [frame.vertices[v] for v, cell in enumerate(self.vertex_cell) if alpha in cell]
        den = len(corners) * frame.den
        x = sum(c[0] for c in corners)
        y = sum(c[1] for c in corners)
        inside = (alpha,)
        sides = self.dual.sides_at.get(alpha)
        if sides is None:
            if frame.argmax(den, x, y) == inside:
                return den, x, y
            raise InvariantViolation("centroid of a bounded region is not interior")
        # the outward normals of the sides, each weighted by its lattice length
        px = sum(s.normal[0] * (len(s.points) - 1) for s in sides)
        py = sum(s.normal[1] * (len(s.points) - 1) for s in sides)
        px, py = primitive((px, py))
        t = den
        for _ in range(80):
            cx, cy = x + px * t, y + py * t
            if frame.argmax(den, cx, cy) == inside:
                return den, cx, cy
            t *= 2
        raise InvariantViolation(f"could not sample the unbounded region of {alpha}")

    def translated(self, offset: Point) -> "TropicalCurve":
        """The curve moved by ``offset``.  Only the frame moves, on ints,
        and nothing is built: the copy shares the combinatorial structure
        and the table store, and reads its own ``Fraction`` coefficients
        and vertices off the moved frame on first use (intersecting two
        curves needs only their frames)."""
        frame = self.frame.translated((Fraction(offset[0]), Fraction(offset[1])))
        moved = copy.copy(self)
        for name in ("poly", "vertices"):
            vars(moved).pop(name, None)
        moved.frame = frame
        return moved


# -- construction -------------------------------------------------------


def curve_from_polynomial(poly: TropicalPolynomial) -> TropicalCurve:
    """Corner locus plus dual subdivision; rejects singular inputs.  The
    coefficients are scaled to int heights by the lcm of their
    denominators, and ``_curve_from_heights`` builds the curve."""
    scale = lcm(*(a.denominator for a in poly.coefficients.values()))
    height = {p: a.numerator * (scale // a.denominator) for p, a in poly.coefficients.items()}
    return _curve_from_heights(height, scale)


def _curve_from_heights(height: dict[IVec, int], scale: int) -> TropicalCurve:
    """The curve of the coefficients height[p] / scale, built on ints."""
    hull = convex_hull(list(height))
    if len(hull) < 3:
        raise DegeneratePolygon("support hull is not 2-dimensional")
    lattice = hull_lattice_points(hull)
    missing = [pt for pt in lattice if pt not in height]
    if missing:
        raise SingularSubdivision(f"lattice points {missing} are not in the support")
    boundary = _boundary_segments(hull, height)
    left = _walk_cells(height, boundary, polygon_twice_area(hull))

    # vertex of each cell from its determinant-1 system, scaled by `scale`
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

    # a bounded edge runs from the cell right of p->q to the cell left of it
    # (p < q); a ray leaves its only cell in the direction rot90(a - b),
    # where the cell lies left of a->b.  Each record leads with its dual
    # edge as (min, max), unique per edge, so the records sort on it.
    records = []
    for (a, b), cell in left.items():
        if (b, a) not in left:
            key = (a, b) if a < b else (b, a)
            records.append((key, (b, a), vertex_index[cell], None, (b[1] - a[1], a[0] - b[0])))
        elif a < b:
            records.append(((a, b), (a, b), vertex_index[left[(b, a)]], vertex_index[cell],
                            (a[1] - b[1], b[0] - a[0])))
    records.sort()
    edges = tuple(
        Edge(idx, tail, head, direction, pair, head is not None)
        for idx, (_, pair, tail, head, direction) in enumerate(records)
    )

    degree = _simplex_degree(hull)
    dual_cells = tuple(tuple(sorted(cell)) for _, cell in placed)
    dual = DualSubdivision(tuple(hull), tuple(lattice), dual_cells)
    frame = IntFrame(scale, vertices, _frame_edges(edges, vertices), height)
    curve = TropicalCurve(edges, dual, degree, frame)
    _verify_curve(curve)
    return curve


def _boundary_segments(hull: list[IVec], height: dict[IVec, int]) -> set[tuple[IVec, IVec]]:
    """Unit segments of the polygon sides, counterclockwise.

    Strictly concave heights along each side make every unit segment an
    edge of the upper hull of the lifted support.
    """
    segments = set()
    for a, b in zip(hull, hull[1:] + hull[:1]):
        side = side_lattice_points(a, b)
        for s0, s1, s2 in zip(side, side[1:], side[2:]):
            if 2 * height[s1] <= height[s0] + height[s2]:
                raise SingularSubdivision(
                    f"heights along the side {a}-{b} are not strictly concave at {s1}"
                )
        segments.update(zip(side, side[1:]))
    return segments


def _walk_cells(
    height: dict[IVec, int], boundary: set[tuple[IVec, IVec]], area2: int
) -> dict[tuple[IVec, IVec], tuple[IVec, IVec, IVec]]:
    """Gift-wrap the upper hull of the lifted support, one cell per step.

    Starting from a boundary unit segment, each unvisited edge is crossed
    to the unique unimodular cell on its left.  Returns the cell
    (counterclockwise triple) lying left of each directed edge.

    Lifted points collinear with an interior edge need no check of their
    own: the first cell reached next to such an edge is entered across
    another of its edges, where two of those points tie.
    """
    lifted = sorted(height.items())
    left: dict[tuple[IVec, IVec], tuple[IVec, IVec, IVec]] = {}
    pending = [min(boundary)]
    while pending:
        p, q = pending.pop()
        if (p, q) in left:
            continue
        cell = (p, q, _cell_apex(lifted, height, p, q))
        for a, b in zip(cell, cell[1:] + cell[:1]):
            if (a, b) in left:
                raise SingularSubdivision(f"cells {left[(a, b)]} and {cell} overlap")
            left[(a, b)] = cell
            if (b, a) not in left and (a, b) not in boundary:
                pending.append((b, a))
    count = len(left) // 3
    if count != area2:
        raise SingularSubdivision(f"{count} unimodular cells for a polygon of twice-area {area2}")
    return left


def _cell_apex(lifted: list[tuple[IVec, int]], height: dict[IVec, int], p: IVec, q: IVec) -> IVec:
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
        raise SingularSubdivision(f"no cell left of the edge {p}-{q}")
    if tie:
        raise SingularSubdivision(f"the cell left of {p}-{q} has more than three points")
    if best_den != 1:
        raise SingularSubdivision(f"cell {(p, q, apex)} has Euclidean area > 1/2")
    return apex


def _simplex_degree(hull: list[IVec]) -> int | None:
    if len(hull) != 3 or (0, 0) not in hull:
        return None
    rest = sorted(set(hull) - {(0, 0)})
    if len(rest) != 2:
        return None
    d = rest[1][0]
    if d >= 1 and rest == [(0, d), (d, 0)]:
        return d
    return None


def _verify_curve(curve: TropicalCurve) -> None:
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


def honeycomb(d: int) -> TropicalCurve:
    """Canonical degree-d honeycomb from the concave quadratic lift."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    height = {(i, j): -(i * i + i * j + j * j) for i in range(d + 1) for j in range(d + 1 - i)}
    curve = _curve_from_heights(height, 1)
    if not curve.is_honeycomb():
        raise InvariantViolation("quadratic lift did not produce a honeycomb")
    return curve


def primitive_cycles(curve: TropicalCurve) -> list[PrimitiveCycle]:
    """One cycle per interior lattice point of the Newton polygon.

    The cycles are built and checked once per curve; each call returns a
    new list of them.
    """
    return list(curve._cycles)


def _check_cycle(curve: TropicalCurve, eids: frozenset[int], alpha: IVec) -> None:
    """The edges around alpha form one closed cycle of bounded edges.

    One pass over the edges checks that none is a ray and counts the
    cycle's edges at each vertex, keeping the XOR of their ids; with two
    at every vertex, one walk from any edge, leaving each vertex by the
    other edge there (the XOR less the edge it came in on), must meet
    every edge before it returns."""
    edges = curve.edges
    count: dict[int, int] = {}
    other: dict[int, int] = {}
    for eid in eids:
        e = edges[eid]
        if not e.bounded:
            raise InvariantViolation(f"cycle around {alpha} uses an unbounded edge")
        for v in (e.tail, e.head):
            count[v] = count.get(v, 0) + 1
            other[v] = other.get(v, 0) ^ eid
    if not count or any(c != 2 for c in count.values()):
        raise InvariantViolation(f"edges around {alpha} do not close up")
    start = eid = next(iter(eids))
    v, walked = edges[start].head, 1
    while True:
        eid = other[v] ^ eid
        if eid == start:
            break
        e = edges[eid]
        v = e.head if e.tail == v else e.tail
        walked += 1
    if walked != len(eids):
        raise InvariantViolation(f"cycle around {alpha} is disconnected")


def complement_components(curve: TropicalCurve) -> list[ComplementComponent]:
    """One component of the curve complement per lattice point of the polygon."""
    curve.require_degree()
    boundary = curve.dual.sides_at
    regions = curve.region_edges
    return [
        ComplementComponent(alpha, alpha not in boundary, frozenset(regions[alpha]))
        for alpha in curve.dual.lattice_points
    ]
