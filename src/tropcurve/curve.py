"""Non-singular plane tropical curves and their dual subdivisions.

A curve is the corner locus of a max-plus polynomial.  Its dual
subdivision is the projection of the upper hull of the lifted support
{(p, a_p)}.  One int builder, ``_curve_from_heights(height, scale)``,
builds every curve from int heights a_p * scale: it walks that hull cell
by cell across each edge, in Python ints; every accepted cell is
unimodular, so each vertex solves a determinant-1 system and is exact in
(1/scale)*Z^2.  ``curve_from_polynomial`` scales ``Fraction``
coefficients by the lcm of their denominators, and ``honeycomb`` hands
over its int heights with scale 1, with the hull and lattice points it
knows.

The walk (``_line_walk``) looks for each new cell's apex on one lattice
line, the points at lattice distance 1 beyond the edge it crosses, so a
cell costs O(1) on a honeycomb and O(side length) at worst.  It never
looks off that line, so its cells are certified instead: the lift must be
strictly concave across every interior edge and along every side, and
the cells must number twice the polygon's area.  On valid heights every
test holds, so a failed test proves the heights singular: the walk
refuses them itself, with a ``SingularSubdivision`` that names the edge
and the lattice points at fault.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property, update_wrapper
from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import Mapping, NamedTuple

from .errors import DegeneratePolygon, DegreeUnset, InvariantViolation, SingularSubdivision
from .geometry import (
    IVec,
    Point,
    _fraction,
    convex_hull,
    hull_lattice_points,
    on_frame,
    polygon_twice_area,
    primitive,
    side_lattice_points,
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


class _Record:
    """A slotted record, immutable in practice, with a frozen dataclass's
    equality, hash and repr over the attributes named in ``_fields``:
    equal only to a record of the same class with equal fields, hashed as
    the tuple of the fields.  They read each field as an attribute, so a
    field that a subclass builds on first read gets built."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class Edge(_Record):
    """An edge of the curve: a record (``_Record``) of its slots."""

    __slots__ = _fields = ("index", "tail", "head", "direction", "dual", "bounded")

    def __init__(self, index: int, tail: int, head: int | None, direction: IVec,
                 dual: tuple[IVec, IVec], bounded: bool):
        self.index = index
        self.tail = tail            # vertex index (anchor for rays)
        self.head = head            # None for rays
        self.direction = direction  # primitive; tail->head for bounded, outward for rays
        self.dual = dual            # rot90(dual[1] - dual[0]) == direction
        self.bounded = bounded


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
        return TropicalPolynomial({p: _fraction(h, den) for p, h in self.frame.heights.items()})

    @cached_property
    def vertices(self) -> tuple[Point, ...]:
        den = self.frame.den
        return tuple((_fraction(x, den), _fraction(y, den)) for x, y in self.frame.vertices)

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
        ``intersect.edge_hits`` walks them and ``realstruct._sign_solver``
        signs the cells: depth first from vertex 0, by a
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
        """The primitive cycles, built once; ``primitive_cycles`` reads
        them.  The cycle around an interior lattice point is every edge of
        its region: in a unimodular triangulation an interior point's link
        is closed, so those edges are bounded and close into one cycle."""
        boundary = self.dual.sides_at
        return tuple(
            PrimitiveCycle(alpha, frozenset(eids))
            for alpha, eids in self.region_edges.items()
            if alpha not in boundary
        )

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
        sides = self.dual.sides_at.get(alpha)
        if sides is None:
            # a bounded region is a convex polygon with at least three
            # corners, so their centroid lies strictly inside it
            return den, x, y
        inside = (alpha,)
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


def _curve_from_heights(height: dict[IVec, int], scale: int, hull: list[IVec] | None = None) -> TropicalCurve:
    """The curve of the coefficients height[p] / scale, built on ints:
    ``_line_walk`` finds the cells, or refuses the heights.  A caller that
    knows the support's counterclockwise hull passes it, and then the
    support must be every lattice point of the hull, in sorted order."""
    if hull is None:
        hull = convex_hull(list(height))
        if len(hull) < 3:
            raise DegeneratePolygon("support hull is not 2-dimensional")
        lattice = hull_lattice_points(hull)
        missing = [pt for pt in lattice if pt not in height]
        if missing:
            raise SingularSubdivision(f"lattice points {missing} are not in the support")
    else:
        lattice = list(height)
    boundary = _boundary_segments(hull, height)
    area2 = polygon_twice_area(hull)
    cells, placed, records = _line_walk(height, boundary, area2, hull)

    # vertices in (x, y) order; rank[k] is the vertex of the walk's cell k
    order = sorted(range(len(cells)), key=placed.__getitem__)
    rank = [0] * len(order)
    for v, k in enumerate(order):
        rank[k] = v
    vertices = tuple(placed[k] for k in order)
    records.sort(key=itemgetter(0))
    edges = tuple(
        Edge(idx, rank[tail], None if head is None else rank[head], direction, pair, head is not None)
        for idx, (_, pair, tail, head, direction) in enumerate(records)
    )

    degree = _simplex_degree(hull)
    dual_cells = tuple(tuple(sorted(cells[k])) for k in order)
    dual = DualSubdivision(tuple(hull), tuple(lattice), dual_cells)
    frame = IntFrame(scale, vertices, _frame_edges(edges, vertices), height)
    return TropicalCurve(edges, dual, degree, frame)


def _line_walk(height: dict[IVec, int], boundary: set[tuple[IVec, IVec]], area2: int, hull: list[IVec]):
    """The cells of the upper hull of the lifted support, each found on one
    lattice line and certified by local concavity.

    The walk crosses the edges depth first from the least boundary
    segment.  The cell left of p->q, entered out of the known cell
    (q, p, c), is unimodular, so its apex lies on the line
    r_k = 2p - c + k(q - p), where det(q-p, r-p) = 1.  On valid heights
    every lifted lattice point is a vertex of the upper hull, so
    g(k) = h(r_k) - k(h(q) - h(p)) is strictly concave on that line with
    its unique maximum at the apex, and ``_climb`` reaches it from the
    flip partner r_1 = p + q - c.  The first cell, left of the least
    boundary segment, is climbed for on the same kind of line.

    No point off the line is looked at, so the cells are certified
    instead.  The lift must be strictly concave across every interior
    edge: g(k) < 2h(p) - h(c) at a crossing, and the same test at each edge
    a new cell closes against an existing one.  There must be area2 cells.
    With the sides' strict concavity (``_boundary_segments``), a lift that
    is locally strictly concave on a convex polygon is globally so
    (De Loera-Rambau-Santos, *Triangulations*, 2010), so the cells are
    the upper hull's.

    On valid heights every test holds, so each failure proves the heights
    singular and raises ``SingularSubdivision``: a concavity test at a
    crossed or a closed edge, a tie in the climb, a line that misses the
    polygon, two cells left of one edge, or a wrong count of cells.

    Returns, per cell in walk order, its points (counterclockwise, from
    the edge it is entered by) and its vertex times the heights' scale,
    and the records (dual key, dual pair, tail, head, direction) of the
    edges, tail and head as walk indexes, head None for a ray.
    """
    # the polygon as half-planes nx*x + ny*y <= c, one per side
    planes = [(b[1] - a[1], a[0] - b[0], (b[1] - a[1]) * a[0] + (a[0] - b[0]) * a[1])
              for a, b in zip(hull, hull[1:] + hull[:1])]
    left: dict[tuple[IVec, IVec], int] = {}
    cells: list[tuple[IVec, IVec, IVec]] = []
    placed: list[IVec] = []
    records = []
    # (p, q, c, k): cross p->q out of cell k, whose third point is c
    pending = [(*min(boundary), None, -1)]
    while pending:
        p, q, c, old = pending.pop()
        if (p, q) in left:
            continue
        (px, py), (qx, qy) = p, q
        hp = height[p]
        ux, uy = qx - px, qy - py
        rise = height[q] - hp
        if c is None:
            wx, wy = _unit_normal(ux, uy)
            x, y, hr = _climb(height, planes, p, q, px + wx, py + wy, 0)
        else:
            cx, cy = c
            x, y, hr = _climb(height, planes, p, q, 2 * px - cx, 2 * py - cy, 1)
        r = (x, y)
        if c is not None:
            _require_concave(height, p, q, c, r, "crossed")
        new = len(cells)
        cells.append((p, q, r))
        wx, wy = x - px, y - py
        b2 = hp - hr
        placed.append((-wy * rise - uy * b2, ux * b2 + wx * rise))
        left[(p, q)] = new
        if c is None:
            records.append(_record(q, p, new, None))
        else:
            records.append(_record(p, q, new, old))
        for a, b, o in ((q, r, p), (r, p, q)):
            if (a, b) in left:
                raise SingularSubdivision(f"cells {cells[left[(a, b)]]} and {cells[new]} overlap")
            left[(a, b)] = new
            twin = left.get((b, a))
            if twin is not None:
                # the cell on the other side runs b, a, t
                cell = cells[twin]
                _require_concave(height, a, b, cell[cell.index(b) - 1], o, "closed")
                records.append(_record(a, b, new, twin))
            elif (a, b) in boundary:
                records.append(_record(b, a, new, None))
            else:
                pending.append((b, a, o, new))
    if len(cells) != area2:
        raise SingularSubdivision(f"{len(cells)} unimodular cells for a polygon of twice-area {area2}")
    return cells, placed, records


def _require_concave(height: dict[IVec, int], a: IVec, b: IVec, c: IVec, x: IVec, kind: str) -> None:
    """Refuse the heights unless the lift is strictly concave across the
    ``kind`` (crossed or closed) edge a-b of the unimodular cells (b, a, c)
    and (a, b, x): the lifted x lies strictly below the plane through the
    lifted a, b and c.  With x = 2a - c + s(b - a), s = det(c - a, x - a),
    that plane is 2h(a) - h(c) + s(h(b) - h(a)) at x."""
    (ax, ay), (cx, cy), (xx, xy) = a, c, x
    ha = height[a]
    s = (cx - ax) * (xy - ay) - (cy - ay) * (xx - ax)
    if height[x] >= 2 * ha - height[c] + s * (height[b] - ha):
        raise SingularSubdivision(f"the lift is not strictly concave across the {kind} edge {a}-{b}: "
                                  f"the lifted {x} is not below the plane of the cell {(b, a, c)}")


def _climb(height: dict[IVec, int], planes, p: IVec, q: IVec, x0: int, y0: int, k: int):
    """Climb g(k) = h(r_k) - k*rise along r_k = (x0, y0) + k(q - p) from k to
    a strict local maximum, rise = h(q) - h(p): (x, y, h) there, r_k =
    (x, y).  A start outside the polygon moves to the nearest k inside it.
    Raises ``SingularSubdivision`` at a tie, where the lifted p, q and two
    points of the line lie on one plane, or when the line misses the
    polygon."""
    (px, py), (qx, qy) = p, q
    ux, uy, rise = qx - px, qy - py, height[q] - height[p]
    x, y = x0 + k * ux, y0 + k * uy
    h = height.get((x, y))
    if h is None:
        lo = hi = None
        for nx, ny, c in planes:
            # nx*(x0 + k*ux) + ny*(y0 + k*uy) <= c, as a*k <= b
            a, b = nx * ux + ny * uy, c - nx * x0 - ny * y0
            if a > 0:
                hi = b // a if hi is None else min(hi, b // a)
            elif a < 0:
                lo = -(b // -a) if lo is None else max(lo, -(b // -a))
            elif b < 0:
                lo = None  # parallel to this side and beyond it
                break
        if lo is None or hi is None or lo > hi:
            raise SingularSubdivision(f"the lattice line beyond the edge {p}-{q} misses the polygon")
        k = min(max(k, lo), hi)
        x, y = x0 + k * ux, y0 + k * uy
        h = height[(x, y)]
    nh = height.get((x + ux, y + uy))
    if nh is None or nh - rise < h:
        ux, uy, rise = -ux, -uy, -rise
        nh = height.get((x + ux, y + uy))
    while nh is not None and nh - rise >= h:
        if nh - rise == h:
            raise SingularSubdivision(f"the lifted {p}, {q}, {(x, y)} and {(x + ux, y + uy)} lie on one plane")
        x, y, h = x + ux, y + uy, nh
        nh = height.get((x + ux, y + uy))
    return x, y, h


def _unit_normal(ux: int, uy: int) -> IVec:
    """(wx, wy) with ux*wy - uy*wx = 1, for (ux, uy) primitive: the extended
    Euclidean algorithm keeps a*ux + b*uy = r."""
    a0, b0, r0, a1, b1, r1 = 1, 0, ux, 0, 1, uy
    while r1:
        t = r0 // r1
        a0, b0, r0, a1, b1, r1 = a1, b1, r1, a0 - t * a1, b0 - t * b1, r0 - t * r1
    return -b0 * r0, a0 * r0


def _record(a: IVec, b: IVec, cell: int, other: int | None):
    """The record (sort key, dual pair, tail, head, direction) of the edge
    dual to a-b; the key is (min, max) flattened, unique per edge.

    For a bounded edge, ``cell`` and ``other`` lie left and right of a->b,
    and the edge runs from the cell right of min->max to the cell left of
    it.  For a ray, ``other`` is None and a->b runs clockwise along a side,
    with ``cell`` on its right: the ray leaves ``cell`` in the direction
    rot90(a - b), and its pair is (a, b)."""
    (ax, ay), (bx, by) = a, b
    if other is None:
        return ((ax, ay, bx, by) if a < b else (bx, by, ax, ay)), (a, b), cell, None, (ay - by, bx - ax)
    if a < b:
        return (ax, ay, bx, by), (a, b), other, cell, (ay - by, bx - ax)
    return (bx, by, ax, ay), (b, a), cell, other, (by - ay, ax - bx)


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


def honeycomb(d: int) -> TropicalCurve:
    """Canonical degree-d honeycomb from the concave quadratic lift."""
    if type(d) is not int:
        raise TypeError(f"degree must be an int, not {type(d).__name__}")
    if d < 1:
        raise ValueError("degree must be >= 1")
    height = {(i, j): -(i * i + i * j + j * j) for i in range(d + 1) for j in range(d + 1 - i)}
    return _curve_from_heights(height, 1, [(0, 0), (d, 0), (0, d)])


def primitive_cycles(curve: TropicalCurve) -> list[PrimitiveCycle]:
    """One cycle per interior lattice point of the Newton polygon.

    The cycles are built once per curve; each call returns a new list of
    them.
    """
    return list(curve._cycles)


def complement_components(curve: TropicalCurve) -> list[ComplementComponent]:
    """One component of the curve complement per lattice point of the polygon."""
    curve.require_degree()
    boundary = curve.dual.sides_at
    regions = curve.region_edges
    return [
        ComplementComponent(alpha, alpha not in boundary, frozenset(regions[alpha]))
        for alpha in curve.dual.lattice_points
    ]
