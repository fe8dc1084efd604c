"""Real structures on tropical curves: sign distributions, phase
structures, twisted edges, and the quadrant model of the real part.

The real part lives in the four-quadrant model of the real projective
plane: one copy of the projective triangle per symmetry eps in (Z/2)^2,
glued along the boundary strata.  Each stratum is a side of the Newton
polygon (``DualSubdivision.sides``), and across it eps is identified
with eps + n mod 2 for n the side's primitive outward normal; at a
corner the gluings of both sides through it apply.  The rays leaving
along a side's normal, one per unit of its lattice length, each meet
the stratum at one point, where the ray's two copies glue, and the
regions along it are the lattice points of the side.  Components, ovals
and nesting are read off one labelling of the faces of that cell
structure, the complement of the real part: the faces form a tree whose
edges are the ovals (``_face_tree``, which reads the curve's compiled
cell model ``_cells``).  ``count_components_direct`` builds the whole component
report from it; the hyperbolicity locus reads one face of it.  The count
1 + dim ker A_T, the dimension being cols - rank, is computed
independently from the twist matrix so the two routes can be checked
against each other.  Two cycles share at most one edge, so A_T takes one
popcount per cycle for its diagonal and one bit test per edge of the
per-curve table of shared edges (``_cycle_rows``) for the rest.

Each curve compiles its rules once into int tables, one per route,
each a ``curve_table``: built on the route's first call into the curve's
table store, which its translated copies share.  A phase structure is
read as one level bit per edge, since the curve fixes each edge's
direction class, and a sign distribution as one bit per lattice point;
conversions, twist solving and the cell model are then popcounts and
XORs over those bits.  A route builds only the tables it reads, and each
table reads the curve once per vertex, edge or side point, not once per
edge end through helper calls:

- ``_base`` (every route): the lattice index, each edge's dual indices
  and direction class, each vertex's incident edges;
- ``_sign_rule`` (signs to twists and back): per vertex, its dual cell's
  point bits and coordinate parities, then two table reads per edge;
- ``_side_ends`` (one twist, overlaps, ``_side_rule``): per vertex, one
  class check and three determinants for its three edge ends;
- ``_side_rule`` (phase to twists): two ends per bounded edge;
- ``_cycle_rows`` (admissible, dividing, the twist matrix): per edge of
  each primitive cycle;
- ``_cells`` (drawn copies, component reports, the locus, point
  queries): per edge, vertex and side point, with one row per edge for
  the face labelling, and its key tables on first read.

Production routes: twisted edges come from signs by the sign rule and
from a phase structure by the compiled sidedness rule: one (edge, side)
pair per edge end (``_side_ends``) and one closed form across two ends
(``_twisted_between``).  Hyperbolic reads it through
``twists_from_phase``, and intersect through ``edge_twisted`` and, across
the two ends of an overlap on different curves, ``is_relatively_twisted``.
The geometric sidedness rule (continuations at each end,
``selfcheck.edge_twisted_geometric`` and
``selfcheck.relative_twist_geometric``) is its oracle, which the pencil
oracle ``selfcheck._ComponentAnalysis`` also applies to its pencil-line
condition.  That the rules agree, that phase_from_twists inverts
twists_from_phase, and that the face tree's report matches the oracle
``selfcheck.cut_scan_components`` (components by vertex-copy
connectivity, a fresh union-find of the atoms per cut, nesting from
witness atoms) are oracle checks in selfcheck and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable, NamedTuple

from .curve import TropicalCurve, curve_table, primitive_cycles
from .errors import InvariantViolation, NotAdmissible, ValidationError
from .geometry import IVec
from .gf2 import PHASE_LINES, Gf2Factoring, Gf2Matrix, Gf2Subspace, Gf2Vector, PhaseLine, factor, kernel

EPS4 = ((0, 0), (0, 1), (1, 0), (1, 1))

Eps = tuple[int, int]

# the set bits of each 4-bit mask, lowest first
_BITS = tuple(tuple(c for c in range(4) if m >> c & 1) for m in range(16))


def _xor(a: Eps, b: Eps) -> Eps:
    return (a[0] ^ b[0], a[1] ^ b[1])


def _code(eps: Eps) -> int:
    """Index of eps in EPS4; an edge copy (eid, eps) is 4*eid + _code(eps)."""
    return 2 * eps[0] + eps[1]


@dataclass
class SignDistribution:
    """Signs +-1 on the lattice points of the dual polygon."""

    signs: dict[IVec, int]

    def __post_init__(self):
        for v, s in self.signs.items():
            if s not in (1, -1):
                raise ValueError(f"sign at {v} must be +-1")

    def validate_for(self, curve: TropicalCurve) -> None:
        _base(curve).minus(self)

    @classmethod
    def constant(cls, curve: TropicalCurve, sign: int = 1) -> "SignDistribution":
        return cls({v: sign for v in curve.dual.lattice_points})


@dataclass(frozen=True)
class RealPhaseStructure:
    """One affine line in (Z/2)^2 per edge of the curve."""

    lines: tuple[PhaseLine, ...]

    # (tables, level bits) of the last curve tables that read this phase
    # (see ``_Base.levels``); not a field, so equality and hashing ignore it
    _read = None

    def translate(self, eps: Eps) -> "RealPhaseStructure":
        return RealPhaseStructure(tuple(ln.translate(eps) for ln in self.lines))

    def validate_for(self, curve: TropicalCurve) -> None:
        _base(curve).levels(self)


@dataclass(frozen=True)
class TwistSet:
    """Subset of the bounded edges, kept in sync with its GF(2) vector."""

    edges: frozenset[int]
    vector: Gf2Vector

    @classmethod
    def from_edges(cls, curve: TropicalCurve, edges: Iterable[int]) -> "TwistSet":
        ids = frozenset(edges)
        for eid in ids:
            if eid not in curve.bounded_index:
                raise ValueError(f"edge {eid} is not bounded")
        vec = Gf2Vector.from_indices(
            len(curve.bounded_edges), (curve.bounded_index[e] for e in ids)
        )
        return cls(ids, vec)

    @classmethod
    def from_vector(cls, curve: TropicalCurve, vector: Gf2Vector) -> "TwistSet":
        if vector.length != len(curve.bounded_edges):
            raise ValueError("vector length != number of bounded edges")
        ids = frozenset(curve.bounded_edges[k] for k in vector.support())
        return cls(ids, vector)


# -- the per-curve tables -------------------------------------------------


def _parities(bits: int, masks: tuple[int, ...], offsets: int) -> int:
    """Bit k is the parity of bits & masks[k], flipped by bit k of offsets."""
    out = offsets
    for k, mask in enumerate(masks):
        if (bits & mask).bit_count() & 1:
            out ^= 1 << k
    return out


def _end_sign(curve: TropicalCurve, eid: int, v: int) -> int:
    """+1 if edge eid leaves vertex v along its direction, -1 if it ends there."""
    e = curve.edges[eid]
    if e.tail == v:
        return 1
    if not (e.bounded and e.head == v):
        raise InvariantViolation(f"vertex {v} is not an end of edge {eid}")
    return -1


def _outward_direction(curve: TropicalCurve, eid: int, v: int) -> IVec:
    dx, dy = curve.edges[eid].direction
    return (dx, dy) if _end_sign(curve, eid, v) > 0 else (-dx, -dy)


# the level-0 and level-1 phase lines of each direction class
_LINE_PAIRS = {cls: (PHASE_LINES[cls, 0], PHASE_LINES[cls, 1]) for cls, _ in PHASE_LINES}


# bits _code(eps) of the two elements of each phase line, by (class, level)
_ON_MASKS = {
    cls: tuple(sum(1 << _code(eps) for eps in PHASE_LINES[cls, level].elements) for level in (0, 1))
    for cls, _ in PHASE_LINES
}


class _Base:
    """The lattice point index, each edge's dual index pair and direction
    class, and one incident-edge bitmask per vertex.  Reads a sign
    distribution into a bit per lattice point and a phase structure into
    a level bit per edge, checking each against the curve."""

    def __init__(self, curve: TropicalCurve):
        self.points = points = curve.dual.lattice_points
        index = {p: k for k, p in enumerate(points)}
        self.point_bit = {p: 1 << k for p, k in index.items()}
        duals, classes = [], []
        for e in curve.edges:
            p, q = e.dual
            duals.append((index[p], index[q]))
            dx, dy = e.direction
            classes.append((dx & 1, dy & 1))
        self.duals = tuple(duals)
        self.classes = tuple(classes)
        # the edge's phase line at level 0 and at level 1
        self.line_pairs = tuple(map(_LINE_PAIRS.__getitem__, classes))
        vmasks = []
        for incident in curve.vertex_edges:
            mask = 0
            for eid in incident:
                mask |= 1 << eid
            vmasks.append(mask)
        self.vmasks = tuple(vmasks)

    def minus(self, delta: SignDistribution) -> int:
        """Bit k is set iff lattice point k has sign -1."""
        signs = delta.signs
        if signs.keys() != self.point_bit.keys():
            need, have = set(self.point_bit), set(signs)
            if need - have:
                raise ValidationError(f"sign distribution misses lattice points {sorted(need - have)}")
            raise ValidationError(f"sign distribution has extra points {sorted(have - need)}")
        bit = self.point_bit
        return sum(bit[p] for p, s in signs.items() if s < 0)

    def levels(self, phase: RealPhaseStructure) -> int:
        """Bit e is the level of edge e's phase line.  A phase is checked
        once per curve tables: the bits are kept on the phase and reused
        while the same tables read it again."""
        read = phase._read
        if read is not None and read[0] is self:
            return read[1]
        lines = phase.lines
        if len(lines) != len(self.classes):
            raise ValidationError("phase structure does not cover every edge")
        levels = 0
        for e, (line, want) in enumerate(zip(lines, self.classes)):
            if line.direction != want:
                raise ValidationError(f"edge {e}: phase direction {line.direction} != {want}")
            if line.level:
                levels |= 1 << e
        for v, mask in enumerate(self.vmasks):
            if not (levels & mask).bit_count() & 1:
                raise ValidationError(f"vertex {v}: phase lines share a common point")
        object.__setattr__(phase, "_read", (self, levels))
        return levels

    def phase_of_signs(self, minus: int) -> RealPhaseStructure:
        """The phase structure induced by the signs with the given minus
        bits: an edge's level is 1 iff its dual endpoints agree.  Such a
        phase is valid, so it comes with its level bits already read."""
        lines, levels = [], 0
        for e, (pair, (i, j)) in enumerate(zip(self.line_pairs, self.duals)):
            level = 1 ^ ((minus >> i ^ minus >> j) & 1)
            lines.append(pair[level])
            levels |= level << e
        phase = RealPhaseStructure(tuple(lines))
        object.__setattr__(phase, "_read", (self, levels))
        return phase


_base = curve_table(_Base)


def _orbit_least(glues: int) -> tuple[int, ...]:
    """Per code c, the least code of c's orbit under the glue codes set in
    the 4-bit mask: one glue g pairs c with c ^ g, two distinct glues join
    all four codes."""
    group = {0}
    for g in _BITS[glues]:
        group |= {x ^ g for x in group}
    return tuple(min(c ^ x for x in group) for c in range(4))


_ORBIT_LEAST = tuple(map(_orbit_least, range(16)))
# per glue code g, the codes c < c ^ g: the lesser of each glued pair
_LOW = tuple(tuple(c for c in range(4) if c < c ^ g) for g in range(4))
# doubled own cells of an edge's four copies: -2 each for a bounded edge;
# a ray of glue code g gives its lesser copies' cells to the boundary
# point where its two copies glue
_BOUNDED_CELL2 = (-2, -2, -2, -2)
_RAY_CELL2 = tuple(tuple(0 if c in _LOW[g] else -2 for c in range(4)) for g in range(4))

# per direction class and level bit, the copy codes c left undrawn and drawn
_LEVEL_CODES = {cls: tuple((_BITS[15 ^ m], _BITS[m]) for m in masks) for cls, masks in _ON_MASKS.items()}


class _Cells:
    """The parts of the quadrant cell model that do not depend on the
    phase.

    Atom 4*k + c is (lattice point k, EPS4[c]), reported as
    ``atom_keys[4*k + c]``; edge copy x = 4*eid + c is reported as
    ``copy_keys[x]``.  ``glued`` maps each atom to the least atom of its
    glue orbit across the polygon's sides.  The key of that atom is
    ``region_class(curve, alpha, eps)``, and the ``region_class`` table
    maps each atom key (alpha, eps) to it.  Cell weights are doubled so
    that each vertex copy on the real part can give half its weight to
    each of its two edge copies there: ``weight2`` is every cell's doubled
    weight per atom.

    ``edge_rows`` holds what the face labelling reads of each edge, in
    edge order, as (a, b, ends, cell2, codes): a and b the atoms 4*k of
    its dual endpoints; ends the atom 4*k of the first point of each end
    vertex's dual cell, where its copies carry half of each end vertex
    copy; cell2 what its four copies carry at a, their own doubled cells
    and, for the lesser copies of a ray, the boundary point where the
    ray's two copies glue; and codes, per level bit, the copy codes c left
    undrawn and drawn.  cell2 and codes are shared constant tuples, so the
    rows stay small.

    Built from one pass over the edges, one over the vertices, one over
    each side's points and one more over the edges for the rows.  The
    rays are grouped by direction once, and a boundary point's glue orbits
    are read off ``_ORBIT_LEAST`` for the glues of the sides through it.
    The key tables are built on first read.
    """

    def __init__(self, curve: TropicalCurve):
        curve.require_degree()
        base = _base(curve)
        edges = curve.edges
        self._points = points = base.points
        index = {p: k for k, p in enumerate(points)}
        rays: dict[IVec, list[int]] = {}
        for e in edges:
            if not e.bounded:
                rays.setdefault(e.direction, []).append(e.index)
        # the weights that are equal on a lattice point's four atoms (its
        # region, each edge's own cell -2 and each vertex copy +2), then
        # per atom the ray cells, the sides' glued copies and the corners
        row = [2] * len(points)
        for i, _ in base.duals:
            row[i] -= 2
        vertex_atoms = []
        for cell in curve.vertex_cell:
            k = index[cell[0]]
            row[k] += 2
            vertex_atoms.append(4 * k)
        weight2 = [w for w in row for _ in range(4)]
        glued = list(range(len(weight2)))
        cell2 = [_BOUNDED_CELL2] * len(edges)
        glues: dict[int, int] = {}
        for side in curve.dual.sides:
            g = _code(side.glue)
            out = rays.get(side.normal, ())
            if len(out) != len(side.points) - 1:
                raise InvariantViolation("each side must carry as many rays as its lattice length")
            c0, c1 = _LOW[g]
            for eid in out:
                cell2[eid] = _RAY_CELL2[g]
                a = 4 * base.duals[eid][0]
                weight2[a + c0] += 2
                weight2[a + c1] += 2
            # the copies glue across the side, one interval of it per lattice point
            for alpha in side.points:
                a = 4 * index[alpha]
                glues[a] = glues.get(a, 0) | 1 << g
                weight2[a + c0] -= 2
                weight2[a + c1] -= 2
        for a, m in glues.items():
            least = _ORBIT_LEAST[m]
            glued[a:a + 4] = (a + least[0], a + least[1], a + least[2], a + least[3])
        for corner in curve.dual.polygon:
            weight2[4 * index[corner]] += 2
        self.glued = glued
        self.weight2 = tuple(weight2)
        self.edge_rows = tuple(
            (4 * i, 4 * j,
             (vertex_atoms[e.tail], vertex_atoms[e.head]) if e.bounded else (vertex_atoms[e.tail],),
             c2, _LEVEL_CODES[cls])
            for e, (i, j), c2, cls in zip(edges, base.duals, cell2, base.classes)
        )

    @cached_property
    def atom_keys(self) -> tuple[tuple[IVec, Eps], ...]:
        return tuple(product(self._points, EPS4))

    @cached_property
    def region_class(self) -> dict[tuple[IVec, Eps], tuple[IVec, Eps]]:
        keys = self.atom_keys
        return {keys[x]: keys[p] for x, p in enumerate(self.glued)}

    @cached_property
    def copy_keys(self) -> tuple[tuple[int, Eps], ...]:
        return tuple(product(range(len(self.edge_rows)), EPS4))


_cells = curve_table(_Cells)


@curve_table
def _sign_rule(curve: TropicalCurve) -> tuple[tuple[int, ...], int]:
    """Per bounded edge, the lattice points whose minus signs decide its
    twist (the two cell vertices opposite it when they agree mod 2, else
    all four) as a mask, and the offsets as one int.

    Read per vertex: the bits of its dual cell's points and the parities
    of their coordinate sums.  An edge's two cells share its dual points
    p, q, so the opposite vertices are the cells' sums less p + q: they
    agree mod 2 iff the sums do, and their bits are the two cells' bits
    less p's and q's."""
    base = _base(curve)
    bit = base.point_bit
    cell_bits, parity = [], []
    for a, b, c in curve.vertex_cell:
        cell_bits.append(bit[a] | bit[b] | bit[c])
        parity.append((a[0] + b[0] + c[0]) & 1 | ((a[1] + b[1] + c[1]) & 1) << 1)
    edges, duals = curve.edges, base.duals
    masks, offsets = [], 0
    for k, eid in enumerate(curve.bounded_edges):
        e = edges[eid]
        t, h = e.tail, e.head
        both = cell_bits[t] | cell_bits[h]
        if parity[t] == parity[h]:
            i, j = duals[eid]
            masks.append(both ^ (1 << i | 1 << j))
        else:
            masks.append(both)
            offsets |= 1 << k
    return tuple(masks), offsets


@curve_table
def _sign_solver(curve: TropicalCurve) -> Gf2Factoring:
    """The sign rule's system over the lattice points, factored."""
    return factor(_sign_rule(curve)[0], len(_base(curve).points))


@curve_table
def _sign_tree(curve: TropicalCurve) -> tuple[tuple[tuple[int, int, int], ...], tuple[tuple[int, int, int], ...]]:
    """A spanning tree of the dual graph rooted at lattice point 0, as
    (point, parent point, edge) in discovery order, and the non-tree edges
    as (point, point, edge)."""
    base = _base(curve)
    adj: list[list[tuple[int, int]]] = [[] for _ in base.points]
    for eid, (i, j) in enumerate(base.duals):
        adj[i].append((j, eid))
        adj[j].append((i, eid))
    tree, seen, used = [], {0}, set()
    stack = [0]
    while stack:
        i = stack.pop()
        for j, eid in adj[i]:
            if j not in seen:
                seen.add(j)
                used.add(eid)
                tree.append((j, i, eid))
                stack.append(j)
    if len(seen) != len(base.points):
        raise InvariantViolation("dual subdivision graph is disconnected")
    rest = tuple((i, j, eid) for eid, (i, j) in enumerate(base.duals) if eid not in used)
    return tuple(tree), rest


@curve_table
def _side_ends(curve: TropicalCurve) -> dict[tuple[int, int], tuple[int, bool]]:
    """The sidedness rule at every end v of every edge e, rays included:
    (eid, v) -> (f, s) for f the first other edge at v and s whether f
    leaves v on the left of e's direction.  At a vertex the three
    direction classes are distinct and the two other edges lie on
    opposite sides of e, so a phase element of e continues along f iff it
    is the one point where e's and f's lines meet (``_twisted_between``).

    Built per vertex from its three edges a, b, c (in ``vertex_edges``
    order): one class check, each edge's sign at v and the three
    determinants of their directions, which give all six sides.  A
    failed check raises for the first failing end in edge order, the tail
    of an edge before its head.
    """
    classes = _base(curve).classes
    edges = curve.edges
    ends = {}
    failed = []
    for v, incident in enumerate(curve.vertex_edges):
        distinct = False
        if len(incident) == 3:
            a, b, c = incident
            ka, kb, kc = classes[a], classes[b], classes[c]
            distinct = ka != kb and ka != kc and kb != kc
        if not distinct:
            failed.extend(
                (x, edges[x].tail != v, f"edge {x}: direction classes at vertex {v} are not distinct")
                for x in incident
            )
            continue
        sa, sb, sc = _end_sign(curve, a, v), _end_sign(curve, b, v), _end_sign(curve, c, v)
        (ax, ay), (bx, by), (cx, cy) = edges[a].direction, edges[b].direction, edges[c].direction
        ab, ac, bc = ax * by - ay * bx, ax * cy - ay * cx, bx * cy - by * cx
        # the end of x at v sees the other edge y on the side of
        # det(d_x, o_y) = s_y det(d_x, d_y), d the directions, o outward
        a0, a1 = sb * ab, sc * ac
        b0, b1 = -sa * ab, sc * bc
        c0, c1 = -sa * ac, -sb * bc
        if a0 * a1 >= 0 or b0 * b1 >= 0 or c0 * c1 >= 0:
            for x, sx, s0, s1 in ((a, sa, a0, a1), (b, sb, b0, b1), (c, sc, c0, c1)):
                if s0 * s1 >= 0:
                    failed.append((x, sx < 0, f"edge {x}: the other edges at vertex {v} are not on opposite sides"))
        ends[a, v] = (b, a0 > 0)
        ends[b, v] = (a, b0 > 0)
        ends[c, v] = (a, c0 > 0)
    if failed:
        raise InvariantViolation(min(failed)[2])
    return ends


def _twisted_between(level: int, lines0, end0: tuple[int, bool], lines1, end1: tuple[int, bool]) -> bool:
    """The sidedness rule across a piece of curve on a phase line of the
    given level, between two ends (f, s) of ``_side_ends`` taken against
    one reference direction, f read in the phase lines of its own curve:

        twisted = l_f0 + l_f1 + [D_f0 != D_f1] level + s0 + s1  (mod 2)

    for l the levels and D the direction classes."""
    (f0, s0), (f1, s1) = end0, end1
    line0, line1 = lines0[f0], lines1[f1]
    return bool((line0.level + line1.level + (line0.direction != line1.direction) * level + s0 + s1) & 1)


@curve_table
def _side_rule(curve: TropicalCurve) -> tuple[tuple[int, ...], int]:
    """``_twisted_between`` for every bounded edge at once: per edge, the
    mask of the level bits it sums, and the constants s0 + s1 as one int."""
    classes = _base(curve).classes
    ends = _side_ends(curve)
    masks, consts = [], 0
    for k, eid in enumerate(curve.bounded_edges):
        e = curve.edges[eid]
        (f, s_f), (g, s_g) = ends[eid, e.tail], ends[eid, e.head]
        masks.append(1 << f ^ 1 << g ^ (1 << eid if classes[f] != classes[g] else 0))
        if s_f != s_g:
            consts |= 1 << k
    return tuple(masks), consts


@curve_table
def _cycle_rows(
    curve: TropicalCurve,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, int, int], ...]]:
    """Bit rows over the bounded edges: per primitive cycle, its edges of
    odd x and of odd y direction (admissibility), and all its edges.  The
    third item lists each edge on two cycles as (edge bit, i, j), i < j
    the indices of those cycles, in bounded-edge order; two cycles share
    at most one edge, as their centres span at most one dual edge."""
    adm, cycles = [], []
    on: dict[int, list[int]] = {}
    for i, cyc in enumerate(primitive_cycles(curve)):
        rx = ry = r = 0
        for eid in cyc.edges:
            bit = 1 << curve.bounded_index[eid]
            d = curve.edges[eid].direction
            if d[0] & 1:
                rx |= bit
            if d[1] & 1:
                ry |= bit
            r |= bit
            on.setdefault(bit, []).append(i)
        adm.extend([rx, ry])
        cycles.append(r)
    shared, pairs = [], set()
    for bit in sorted(on):
        ij = on[bit]
        if len(ij) == 2:
            if (ij[0], ij[1]) in pairs:
                raise InvariantViolation(f"cycles {ij[0]} and {ij[1]} share more than one edge")
            pairs.add((ij[0], ij[1]))
            shared.append((bit, ij[0], ij[1]))
    return tuple(adm), tuple(cycles), tuple(shared)


def _twist_set(curve: TropicalCurve, bits: int) -> TwistSet:
    return TwistSet.from_vector(curve, Gf2Vector(len(curve.bounded_edges), bits))


# -- conversions ----------------------------------------------------------


def phase_from_signs(curve: TropicalCurve, delta: SignDistribution) -> RealPhaseStructure:
    """Phase line of each edge: symmetries whose copy of the dual edge
    has opposite extended signs at its endpoints.

    The eps-copy signs at p and q differ iff eps.(q - p) = 1 + [delta_p !=
    delta_q] (mod 2), and (q - p) mod 2 is the normal of the edge's
    direction class, so that bit is the level of the edge's line.
    """
    base = _base(curve)
    return base.phase_of_signs(base.minus(delta))


def signs_from_phase(curve: TropicalCurve, phase: RealPhaseStructure) -> SignDistribution:
    """A sign distribution inducing the phase structure (the other is its
    negation).  Propagates sign flips along a spanning tree of the dual
    graph: the identity copy of an edge is drawn, its level is 0, iff the
    endpoint signs differ."""
    base = _base(curve)
    levels = base.levels(phase)
    tree, rest = _sign_tree(curve)
    minus = 0
    for j, i, eid in tree:
        if not (minus >> i ^ levels >> eid) & 1:
            minus |= 1 << j
    for i, j, eid in rest:
        if not (minus >> i ^ minus >> j ^ levels >> eid) & 1:
            raise ValidationError("phase structure is not induced by any sign distribution")
    pts = base.points
    signs = {pts[0]: 1}
    for j, _, _ in tree:
        signs[pts[j]] = -1 if minus >> j & 1 else 1
    return SignDistribution(signs)


def twists_from_signs(curve: TropicalCurve, delta: SignDistribution) -> TwistSet:
    """Twisted edges read off the sign distribution by the sign rule."""
    return _twist_set(curve, _parities(_base(curve).minus(delta), *_sign_rule(curve)))


def edge_twisted(curve: TropicalCurve, phase: RealPhaseStructure, eid: int) -> bool:
    """Sidedness rule for the bounded edge eid, between its two ends."""
    e = curve.edges[eid]
    if not e.bounded:
        raise InvariantViolation("only bounded edges carry a twist")
    ends = _side_ends(curve)
    lines = phase.lines
    return _twisted_between(lines[eid].level, lines, ends[eid, e.tail], lines, ends[eid, e.head])


def twists_from_phase(curve: TropicalCurve, phase: RealPhaseStructure) -> TwistSet:
    """Twisted edges read off the phase structure by the sidedness rule."""
    return _twist_set(curve, _parities(_base(curve).levels(phase), *_side_rule(curve)))


# -- admissible / dividing spaces ---------------------------------------


def _all_even(rows: tuple[int, ...], twists: TwistSet) -> bool:
    return not any((r & twists.vector.bits).bit_count() & 1 for r in rows)


def is_admissible(curve: TropicalCurve, twists: TwistSet) -> bool:
    """Each primitive cycle's twisted edge directions sum to zero mod 2."""
    return _all_even(_cycle_rows(curve)[0], twists)


def is_dividing(curve: TropicalCurve, twists: TwistSet) -> bool:
    """Each primitive cycle has an even number of twisted edges."""
    adm, cycles, _ = _cycle_rows(curve)
    if not _all_even(adm, twists):
        raise NotAdmissible("twist set violates the cycle direction-sum condition")
    return _all_even(cycles, twists)


def adm_space(curve: TropicalCurve) -> Gf2Subspace:
    rows = _cycle_rows(curve)[0]
    return kernel(Gf2Matrix(len(rows), len(curve.bounded_edges), rows))


@curve_table
def div_space(curve: TropicalCurve) -> Gf2Subspace:
    """Dividing twist sets; the kernel is computed once per curve."""
    adm, cycles, _ = _cycle_rows(curve)
    rows = adm + cycles
    return kernel(Gf2Matrix(len(rows), len(curve.bounded_edges), rows))


def phase_from_twists(
    curve: TropicalCurve, twists: TwistSet, seed: tuple[int, Eps] | None = None
) -> RealPhaseStructure:
    """A phase structure inducing the given admissible twist set.

    Solves the sign rule's relations for a sign distribution over GF(2)
    and re-signs it so the induced phase structure puts the seed symmetry
    on the seed edge (re-signing by eps translates the phase by eps).
    Insolvability is exactly inadmissibility.
    """
    if seed is None:
        seed = (curve.bounded_edges[0] if curve.bounded_edges else 0, (0, 0))
    minus = _sign_solver(curve).solve(twists.vector.bits ^ _sign_rule(curve)[1])
    if minus is None:
        raise NotAdmissible("no sign distribution induces this twist set")
    base = _base(curve)
    seed_edge, seed_eps = seed
    i, j = base.duals[seed_edge]
    line = base.line_pairs[seed_edge][1 ^ ((minus >> i ^ minus >> j) & 1)]
    if not line.contains(seed_eps):
        shift = min(_xor(seed_eps, el) for el in line.elements)
        for p, bit in base.point_bit.items():
            if (shift[0] * p[0] + shift[1] * p[1]) & 1:
                minus ^= bit
    phase = base.phase_of_signs(minus)
    if not phase.lines[seed_edge].contains(seed_eps):
        raise InvariantViolation("the seed element must lie on the seed edge's phase line")
    return phase


def count_components_matrix(curve: TropicalCurve, twists: TwistSet) -> int:
    """Number of real components from the cycle/twist pairing matrix:
    one plus its kernel dimension, cols - rank."""
    if not is_admissible(curve, twists):
        raise NotAdmissible("component count needs an admissible twist set")
    m = twist_matrix(curve, twists)
    return 1 + m.cols - m.rank()


def twist_matrix(curve: TropicalCurve, twists: TwistSet) -> Gf2Matrix:
    """The symmetric pairing |cycle_i * cycle_j * T| mod 2, on the cycles'
    bit rows over the bounded edges.  Off the diagonal it is the twist bit
    of the one edge two cycles share, read from ``_cycle_rows``' table of
    shared edges; on it, the parity of cycle_i * T."""
    _, cycles, shared = _cycle_rows(curve)
    t = twists.vector.bits
    rows = [((c & t).bit_count() & 1) << i for i, c in enumerate(cycles)]
    for bit, i, j in shared:
        if t & bit:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    return Gf2Matrix(len(cycles), len(cycles), tuple(rows))


# -- the quadrant model of the real part --------------------------------


def region_class(curve: TropicalCurve, alpha: IVec, eps: Eps) -> tuple[IVec, Eps]:
    """Canonical representative of (alpha, eps) modulo boundary gluing."""
    curve.require_degree()
    orbit = {eps}
    for side in curve.dual.sides_at.get(alpha, ()):
        orbit |= {_xor(e, side.glue) for e in orbit}
    return (alpha, min(orbit))


def _root(parent, x):
    """Root of x in a parent map, halving the path on the way."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _union(parent: list[int], x: int, y: int) -> None:
    """Join the classes of x and y under the lesser root, so that
    parent[x] <= x holds throughout."""
    rx, ry = _root(parent, x), _root(parent, y)
    if rx < ry:
        parent[ry] = rx
    elif ry < rx:
        parent[rx] = ry


class RealPart:
    """The edge copies drawn by a phase structure: copy (eid, EPS4[c]) is
    drawn iff EPS4[c] lies on edge eid's phase line, the line at the
    level of bit eid of ``_levels``."""

    def __init__(self, curve: TropicalCurve, phase: RealPhaseStructure):
        curve.require_degree()
        self.curve = curve
        self.phase = phase
        self._levels = _base(curve).levels(phase)

    @cached_property
    def _copies(self) -> list[int]:
        """The drawn copies 4*eid + c, in order."""
        levels = self._levels
        rows = _cells(self.curve).edge_rows
        return [4 * eid + c for eid, (*_, codes) in enumerate(rows) for c in codes[levels >> eid & 1][1]]

    @cached_property
    def edge_copies(self) -> frozenset[tuple[int, Eps]]:
        return frozenset((x >> 2, EPS4[x & 3]) for x in self._copies)


@dataclass(frozen=True)
class CurveComponentInfo:
    edge_copies: frozenset[tuple[int, Eps]]
    kind: str  # "oval" | "pseudo-line"
    nesting_depth: int  # 1 = outermost oval; 0 for the pseudo-line
    interior_regions: frozenset[tuple[IVec, Eps]] | None  # atoms inside an oval


@dataclass(frozen=True)
class ComponentReport:
    count: int
    components: tuple[CurveComponentInfo, ...]
    nesting_parent: tuple[int | None, ...]


def real_part(curve: TropicalCurve, phase: RealPhaseStructure) -> RealPart:
    return RealPart(curve, phase)


def _tree_walk(adj: dict[int, list[tuple[int, int]]], root: int) -> tuple[list[int], dict]:
    """The faces reachable from root, each after its parent face, and
    each one's parent face and the oval between them (None at the root)."""
    up: dict[int, tuple[int, int] | None] = {root: None}
    order, stack = [], [root]
    while stack:
        f = stack.pop()
        order.append(f)
        for g, k in adj[f]:
            if g not in up:
                up[g] = (f, k)
                stack.append(g)
    return order, up


class _FaceTree(NamedTuple):
    """The faces of a real part's complement and the tree they form
    (``_face_tree``).  A face is named by its least atom."""

    region: list[int]  # atom -> its face
    # face pair (lesser first) -> [drawn copies, own cells on the lesser
    # face, own cells on the other], in the order of their least copies
    groups: dict[tuple[int, int], list]
    disk: dict[tuple[int, int], int]  # an oval's face pair -> its face on the disk side
    order: list[int]  # the faces from the root down, each after its parent
    # face -> (parent face, index in groups of the oval between), None at the root
    up: dict[int, tuple[int, int] | None]
    depth: dict[int, int]  # face -> the number of ovals on the way down to it


def _face_tree(rp: RealPart) -> _FaceTree:
    """One labelling of the faces of the real part's complement.

    The faces are the classes of atoms glued along the strata and across
    every edge copy that is not drawn.  They form a tree whose edges are
    the ovals, since an oval cuts RP^2 into a disk and a Moebius band and
    the pseudo-line does not separate.  A drawn copy separates the faces
    of its two dual atoms, and the copies that separate the same pair of
    faces make one component: an oval if the faces differ, the
    pseudo-line if they are one face.  Subtree sums of the doubled cell
    weights give each oval's two sides their Euler characteristics, less
    the cells on the oval itself; the side with characteristic 1 is the
    disk.  The face outside every oval roots the tree.  Reads the curve's
    ``_cells`` and the real part's level bits.
    """
    cells = _cells(rp.curve)
    rows = cells.edge_rows
    levels = rp._levels
    parent = cells.glued[:]
    for eid, (a, b, _, _, codes) in enumerate(rows):
        for c in codes[levels >> eid & 1][0]:
            # _union(parent, a + c, b + c), inlined
            x, y = a + c, b + c
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            while parent[y] != y:
                parent[y] = y = parent[parent[y]]
            if x < y:
                parent[y] = x
            elif y < x:
                parent[x] = y
    # parent[x] <= x, so one pass in atom order leaves each atom on the
    # least atom of its face, which names the face
    for x, p in enumerate(parent):
        parent[x] = parent[p]
    region = parent

    groups: dict[tuple[int, int], list] = {}
    for eid, (a, b, ends, cell2, codes) in enumerate(rows):
        for c in codes[levels >> eid & 1][1]:
            f = fa = region[a + c]
            g = region[b + c]
            if g < f:
                f, g = g, f
            group = groups.get((f, g))
            if group is None:
                group = groups[f, g] = [[], 0, 0]
            group[0].append(4 * eid + c)
            group[1 if fa == f else 2] += cell2[c]
            for v in ends:
                h = region[v + c]
                if h == f:
                    group[1] += 1
                elif h == g:
                    group[2] += 1
                else:
                    raise InvariantViolation(
                        f"edge copy {4 * eid + c}: a vertex copy lies off the two faces the copy separates"
                    )
    pairs = list(groups)
    ovals = [k for k, (f, g) in enumerate(pairs) if f != g]
    if len(pairs) - len(ovals) > 1:
        raise InvariantViolation("the real part has more than one pseudo-line")
    faces = set(region)
    if len(faces) != len(ovals) + 1:
        raise InvariantViolation(f"{len(faces)} faces around {len(ovals)} ovals: the faces do not form a tree")

    adj: dict[int, list[tuple[int, int]]] = {f: [] for f in faces}
    for k in ovals:
        f, g = pairs[k]
        adj[f].append((g, k))
        adj[g].append((f, k))
    order, up = _tree_walk(adj, 0)
    if len(order) != len(faces):
        raise InvariantViolation("the faces of the real part are not connected")
    sub = [0] * len(region)
    for w, f in zip(cells.weight2, region):
        sub[f] += w
    for f in reversed(order[1:]):
        sub[up[f][0]] += sub[f]
    total = sub[0]
    # each oval's face on its disk side; the one face left is the root
    disk = {}
    for k in ovals:
        f, g = pair = pairs[k]
        _, own_f, own_g = groups[pair]
        if up[g] == (f, k):
            child, own_child, other, own_other = g, own_g, f, own_f
        else:
            child, own_child, other, own_other = f, own_f, g, own_g
        chis = (sub[child] - own_child) // 2, (total - sub[child] - own_other) // 2
        if sorted(chis) != [0, 1]:
            raise InvariantViolation(f"oval sides must be a disk and a Moebius side, got chi={sorted(chis)}")
        disk[pair] = child if chis[0] == 1 else other
        faces.discard(disk[pair])
    if len(faces) != 1:
        raise InvariantViolation("the ovals' disk sides do not leave one face outside them all")
    root = faces.pop()
    if root != 0:
        order, up = _tree_walk(adj, root)
    depth = {root: 0}
    for f in order[1:]:
        depth[f] = depth[up[f][0]] + 1
    return _FaceTree(region, groups, disk, order, up, depth)


def count_components_direct(rp: RealPart) -> ComponentReport:
    """Components of the real part with oval/pseudo-line classification
    and the nesting tree, read off the face labelling (``_face_tree``).

    Components are listed in the order of their least copies.  An oval's
    depth is the number of ovals on the way down to its disk face, its
    parent the oval just above, and its interior the atoms of its disk
    face and of every face below it.
    """
    tree = _face_tree(rp)
    cells = _cells(rp.curve)
    order, up = tree.order, tree.up
    # the atoms of each face and of every face below it
    below: dict[int, list[tuple[IVec, Eps]]] = {f: [] for f in order}
    for key, f in zip(cells.atom_keys, tree.region):
        below[f].append(key)
    for f in reversed(order[1:]):
        below[up[f][0]].extend(below[f])
    keys = cells.copy_keys
    infos, parents = [], []
    for pair, (copies, _, _) in tree.groups.items():
        edge_copies = frozenset(keys[x] for x in copies)
        if pair[0] == pair[1]:
            infos.append(CurveComponentInfo(edge_copies, "pseudo-line", 0, None))
            parents.append(None)
            continue
        f = tree.disk[pair]
        infos.append(CurveComponentInfo(edge_copies, "oval", tree.depth[f], frozenset(below[f])))
        # the oval just above is the one into the face outside this oval
        above = up[up[f][0]]
        parents.append(None if above is None else above[1])
    return ComponentReport(count=len(infos), components=tuple(infos), nesting_parent=tuple(parents))
