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
cell model ``_cells``).  The tree is rooted at the face outside every
oval, which the double cover S^2 -> RP^2 finds: the sheet changes only
across the side z = 0, and only that face lifts connected (or, for odd
degree, it is the face on both sides of the pseudo-line).
``count_components_direct`` builds the whole component report from it;
the hyperbolicity locus reads its whole report off it: the number of
components, the depth of the deepest disk face and that face.  The count
1 + dim ker A_T, the dimension being cols - rank, is computed
independently from the twist matrix so the two routes can be checked
against each other; ``is_hyperbolic`` and the oracles read it, the locus
does not.  Two cycles share at most one edge, so A_T takes one
popcount per cycle for its diagonal and one bit test per edge of the
per-curve table of shared edges (``_cycle_rows``) for the rest.

Each curve compiles its rules once into int tables, one per route,
each a ``curve_table``: built on the route's first call into the curve's
table store, which its translated copies share.  A phase structure is
read as one level bit per edge, since the curve fixes each edge's
direction class, and a sign distribution as one bit per lattice point;
conversions, twist solving and the cell model are then popcounts and
XORs over those bits.  The records hold the bits: a phase from a
conversion keeps its tables and level bits (and, from signs, their minus
bits; any other phase finds its minus bits on first request), a twist
set its vector and a component report its faces, and
their tuples and frozensets (``lines``, ``edges``, ``edge_copies``,
``interior_regions``) are built on first read.  A route builds only the
tables it reads, and each table reads the curve once per vertex, edge or
side point, not once per edge end through helper calls:

- ``_base`` (every route): the lattice index, each edge's dual indices
  and direction class, each vertex's incident edges and each lattice
  point's incident edges, the columns that turn minus signs into levels;
- ``_cell_sums`` (both sign tables): per vertex, its dual cell's index
  sum and coordinate parities;
- ``_sign_columns`` (signs or a phase to twists): two ``_cell_sums``
  reads per edge; each minus sign XORs in one column;
- ``_sign_solver`` (twists to a phase): one step per bounded edge of the
  curve's ``walk_order``, which signs the far cell's new point from the
  near cell's, so each minus bit is a parity of the twist bits;
- ``_sign_tree`` (a phase to its minus bits, signs keyed in order): one
  step per lattice point;
- ``_side_ends`` (one twist, overlaps): per vertex, three determinants
  for its three edge ends;
- ``_cycle_rows`` (admissible, dividing, the twist matrix): per edge of
  each primitive cycle;
- ``_cells`` (drawn copies, component reports, the locus, point
  queries): per side point its glue orbits, on RP^2 and on one sheet of
  S^2, and its links across z = 0; per edge four ints in each of two
  lanes of atoms, which a phase's level bits select for the face
  labelling; its key tables and its lane of copies on first read.

Production routes: twisted edges come from signs by the sign rule, and
from a phase structure by the same rule on the minus bits of signs
inducing it (``twists_from_phase``), since every phase that
``_Base.levels`` accepts is sign-induced.  The compiled sidedness rule
reads the phase lines where no signs of the whole phase are at hand: on
one edge (``edge_twisted``, which intersect reads for an edge inside
another) and across the two ends of an overlap on two curves
(intersect's ``is_relatively_twisted``).  It keeps one (edge, side) pair
per edge end (``_side_ends``) and one closed form across two ends
(``_twisted_between``), and it is the oracle that ``twists_from_phase``
is held to on every bounded edge.  The geometric sidedness rule
(continuations at each end, ``selfcheck.edge_twisted_geometric`` and
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
from itertools import compress, product
from operator import getitem
from typing import Iterable, NamedTuple

from .curve import TropicalCurve, _Record, curve_table, primitive_cycles
from .errors import InvariantViolation, NotAdmissible, ValidationError
from .geometry import IVec
from .gf2 import PHASE_LINES, Gf2Matrix, Gf2Subspace, Gf2Vector, PhaseLine, kernel

EPS4 = ((0, 0), (0, 1), (1, 0), (1, 1))

Eps = tuple[int, int]

# the set bits of each 4-bit mask, lowest first
_BITS = tuple(tuple(c for c in range(4) if m >> c & 1) for m in range(16))

# the characters "0" and "1" as the bytes 0 and 1
_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def _bit_bytes(bits: int, n: int) -> bytes:
    """Byte k is bit k of bits, for k < n: the bits in one C-level pass,
    for ``map`` and ``compress`` to read."""
    return format(bits, f"0{n}b")[::-1].encode().translate(_BIT_BYTES)


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
    def constant(cls, curve: TropicalCurve) -> "SignDistribution":
        """The all-plus distribution."""
        return cls({v: 1 for v in curve.dual.lattice_points})


class RealPhaseStructure(_Record):
    """One affine line in (Z/2)^2 per edge of the curve: a record
    (``_Record``) of ``lines``.

    Built from its lines, or by the conversions from a curve's tables and
    one level bit per edge, with ``lines`` built on first read.  A phase
    keeps the minus bits of a sign distribution inducing it
    (``_Base.sign_bits``): those of the signs that built it, else those
    found on first request."""

    __slots__ = ("_lines", "_read")
    _fields = ("lines",)

    def __init__(self, lines: tuple[PhaseLine, ...]):
        self._lines = lines
        # (tables, level bits, minus bits or None) of the last curve tables
        # that read this phase (see ``_Base.levels`` and ``sign_bits``);
        # while ``_lines`` is None, the tables that built it
        self._read = None

    @classmethod
    def _of_signs(cls, base: "_Base", levels: int, minus: int) -> "RealPhaseStructure":
        phase = cls.__new__(cls)
        phase._lines = None
        phase._read = (base, levels, minus)
        return phase

    @property
    def lines(self) -> tuple[PhaseLine, ...]:
        lines = self._lines
        if lines is None:
            base, levels, _ = self._read
            pairs = base.line_pairs
            lines = self._lines = tuple(map(getitem, pairs, _bit_bytes(levels, len(pairs))))
        return lines

    def translate(self, eps: Eps) -> "RealPhaseStructure":
        return RealPhaseStructure(tuple(ln.translate(eps) for ln in self.lines))

    def validate_for(self, curve: TropicalCurve) -> None:
        _base(curve).levels(self)


class TwistSet(_Record):
    """Subset of the bounded edges, kept in sync with its GF(2) vector: a
    record (``_Record``) of ``edges`` and ``vector``.

    ``from_vector`` keeps the vector and the curve's bounded edges, and
    builds ``edges`` on first read."""

    __slots__ = ("_edges", "vector", "_bounded")
    _fields = ("edges", "vector")

    def __init__(self, edges: frozenset[int], vector: Gf2Vector):
        self._edges = edges
        self.vector = vector
        self._bounded = None

    @property
    def edges(self) -> frozenset[int]:
        edges = self._edges
        if edges is None:
            vector = self.vector
            edges = self._edges = frozenset(compress(self._bounded, _bit_bytes(vector.bits, vector.length)))
        return edges

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
        twists = cls(None, vector)
        twists._bounded = curve.bounded_edges
        return twists


# -- the per-curve tables -------------------------------------------------


def _columns(bits: int, columns: tuple[int, ...], out: int) -> int:
    """out XOR columns[k] for every set bit k of bits."""
    while bits:
        low = bits & -bits
        out ^= columns[low.bit_length() - 1]
        bits ^= low
    return out


def _end_sign(curve: TropicalCurve, eid: int, v: int) -> int:
    """+1 if edge eid leaves vertex v along its direction, -1 if it ends
    there; v is an end of eid."""
    return 1 if curve.edges[eid].tail == v else -1


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
    class, one incident-edge bitmask per vertex and one per lattice point.
    Reads a sign distribution into a bit per lattice point and a phase
    structure into a level bit per edge, checking each against the curve,
    and a phase into the minus bits of signs inducing it."""

    def __init__(self, curve: TropicalCurve):
        self.points = points = curve.dual.lattice_points
        self.index = index = {p: k for k, p in enumerate(points)}
        self.point_bit = {p: 1 << k for p, k in index.items()}
        duals, classes = [], []
        # per lattice point, the edges whose dual edge ends there
        point_edges = [0] * len(points)
        for eid, e in enumerate(curve.edges):
            p, q = e.dual
            i, j = index[p], index[q]
            duals.append((i, j))
            bit = 1 << eid
            point_edges[i] |= bit
            point_edges[j] |= bit
            dx, dy = e.direction
            classes.append((dx & 1, dy & 1))
        self.duals = tuple(duals)
        self.classes = tuple(classes)
        self.point_edges = tuple(point_edges)
        # the level bits with every edge at level 1
        self.all_levels = (1 << len(duals)) - 1
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
        # read before ``_read`` is replaced: a phase built from other
        # tables builds its lines from them
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
        phase._read = (self, levels, None)
        return levels

    def sign_bits(self, phase: RealPhaseStructure, curve: TropicalCurve) -> int:
        """The minus bits of a sign distribution inducing the phase: those
        of the signs that built it on these tables, else the ones with +
        at lattice point 0, found once along the spanning tree of the
        curve's dual graph (``_sign_tree``) and kept beside the level bits.
        The identity copy of an edge is drawn, its level is 0, iff its
        endpoint signs differ.  No edge off the tree is checked: the V
        vertex conditions ``levels`` checks are independent and
        E - V = N - 1, so the 2^(N-1) phases it accepts are the
        sign-induced ones."""
        levels = self.levels(phase)
        minus = phase._read[2]
        if minus is None:
            minus = 0
            for j, i, eid in _sign_tree(curve)[0]:
                if not (minus >> i ^ levels >> eid) & 1:
                    minus |= 1 << j
            phase._read = (self, levels, minus)
        return minus

    def phase_of_signs(self, minus: int) -> RealPhaseStructure:
        """The phase structure induced by the signs with the given minus
        bits: an edge's level is 1 iff its dual endpoints agree, so each
        minus point flips the levels of the edges at it.  Such a phase is
        valid, so it is built from its level bits, and it keeps the minus
        bits."""
        return RealPhaseStructure._of_signs(self, _columns(minus, self.point_edges, self.all_levels), minus)


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
# the glue bits of the sides x = 0 and y = 0 (glue codes 2 and 1): the
# sheet of S^2 over a quadrant copy changes only across z = 0, glue code 3
_SHEET_GLUES = 1 << 1 | 1 << 2

# per direction class, the copy codes c drawn at level 0 and then at level
# 1; the two lines of a class are the two cosets of its direction, so the
# codes drawn at one level are the codes left undrawn at the other
_LANE_CODES = {cls: tuple(c for m in masks for c in _BITS[m]) for cls, masks in _ON_MASKS.items()}

# the bytes 0 and 1 swapped
_FLIP_BYTES = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _picks(levels: int, n: int) -> tuple[bytes, bytes]:
    """The ``compress`` selectors of a lane of ``_Cells`` over n edges at
    the given level bits: of edge e's four bytes, the copies drawn set
    4e and 4e + 1 at level 0 and 4e + 2 and 4e + 3 at level 1, and the
    copies left undrawn set the other two.

    The binary digits of levels, read as hex digits, put bit e at 16^e,
    so hex digit e of ``spread`` is 3 + 9 bit e: binary 0011 or 1100,
    which the reversed binary string lists from its lowest bit."""
    spread = int("3" * n, 16) + 9 * int(format(levels, "b"), 16)
    drawn = format(spread, f"0{4 * n}b")[::-1].encode().translate(_BIT_BYTES)
    return drawn, drawn.translate(_FLIP_BYTES)


class _Cells:
    """The parts of the quadrant cell model that do not depend on the
    phase.

    Atom 4*k + c is (lattice point k, EPS4[c]), reported as
    ``atom_keys[4*k + c]``; edge copy x = 4*eid + c is reported as
    ``copy_keys[x]``.  ``glued`` maps each atom to the least atom of its
    glue orbit across the polygon's sides.  The key of that atom is
    ``region_class(curve, alpha, eps)``, and the ``region_class`` table
    maps each atom key (alpha, eps) to it.

    The face labelling works on the double cover S^2 of RP^2, in which
    the sheet over a quadrant copy changes only across the side z = 0,
    the side with glue (1, 1).  ``sheets`` maps each atom to the least
    atom of its glue orbit across x = 0 and y = 0 alone, and ``links``
    holds the pairs of atoms that z = 0 glues, each across a change of
    sheet: (4k, 4k + 3) and (4k + 1, 4k + 2) for each lattice point k of
    that side.

    Lanes, lists of four ints per edge in edge order, hold what the face
    labelling reads of each edge copy: the copies drawn at level 0, then
    those drawn at level 1 (``_LANE_CODES``), which are the copies left
    undrawn at level 0.  Per copy 4*eid + c: ``atoms_p`` and ``atoms_q``
    the atoms 4*k + c of its edge's dual endpoints, and ``copies`` the
    copy itself.  ``_picks`` selects a phase's copies from a lane with
    ``compress``.  A curve keeps a few lists, not objects per edge.

    Built from one pass over the edges and one over the sides' points.
    Each unit segment of a side is one triangle edge of the dual, so the
    side carries one ray along its normal per unit of its lattice length,
    as the curve's construction certifies.  A boundary point's glue
    orbits are read off ``_ORBIT_LEAST`` for the glues of the sides
    through it.  The key tables and ``copies`` are built on first read.
    """

    def __init__(self, curve: TropicalCurve):
        curve.require_degree()
        base = _base(curve)
        self._points = points = base.points
        index = base.index
        self._classes = base.classes
        # per direction class, the atoms 4*k + c of each lattice point k
        # in the order of the lanes' codes c
        quads = {
            cls: [(a + c0, a + c1, a + c2, a + c3) for a in range(0, 4 * len(points), 4)]
            for cls, (c0, c1, c2, c3) in _LANE_CODES.items()
        }
        self.atoms_p, self.atoms_q = atoms_p, atoms_q = [], []
        for (i, j), cls in zip(base.duals, base.classes):
            quad = quads[cls]
            atoms_p += quad[i]
            atoms_q += quad[j]
        glues: dict[int, int] = {}
        z_atoms = []
        for side in curve.dual.sides:
            g = _code(side.glue)
            # the copies glue across the side, one interval of it per lattice point
            for alpha in side.points:
                a = 4 * index[alpha]
                glues[a] = glues.get(a, 0) | 1 << g
                if g == 3:
                    z_atoms.append(a)
        # the orbits on one sheet, then on RP^2, where z = 0 (glue code 3)
        # joins those of its points as well
        self.sheets = sheets = list(range(4 * len(points)))
        for a, m in glues.items():
            if m & _SHEET_GLUES:
                least = _ORBIT_LEAST[m & _SHEET_GLUES]
                sheets[a:a + 4] = (a + least[0], a + least[1], a + least[2], a + least[3])
        self.glued = glued = sheets[:]
        links = []
        for a in z_atoms:
            least = _ORBIT_LEAST[glues[a]]
            glued[a:a + 4] = (a + least[0], a + least[1], a + least[2], a + least[3])
            links += ((a, a + 3), (a + 1, a + 2))
        self.links = tuple(links)

    @cached_property
    def copies(self) -> list[int]:
        return [4 * eid + c for eid, cls in enumerate(self._classes) for c in _LANE_CODES[cls]]

    @cached_property
    def atom_keys(self) -> tuple[tuple[IVec, Eps], ...]:
        return tuple(product(self._points, EPS4))

    @cached_property
    def region_class(self) -> dict[tuple[IVec, Eps], tuple[IVec, Eps]]:
        keys = self.atom_keys
        return {keys[x]: keys[p] for x, p in enumerate(self.glued)}

    @cached_property
    def copy_keys(self) -> tuple[tuple[int, Eps], ...]:
        return tuple(product(range(len(self._classes)), EPS4))


_cells = curve_table(_Cells)


@curve_table
def _cell_sums(curve: TropicalCurve) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per vertex, its dual cell's index sum and the parities of its
    coordinate sums.  An edge's two cells share its dual points p, q, so
    each opposite vertex is its cell's index sum less those of p and q,
    and they agree mod 2 iff the cells' coordinate sums do."""
    index = _base(curve).index
    sums, parity = [], []
    for a, b, c in curve.vertex_cell:
        sums.append(index[a] + index[b] + index[c])
        parity.append((a[0] + b[0] + c[0]) & 1 | ((a[1] + b[1] + c[1]) & 1) << 1)
    return tuple(sums), tuple(parity)


@curve_table
def _sign_columns(curve: TropicalCurve) -> tuple[tuple[int, ...], int]:
    """The sign rule as one column per lattice point: the bounded edges
    whose twist its minus sign flips, and the offsets as one int.  An
    edge's twist reads the minus signs of the two cell vertices opposite
    it when they agree mod 2, else of those and its two dual points,
    flipped.  Two reads of ``_cell_sums`` per edge."""
    base = _base(curve)
    sums, parity = _cell_sums(curve)
    edges, duals = curve.edges, base.duals
    columns, offsets = [0] * len(base.points), 0
    for k, eid in enumerate(curve.bounded_edges):
        e = edges[eid]
        t, h = e.tail, e.head
        i, j = duals[eid]
        bit = 1 << k
        columns[sums[t] - i - j] |= bit
        columns[sums[h] - i - j] |= bit
        if parity[t] != parity[h]:
            columns[i] |= bit
            columns[j] |= bit
            offsets |= bit
    return tuple(columns), offsets


@curve_table
def _sign_solver(curve: TropicalCurve) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...], tuple[int, ...]]:
    """The sign rule solved along ``walk_order`` for the least minus
    signs: each point's minus bit is the parity of its combo over the
    right-hand sides (twist bits XOR offsets).  With vertex 0's cell all
    plus, an entry's bounded edge k signs the far cell's opposite point by
    1 << k ^ the near cell's opposite point ^ (for cells of different
    coordinate-sum parity) its dual points; a point signed already gives a
    relation instead, the XOR of the two.  The walk reaches every cell of
    the connected dual, so it signs every point.  Returns (point bit,
    combo) for the nonzero combos, the nonzero relations, and the
    re-signings by eps = (e0, e1), at index e0 | e1 << 1, on the points p
    with e.p odd."""
    base = _base(curve)
    sums, parity = _cell_sums(curve)
    duals, edges, bounded_index = base.duals, curve.edges, curve.bounded_index
    combos: list[int | None] = [None] * len(base.points)
    for p in curve.vertex_cell[0]:
        combos[base.index[p]] = 0
    relations = []
    for eid, v, forward, _ in curve.walk_order:
        k = bounded_index.get(eid)
        if k is None:
            continue
        far = edges[eid].head if forward else edges[eid].tail
        i, j = duals[eid]
        s = sums[far] - i - j
        combo = 1 << k ^ combos[sums[v] - i - j]
        if parity[v] != parity[far]:
            combo ^= combos[i] ^ combos[j]
        if combos[s] is None:
            combos[s] = combo
        elif combo != combos[s]:
            relations.append(combo ^ combos[s])
    xs = sum(1 << k for k, (x, _) in enumerate(base.points) if x & 1)
    ys = sum(1 << k for k, (_, y) in enumerate(base.points) if y & 1)
    # the solutions differ by the affine re-signings; in a basis where no
    # vector holds an earlier one's top point, the least solution clears
    # each top point in turn, so each point of its vector takes in its combo
    basis: list[int] = []
    for v in ((1 << len(combos)) - 1, xs, ys):
        for b in basis:
            v = min(v, v ^ b)
        basis.append(v)
    for b in basis:
        top = combos[b.bit_length() - 1]
        for q in range(len(combos)):
            if b >> q & 1:
                combos[q] ^= top
    return tuple((1 << p, c) for p, c in enumerate(combos) if c), tuple(relations), (0, xs, ys, xs ^ ys)


@curve_table
def _sign_tree(curve: TropicalCurve) -> tuple[tuple[tuple[int, int, int], ...], tuple[IVec, ...]]:
    """A spanning tree of the dual graph rooted at lattice point 0, as
    (point, parent point, edge) in discovery order, which
    ``_Base.sign_bits`` walks, and the lattice points in the order of the
    tree, point 0 first: the key order of ``signs_from_phase``."""
    base = _base(curve)
    adj: list[list[tuple[int, int]]] = [[] for _ in base.points]
    for eid, (i, j) in enumerate(base.duals):
        adj[i].append((j, eid))
        adj[j].append((i, eid))
    tree, seen = [], {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j, eid in adj[i]:
            if j not in seen:
                seen.add(j)
                tree.append((j, i, eid))
                stack.append(j)
    points = base.points
    return tuple(tree), (points[0], *(points[j] for j, _, _ in tree))


@curve_table
def _side_ends(curve: TropicalCurve) -> dict[tuple[int, int], tuple[int, bool]]:
    """The sidedness rule at every end v of every edge e, rays included:
    (eid, v) -> (f, s) for f the first other edge at v and s whether f
    leaves v on the left of e's direction.  At a vertex the three
    direction classes are distinct and the two other edges lie on
    opposite sides of e, so a phase element of e continues along f iff it
    is the one point where e's and f's lines meet (``_twisted_between``).

    Built per vertex from its three edges a, b, c (in ``vertex_edges``
    order): the signs at v of a and b and the determinants of a's
    direction with b's and c's give the sides of the three ends (f is b
    at a's end, a at the others).  Neither fact above is checked here:
    the curve's construction certifies that the dual of each vertex is a
    unit triangle, whose edge vectors are distinct and nonzero mod 2, and
    three primitive directions that sum to zero lie pairwise on opposite
    sides.
    """
    edges = curve.edges
    ends = {}
    for v, (a, b, c) in enumerate(curve.vertex_edges):
        sa, sb = _end_sign(curve, a, v), _end_sign(curve, b, v)
        (ax, ay), (bx, by), (cx, cy) = edges[a].direction, edges[b].direction, edges[c].direction
        ab, ac = ax * by - ay * bx, ax * cy - ay * cx
        # the end of x at v sees the other edge y on the side of
        # det(d_x, o_y) = s_y det(d_x, d_y), d the directions, o outward
        ends[a, v] = (b, sb * ab > 0)
        ends[b, v] = (a, sa * ab < 0)
        ends[c, v] = (a, sa * ac < 0)
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
    shared = tuple((bit, *on[bit]) for bit in sorted(on) if len(on[bit]) == 2)
    return tuple(adm), tuple(cycles), shared


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
    negation), with + at lattice point 0: the phase's minus bits
    (``_Base.sign_bits``), all flipped if point 0 is minus, keyed in the
    order of ``_sign_tree``."""
    base = _base(curve)
    pts = base.points
    minus = base.sign_bits(phase, curve)
    if minus & 1:
        minus ^= (1 << len(pts)) - 1
    signs = dict.fromkeys(_sign_tree(curve)[1], 1)
    while minus:
        low = minus & -minus
        signs[pts[low.bit_length() - 1]] = -1
        minus ^= low
    return SignDistribution(signs)


def twists_from_signs(curve: TropicalCurve, delta: SignDistribution) -> TwistSet:
    """Twisted edges read off the sign distribution by the sign rule."""
    return _twist_set(curve, _columns(_base(curve).minus(delta), *_sign_columns(curve)))


def edge_twisted(curve: TropicalCurve, phase: RealPhaseStructure, eid: int) -> bool:
    """Sidedness rule for the bounded edge eid, between its two ends."""
    e = curve.edges[eid]
    if not e.bounded:
        raise InvariantViolation("only bounded edges carry a twist")
    ends = _side_ends(curve)
    lines = phase.lines
    return _twisted_between(lines[eid].level, lines, ends[eid, e.tail], lines, ends[eid, e.head])


def twists_from_phase(curve: TropicalCurve, phase: RealPhaseStructure) -> TwistSet:
    """Twisted edges read off the phase structure: the sign rule on the
    minus bits of a sign distribution inducing it (``_Base.sign_bits``).
    Every phase that ``levels`` accepts is sign-induced, and the sign rule
    gives the same twists for a distribution and its negation, so this is
    the sidedness rule of ``edge_twisted`` on every bounded edge."""
    return _twist_set(curve, _columns(_base(curve).sign_bits(phase, curve), *_sign_columns(curve)))


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


@curve_table
def adm_space(curve: TropicalCurve) -> Gf2Subspace:
    """Admissible twist sets; the kernel is computed once per curve."""
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

    Solves the sign rule for the least sign distribution by the parities
    of ``_sign_solver`` and re-signs it so the induced phase structure
    puts the seed symmetry on the seed edge (re-signing by eps translates
    the phase by eps).  Insolvability, an odd relation, is exactly
    inadmissibility.
    """
    if seed is None:
        seed = (curve.bounded_edges[0] if curve.bounded_edges else 0, (0, 0))
    pairs, relations, flips = _sign_solver(curve)
    rhs = twists.vector.bits ^ _sign_columns(curve)[1]
    for relation in relations:
        if (rhs & relation).bit_count() & 1:
            raise NotAdmissible("no sign distribution induces this twist set")
    minus = 0
    for bit, combo in pairs:
        if (rhs & combo).bit_count() & 1:
            minus |= bit
    base = _base(curve)
    seed_edge, seed_eps = seed
    i, j = base.duals[seed_edge]
    pair = base.line_pairs[seed_edge]
    line = pair[1 ^ ((minus >> i ^ minus >> j) & 1)]
    if not line.contains(seed_eps):
        shift = min(_xor(seed_eps, el) for el in line.elements)
        minus ^= flips[shift[0] | shift[1] << 1]
    return base.phase_of_signs(minus)


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
    def _picks(self) -> tuple[bytes, bytes]:
        """The selectors of the drawn and the undrawn copies from a lane of
        the curve's ``_cells`` (``_picks``)."""
        return _picks(self._levels, len(self.curve.edges))

    @cached_property
    def edge_copies(self) -> frozenset[tuple[int, Eps]]:
        """The drawn copies, read off the ``copies`` lane (4*eid + c) of
        the curve's ``_cells`` at this phase's level bits."""
        return frozenset((x >> 2, EPS4[x & 3]) for x in compress(_cells(self.curve).copies, self._picks[0]))


class CurveComponentInfo(_Record):
    """One component of a real part, a record (``_Record``) of its drawn
    edge copies, its kind, its nesting depth (1 for an outermost oval, 0
    for the pseudo-line) and, for an oval, the atoms inside it.

    ``count_components_direct`` builds ``edge_copies`` and
    ``interior_regions`` on first read."""

    __slots__ = ("_edge_copies", "kind", "nesting_depth", "_interior_regions", "_source")
    _fields = ("edge_copies", "kind", "nesting_depth", "interior_regions")

    def __init__(
        self,
        edge_copies: frozenset[tuple[int, Eps]],
        kind: str,  # "oval" | "pseudo-line"
        nesting_depth: int,
        interior_regions: frozenset[tuple[IVec, Eps]] | None,
    ):
        self._edge_copies = edge_copies
        self.kind = kind
        self.nesting_depth = nesting_depth
        self._interior_regions = interior_regions
        self._source = None

    @classmethod
    def _of_faces(cls, source: "_ReportSource", pair: tuple[int, int], kind: str, depth: int, face: int | None):
        """The component of ``source`` between the given pair of faces; an
        oval has its disk face, the pseudo-line None."""
        info = cls(None, kind, depth, None)
        info._source = (source, pair, face)
        return info

    @property
    def edge_copies(self) -> frozenset[tuple[int, Eps]]:
        value = self._edge_copies
        if value is None:
            source, pair, _ = self._source
            keys = source.cells.copy_keys
            value = self._edge_copies = frozenset(keys[x] for x in source.copies[pair])
        return value

    @property
    def interior_regions(self) -> frozenset[tuple[IVec, Eps]] | None:
        value = self._interior_regions
        if value is None and self._source is not None:
            source, _, face = self._source
            if face is not None:
                value = self._interior_regions = frozenset(source.below[face])
        return value


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
    # the face pairs (lesser first) of the components, in the order of
    # their least copies, as keys
    groups: dict[tuple[int, int], None]
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
    pseudo-line if they are one face.

    The face outside every oval roots the tree, and each oval's disk is
    its side away from the root.  That face comes from the double cover
    S^2 -> RP^2: the atoms are first glued on one sheet, across x = 0,
    y = 0 and the undrawn copies, and the links of z = 0 then join those
    classes across a change of sheet.  A face lifts to one connected
    piece iff its classes cannot be two-coloured along its links, that
    is iff it holds a loop that meets a line an odd number of times.  A
    face inside an oval lies in a disk, which lifts to two disjoint
    disks, so for even degree the outer face, which holds a Moebius band,
    is the one face that lifts connected; for odd degree every face lies
    in the disk that the pseudo-line's complement is, none lifts
    connected, and the outer face is the one on both sides of the
    pseudo-line.  Reads the curve's ``_cells`` and the real part's level
    bits.

    No vertex copy lies off the two faces of a drawn copy through it: the
    three edges at a vertex lie in three classes mod 2, so their lines
    have no common point and each vertex copy meets 0 or 2 drawn copies.
    With two, the third copy there is undrawn, and the union pass joins
    the vertex copy to one of their faces.

    Raises ``InvariantViolation`` if the pseudo-lines are not d mod 2 in
    number, if the faces are not one more than the ovals or not
    connected, or if the faces that lift connected are not 1 - d mod 2
    in number.
    """
    curve = rp.curve
    cells = _cells(curve)
    drawn, undrawn = rp._picks
    atoms_p, atoms_q = cells.atoms_p, cells.atoms_q
    parent = cells.sheets[:]
    for x, y in zip(compress(atoms_p, undrawn), compress(atoms_q, undrawn)):
        # join the classes of x and y under the lesser root, halving the
        # paths to the roots on the way, so that parent[x] <= x holds
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x < y:
            parent[y] = x
        elif y < x:
            parent[x] = y
    # the classes on one sheet that each link joins
    ends = []
    for x, y in cells.links:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        ends.append((x, y))
    # two-colour those classes along the links, each across a change of
    # sheet: tie[r] = (the lesser class r was tied under, whether their
    # colours differ), so each tree of ties is one face under its least
    # class.  A link that closes a cycle on one colour lifts its face
    # connected.
    tie: dict[int, tuple[int, int]] = {}
    lifted = []
    for x, y in ends:
        flip = 1
        while x in tie:
            x, t = tie[x]
            flip ^= t
        while y in tie:
            y, t = tie[y]
            flip ^= t
        if x < y:
            tie[y] = (x, flip)
        elif y < x:
            tie[x] = (y, flip)
        elif flip:
            lifted.append(x)
    for x in tie:
        f = x
        while f in tie:
            f = tie[f][0]
        parent[x] = f
    # parent[x] <= x, so one pass in atom order leaves each atom on the
    # least atom of its face, which names the face
    for x, p in enumerate(parent):
        parent[x] = parent[p]
    region = parent
    lifted = {region[x] for x in lifted}

    groups: dict[tuple[int, int], None] = {}
    for a, b in zip(compress(atoms_p, drawn), compress(atoms_q, drawn)):
        f = region[a]
        g = region[b]
        if g < f:
            f, g = g, f
        groups[f, g] = None
    pairs = list(groups)
    ovals = [k for k, (f, g) in enumerate(pairs) if f != g]
    lines = [f for f, g in pairs if f == g]
    d = curve.degree
    if len(lines) != d & 1:
        raise InvariantViolation(f"the real part of a curve of degree {d} has {len(lines)} pseudo-lines")
    faces = set(region)
    if len(faces) != len(ovals) + 1:
        raise InvariantViolation(f"{len(faces)} faces around {len(ovals)} ovals: the faces do not form a tree")
    if len(lifted) != 1 - (d & 1):
        raise InvariantViolation(f"{len(lifted)} faces lift connected to S^2 for a curve of degree {d}")
    root = lifted.pop() if lifted else lines[0]
    adj: dict[int, list[tuple[int, int]]] = {f: [] for f in faces}
    for k in ovals:
        f, g = pairs[k]
        adj[f].append((g, k))
        adj[g].append((f, k))
    order, up = _tree_walk(adj, root)
    if len(order) != len(faces):
        raise InvariantViolation("the faces of the real part are not connected")
    disk = {}
    for k in ovals:
        f, g = pair = pairs[k]
        disk[pair] = g if up[g] == (f, k) else f
    depth = {root: 0}
    for f in order[1:]:
        depth[f] = depth[up[f][0]] + 1
    return _FaceTree(region, groups, disk, order, up, depth)


class _ReportSource:
    """What the lazy fields of one component report read: the curve's
    cells, the real part's face tree and its selector of drawn copies."""

    def __init__(self, cells: _Cells, tree: _FaceTree, drawn: bytes):
        self.cells = cells
        self.tree = tree
        self.drawn = drawn

    @cached_property
    def copies(self) -> dict[tuple[int, int], list[int]]:
        """The drawn copies of each component, by its face pair, in order."""
        region = self.tree.region
        cells, drawn = self.cells, self.drawn
        copies: dict[tuple[int, int], list[int]] = {pair: [] for pair in self.tree.groups}
        for x, a, b in zip(*(compress(lane, drawn) for lane in (cells.copies, cells.atoms_p, cells.atoms_q))):
            f, g = region[a], region[b]
            copies[(f, g) if f < g else (g, f)].append(x)
        return copies

    @cached_property
    def below(self) -> dict[int, list[tuple[IVec, Eps]]]:
        """The atom keys of each face and of every face below it."""
        tree = self.tree
        order, up = tree.order, tree.up
        below: dict[int, list[tuple[IVec, Eps]]] = {f: [] for f in order}
        for key, f in zip(self.cells.atom_keys, tree.region):
            below[f].append(key)
        for f in reversed(order[1:]):
            below[up[f][0]].extend(below[f])
        return below


def count_components_direct(rp: RealPart) -> ComponentReport:
    """Components of the real part with oval/pseudo-line classification
    and the nesting tree, read off the face labelling (``_face_tree``).

    Components are listed in the order of their least copies.  An oval's
    depth is the number of ovals on the way down to its disk face, its
    parent the oval just above, and its interior the atoms of its disk
    face and of every face below it.  Each component's edge copies and
    interior are built on first read.
    """
    tree = _face_tree(rp)
    source = _ReportSource(_cells(rp.curve), tree, rp._picks[0])
    up = tree.up
    infos, parents = [], []
    for pair in tree.groups:
        if pair[0] == pair[1]:
            infos.append(CurveComponentInfo._of_faces(source, pair, "pseudo-line", 0, None))
            parents.append(None)
            continue
        f = tree.disk[pair]
        infos.append(CurveComponentInfo._of_faces(source, pair, "oval", tree.depth[f], f))
        # the oval just above is the one into the face outside this oval
        above = up[up[f][0]]
        parents.append(None if above is None else above[1])
    return ComponentReport(count=len(infos), components=tuple(infos), nesting_parent=tuple(parents))
