"""Real structures on tropical curves: sign distributions, phase
structures, twisted edges, and the quadrant model of the real part.

The real part lives in the four-quadrant model of the real projective
plane: one copy of the projective triangle per symmetry eps in (Z/2)^2,
glued along boundary strata (the x stratum identifies eps with
eps+(1,0), the y stratum with eps+(0,1), the z stratum with eps+(1,1),
and all four corner copies coincide).  The gluing is read off the Newton
polygon's sides: the d rays with a stratum's outward direction each meet
it at one point, where the ray's two copies glue, and the regions along
the stratum are the lattice points of the dual side.  Components, ovals and nesting are
computed on that cell structure, built once per real part on ints; the
count 1 + dim ker A_T is computed independently from the twist matrix so
the two routes can be checked against each other.

Production routes: twisted edges come from signs by the sign rule and
from a phase structure by the sidedness rule, which intersect and
hyperbolic reuse.  That the rules agree, that phase_from_twists inverts
twists_from_phase, and that the cell model's report matches a fresh
union-find per cut (selfcheck.cut_scan_components) are oracle checks in
selfcheck and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable

from .curve import STRATA, STRATUM_GLUE, STRATUM_RAY_DIR, TropicalCurve, primitive_cycles
from .errors import NotAdmissible, UnknownPoint, ValidationError
from .geometry import IVec, det2
from .gf2 import Gf2Matrix, Gf2Subspace, Gf2Vector, PhaseLine, kernel, solve_affine

EPS4 = ((0, 0), (0, 1), (1, 0), (1, 1))

Eps = tuple[int, int]


def _xor(a: Eps, b: Eps) -> Eps:
    return (a[0] ^ b[0], a[1] ^ b[1])


@dataclass
class SignDistribution:
    """Signs +-1 on the lattice points of the dual polygon."""

    signs: dict[IVec, int]

    def __post_init__(self):
        for v, s in self.signs.items():
            if s not in (1, -1):
                raise ValueError(f"sign at {v} must be +-1")

    def validate_for(self, curve: TropicalCurve) -> None:
        need = set(curve.dual.lattice_points)
        have = set(self.signs)
        if need - have:
            raise ValidationError(f"sign distribution misses lattice points {sorted(need - have)}")
        if have - need:
            raise ValidationError(f"sign distribution has extra points {sorted(have - need)}")

    def resign(self, eps: Eps) -> "SignDistribution":
        """Symmetric re-signing v -> (-1)^(eps.v) * sign(v)."""
        return SignDistribution(
            {v: s * (-1) ** ((eps[0] * v[0] + eps[1] * v[1]) % 2) for v, s in self.signs.items()}
        )

    def negate(self) -> "SignDistribution":
        return SignDistribution({v: -s for v, s in self.signs.items()})

    @classmethod
    def constant(cls, curve: TropicalCurve, sign: int = 1) -> "SignDistribution":
        return cls({v: sign for v in curve.dual.lattice_points})


def extend_sign(delta: SignDistribution, eps: Eps, v: IVec) -> int:
    """Sign of the eps-copy of lattice point v."""
    if v not in delta.signs:
        raise UnknownPoint(f"{v} is not in the sign distribution")
    return delta.signs[v] * (-1) ** ((eps[0] * v[0] + eps[1] * v[1]) % 2)


@dataclass(frozen=True)
class RealPhaseStructure:
    """One affine line in (Z/2)^2 per edge of the curve."""

    lines: tuple[PhaseLine, ...]

    def translate(self, eps: Eps) -> "RealPhaseStructure":
        return RealPhaseStructure(tuple(ln.translate(eps) for ln in self.lines))

    def validate_for(self, curve: TropicalCurve) -> None:
        if len(self.lines) != len(curve.edges):
            raise ValidationError("phase structure does not cover every edge")
        for e in curve.edges:
            want = (e.direction[0] & 1, e.direction[1] & 1)
            if self.lines[e.index].direction != want:
                raise ValidationError(
                    f"edge {e.index}: phase direction {self.lines[e.index].direction} != {want}"
                )
        for v, incident in enumerate(curve.vertex_edges):
            if sum(self.lines[eid].level for eid in incident) % 2 != 1:
                raise ValidationError(f"vertex {v}: phase lines share a common point")


def phase_from_signs(curve: TropicalCurve, delta: SignDistribution) -> RealPhaseStructure:
    """Phase line of each edge: symmetries whose copy of the dual edge
    has opposite extended signs at its endpoints.

    The eps-copy signs at p and q differ iff eps.(q - p) = 1 + [delta_p !=
    delta_q] (mod 2), and (q - p) mod 2 is the normal of the edge's
    direction class, so that bit is the level of the edge's line.
    """
    delta.validate_for(curve)
    signs = delta.signs
    phase = RealPhaseStructure(tuple(
        PhaseLine.from_level(e.direction, 1 ^ (signs[e.dual[0]] != signs[e.dual[1]]))
        for e in curve.edges
    ))
    phase.validate_for(curve)
    return phase


def signs_from_phase(curve: TropicalCurve, phase: RealPhaseStructure) -> SignDistribution:
    """A sign distribution inducing the phase structure (the other is its
    negation).  Propagates sign flips over the subdivision edges: the
    identity copy of an edge is drawn iff the endpoint signs differ."""
    phase.validate_for(curve)
    flip: dict[frozenset, bool] = {}
    adj: dict[IVec, list[IVec]] = {pt: [] for pt in curve.dual.lattice_points}
    for e in curve.edges:
        p, q = e.dual
        flip[frozenset((p, q))] = phase.lines[e.index].contains((0, 0))
        adj[p].append(q)
        adj[q].append(p)
    signs: dict[IVec, int] = {}
    root = curve.dual.lattice_points[0]
    signs[root] = 1
    stack = [root]
    while stack:
        p = stack.pop()
        for q in adj[p]:
            s = -signs[p] if flip[frozenset((p, q))] else signs[p]
            if q in signs:
                if signs[q] != s:
                    raise ValidationError("phase structure is not induced by any sign distribution")
            else:
                signs[q] = s
                stack.append(q)
    if len(signs) != len(curve.dual.lattice_points):
        raise AssertionError("dual subdivision graph is disconnected")
    delta = SignDistribution(signs)
    return delta


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


def _opposite_cell_vertices(curve: TropicalCurve, eid: int) -> tuple[IVec, IVec]:
    """Third point of the dual cell of each end of the bounded edge, the
    lower vertex index first."""
    e = curve.edges[eid]
    v3, v4 = (
        next(x for x in curve.vertex_cell[v] if x not in e.dual)
        for v in sorted((e.tail, e.head))
    )
    return v3, v4


def _twist_sign_rule(curve: TropicalCurve, eid: int) -> tuple[tuple[IVec, ...], int]:
    """Sign rule for a bounded edge: the cell vertices whose signs decide
    it (the two opposite ones when they agree mod 2, else all four) and an
    offset; it is twisted iff their minus signs plus the offset are odd."""
    p, q = curve.edges[eid].dual
    v3, v4 = _opposite_cell_vertices(curve, eid)
    if (v3[0] - v4[0]) % 2 == 0 and (v3[1] - v4[1]) % 2 == 0:
        return (v3, v4), 0
    return (p, q, v3, v4), 1


def twists_from_signs(curve: TropicalCurve, delta: SignDistribution) -> TwistSet:
    """Twisted edges read off the sign distribution by the sign rule."""
    delta.validate_for(curve)
    twisted = []
    for eid in curve.bounded_edges:
        points, offset = _twist_sign_rule(curve, eid)
        if (sum(delta.signs[x] == -1 for x in points) + offset) % 2:
            twisted.append(eid)
    return TwistSet.from_edges(curve, twisted)


def _continuation_edge(curve: TropicalCurve, phase: RealPhaseStructure, eid: int, v: int, eps: Eps) -> int:
    """The unique other edge at v whose phase line contains eps."""
    found = None
    for oid in curve.vertex_edges[v]:
        if oid == eid:
            continue
        if phase.lines[oid].contains(eps):
            assert found is None, "phase continuation is not unique"
            found = oid
    assert found is not None, "phase continuation does not exist"
    return found


def _outward_direction(curve: TropicalCurve, eid: int, v: int) -> IVec:
    e = curve.edges[eid]
    if e.tail == v:
        return e.direction
    assert e.bounded and e.head == v
    return (-e.direction[0], -e.direction[1])


def continuation_side(
    curve: TropicalCurve, phase: RealPhaseStructure, eid: int, v: int, ref_dir: IVec, eps: Eps
) -> bool:
    """Whether the phase continuation of eps at the end v of edge eid
    leaves v on the left of ref_dir."""
    cont = _continuation_edge(curve, phase, eid, v, eps)
    s = det2(ref_dir, _outward_direction(curve, cont, v))
    assert s != 0, "a phase continuation is never parallel to the edge it continues"
    return s > 0


def sides_differ(
    elements: tuple[Eps, Eps], side_a: Callable[[Eps], bool], side_b: Callable[[Eps], bool]
) -> bool:
    """The sidedness rule: a piece of curve between two ends is twisted
    iff, for a phase element eps on it, the continuations at the two ends
    leave on opposite sides.  The verdict must not depend on the element."""
    verdicts = {side_a(eps) != side_b(eps) for eps in elements}
    assert len(verdicts) == 1, "twist verdict must not depend on the phase element"
    return verdicts.pop()


def edge_twisted(curve: TropicalCurve, phase: RealPhaseStructure, eid: int) -> bool:
    """Sidedness rule for the bounded edge eid."""
    e = curve.edges[eid]
    assert e.bounded, "only bounded edges carry a twist"
    return sides_differ(
        phase.lines[eid].elements,
        partial(continuation_side, curve, phase, eid, e.tail, e.direction),
        partial(continuation_side, curve, phase, eid, e.head, e.direction),
    )


def twists_from_phase(curve: TropicalCurve, phase: RealPhaseStructure) -> TwistSet:
    """Twisted edges read off the phase structure by the sidedness rule."""
    return TwistSet.from_edges(
        curve, (eid for eid in curve.bounded_edges if edge_twisted(curve, phase, eid))
    )


# -- admissible / dividing spaces ---------------------------------------


def _cycle_rows(curve: TropicalCurve) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Bit rows over the bounded edges: per primitive cycle, its edges of
    odd x and of odd y direction (admissibility), and all its edges.
    Built once per curve."""
    if curve._cycle_rows is None:
        adm, cycles = [], []
        for cyc in primitive_cycles(curve):
            rx = ry = r = 0
            for eid in cyc.edges:
                bit = 1 << curve.bounded_index[eid]
                d = curve.edges[eid].direction
                if d[0] & 1:
                    rx |= bit
                if d[1] & 1:
                    ry |= bit
                r |= bit
            adm.extend([rx, ry])
            cycles.append(r)
        curve._cycle_rows = (tuple(adm), tuple(cycles))
    return curve._cycle_rows


def _all_even(rows: tuple[int, ...], twists: TwistSet) -> bool:
    return not any((r & twists.vector.bits).bit_count() & 1 for r in rows)


def is_admissible(curve: TropicalCurve, twists: TwistSet) -> bool:
    """Each primitive cycle's twisted edge directions sum to zero mod 2."""
    return _all_even(_cycle_rows(curve)[0], twists)


def is_dividing(curve: TropicalCurve, twists: TwistSet) -> bool:
    """Each primitive cycle has an even number of twisted edges."""
    adm, cycles = _cycle_rows(curve)
    if not _all_even(adm, twists):
        raise NotAdmissible("twist set violates the cycle direction-sum condition")
    return _all_even(cycles, twists)


def adm_space(curve: TropicalCurve) -> Gf2Subspace:
    rows = _cycle_rows(curve)[0]
    return kernel(Gf2Matrix(len(rows), len(curve.bounded_edges), rows))


def div_space(curve: TropicalCurve) -> Gf2Subspace:
    """Dividing twist sets; the kernel is computed once per curve."""
    if curve._div_space is None:
        adm, cycles = _cycle_rows(curve)
        rows = adm + cycles
        curve._div_space = kernel(Gf2Matrix(len(rows), len(curve.bounded_edges), rows))
    return curve._div_space


def phase_from_twists(
    curve: TropicalCurve, twists: TwistSet, seed: tuple[int, Eps] | None = None
) -> RealPhaseStructure:
    """A phase structure inducing the given admissible twist set.

    Solves the sign-product relations for a sign distribution over GF(2)
    and translates the induced phase structure so the seed symmetry lies
    on the seed edge.  Insolvability is exactly inadmissibility.
    """
    if seed is None:
        seed = (curve.bounded_edges[0] if curve.bounded_edges else 0, (0, 0))
    pts = curve.dual.lattice_points
    index = {p: k for k, p in enumerate(pts)}
    n = len(pts)
    constraints = []
    for eid in curve.bounded_edges:
        points, offset = _twist_sign_rule(curve, eid)
        t = 1 if eid in twists.edges else 0
        constraints.append((Gf2Vector.from_indices(n, (index[x] for x in points)), t ^ offset))
    flat = solve_affine(constraints, n)
    if flat is None:
        raise NotAdmissible("no sign distribution induces this twist set")
    bits = flat.offset
    delta = SignDistribution({p: -1 if bits.bit(index[p]) else 1 for p in pts})
    phase = phase_from_signs(curve, delta)
    seed_edge, seed_eps = seed
    if not phase.lines[seed_edge].contains(seed_eps):
        shifts = [_xor(seed_eps, el) for el in phase.lines[seed_edge].elements]
        phase = phase.translate(min(shifts))
    assert phase.lines[seed_edge].contains(seed_eps)
    return phase


def count_components_matrix(curve: TropicalCurve, twists: TwistSet) -> int:
    """Number of real components from the cycle/twist pairing matrix."""
    if not is_admissible(curve, twists):
        raise NotAdmissible("component count needs an admissible twist set")
    return 1 + kernel(twist_matrix(curve, twists)).dim


def twist_matrix(curve: TropicalCurve, twists: TwistSet) -> Gf2Matrix:
    """The symmetric pairing |cycle_i * cycle_j * T| mod 2."""
    cycles = primitive_cycles(curve)
    g = len(cycles)
    rows = []
    for ci in cycles:
        r = 0
        for j, cj in enumerate(cycles):
            if len(ci.edges & cj.edges & twists.edges) % 2:
                r |= 1 << j
        rows.append(r)
    return Gf2Matrix(g, g, tuple(rows))


# -- the quadrant model of the real part --------------------------------


def region_class(curve: TropicalCurve, alpha: IVec, eps: Eps) -> tuple[IVec, Eps]:
    """Canonical representative of (alpha, eps) modulo boundary gluing."""
    orbit = {eps}
    for s in curve.strata_of_point(alpha):
        g = STRATUM_GLUE[s]
        orbit |= {_xor(e, g) for e in orbit}
    return (alpha, min(orbit))


def _root(parent, x):
    """Root of x in a parent map, halving the path on the way."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _union(parent: list[int], x: int, y: int) -> None:
    rx, ry = _root(parent, x), _root(parent, y)
    if rx != ry:
        parent[rx] = ry


class _UnionFind:
    """Union-find over arbitrary hashable keys."""

    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        return _root(self.parent, x)

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[rx] = ry


def _code(eps: Eps) -> int:
    """Index of eps in EPS4; an edge copy (eid, eps) is 4*eid + _code(eps)."""
    return 2 * eps[0] + eps[1]


class RealPart:
    """Edge copies of the real part, grouped into connected components."""

    def __init__(self, curve: TropicalCurve, phase: RealPhaseStructure):
        curve.require_degree()
        phase.validate_for(curve)
        self.curve = curve
        self.phase = phase
        # bit c of _on[eid] is set iff the copy (eid, EPS4[c]) is drawn
        self._on = [sum(1 << _code(eps) for eps in line.elements) for line in phase.lines]
        self._copies = [
            4 * eid + c for eid, mask in enumerate(self._on) for c in range(4) if mask >> c & 1
        ]
        self.edge_copies: frozenset[tuple[int, Eps]] = frozenset(
            (x >> 2, EPS4[x & 3]) for x in self._copies
        )
        # rays escaping through each stratum; each ends at one boundary point
        self._rays = {
            s: [e.index for e in curve.edges if not e.bounded and e.direction == STRATUM_RAY_DIR[s]]
            for s in STRATA
        }
        if any(len(rays) != curve.degree for rays in self._rays.values()):
            raise AssertionError("each boundary stratum must carry exactly d rays")
        self._components: list[frozenset[tuple[int, Eps]]] | None = None
        self._component_of: dict[int, int] = {}  # edge copy code -> component index

    def curve_components(self) -> list[frozenset[tuple[int, Eps]]]:
        """Connected components of the real part as sets of edge copies,
        ordered by their least copy."""
        if self._components is not None:
            return self._components
        edges = self.curve.edges
        nv = len(self.curve.vertices)
        # nodes: vertex copy 4*v + c, and the boundary point 4*nv + eid of a ray
        parent = list(range(4 * nv + len(edges)))
        for x in self._copies:
            e, c = edges[x >> 2], x & 3
            # both copies of a ray glue at its one boundary point: its
            # phase direction is its stratum's glue vector
            _union(parent, 4 * e.tail + c, 4 * e.head + c if e.bounded else 4 * nv + e.index)
        groups: dict[int, list[int]] = {}
        for x in self._copies:
            groups.setdefault(_root(parent, 4 * edges[x >> 2].tail + (x & 3)), []).append(x)
        self._component_of = {x: k for k, g in enumerate(groups.values()) for x in g}
        self._components = [frozenset((x >> 2, EPS4[x & 3]) for x in g) for g in groups.values()]
        return self._components


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


class _CellModel:
    """The quadrant cell model of a real part, on ints.

    Atom (alpha, eps) is 4*k + _code(eps), k the index of alpha among the
    lattice points.  The base regions are the classes of atoms glued across
    every edge copy off the real part and along the boundary strata: the
    complement of the whole real part.  Each open cell of the model (atom,
    edge copy, stratum interval, ray boundary point, vertex copy, corner)
    weighs +-1 in the Euler characteristic of the region it lies in.
    `weight` sums every cell per base region, `own[K]` the cells on
    component K, which a cut along K removes.  `joins[K]` holds the pairs of
    base regions that K's edge copies separate.
    """

    def __init__(self, rp: RealPart):
        curve = rp.curve
        on, comps = rp._on, rp.curve_components()
        pts = curve.dual.lattice_points
        atom = {p: 4 * k for k, p in enumerate(pts)}
        parent = list(range(4 * len(pts)))
        for e in curve.edges:
            a, b = atom[e.dual[0]], atom[e.dual[1]]
            for c in range(4):
                if not on[e.index] >> c & 1:
                    _union(parent, a + c, b + c)
        for p, a in atom.items():
            for s in curve.strata_of_point(p):
                g = _code(STRATUM_GLUE[s])
                for c in range(4):
                    _union(parent, a + c, a + (c ^ g))
        ids: dict[int, int] = {}
        region = [ids.setdefault(_root(parent, x), len(ids)) for x in range(len(parent))]
        self.members: list[list[tuple[IVec, Eps]]] = [[] for _ in ids]
        for p, a in atom.items():
            for c in range(4):
                self.members[region[a + c]].append((p, EPS4[c]))
        self.weight = [0] * len(ids)
        self.own: list[dict[int, int]] = [{} for _ in comps]
        self.joins: list[set[tuple[int, int]]] = [set() for _ in comps]

        def cell(r: int, w: int, copy: int | None) -> None:
            """Weight w in region r for a cell on edge copy `copy`, or off
            the real part if None."""
            self.weight[r] += w
            if copy is not None:
                own = self.own[rp._component_of[copy]]
                own[r] = own.get(r, 0) + w

        for r in region:
            self.weight[r] += 1
        for e in curve.edges:
            a, b = atom[e.dual[0]], atom[e.dual[1]]
            for c in range(4):
                ra, rb = region[a + c], region[b + c]
                if on[e.index] >> c & 1:
                    cell(ra, -1, 4 * e.index + c)
                    if ra != rb:
                        self.joins[rp._component_of[4 * e.index + c]].add((ra, rb))
                else:
                    cell(ra, -1, None)
        for s in STRATA:
            g = _code(STRATUM_GLUE[s])
            classes = sorted({min(c, c ^ g) for c in range(4)})
            # one interval of the stratum per lattice point of the dual side
            for alpha in curve.side_points(s):
                for cls in classes:
                    cell(region[atom[alpha] + cls], -1, None)
            # a ray's copies are both drawn or both not, and glue at its
            # boundary point
            for eid in rp._rays[s]:
                a = atom[curve.edges[eid].dual[0]]
                for cls in classes:
                    cell(region[a + cls], 1, 4 * eid + cls if on[eid] >> cls & 1 else None)
        for v, incident in enumerate(curve.vertex_edges):
            a = atom[curve.vertex_cell[v][0]]
            for c in range(4):
                copy = next((4 * eid + c for eid in incident if on[eid] >> c & 1), None)
                cell(region[a + c], 1, copy)
        d = curve.degree
        for corner in ((0, 0), (d, 0), (0, d)):
            cell(region[atom[corner]], 1, None)

    def sides(self, k: int) -> list[tuple[int, list[int]]]:
        """The sides of the cut along component k, each as its Euler
        characteristic and its base regions."""
        parent = list(range(len(self.weight)))
        for j, joins in enumerate(self.joins):
            if j != k:
                for ra, rb in joins:
                    _union(parent, ra, rb)
        own = self.own[k]
        chi: dict[int, int] = {}
        regions: dict[int, list[int]] = {}
        for r, w in enumerate(self.weight):
            root = _root(parent, r)
            chi[root] = chi.get(root, 0) + w - own.get(r, 0)
            regions.setdefault(root, []).append(r)
        return [(chi[root], regions[root]) for root in chi]


def count_components_direct(rp: RealPart) -> ComponentReport:
    """Components of the real part with oval/pseudo-line classification
    and the nesting tree, straight from the quadrant cell model: a
    component is an oval iff cutting along it leaves two sides, and its
    interior is the side with Euler characteristic 1."""
    model = _CellModel(rp)
    infos: list[tuple[frozenset[tuple[int, Eps]], str, frozenset | None]] = []
    for k, K in enumerate(rp.curve_components()):
        sides = model.sides(k)
        if len(sides) == 1:
            infos.append((K, "pseudo-line", None))
            continue
        assert len(sides) == 2, "a closed curve cuts the projective plane into 1 or 2 sides"
        chis = sorted(chi for chi, _ in sides)
        assert chis == [0, 1], f"oval sides must be a disk and a Moebius side, got chi={chis}"
        disk = next(regions for chi, regions in sides if chi == 1)
        interior = frozenset(a for r in disk for a in model.members[r])
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
    assert sum(1 for _, kind, _ in infos if kind == "pseudo-line") <= 1
    return ComponentReport(
        count=n,
        components=tuple(
            CurveComponentInfo(copies, kind, depths[i], interior)
            for i, (copies, kind, interior) in enumerate(infos)
        ),
        nesting_parent=tuple(parents),
    )
