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
computed on that cell structure; the count 1 + dim ker A_T is computed
independently from the twist matrix so the two routes can be checked
against each other.

Production routes: twisted edges come from signs by the sign rule and
from a phase structure by the sidedness rule, which intersect and
hyperbolic reuse.  That the rules agree, and that phase_from_twists
inverts twists_from_phase, are oracle checks in selfcheck and the tests.
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
    has opposite extended signs at its endpoints."""
    delta.validate_for(curve)
    lines = []
    for e in curve.edges:
        p, q = e.dual
        members = [eps for eps in EPS4 if extend_sign(delta, eps, p) != extend_sign(delta, eps, q)]
        assert len(members) == 2, "a dual edge always has exactly two nonempty copies"
        a, b = members
        lines.append(PhaseLine(a, _xor(a, b)))
    phase = RealPhaseStructure(tuple(lines))
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
    e = curve.edges[eid]
    p, q = e.dual
    cells = curve.cells_of_dual_edge(p, q)
    assert len(cells) == 2, "bounded edge must separate two cells"
    out = []
    for ci in cells:
        (extra,) = [v for v in curve.dual.cells[ci] if v not in (p, q)]
        out.append(extra)
    return out[0], out[1]


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


def _cycle_rows(curve: TropicalCurve) -> tuple[list[int], list[int]]:
    """Bit rows over the bounded edges: per primitive cycle, its edges of
    odd x and of odd y direction (admissibility), and all its edges."""
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
    return adm, cycles


def _all_even(rows: list[int], twists: TwistSet) -> bool:
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
    return kernel(Gf2Matrix(len(rows), len(curve.bounded_edges), tuple(rows)))


def div_space(curve: TropicalCurve) -> Gf2Subspace:
    adm, cycles = _cycle_rows(curve)
    rows = adm + cycles
    return kernel(Gf2Matrix(len(rows), len(curve.bounded_edges), tuple(rows)))


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


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        if p != x:
            self.parent[x] = p = self.find(p)
        return p

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[rx] = ry


class RealPart:
    """Edge copies of the real part plus the quadrant cell bookkeeping."""

    def __init__(self, curve: TropicalCurve, phase: RealPhaseStructure):
        curve.require_degree()
        phase.validate_for(curve)
        self.curve = curve
        self.phase = phase
        self.edge_copies: frozenset[tuple[int, Eps]] = frozenset(
            (e.index, eps) for e in curve.edges for eps in phase.lines[e.index].elements
        )
        # rays escaping through each stratum; each ends at one boundary point
        self._rays = {
            s: [e.index for e in curve.edges if not e.bounded and e.direction == STRATUM_RAY_DIR[s]]
            for s in STRATA
        }
        if any(len(rays) != curve.degree for rays in self._rays.values()):
            raise AssertionError("each boundary stratum must carry exactly d rays")
        self._components: list[frozenset[tuple[int, Eps]]] | None = None

    def curve_components(self) -> list[frozenset[tuple[int, Eps]]]:
        """Connected components of the real part as sets of edge copies."""
        if self._components is not None:
            return self._components
        uf = _UnionFind()
        for eid, eps in self.edge_copies:
            e = self.curve.edges[eid]
            key = ("e", eid, eps)
            uf.union(key, ("v", e.tail, eps))
            if e.bounded:
                uf.union(key, ("v", e.head, eps))
            else:
                # both copies of a ray glue at its one boundary point: its
                # phase direction is its stratum's glue vector
                uf.union(key, ("b", eid))
        groups: dict = {}
        for eid, eps in self.edge_copies:
            groups.setdefault(uf.find(("e", eid, eps)), []).append((eid, eps))
        self._components = [frozenset(g) for g in sorted(groups.values(), key=min)]
        return self._components

    def region_find(self, cut: frozenset[tuple[int, Eps]]) -> _UnionFind:
        """Union-find of the quadrant region atoms, crossing every edge
        copy not in `cut` and gluing along the boundary strata."""
        curve = self.curve
        uf = _UnionFind()
        for e in curve.edges:
            p, q = e.dual
            for eps in EPS4:
                if (e.index, eps) not in cut:
                    uf.union((p, eps), (q, eps))
        for alpha in curve.dual.lattice_points:
            for s in curve.strata_of_point(alpha):
                g = STRATUM_GLUE[s]
                for eps in EPS4:
                    uf.union((alpha, eps), (alpha, _xor(eps, g)))
        return uf

    def side_euler_characteristics(self, cut: frozenset[tuple[int, Eps]], uf: _UnionFind):
        """Euler characteristic of each side of the cut (a disjoint union
        of curve components), by counting open cells of the arrangement."""
        curve = self.curve
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
        for s in STRATA:
            g = STRATUM_GLUE[s]
            classes = sorted({min(eps, _xor(eps, g)) for eps in EPS4})
            # one interval of the stratum per lattice point of the dual side
            for alpha in curve.side_points(s):
                for cls in classes:
                    bump(uf.find((alpha, cls)), -1)
            for eid in self._rays[s]:
                for cls in classes:
                    if (eid, cls) in cut or (eid, _xor(cls, g)) in cut:
                        continue  # boundary point lies on the cut curve
                    bump(uf.find((curve.edges[eid].dual[0], cls)), 1)
        for v in range(len(curve.vertices)):
            for eps in EPS4:
                if (v, eps) in on_cut_vertices:
                    continue
                bump(uf.find((curve.vertex_cell[v][0], eps)), 1)
        d = curve.degree
        for corner in ((0, 0), (d, 0), (0, d)):
            bump(uf.find((corner, (0, 0))), 1)
        return chi


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


def count_components_direct(rp: RealPart) -> ComponentReport:
    """Components of the real part with oval/pseudo-line classification
    and the nesting tree, straight from the quadrant cell model."""
    comps = rp.curve_components()
    infos: list[dict] = []
    for K in comps:
        uf = rp.region_find(K)
        atoms = [
            (alpha, eps) for alpha in rp.curve.dual.lattice_points for eps in EPS4
        ]
        roots = sorted({uf.find(a) for a in atoms})
        if len(roots) == 1:
            infos.append({"edge_copies": K, "kind": "pseudo-line", "interior": None})
            continue
        assert len(roots) == 2, "a closed curve cuts the projective plane into 1 or 2 sides"
        chi = rp.side_euler_characteristics(K, uf)
        chis = sorted(chi[r] for r in roots)
        assert chis == [0, 1], f"oval sides must be a disk and a Moebius side, got chi={chis}"
        disk_root = next(r for r in roots if chi[r] == 1)
        interior = frozenset(a for a in atoms if uf.find(a) == disk_root)
        infos.append({"edge_copies": K, "kind": "oval", "interior": interior})

    # nesting among ovals: witness atom of K inside the disk side of K'
    n = len(infos)
    witness = []
    for info in infos:
        eid, eps = min(info["edge_copies"])
        witness.append((rp.curve.edges[eid].dual[0], eps))
    inside = [[False] * n for _ in range(n)]
    for j, outer in enumerate(infos):
        if outer["kind"] != "oval":
            continue
        for i in range(n):
            if i != j and witness[i] in outer["interior"]:
                inside[i][j] = True
    depths = []
    for i, info in enumerate(infos):
        if info["kind"] == "pseudo-line":
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
    assert sum(1 for info in infos if info["kind"] == "pseudo-line") <= 1
    return ComponentReport(
        count=len(infos),
        components=tuple(
            CurveComponentInfo(info["edge_copies"], info["kind"], depths[i], info["interior"])
            for i, info in enumerate(infos)
        ),
        nesting_parent=tuple(parents),
    )
