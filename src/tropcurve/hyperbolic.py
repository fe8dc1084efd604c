"""Hyperbolicity of real tropical curves and the hyperbolicity locus.

A real tropical curve is hyperbolic iff its twist set is dividing with
twist-matrix kernel of dimension ceil(d/2)-1.  The locus of components
the curve is hyperbolic with respect to is the interior of the innermost
oval of the real part; honeycombs also have a bridge criterion for it.
The three pencil conditions at a generic point of one component answer
the per-point query with a reason; swept over every component they are
the oracle ``selfcheck.pointwise_verdicts``.  Each query point gets one
pencil scan (``_pencil_scan``) on the curve's own integer frame
(``curve.frame``), rescaled by the int factor that puts the point on it
too: it decides genericity and gives the sector of every vertex and the
determinant of every ray × edge crossing, which is all the conditions
read.  The query point itself is found on ints as well: the region point
and each retry are tested by the frame's int argmax, and only the point
returned becomes a ``Fraction``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .curve import ComplementComponent, TropicalCurve
from .errors import (
    NotAdmissible,
    NotDividing,
    NotGenericAfterRetries,
    NotHoneycomb,
    PointOnCurve,
)
from .geometry import IVec, Point, canonical_direction, det2, sub, sub_i
from .gf2 import _LINE_NORMALS, AffineFlat, Gf2Vector, kernel, solve_affine
from .realstruct import (
    EPS4,
    Eps,
    RealPhaseStructure,
    TwistSet,
    _cells,
    _UnionFind,
    continuation_side,
    count_components_direct,
    div_space,
    edge_twisted,
    is_admissible,
    is_dividing,
    real_part,
    sides_differ,
    twist_matrix,
    twists_from_phase,
)

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
            raise AssertionError(f"{p} lies in no part of the pencil subdivision at {self.apex}")
        return ("sector", (0, 1))


def sigma_v(v: Point) -> SigmaV:
    return SigmaV((Fraction(v[0]), Fraction(v[1])))


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


def _generic_point(curve: TropicalCurve, alpha: IVec, start: int = 0, budget: int = 60):
    """A generic point in the component of alpha, with its pencil scan.

    The candidates are the region point and the region point moved by
    (1/(101+17k), 1/(113+19k)), each tested on ints over the lcm of the
    denominators involved."""
    frame = curve.frame
    den0, x0, y0 = curve.region_frame_point(alpha)
    inside = (alpha,)
    for k in range(start, start + budget):
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


@dataclass(frozen=True)
class PointVerdict:
    component: IVec
    eps: Eps
    hyperbolic: bool
    failing_condition: int | None = None
    detail: str = ""


@dataclass(frozen=True)
class MultiBridge:
    edges: frozenset[int]
    dual_line: tuple[str, int]  # ("v"|"h"|"d", level)
    direction: IVec


@dataclass(frozen=True)
class HypAlphaFlat:
    alpha: IVec
    flat: AffineFlat
    constraining_bridges: tuple[MultiBridge, ...]


@dataclass(frozen=True)
class HyperbolicityReport:
    hyperbolic: bool
    kernel_dim: int
    component_count: int
    stable: bool
    locus: frozenset[IVec]
    signed_locus: frozenset[tuple[IVec, Eps]]


def is_hyperbolic(curve: TropicalCurve, twists: TwistSet) -> tuple[bool, int]:
    """Dividing twist set with kernel dimension ceil(d/2) - 1."""
    d = curve.require_degree()
    if not is_admissible(curve, twists):
        raise NotAdmissible("hyperbolicity needs an admissible twist set")
    k = kernel(twist_matrix(curve, twists)).dim
    return (is_dividing(curve, twists) and k == (d + 1) // 2 - 1, k)


# -- pointwise criterion -------------------------------------------------


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
                        assert d in _LINE_RAY_DIRS, "entry direction must be a line ray"
                        cands.append((label, d))
            assert len(cands) == 1, "edge meets its sector across exactly one ray"
            label, d = cands[0]
            w_vid = e.head if d == e.direction else e.tail
            assert self.sector[w_vid] == cls
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
            if ((phi[0] * n_rv[0] + phi[1] * n_rv[1]) & 1) == c_rv:
                cont_dir = rv_dir
                assert ((phi[0] * n_third[0] + phi[1] * n_third[1]) & 1) != c_third
            else:
                cont_dir = third_dir
                assert ((phi[0] * n_third[0] + phi[1] * n_third[1]) & 1) == c_third
            return det2(rec["ref_dir"], cont_dir) > 0

        return sides_differ(rec["elements"], side_u0, rec["side_w"].__getitem__)


def hyperbolic_wrt_point(
    curve: TropicalCurve,
    phase: RealPhaseStructure,
    component: ComplementComponent | IVec,
    eps: Eps,
    sample_offset: int = 0,
) -> PointVerdict:
    """Is every curve near this data hyperbolic with respect to a real
    point in the eps-copy of the component?  Checks the three pencil
    conditions at a deterministically sampled generic point."""
    curve.require_degree()
    phase.validate_for(curve)
    alpha = component.dual_point if isinstance(component, ComplementComponent) else component
    ana = _ComponentAnalysis(curve, phase, alpha, start=sample_offset)
    # the verdict reads twists only on the edges inside their sector
    twisted = frozenset(eid for eid in ana.cond3_contained if edge_twisted(curve, phase, eid))
    return ana.verdict((eps[0] & 1, eps[1] & 1), twisted)


# -- loci -----------------------------------------------------------------


def hyperbolicity_locus(curve: TropicalCurve, phase: RealPhaseStructure) -> HyperbolicityReport:
    """Twist-matrix data plus the locus: the interior of the innermost oval."""
    d = curve.require_degree()
    phase.validate_for(curve)
    twists = twists_from_phase(curve, phase)
    hyp, k = is_hyperbolic(curve, twists)
    atoms: set[tuple[IVec, Eps]] = set()
    if hyp and d == 1:
        atoms = {(a, e) for a in curve.dual.lattice_points for e in EPS4}
    elif hyp:
        report = count_components_direct(real_part(curve, phase))
        ovals = [c for c in report.components if c.kind == "oval"]
        if len(ovals) != d // 2:
            raise AssertionError("hyperbolic curve must have floor(d/2) ovals")
        depths = sorted(c.nesting_depth for c in ovals)
        if depths != list(range(1, len(ovals) + 1)):
            raise AssertionError("oval nesting must be a chain")
        innermost = max(ovals, key=lambda c: c.nesting_depth)
        for other in report.components:
            if other is innermost:
                continue
            eid, eps0 = min(other.edge_copies)
            witness = (curve.edges[eid].dual[0], eps0)
            if witness in innermost.interior_regions:
                raise AssertionError("innermost oval interior must not contain other components")
        atoms = set(innermost.interior_regions)
    # each atom's region_class, read off the curve's table
    signed = frozenset(map(_cells(curve).region_class.__getitem__, atoms)) if atoms else frozenset()
    return HyperbolicityReport(
        hyperbolic=hyp,
        kernel_dim=k,
        component_count=1 + k,
        stable=_stable_limit(curve, phase, twists),
        locus=frozenset(a for a, _ in signed),
        signed_locus=signed,
    )


def is_stable_limit(curve: TropicalCurve, phase: RealPhaseStructure) -> bool:
    """Honeycomb, every bounded edge twisted, and the induced sign
    distribution constant (the identity symmetry is globally consistent)."""
    curve.require_degree()
    phase.validate_for(curve)
    return _stable_limit(curve, phase, twists_from_phase(curve, phase))


def _stable_limit(curve: TropicalCurve, phase: RealPhaseStructure, twists: TwistSet) -> bool:
    # signs_from_phase flips the sign exactly across the edges whose phase
    # line contains (0,0), and the dual graph is connected, so the signs
    # are constant iff no phase line contains (0,0)
    return (
        curve.is_honeycomb()
        and twists.edges == frozenset(curve.bounded_edges)
        and not any(line.contains((0, 0)) for line in phase.lines)
    )


# -- honeycomb specifics ---------------------------------------------------


_DUAL_FAMILY = {(0, 1): "v", (1, 0): "h", (1, -1): "d"}


def multi_bridges(curve: TropicalCurve) -> list[MultiBridge]:
    """The 3(d-1) parallel families that disconnect a honeycomb."""
    d = curve.require_degree()
    if not curve.is_honeycomb():
        raise NotHoneycomb("multi-bridges are defined on honeycombs")
    groups: dict[tuple[str, int], set[int]] = {}
    for eid in curve.bounded_edges:
        p, q = curve.edges[eid].dual
        fam = _DUAL_FAMILY[canonical_direction(sub_i(q, p))]
        if fam == "v":
            level = p[0]
        elif fam == "h":
            level = p[1]
        else:
            level = p[0] + p[1]
        groups.setdefault((fam, level), set()).add(eid)
    bridges = []
    for (fam, level) in sorted(groups):
        eids = frozenset(groups[(fam, level)])
        direction = canonical_direction(curve.edges[min(eids)].direction)
        if any(canonical_direction(curve.edges[e].direction) != direction for e in eids):
            raise AssertionError(f"the edges of multi-bridge {(fam, level)} are not parallel")
        if _removal_components(curve, eids) != 2:
            raise AssertionError("bridge removal must leave two parts")
        bridges.append(MultiBridge(eids, (fam, level), direction))
    if len(bridges) != 3 * (d - 1):
        raise AssertionError(f"{len(bridges)} multi-bridges, not 3(d-1) = {3 * (d - 1)}")
    return bridges


def _removal_components(curve: TropicalCurve, removed: frozenset[int]) -> int:
    uf = _UnionFind()
    for eid in curve.bounded_edges:
        if eid not in removed:
            uf.union(curve.edges[eid].tail, curve.edges[eid].head)
    return len({uf.find(v) for v in range(len(curve.vertices))})


def honeycomb_locus(curve: TropicalCurve, twists: TwistSet) -> frozenset[IVec]:
    """Components whose constraining bridges (left, below, diagonally
    above) are all twisted."""
    d = curve.require_degree()
    if not curve.is_honeycomb():
        raise NotHoneycomb("the bridge criterion needs a honeycomb")
    if not is_dividing(curve, twists):
        raise NotDividing("the bridge criterion needs a dividing twist set")
    bridges = {b.dual_line: b for b in multi_bridges(curve)}
    out = set()
    for alpha in curve.dual.lattice_points:
        if all(
            bridges[key].edges <= twists.edges
            for key in _constraining_keys(alpha, d)
        ):
            out.add(alpha)
    return frozenset(out)


def _constraining_keys(alpha: IVec, d: int) -> list[tuple[str, int]]:
    a1, a2 = alpha
    keys = [("v", k) for k in range(1, a1)]
    keys += [("h", k) for k in range(1, a2)]
    keys += [("d", s) for s in range(a1 + a2 + 1, d)]
    return keys


def hyp_alpha_flat(curve: TropicalCurve, alpha: IVec) -> HypAlphaFlat:
    """Affine flat of dividing twist sets whose locus contains alpha."""
    d = curve.require_degree()
    if not curve.is_honeycomb():
        raise NotHoneycomb("the bridge flat needs a honeycomb")
    if alpha not in curve.dual.lattice_points:
        raise ValueError(f"{alpha} is not a lattice point of the Newton polygon")
    all_bridges = {b.dual_line: b for b in multi_bridges(curve)}
    constraining = tuple(all_bridges[k] for k in _constraining_keys(alpha, d))
    div = div_space(curve)
    n = len(curve.bounded_edges)
    constraints = [(c, 0) for c in div.orthogonal_constraints()]
    for b in constraining:
        for eid in sorted(b.edges):
            constraints.append((Gf2Vector.from_indices(n, [curve.bounded_index[eid]]), 1))
    flat = solve_affine(constraints, n)
    if flat is None:
        raise AssertionError("the constraining bridges admit no dividing twist set")
    if div.dim - flat.dim != len(constraining):
        raise AssertionError("codimension equals the bridge count")
    origin_bits = 0
    for b in constraining:
        for eid in b.edges:
            origin_bits |= 1 << curve.bounded_index[eid]
    if not flat.contains(Gf2Vector(n, origin_bits)):
        raise AssertionError("the flat misses the twist set of the constraining bridges")
    return HypAlphaFlat(alpha, flat, constraining)
