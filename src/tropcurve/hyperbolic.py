"""Hyperbolicity of real tropical curves and the hyperbolicity locus.

A real tropical curve is hyperbolic iff its twist set is dividing with
twist-matrix kernel of dimension ceil(d/2)-1, read off the matrix's rank.
The locus of components the curve is hyperbolic with respect to is the
interior of the innermost oval of the real part: no oval lies inside it,
so it is one face of the face labelling (``realstruct._face_tree``), the
innermost oval's disk face, and no component report is built.  The
report route is the oracle ``selfcheck.locus_from_report``.  Honeycombs
also have a bridge criterion for the locus.
A point query reads its verdict off that locus: the eps-copy of a
component is in it iff its ``region_class`` is in the signed locus, and a
"no" names the fact of the oval route that fails.  The three pencil
conditions at a generic point of one component are the oracle
``selfcheck.pointwise_verdicts``, not a production route.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curve import ComplementComponent, TropicalCurve
from .errors import InvariantViolation, NotAdmissible, NotDividing, NotHoneycomb
from .geometry import IVec, canonical_direction, sub
from .gf2 import AffineFlat, Gf2Vector, solve_affine
from .realstruct import (
    Eps,
    RealPhaseStructure,
    TwistSet,
    _cells,
    _face_tree,
    _root,
    _union,
    div_space,
    is_admissible,
    is_dividing,
    real_part,
    twist_matrix,
    twists_from_phase,
)


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
    m = twist_matrix(curve, twists)
    k = m.cols - m.rank()
    return (is_dividing(curve, twists) and k == (d + 1) // 2 - 1, k)


# -- pointwise criterion -------------------------------------------------


def hyperbolic_wrt_point(
    curve: TropicalCurve,
    phase: RealPhaseStructure,
    component: ComplementComponent | IVec,
    eps: Eps,
) -> PointVerdict:
    """Is every curve near this data hyperbolic with respect to a real
    point in the eps-copy of the component?  Read off the locus: a "no"
    gives condition 1 when the twist set is not dividing, 2 when the
    twist-matrix kernel dimension is not ceil(d/2)-1, and 3 when the copy
    lies outside the innermost oval."""
    d = curve.require_degree()
    alpha = component.dual_point if isinstance(component, ComplementComponent) else component
    if alpha not in curve.dual.lattice_points:
        raise ValueError(f"{alpha} is not a lattice point of the Newton polygon")
    report = hyperbolicity_locus(curve, phase)
    eps = (eps[0] & 1, eps[1] & 1)
    copy = _cells(curve).region_class[(alpha, eps)]
    if copy in report.signed_locus:
        return PointVerdict(alpha, eps, True)
    if report.hyperbolic:
        return PointVerdict(alpha, eps, False, 3, f"the copy {copy} lies outside the innermost oval")
    # hyperbolic is dividing with kernel dimension ceil(d/2)-1, so with that
    # dimension the twist set is not dividing
    want = (d + 1) // 2 - 1
    if report.kernel_dim != want:
        return PointVerdict(
            alpha, eps, False, 2, f"the twist-matrix kernel has dimension {report.kernel_dim}, not {want}"
        )
    return PointVerdict(alpha, eps, False, 1, "the twist set is not dividing")


# -- loci -----------------------------------------------------------------


def hyperbolicity_locus(curve: TropicalCurve, phase: RealPhaseStructure) -> HyperbolicityReport:
    """Twist-matrix data plus the locus: the interior of the innermost
    oval, which is its disk face in the face labelling of the real part."""
    d = curve.require_degree()
    phase.validate_for(curve)
    twists = twists_from_phase(curve, phase)
    hyp, k = is_hyperbolic(curve, twists)
    signed: frozenset[tuple[IVec, Eps]] = frozenset()
    if hyp and d == 1:
        signed = frozenset(_cells(curve).region_class.values())
    elif hyp:
        tree = _face_tree(real_part(curve, phase))
        if len(tree.disk) != d // 2:
            raise InvariantViolation("hyperbolic curve must have floor(d/2) ovals")
        depths = sorted(tree.depth[f] for f in tree.disk.values())
        if depths != list(range(1, len(depths) + 1)):
            raise InvariantViolation("oval nesting must be a chain")
        # no oval lies below the deepest one, so its interior is its disk
        # face, and no other component may touch that face
        face = max(tree.disk.values(), key=tree.depth.__getitem__)
        if sum(face in pair for pair in tree.groups) != 1:
            raise InvariantViolation("innermost oval interior must not contain other components")
        # each atom's region_class, read off the curve's table
        cells = _cells(curve)
        keys, glued = cells.atom_keys, cells.glued
        signed = frozenset([keys[glued[x]] for x, f in enumerate(tree.region) if f == face])
    return HyperbolicityReport(
        hyperbolic=hyp,
        kernel_dim=k,
        component_count=1 + k,
        stable=_stable_limit(curve, phase, twists),
        locus=frozenset(a for a, _ in signed),
        signed_locus=signed,
    )


def _stable_limit(curve: TropicalCurve, phase: RealPhaseStructure, twists: TwistSet) -> bool:
    # signs_from_phase flips the sign exactly across the edges whose phase
    # line contains (0,0), and the dual graph is connected, so the signs
    # are constant iff no phase line contains (0,0)
    return (
        curve.is_honeycomb()
        and twists.vector.bits == (1 << len(curve.bounded_edges)) - 1
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
        fam = _DUAL_FAMILY[canonical_direction(sub(q, p))]
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
            raise InvariantViolation(f"the edges of multi-bridge {(fam, level)} are not parallel")
        if _removal_components(curve, eids) != 2:
            raise InvariantViolation("bridge removal must leave two parts")
        bridges.append(MultiBridge(eids, (fam, level), direction))
    if len(bridges) != 3 * (d - 1):
        raise InvariantViolation(f"{len(bridges)} multi-bridges, not 3(d-1) = {3 * (d - 1)}")
    return bridges


def _removal_components(curve: TropicalCurve, removed: frozenset[int]) -> int:
    parent = list(range(len(curve.vertex_cell)))
    for eid in curve.bounded_edges:
        if eid not in removed:
            _union(parent, curve.edges[eid].tail, curve.edges[eid].head)
    return len({_root(parent, v) for v in range(len(parent))})


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
        raise InvariantViolation("the constraining bridges admit no dividing twist set")
    if div.dim - flat.dim != len(constraining):
        raise InvariantViolation("codimension equals the bridge count")
    origin_bits = 0
    for b in constraining:
        for eid in b.edges:
            origin_bits |= 1 << curve.bounded_index[eid]
    if not flat.contains(Gf2Vector(n, origin_bits)):
        raise InvariantViolation("the flat misses the twist set of the constraining bridges")
    return HypAlphaFlat(alpha, flat, constraining)
