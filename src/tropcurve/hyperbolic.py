"""Hyperbolicity of real tropical curves and the hyperbolicity locus.

A real plane curve of degree d is hyperbolic iff its real part holds a
nest of floor(d/2) ovals, and the locus of components the curve is
hyperbolic with respect to is the interior of the innermost oval.
``hyperbolicity_locus`` reads every field off one face labelling of the
real part (``realstruct._face_tree``): the component count is its number
of components, the kernel dimension one less, the curve is hyperbolic iff
its deepest disk face lies d // 2 ovals down, and that face is the locus.
No component report is built.  The phase keeps the labelling for the
curve's tables (``RealPart.face_tree``), so only the first locus or
point query on a phase labels it, and it keeps the report beside it, so
a later locus returns the same report.

The twist-matrix criterion states the same fact: the twist set is
dividing (the curve is of type I) with kernel dimension ceil(d/2)-1, so
ceil(d/2) components.  A nest of floor(d/2) ovals leaves room for no
other oval, as a line through the innermost disk and a point of another
oval would meet the curve more than d times (Bezout), and such a curve is
of type I, as projection from a point of the innermost disk sends its
real points, and only those, to the real line.  Conversely a type I curve
with ceil(d/2) components is a full nest, by Rokhlin's complex
orientation formula for d = 2k and Mishachev's for d = 2k+1.
``is_hyperbolic`` is that rank route; the oracle
``selfcheck.locus_from_report`` reads it, so ``verify`` holds the two
criteria to each other.
A point query reads one atom of the face tree the phase keeps and builds
no report: the eps-copy of a component is in the locus iff its atom
lies in the locus face, the one face ``_locus_face`` finds for both
routes, and a "no" names the fact of the oval route that fails, the
kernel dimension read as one less than the tree's components.  Every
query on a phase after the first reads the tree back instead of
labelling the real part again, so a sweep over every copy is linear in
the lattice points.  The three pencil conditions at a generic point of
one component are the oracle ``selfcheck.pointwise_verdicts``, not a
production route.

Honeycombs also have a bridge criterion for the locus.  A degree-d curve
whose edges all have honeycomb directions is dual to the standard
triangulation of its Newton polygon, the triangle (0,0), (d,0), (0,d),
since the lines x = k, y = k and x + y = k (0 < k < d) already cut it
into unit triangles.  So its bounded edges fall into exactly 3(d-1)
multi-bridges by the line of their dual edges; each is parallel, as an
edge is its dual edge turned, and cuts the curve in two, as its line cuts
the triangle in two.  Tests pin this lemma; ``multi_bridges`` only groups
the edges.  The dividing twist sets of a honeycomb are then exactly the
unions of multi-bridges: the bridges' indicator vectors are a basis of
``div_space``, so ``hyp_alpha_flat`` reads its flat off them, and
``honeycomb_locus`` decides "dividing" by finding no partly twisted
bridge, with no cycle row read unless one is partly twisted.  Alpha's
constraining bridges are the v-bridges below a1, the h-bridges below a2
and the d-bridges above a1 + a2, so the bridge locus is a lattice
triangle: a1 <= v*, a2 <= h*, a1 + a2 >= s*, with v* (h*) the least level
of an untwisted v- (h-) bridge, or d, and s* the greatest level of an
untwisted d-bridge, or 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .curve import ComplementComponent, TropicalCurve, curve_table
from .errors import NotDividing, NotHoneycomb
from .geometry import IVec, canonical_direction, sub
from .gf2 import AffineFlat, Gf2Subspace, Gf2Vector
from .realstruct import (
    EPS4,
    Eps,
    RealPhaseStructure,
    TwistSet,
    _base,
    _cells,
    _code,
    _FaceTree,
    count_components_matrix,
    is_dividing,
    real_part,
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
    """The rank route, which the oracle ``selfcheck.locus_from_report``
    reads: a dividing twist set with kernel dimension ceil(d/2) - 1, one
    less than ``count_components_matrix``."""
    d = curve.require_degree()
    k = count_components_matrix(curve, twists) - 1
    return (is_dividing(curve, twists) and k == (d + 1) // 2 - 1, k)


# -- pointwise criterion -------------------------------------------------


def hyperbolic_wrt_point(
    curve: TropicalCurve,
    phase: RealPhaseStructure,
    component: ComplementComponent | IVec,
    eps: Eps,
) -> PointVerdict:
    """Is every curve near this data hyperbolic with respect to a real
    point in the eps-copy of the component?  Read off the face tree the
    phase keeps: yes iff the copy's atom lies in the locus face
    (``_locus_face``).  A "no" gives condition 1 when the twist set is
    not dividing, 2 when the twist-matrix kernel dimension is not
    ceil(d/2)-1, and 3 when the copy lies outside the innermost oval."""
    d = curve.require_degree()
    alpha = component.dual_point if isinstance(component, ComplementComponent) else component
    base = _base(curve)
    if alpha not in base.index:
        raise ValueError(f"{alpha} is not a lattice point of the Newton polygon")
    tree = real_part(curve, phase).face_tree()
    face = _locus_face(tree)
    eps = (eps[0] & 1, eps[1] & 1)
    atom = 4 * base.index[alpha] + _code(eps)
    if tree.depth[face] == d // 2:
        if tree.region[atom] == face:
            return PointVerdict(alpha, eps, True)
        # the copy's region_class: the key (lattice point k, EPS4[c]) of
        # the least atom 4k + c of its atom's glue orbit
        g = _cells(curve).glued[atom]
        return PointVerdict(
            alpha, eps, False, 3, f"the copy {(base.points[g >> 2], EPS4[g & 3])} lies outside the innermost oval"
        )
    # hyperbolic is dividing with kernel dimension ceil(d/2)-1 (the module's
    # criterion), so with that dimension the twist set is not dividing
    want = (d + 1) // 2 - 1
    kernel_dim = len(tree.groups) - 1
    if kernel_dim != want:
        return PointVerdict(alpha, eps, False, 2, f"the twist-matrix kernel has dimension {kernel_dim}, not {want}")
    return PointVerdict(alpha, eps, False, 1, "the twist set is not dividing")


# -- loci -----------------------------------------------------------------


def _locus_face(tree: _FaceTree) -> int:
    """The face of a real part's face tree that is the locus when the
    curve is hyperbolic, that is when the face lies d // 2 ovals down (the
    nest criterion of the module docstring): the last face of ``order``,
    which lists the faces from the root down.  A nest of d // 2 ovals
    leaves room for no other oval, so the tree is then a chain and its
    last face the innermost oval's disk face; in any other tree every face
    lies fewer ovals down.  No oval lies below the innermost one, so its
    interior is its disk face, a leaf of the tree: only that oval touches
    it, since the pseudo-line touches only the root; with no oval (d = 1)
    the locus is the root face, the whole complement."""
    return tree.order[-1]


def hyperbolicity_locus(curve: TropicalCurve, phase: RealPhaseStructure) -> HyperbolicityReport:
    """Every field read off the face labelling of the real part, the one
    the phase keeps (``RealPart.face_tree``): its components and the
    locus face (``_locus_face``).  The phase keeps the report beside the
    tree, so later calls for the curve's tables return the same object."""
    d = curve.require_degree()
    base = _base(curve)
    base.levels(phase)
    report = phase._read[4]
    if report is not None:
        return report
    rp = real_part(curve, phase)
    tree = rp.face_tree()
    count = len(tree.groups)
    face = _locus_face(tree)
    hyp = tree.depth[face] == d // 2
    signed: frozenset[tuple[IVec, Eps]] = frozenset()
    if hyp:
        # each face atom's region_class, the key of the least atom g of
        # its glue orbit, keyed once per orbit
        glued, points = _cells(curve).glued, base.points
        least = {glued[x] for x, f in enumerate(tree.region) if f == face}
        signed = frozenset([(points[g >> 2], EPS4[g & 3]) for g in least])
    report = HyperbolicityReport(
        hyperbolic=hyp,
        kernel_dim=count - 1,
        component_count=count,
        # all level bits 1 means constant signs, since signs_from_phase
        # flips the sign exactly across the edges whose phase line
        # contains (0,0) (level 0) and the dual graph is connected; and
        # constant signs twist every bounded edge of a honeycomb, whose
        # two unit triangles on a dual edge pq have apexes r and p + q - r,
        # so their coordinate sums differ by q - p mod 2, which is nonzero
        # and sets the sign rule's offset bit for the edge
        stable=curve.is_honeycomb() and rp._levels == base.all_levels,
        locus=frozenset(a for a, _ in signed),
        signed_locus=signed,
    )
    # beside the tree the report was read off (``RealPhaseStructure``)
    phase._read = (*phase._read[:4], report)
    return report


# -- honeycomb specifics ---------------------------------------------------


_DUAL_FAMILY = {(0, 1): "v", (1, 0): "h", (1, -1): "d"}


@curve_table
def _bridge_table(curve: TropicalCurve) -> dict[tuple[str, int], MultiBridge]:
    """A honeycomb's multi-bridges by dual line, in order: its bounded
    edges grouped by the line x = k, y = k or x + y = k of their dual
    edges (the module's lemma).  Empty off honeycombs, which every reader
    refuses first; no reader mutates it."""
    if not curve.is_honeycomb():
        return {}
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
    return {
        key: MultiBridge(frozenset(eids), key, canonical_direction(curve.edges[min(eids)].direction))
        for key, eids in sorted(groups.items())
    }


def multi_bridges(curve: TropicalCurve) -> list[MultiBridge]:
    """The 3(d-1) parallel families that disconnect a honeycomb, sorted
    by dual line; a new list of the curve's ``_bridge_table``."""
    curve.require_degree()
    if not curve.is_honeycomb():
        raise NotHoneycomb("multi-bridges are defined on honeycombs")
    return list(_bridge_table(curve).values())


def honeycomb_locus(curve: TropicalCurve, twists: TwistSet) -> frozenset[IVec]:
    """Components whose constraining bridges (left, below, diagonally
    above) are all twisted: the lattice triangle of the module docstring,
    its three bounds read off the untwisted bridges in one pass.  The same
    pass decides "dividing" by the module's lemma: the set is a union of
    bridges iff no bridge is partly twisted."""
    d = curve.require_degree()
    if not curve.is_honeycomb():
        raise NotHoneycomb("the bridge criterion needs a honeycomb")
    edges = twists.edges
    untwisted: dict[str, list[int]] = {"v": [d], "h": [d], "d": [0]}
    for (fam, level), b in _bridge_table(curve).items():
        if b.edges.isdisjoint(edges):
            untwisted[fam].append(level)
        elif not b.edges <= edges:
            # not a union of bridges, so not dividing; the cycle route
            # refuses an inadmissible set with its own error first
            is_dividing(curve, twists)
            raise NotDividing("the bridge criterion needs a dividing twist set")
    v, h, s = min(untwisted["v"]), min(untwisted["h"]), max(untwisted["d"])
    return frozenset({(a1, a2) for a1 in range(v + 1) for a2 in range(max(0, s - a1), min(h, d - a1) + 1)})


def _constraining_keys(alpha: IVec, d: int) -> list[tuple[str, int]]:
    a1, a2 = alpha
    keys = [("v", k) for k in range(1, a1)]
    keys += [("h", k) for k in range(1, a2)]
    keys += [("d", s) for s in range(a1 + a2 + 1, d)]
    return keys


def hyp_alpha_flat(curve: TropicalCurve, alpha: IVec) -> HypAlphaFlat:
    """Affine flat of dividing twist sets whose locus contains alpha.

    A dividing twist set is a union of multi-bridges (module docstring),
    so the flat's offset is the union of alpha's constraining bridges and
    its space is spanned by the other bridges."""
    d = curve.require_degree()
    if not curve.is_honeycomb():
        raise NotHoneycomb("the bridge flat needs a honeycomb")
    if alpha not in curve.dual.lattice_points:
        raise ValueError(f"{alpha} is not a lattice point of the Newton polygon")
    n, index = len(curve.bounded_edges), curve.bounded_index
    bridges = _bridge_table(curve)
    keys = _constraining_keys(alpha, d)
    constraining = tuple(bridges[k] for k in keys)
    offset = Gf2Vector.from_indices(n, [index[eid] for b in constraining for eid in b.edges])
    skip = set(keys)
    # disjoint supports, so sorted by lowest bit they are the reduced basis
    vectors = [Gf2Vector.from_indices(n, [index[eid] for eid in b.edges]) for k, b in bridges.items() if k not in skip]
    space = Gf2Subspace(n, tuple(sorted(vectors, key=lambda x: x.bits & -x.bits)))
    return HypAlphaFlat(alpha, AffineFlat(offset, space), constraining)
