"""The per-curve real-structure tables against the routes they replaced: a
golden digest of realstruct outputs, the old solve_affine route of
phase_from_twists, validation messages, non-interned phase lines,
translated copies that share the tables, the phase route of the twists
against the sign rule of one edge, the cell model against its
union-find builder, the facts of a certified
curve that the tables and routes no longer check, the face labelling by
Euler characteristics that the double cover replaced, the per-edge and
per-row sign conversions that the column tables replaced, the signs that
``signs_from_phase`` reads back, the face tree a phase keeps against
fresh copies of the phase, and the value semantics of the records whose
fields are built on first read."""

import re
import hashlib
import random
from fractions import Fraction

import pytest

from tropcurve import (
    PhaseLine,
    SignDistribution,
    TwistSet,
    count_components_direct,
    count_components_matrix,
    curve_from_polynomial,
    honeycomb,
    hyperbolic_wrt_point,
    hyperbolicity_locus,
    is_admissible,
    phase_from_signs,
    phase_from_twists,
    primitive_cycles,
    real_part,
    signs_from_phase,
    twists_from_phase,
    twists_from_signs,
)
from tropcurve.errors import DegeneratePolygon, InvariantViolation, NotAdmissible, SingularSubdivision, ValidationError
from tropcurve.gf2 import PHASE_LINES, Gf2Vector, solve_affine
from tropcurve.realstruct import EPS4, CurveComponentInfo, RealPhaseStructure, edge_twisted, twist_matrix
from tropcurve.selfcheck import random_lift, random_sign_distribution

# sha256 of _golden_lines(), recorded before realstruct read its rules
# from per-curve tables
GOLDEN_DIGEST = "0513e19245ab0cc2c5e6015b99dd2f10d6182ceafbe505f15a981b4f5402bb5e"


def _lift_curves(seed: int, draws: int):
    rng = random.Random(seed)
    out = []
    for _ in range(draws):
        try:
            out.append(curve_from_polynomial(random_lift(rng)))
        except (SingularSubdivision, DegeneratePolygon):
            continue
    return out


def _phase_key(phase):
    return [(ln.rep, ln.direction) for ln in phase.lines]


def _report_key(report):
    return (
        report.count,
        [
            (sorted(c.edge_copies), c.kind, c.nesting_depth,
             None if c.interior_regions is None else sorted(c.interior_regions))
            for c in report.components
        ],
        report.nesting_parent,
    )


def _curve_lines(curve, rng):
    lines = []
    nb = len(curve.bounded_edges)
    for _ in range(3):
        delta = random_sign_distribution(rng, curve)
        phase = phase_from_signs(curve, delta)
        twists = twists_from_signs(curve, delta)
        lines.append(("phase", _phase_key(phase)))
        lines.append(("twists", sorted(twists.edges), sorted(twists_from_phase(curve, phase).edges)))
        lines.append(("signs", list(signs_from_phase(curve, phase).signs.items())))
        lines.append(("solved", _phase_key(phase_from_twists(curve, twists))))
        if curve.degree is not None:
            lines.append(("report", _report_key(count_components_direct(real_part(curve, phase)))))
            lines.append(("matrix", twist_matrix(curve, twists).row_bits,
                          count_components_matrix(curve, twists)))
    for _ in range(3):
        twists = TwistSet.from_vector(curve, Gf2Vector(nb, rng.getrandbits(nb) if nb else 0))
        seed = (curve.bounded_edges[-1], (1, 1)) if nb else None
        try:
            lines.append(("free", _phase_key(phase_from_twists(curve, twists, seed))))
        except NotAdmissible as exc:
            lines.append(("free", str(exc)))
        lines.append(("admissible", is_admissible(curve, twists)))
    return lines


def _golden_lines():
    rng = random.Random(20260)
    curves = [honeycomb(d) for d in range(1, 8)] + _lift_curves(7, 80)
    out = []
    for curve in curves:
        out.append(("curve", sorted((p, str(a)) for p, a in curve.poly.coefficients.items())))
        out.extend(_curve_lines(curve, rng))
    return out


def test_golden_digest_of_realstruct_outputs():
    text = "\n".join(repr(line) for line in _golden_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGEST


def _sign_rule_reference(curve, eid):
    """The sign rule of a bounded edge from the cells on its two sides."""
    e = curve.edges[eid]
    p, q = e.dual
    v3, v4 = (next(x for x in curve.vertex_cell[v] if x not in e.dual) for v in (e.tail, e.head))
    if (v3[0] - v4[0]) % 2 == 0 and (v3[1] - v4[1]) % 2 == 0:
        return (v3, v4), 0
    return (p, q, v3, v4), 1


def _phase_from_twists_reference(curve, twists, seed=None):
    """The solve_affine route: one affine system per call, the offset read
    as a sign distribution, the induced phase translated onto the seed."""
    if seed is None:
        seed = (curve.bounded_edges[0] if curve.bounded_edges else 0, (0, 0))
    pts = curve.dual.lattice_points
    index = {p: k for k, p in enumerate(pts)}
    constraints = []
    for eid in curve.bounded_edges:
        points, offset = _sign_rule_reference(curve, eid)
        t = 1 if eid in twists.edges else 0
        constraints.append((Gf2Vector.from_indices(len(pts), (index[x] for x in points)), t ^ offset))
    flat = solve_affine(constraints, len(pts))
    if flat is None:
        raise NotAdmissible("no sign distribution induces this twist set")
    delta = SignDistribution({p: -1 if flat.offset.bits >> index[p] & 1 else 1 for p in pts})
    phase = phase_from_signs(curve, delta)
    seed_edge, seed_eps = seed
    if not phase.lines[seed_edge].contains(seed_eps):
        phase = phase.translate(min((seed_eps[0] ^ a, seed_eps[1] ^ b) for a, b in phase.lines[seed_edge].elements))
    return phase


def _outcome(route, *args):
    try:
        return route(*args)
    except NotAdmissible as exc:
        return ("NotAdmissible", str(exc))


def test_phase_from_twists_matches_the_solve_affine_route():
    from tropcurve.selfcheck import random_nonsingular_curve

    rng = random.Random(41)
    curves = [honeycomb(d) for d in range(1, 6)] + _lift_curves(3, 30)
    # lifts off the honeycomb at higher degree, and one larger honeycomb
    lifts = (random_nonsingular_curve(rng, d) for d in range(6, 10) for _ in range(3))
    curves += [c for c in lifts if not c.is_honeycomb()] + [honeycomb(12)]
    draws = inadmissible = 0
    while draws < 320:
        curve = rng.choice(curves)
        nb = len(curve.bounded_edges)
        if rng.random() < 0.5:
            twists = twists_from_signs(curve, random_sign_distribution(rng, curve))
        else:
            twists = TwistSet.from_vector(curve, Gf2Vector(nb, rng.getrandbits(nb) if nb else 0))
        seed = None
        if nb and rng.random() < 0.5:
            seed = (rng.choice(range(len(curve.edges))), (rng.randrange(2), rng.randrange(2)))
        got = _outcome(phase_from_twists, curve, twists, seed)
        assert got == _outcome(_phase_from_twists_reference, curve, twists, seed)
        inadmissible += isinstance(got, tuple)
        draws += 1
    assert 25 < inadmissible < 295


def test_phase_from_twists_inverts_twists_from_phase_on_a_large_honeycomb():
    from tropcurve.realstruct import div_space

    rng = random.Random(43)
    curve = honeycomb(40)
    space = div_space(curve)
    bits = 0
    for b in space.basis:
        if rng.getrandbits(1):
            bits ^= b.bits
    twists = TwistSet.from_vector(curve, Gf2Vector(len(curve.bounded_edges), bits))
    assert twists_from_phase(curve, phase_from_twists(curve, twists)).vector == twists.vector
    # one more twisted edge on a cycle leaves its direction sum odd
    on_cycle = next(k for k, eid in enumerate(curve.bounded_edges)
                    if any(eid in c.edges for c in primitive_cycles(curve)))
    odd = TwistSet.from_vector(curve, Gf2Vector(len(curve.bounded_edges), bits ^ 1 << on_cycle))
    assert not is_admissible(curve, odd)
    with pytest.raises(NotAdmissible, match="^no sign distribution induces this twist set$"):
        phase_from_twists(curve, odd)


def test_twist_matrix_matches_the_cycle_intersections():
    from tropcurve import primitive_cycles

    rng = random.Random(5)
    for curve in [honeycomb(d) for d in range(2, 6)] + _lift_curves(5, 20):
        cycles = primitive_cycles(curve)
        twists = twists_from_signs(curve, random_sign_distribution(rng, curve))
        rows = []
        for ci in cycles:
            rows.append(sum(1 << j for j, cj in enumerate(cycles)
                            if len(ci.edges & cj.edges & twists.edges) % 2))
        assert twist_matrix(curve, twists).row_bits == tuple(rows)


def test_validation_messages_are_unchanged():
    c = honeycomb(2)
    phase = phase_from_signs(c, SignDistribution.constant(c))
    wrong = list(phase.lines)
    wrong[1] = PhaseLine((0, 0), (1, 1) if wrong[1].direction != (1, 1) else (1, 0))
    with pytest.raises(ValidationError, match=rf"^edge 1: phase direction {re_tuple(wrong[1].direction)} "
                                              rf"!= {re_tuple(phase.lines[1].direction)}$"):
        signs_from_phase(c, RealPhaseStructure(tuple(wrong)))
    # one flipped level breaks the vertex condition at both ends of the edge
    eid = c.bounded_edges[0]
    flipped = list(phase.lines)
    flipped[eid] = PHASE_LINES[flipped[eid].direction, 1 ^ flipped[eid].level]
    first = min(c.edges[eid].tail, c.edges[eid].head)
    with pytest.raises(ValidationError, match=rf"^vertex {first}: phase lines share a common point$"):
        real_part(c, RealPhaseStructure(tuple(flipped)))
    with pytest.raises(ValidationError, match=r"misses lattice points \[\(1, 1\)\]"):
        phase_from_signs(c, SignDistribution({p: 1 for p in c.dual.lattice_points if p != (1, 1)}))
    with pytest.raises(ValidationError, match=r"has extra points \[\(5, 5\)\]"):
        twists_from_signs(c, SignDistribution({**SignDistribution.constant(c).signs, (5, 5): 1}))


def re_tuple(t):
    return re.escape(repr(t))


def test_phase_of_non_interned_lines_gives_the_same_results():
    rng = random.Random(8)
    for curve in (honeycomb(4), *_lift_curves(11, 12)):
        phase = phase_from_signs(curve, random_sign_distribution(rng, curve))
        fresh = RealPhaseStructure(tuple(PhaseLine(ln.rep, ln.direction) for ln in phase.lines))
        assert fresh == phase
        assert all(a is not b for a, b in zip(fresh.lines, phase.lines))
        assert signs_from_phase(curve, fresh) == signs_from_phase(curve, phase)
        assert twists_from_phase(curve, fresh) == twists_from_phase(curve, phase)
        for eid in curve.bounded_edges:
            assert edge_twisted(curve, fresh, eid) == edge_twisted(curve, phase, eid)
        if curve.degree is not None:
            got = count_components_direct(real_part(curve, fresh))
            assert _report_key(got) == _report_key(count_components_direct(real_part(curve, phase)))


def _every_table():
    """Each ``curve_table`` of the package, by its store name."""
    import importlib
    import pkgutil

    import tropcurve
    from tropcurve.curve import TropicalCurve, curve_table

    spaces = [vars(TropicalCurve)]
    for info in pkgutil.iter_modules(tropcurve.__path__):
        if not info.name.startswith("_"):
            spaces.append(vars(importlib.import_module(f"tropcurve.{info.name}")))
    found = {id(t): t for space in spaces for t in space.values() if isinstance(t, curve_table)}
    tables = {t.__name__: t for t in found.values()}
    assert len(tables) == len(found), "two tables share a store name"
    return tables


def test_every_table_is_one_object_for_a_curve_and_its_copies():
    # whichever of a curve and its copies builds a table first, and
    # whether the copy was made before or after the build
    from tropcurve.selfcheck import random_nonsingular_curve

    tables = _every_table()
    assert {"region_edges", "region_exits", "walk_order", "_cycles", "_edge_by_dual",
            "_Base", "_Cells", "_sign_solver", "_cycle_rows", "div_space"} <= set(tables)
    offset = (Fraction(7, 3), Fraction(-5, 2))
    rng = random.Random(5)
    lift = next(c for c in (random_nonsingular_curve(rng, 4) for _ in range(50)) if not c.is_honeycomb())
    for curve in (honeycomb(3), lift):
        for name, table in tables.items():
            for copy_first in (True, False):
                fresh = _fresh(curve)
                early = fresh.translated(offset).translated(offset)
                first, second = (early, fresh) if copy_first else (fresh, early)
                built = table(first)
                assert table(second) is built, name
                assert table(fresh.translated(offset)) is built, name
                assert fresh._tables[name] is built and early._tables is fresh._tables
        # the store holds every table under its own name, and nothing else
        for table in tables.values():
            table(fresh)
        assert fresh._tables.keys() == tables.keys()


def test_translated_copies_share_the_tables_and_agree():
    rng = random.Random(9)
    for curve in (honeycomb(3), honeycomb(5), *_lift_curves(13, 10)):
        delta = random_sign_distribution(rng, curve)
        phase = phase_from_signs(curve, delta)
        moved = curve.translated((Fraction(7, 3), Fraction(-5, 2)))
        assert moved._tables is curve._tables
        assert moved.region_edges is curve.region_edges
        twists = twists_from_signs(curve, delta)
        assert twists_from_signs(moved, delta) == twists
        assert twists_from_phase(moved, phase) == twists_from_phase(curve, phase)
        assert phase_from_twists(moved, twists) == phase_from_twists(curve, twists)
        assert signs_from_phase(moved, phase) == signs_from_phase(curve, phase)
        if curve.degree is not None:
            assert (_report_key(count_components_direct(real_part(moved, phase)))
                    == _report_key(count_components_direct(real_part(curve, phase))))
        # a copy made before any table was built shares the tables it builds
        fresh = curve_from_polynomial(curve.poly)
        early = fresh.translated((Fraction(1, 2), Fraction(0)))
        assert twists_from_phase(early, phase) == twists_from_phase(curve, phase)
        assert early._tables is fresh._tables and fresh._tables
        assert early.region_edges is fresh.region_edges


def test_a_phase_read_for_one_curve_is_checked_again_for_another():
    # a phase carries the level bits its curve's tables read; another
    # curve's tables must still check it, with the same messages as a
    # phase that was never read
    from tropcurve.selfcheck import random_nonsingular_curve

    rng = random.Random(21)
    checked = 0
    for d in (2, 3, 4):
        curve = honeycomb(d)
        for _ in range(6):
            other = random_nonsingular_curve(rng, d)
            phase = phase_from_signs(other, random_sign_distribution(rng, other))
            twists_from_phase(other, phase)
            never_read = RealPhaseStructure(phase.lines)
            for route in (signs_from_phase, twists_from_phase, real_part):
                try:
                    want = route(curve, never_read)
                except ValidationError as exc:
                    with pytest.raises(ValidationError, match=f"^{re.escape(str(exc))}$"):
                        route(curve, phase)
                    checked += 1
                else:
                    got = route(curve, phase)
                    assert (got.edge_copies == want.edge_copies if route is real_part else got == want)
            # the other curve's tables still read the phase it was built for
            assert twists_from_phase(other, phase) == twists_from_phase(other, never_read)
    assert checked >= 10


# the routes that read a phase's face tree, each as one comparable value
_TREE_ROUTES = {
    "locus": lambda curve, phase: hyperbolicity_locus(curve, phase),
    "report": lambda curve, phase: _report_key(count_components_direct(real_part(curve, phase))),
    "points": lambda curve, phase: [hyperbolic_wrt_point(curve, phase, alpha, eps)
                                    for alpha in curve.dual.lattice_points for eps in EPS4],
}


def _tree_answers(curve, phase, order):
    """The routes' values on one phase, called in the given order."""
    got = {name: _TREE_ROUTES[name](curve, phase) for name in order}
    return [got[name] for name in _TREE_ROUTES]


def _fresh_answers(curve, lines):
    """The routes' values with every locus, report and point query on a
    phase of its own that nothing read before, so each labels anew."""
    return [
        hyperbolicity_locus(curve, RealPhaseStructure(lines)),
        _report_key(count_components_direct(real_part(curve, RealPhaseStructure(lines)))),
        [hyperbolic_wrt_point(curve, RealPhaseStructure(lines), alpha, eps)
         for alpha in curve.dual.lattice_points for eps in EPS4],
    ]


def _tree_draws():
    """(curve, the curves its phases are built on, other curves of its
    degree, rng): honeycombs of degree 1 to 8 and seeded lifts, each read
    by itself and by a translated copy."""
    from tropcurve.selfcheck import random_nonsingular_curve

    rng = random.Random(54)
    offset = (Fraction(7, 3), Fraction(-5, 2))
    curves = [honeycomb(d) for d in range(1, 9)] + [random_nonsingular_curve(rng, d) for d in (2, 3, 3, 4, 4, 5)]
    for curve in curves:
        moved = curve.translated(offset)
        others = [curve_from_polynomial(curve.poly), random_nonsingular_curve(rng, curve.degree)]
        for reader in (curve, moved):
            yield reader, (curve, moved), others, rng


def test_a_kept_face_tree_gives_the_answers_of_a_fresh_phase(monkeypatch):
    """The locus, the component report and every point verdict on a phase
    equal those on fresh copies of it, whichever of them comes first, on
    phases from signs, from twists and from lines, built on the curve or a
    translated copy that shares its tables; and again after a curve with
    other tables has read the phase.  Only the first of them labels the
    real part."""
    from tropcurve import realstruct

    labelled = []
    face_tree = realstruct._face_tree
    monkeypatch.setattr(realstruct, "_face_tree", lambda rp: labelled.append(rp) or face_tree(rp))
    orders = (tuple(_TREE_ROUTES), tuple(reversed(_TREE_ROUTES)), ("points", "locus", "report"))
    reread = refused = 0
    for reader, builders, others, rng in _tree_draws():
        delta = random_sign_distribution(rng, reader)
        twists = twists_from_signs(reader, delta)
        wants = {}
        for builder in builders:
            makers = {
                "signs": lambda: phase_from_signs(builder, delta),
                "twists": lambda: phase_from_twists(builder, twists),
                "lines": lambda: RealPhaseStructure(phase_from_signs(reader, delta).lines),
            }
            for kind, make in makers.items():
                for order in orders:
                    phase = make()
                    if kind not in wants:
                        wants[kind] = _fresh_answers(reader, phase.lines)
                    del labelled[:]
                    assert _tree_answers(reader, phase, order) == wants[kind]
                    assert len(labelled) == 1
                    # a second locus and point query read the kept tree,
                    # also once the phase's sign bits are found
                    twists_from_phase(reader, phase)
                    hyperbolicity_locus(reader, phase)
                    hyperbolic_wrt_point(reader, phase, reader.dual.lattice_points[-1], (1, 0))
                    assert len(labelled) == 1
        # read by a curve with other tables, then by its own curve again,
        # also through a real part made before the other tables read it
        phase = phase_from_signs(reader, delta)
        hyperbolicity_locus(reader, phase)
        for other in others:
            rp = real_part(reader, phase)
            try:
                other_want = _fresh_answers(other, phase.lines)
            except ValidationError:
                with pytest.raises(ValidationError):
                    hyperbolicity_locus(other, phase)
                refused += 1
                read = False
            else:
                assert _tree_answers(other, phase, orders[1]) == other_want
                reread += 1
                read = True
            # labelled again, once, iff the other tables read the phase
            del labelled[:]
            assert _report_key(count_components_direct(rp)) == wants["signs"][1]
            assert len(labelled) == read
            assert _tree_answers(reader, phase, orders[0]) == wants["signs"]
            assert len(labelled) == read
    # every rebuilt curve reads the phase, 12 of the 28 other curves do
    assert (reread, refused) == (40, 16)


def test_shared_edge_table_lists_each_edge_between_two_interior_points():
    from tropcurve import primitive_cycles
    from tropcurve.realstruct import _cycle_rows

    curves = [honeycomb(d) for d in range(2, 9)] + _lift_curves(6, 60)
    assert any(c.degree is None for c in curves)
    for curve in curves:
        index = {cyc.center: i for i, cyc in enumerate(primitive_cycles(curve))}
        want = []
        for k, eid in enumerate(curve.bounded_edges):
            p, q = curve.edges[eid].dual
            if p in index and q in index:
                want.append((1 << k, *sorted((index[p], index[q]))))
        assert _cycle_rows(curve)[2] == tuple(want)
        assert len({(i, j) for _, i, j in want}) == len(want)


def _twist_matrix_without(part):
    """``twist_matrix`` with its shared-edge terms or its diagonal dropped."""
    from tropcurve.gf2 import Gf2Matrix

    def broken(curve, twists):
        full = twist_matrix(curve, twists).row_bits
        rows = tuple(r & 1 << i if part == "shared" else r & ~(1 << i) for i, r in enumerate(full))
        return Gf2Matrix(len(rows), len(rows), rows)

    return broken


@pytest.mark.parametrize("part", ["shared", "diagonal"])
def test_component_counts_check_kills_a_broken_twist_matrix(part, monkeypatch):
    from tropcurve.selfcheck import run_check

    monkeypatch.setattr("tropcurve.realstruct.twist_matrix", _twist_matrix_without(part))
    result = run_check("component-counts", random.Random(0), 5)
    assert not result.passed and "matrix" in result.detail, result.detail


# -- the per-side table builder against the union-find builder it
# replaced ---------------------------------------------------------------


def _root(parent, x):
    """Root of x in a parent list, halving the path on the way."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]
    return x


def _union(parent, x, y):
    """Join the classes of x and y under the lesser root, so that
    parent[x] <= x holds throughout."""
    rx, ry = _root(parent, x), _root(parent, y)
    if rx < ry:
        parent[ry] = rx
    elif ry < rx:
        parent[rx] = ry


class _Cells_reference:
    """The cell model from a union-find of the atoms glued across each
    side, and the rays of each side found by a scan of every edge.  Beside
    the production fields it builds the doubled cell weights and the rows
    that the Euler-characteristic face labelling (``_face_tree_reference``)
    reads."""

    def __init__(self, curve):
        from itertools import product

        from tropcurve.gf2 import PHASE_LINES
        from tropcurve.realstruct import EPS4, _base, _code

        curve.require_degree()
        base = _base(curve)
        edges = curve.edges
        atom = {p: 4 * k for k, p in enumerate(base.points)}
        parent = list(range(4 * len(base.points)))
        sheets = parent[:]
        links = []
        weight2 = [2] * len(parent)
        ray_glue = [0] * len(edges)
        for side in curve.dual.sides:
            g = _code(side.glue)
            rays = [e.index for e in edges if not e.bounded and e.direction == side.normal]
            if len(rays) != len(side.points) - 1:
                raise InvariantViolation("each side must carry as many rays as its lattice length")
            for eid in rays:
                ray_glue[eid] = g
            for alpha in side.points:
                a = atom[alpha]
                for c in range(4):
                    _union(parent, a + c, a + (c ^ g))
                    # the sheet of S^2 changes across z = 0 alone, the side with glue (1, 1)
                    if side.glue != (1, 1):
                        _union(sheets, a + c, a + (c ^ g))
                if side.glue == (1, 1):
                    links += [(a + c, a + (c ^ g)) for c in (0, 1)]
                for c in {min(c, c ^ g) for c in range(4)}:
                    weight2[a + c] -= 2
        for uf in (parent, sheets):
            for x, p in enumerate(uf):
                uf[x] = uf[p]
        self.glued = parent
        self.sheets = sheets
        self.links = tuple(links)
        self.atom_keys = keys = tuple(product(base.points, EPS4))
        self.region_class = {keys[x]: keys[p] for x, p in enumerate(parent)}
        self.copy_keys = tuple(product(range(len(edges)), EPS4))
        self.copy_cell2 = tuple(0 if g and c < c ^ g else -2 for g in ray_glue for c in range(4))
        self.edge_atoms = tuple((atom[e.dual[0]], atom[e.dual[1]]) for e in edges)
        vertex_atoms = tuple(atom[cell[0]] for cell in curve.vertex_cell)
        self.end_atoms = tuple(
            (vertex_atoms[e.tail], vertex_atoms[e.head]) if e.bounded else (vertex_atoms[e.tail],) for e in edges
        )
        for eid, (a, _) in enumerate(self.edge_atoms):
            for c in range(4):
                weight2[a + c] += self.copy_cell2[4 * eid + c]
        for a in vertex_atoms:
            for c in range(4):
                weight2[a + c] += 2
        for corner in curve.dual.polygon:
            weight2[atom[corner]] += 2
        self.weight2 = tuple(weight2)
        # the face labelling's rows, read off the per-copy cells, with the
        # copy codes off and on each edge's phase line at levels 0 and 1
        rows = []
        # the lanes: per edge, the copies on its line at level 0, then at level 1
        lanes = {name: [] for name in ("copies", "atoms_p", "atoms_q")}
        for e, (a, b), ends in zip(edges, self.edge_atoms, self.end_atoms):
            cls = (e.direction[0] & 1, e.direction[1] & 1)
            codes = tuple(
                tuple(c for c in range(4) if PHASE_LINES[cls, level].contains(EPS4[c]) == drawn)
                for level in (0, 1) for drawn in (False, True)
            )
            rows.append((a, b, ends, self.copy_cell2[4 * e.index:4 * e.index + 4], (codes[:2], codes[2:])))
            for c in codes[1] + codes[3]:
                for name, value in zip(lanes, (4 * e.index, a, b)):
                    lanes[name].append(value + c)
        self.edge_rows = tuple(rows)
        for name, lane in lanes.items():
            setattr(self, name, lane)


_CELL_FIELDS = ("glued", "sheets", "links", "copies", "atoms_p", "atoms_q", "atom_keys", "region_class",
                "copy_keys")


def _table_curves():
    from tropcurve.selfcheck import random_nonsingular_curve

    rng = random.Random(25)
    return [honeycomb(d) for d in range(1, 9)] + [random_nonsingular_curve(rng, d) for d in range(2, 8) for _ in range(4)]


def _fresh(curve):
    """The curve rebuilt from its polynomial, with nothing cached."""
    return curve_from_polynomial(curve.poly)


def test_cells_match_the_reference():
    from tropcurve.realstruct import _cells

    for curve in _table_curves():
        curve = _fresh(curve)
        cells, want = _cells(curve), _Cells_reference(curve)
        for name in _CELL_FIELDS:
            assert getattr(cells, name) == getattr(want, name), name


def test_twists_from_phase_is_edge_twisted_on_every_bounded_edge():
    """``twists_from_phase`` reads the sign rule off the phase's minus
    bits by the columns of ``_sign_columns``, ``edge_twisted`` reads it
    across the edge's two ends (``_sign_twist``), and ``twist-rules``
    holds ``edge_twisted`` to the geometric rule.  On phases built from signs, rebuilt from their lines (which
    find their minus bits along the sign tree) and translated by (1, 0)
    and (1, 1), its twist set is the bounded edges that ``edge_twisted``
    finds twisted."""
    rng = random.Random(53)
    phases = 0
    for curve in _table_curves():
        curve = _fresh(curve)
        for _ in range(4):
            built = phase_from_signs(curve, random_sign_distribution(rng, curve))
            for phase in (built, RealPhaseStructure(built.lines), built.translate((1, 0)), built.translate((1, 1))):
                want = {eid for eid in curve.bounded_edges if edge_twisted(curve, phase, eid)}
                assert twists_from_phase(curve, phase).edges == want, (curve.degree, _phase_key(phase))
                phases += 1
    assert phases == 16 * len(_table_curves())


def test_twist_rules_check_kills_a_sign_tree_walk_of_the_wrong_parity(monkeypatch):
    """A mutant ``_Base.sign_bits`` that signs each point of the sign tree
    against its level: phases built from signs keep their own minus bits,
    so only the rebuilt phases of ``twist-rules`` reach the walk."""
    import inspect
    import textwrap

    from tropcurve import realstruct
    from tropcurve.selfcheck import run_check

    assert run_check("twist-rules", random.Random(7), 3).passed
    source = textwrap.dedent(inspect.getsource(realstruct._Base.sign_bits))
    test = "if not (minus >> i ^ levels >> eid) & 1:"
    assert source.count(test) == 1
    namespace = dict(vars(realstruct))
    exec(source.replace(test, "if (minus >> i ^ levels >> eid) & 1:"), namespace)
    monkeypatch.setattr(realstruct._Base, "sign_bits", namespace["sign_bits"])
    result = run_check("twist-rules", random.Random(7), 3)
    assert not result.passed
    assert re.match(r"trial 0: twists_from_phase and edge_twisted differ on edges \[", result.detail), result.detail


@pytest.mark.parametrize("module", ["realstruct", "intersect"])
def test_twist_rules_check_kills_a_two_end_rule_with_its_parity_cases_swapped(module, monkeypatch):
    """A mutant ``_sign_twist`` that reads third points of equal parity by
    the rule for unequal ones and back: in ``edge_twisted`` it fails
    against ``twists_from_phase``, in ``is_relatively_twisted`` against
    the geometric rule across an overlap."""
    import importlib
    import inspect

    from tropcurve import realstruct
    from tropcurve.selfcheck import run_check

    assert run_check("twist-rules", random.Random(7), 5).passed
    source = inspect.getsource(realstruct._sign_twist)
    test = "if d0 == d1:"
    assert source.count(test) == 1
    namespace = dict(vars(realstruct))
    exec(source.replace(test, "if d0 != d1:"), namespace)
    monkeypatch.setattr(importlib.import_module(f"tropcurve.{module}"), "_sign_twist", namespace["_sign_twist"])
    result = run_check("twist-rules", random.Random(7), 5)
    assert not result.passed
    want = "twists_from_phase and edge_twisted differ on edges" if module == "realstruct" else "overlap of edges"
    assert re.match(rf"trial \d+: {want}", result.detail), result.detail


def test_edge_twisted_refuses_a_phase_not_valid_for_its_curve():
    """``edge_twisted`` reads the minus bits of signs inducing the phase,
    so it checks the phase as every conversion does."""
    curve = honeycomb(3)
    phase = phase_from_signs(curve, SignDistribution.constant(curve))
    eid = curve.bounded_edges[0]
    flipped = list(phase.lines)
    flipped[eid] = PHASE_LINES[flipped[eid].direction, 1 ^ flipped[eid].level]
    with pytest.raises(ValidationError, match="phase lines share a common point"):
        edge_twisted(curve, RealPhaseStructure(tuple(flipped)), eid)
    with pytest.raises(ValidationError, match="does not cover every edge"):
        edge_twisted(curve, RealPhaseStructure(phase.lines[:-1]), eid)


def _sign_rows_reference(curve):
    """The sign rule as one row per bounded edge, the mask of the lattice
    points whose minus signs decide its twist, and the offsets as one int."""
    bit = {p: 1 << k for k, p in enumerate(curve.dual.lattice_points)}
    masks, offsets = [], 0
    for k, eid in enumerate(curve.bounded_edges):
        points, offset = _sign_rule_reference(curve, eid)
        masks.append(sum(bit[p] for p in points))
        offsets |= offset << k
    return tuple(masks), offsets


def test_sign_rule_matches_the_reference():
    from tropcurve.realstruct import _sign_columns

    for curve in _table_curves():
        curve = _fresh(curve)
        masks, offsets = _sign_rows_reference(curve)
        # the columns are the rows' transpose, with the same offsets
        columns = tuple(sum(1 << k for k, mask in enumerate(masks) if mask >> p & 1)
                        for p in range(len(curve.dual.lattice_points)))
        assert _sign_columns(curve) == (columns, offsets)


def _certified_curves():
    """honeycomb(1..20) and a translate of each, seeded
    ``random_nonsingular_curve`` lifts of degree 2..8, the ``random_lift``
    polynomials that construction accepts, and the pair scan's curves of
    those."""
    from tropcurve.selfcheck import pair_scan_curve, random_nonsingular_curve

    rng = random.Random(47)
    curves = [honeycomb(d) for d in range(1, 21)]
    curves += [c.translated((Fraction(d, 3), Fraction(-5, d))) for d, c in enumerate(curves, 1)]
    curves += [random_nonsingular_curve(rng, d) for d in range(2, 9) for _ in range(4)]
    lifts = _lift_curves(47, 100)
    return curves + lifts + [pair_scan_curve(c.poly) for c in lifts]


def _one_cycle(curve, eids):
    """Whether the edges eids are bounded and close into one cycle: two
    of them at each of their vertices, and one walk meets them all."""
    at = {}
    for eid in eids:
        e = curve.edges[eid]
        if not e.bounded:
            return False
        for v in (e.tail, e.head):
            at.setdefault(v, []).append(eid)
    if not at or any(len(pair) != 2 for pair in at.values()):
        return False
    start = eid = min(eids)
    v, walked = curve.edges[start].head, 1
    while True:
        a, b = at[v]
        eid = b if a == eid else a
        if eid == start:
            return walked == len(eids)
        e = curve.edges[eid]
        v = e.head if e.tail == v else e.tail
        walked += 1


def test_a_certified_curve_has_what_its_tables_no_longer_check():
    """The facts of a unimodular dual that the tables and checks trust
    instead of proving on each curve (README "Conventions"): closed
    cycles, one ray per unit of each side, distinct classes and opposite
    sides at each vertex, a connected dual that the sign solver's walk
    signs entirely, cycles that share at most one edge, and even
    determinant sums at each vertex."""
    from tropcurve.geometry import det2

    rng = random.Random(47)
    lines = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, -3)]
    curves = _certified_curves()
    for curve in curves:
        edges, points = curve.edges, curve.dual.lattice_points
        boundary = curve.dual.sides_at
        for alpha, eids in curve.region_edges.items():
            assert alpha in boundary or _one_cycle(curve, eids), alpha
        rays = [e.direction for e in edges if not e.bounded]
        assert sorted(rays) == sorted(s.normal for s in curve.dual.sides for _ in s.points[1:])
        for v, incident in enumerate(curve.vertex_edges):
            assert len(incident) == 3
            assert all(edges[x].tail == v or (edges[x].bounded and edges[x].head == v) for x in incident)
            out = [edges[x].direction if edges[x].tail == v else tuple(-c for c in edges[x].direction)
                   for x in incident]
            assert len({(x & 1, y & 1) for x, y in out} - {(0, 0)}) == 3
            assert (sum(x for x, _ in out), sum(y for _, y in out)) == (0, 0)
            for k in range(3):
                d, (o0, o1) = out[k], out[:k] + out[k + 1:]
                assert det2(d, o0) * det2(d, o1) < 0
            assert all(sum(abs(det2(o, line)) for o in out) % 2 == 0 for line in lines)
        # the dual graph is connected, and the walk's cells cover it
        adj = {}
        for p, q in (e.dual for e in edges):
            adj.setdefault(p, []).append(q)
            adj.setdefault(q, []).append(p)
        reached, stack = {points[0]}, [points[0]]
        while stack:
            for q in adj[stack.pop()]:
                if q not in reached:
                    reached.add(q)
                    stack.append(q)
        assert reached == set(points)
        signed = set(curve.vertex_cell[0])
        for eid, _, forward, _ in curve.walk_order:
            if edges[eid].bounded:
                signed.update(curve.vertex_cell[edges[eid].head if forward else edges[eid].tail])
        assert signed == set(points)
        twists = twists_from_signs(curve, random_sign_distribution(rng, curve))
        phase = phase_from_twists(curve, twists)
        assert twists_from_phase(curve, phase) == twists
        assert phase.lines[curve.bounded_edges[0] if curve.bounded_edges else 0].contains((0, 0))
        on = {}
        for i, cyc in enumerate(primitive_cycles(curve)):
            for eid in cyc.edges:
                on.setdefault(eid, []).append(i)
        shared = [tuple(ij) for ij in on.values() if len(ij) == 2]
        assert all(len(ij) <= 2 for ij in on.values()) and len(set(shared)) == len(shared)
    assert len(curves) == 40 + 28 + 2 * 63 and any(c.degree is None for c in curves)


def test_a_certified_curve_has_what_its_routes_no_longer_check():
    """The lemmas that ``signs_from_phase`` and ``region_frame_point``
    trust instead of checking on each call (README "Conventions"): Euler's
    formula E - V = N - 1 on the triangulated polygon, vertex conditions
    of full rank V, so that the 2^(N-1) phases ``levels`` accepts are
    exactly the sign-induced ones, and a bounded region's corner centroid
    strictly inside it."""
    from tropcurve.gf2 import Gf2Matrix

    rng = random.Random(48)
    for curve in _certified_curves():
        points, cells = curve.dual.lattice_points, curve.vertex_cell
        n_edges, n_vertices = len(curve.edges), len(cells)
        assert n_edges - n_vertices == len(points) - 1
        vmasks = [sum(1 << eid for eid in incident) for incident in curve.vertex_edges]
        assert Gf2Matrix(n_vertices, n_edges, tuple(vmasks)).rank() == n_vertices
        # seeded valid level vectors: each vertex's three levels sum to 1
        flat = solve_affine([(Gf2Vector(n_edges, mask), 1) for mask in vmasks], n_edges)
        classes = [line.direction for line in phase_from_signs(curve, SignDistribution.constant(curve)).lines]
        for _ in range(3):
            levels = flat.offset.bits
            for b in flat.space.basis:
                if rng.random() < 0.5:
                    levels ^= b.bits
            phase = RealPhaseStructure(tuple(PHASE_LINES[d, levels >> e & 1] for e, d in enumerate(classes)))
            induced = phase_from_signs(curve, signs_from_phase(curve, phase))
            assert induced.lines == phase.lines
        for alpha in points:
            if alpha not in curve.dual.sides_at:
                den, x, y = curve.region_frame_point(alpha)
                assert curve.frame.argmax(den, x, y) == (alpha,)


def test_a_first_locus_builds_no_copy_keys_or_region_class():
    from tropcurve import hyperbolicity_locus
    from tropcurve.realstruct import _cells

    hyperbolic = 0
    for d in range(2, 7):
        for every in (True, False):
            curve = honeycomb(d)
            if every:
                phase = phase_from_twists(curve, TwistSet.from_edges(curve, curve.bounded_edges))
            else:
                phase = phase_from_signs(curve, SignDistribution.constant(curve))
            report = hyperbolicity_locus(curve, phase)
            hyperbolic += report.hyperbolic
            built = vars(_cells(curve)) if _cells.__name__ in curve._tables else {}
            assert "copy_keys" not in built and "region_class" not in built
            # the face tree is the locus's one route: no rank-route table
            assert "_cycle_rows" not in curve._tables
    assert hyperbolic >= 5


# -- the face labelling against the Euler-characteristic route ------------


def _face_tree_reference(rp, cells):
    """The face labelling by Euler characteristics, the production route
    before the double cover, reading the reference model's rows and cell
    weights: subtree sums of the doubled cell weights give each oval's
    two sides their Euler characteristics, less the cells on the oval
    itself; the side with characteristic 1 is the disk, and the face
    outside every oval roots the tree.  ``groups`` maps each face pair to
    [drawn copies, own cells on the lesser face, own cells on the other]."""
    from tropcurve.realstruct import _FaceTree, _tree_walk

    rows = cells.edge_rows
    levels = rp._levels
    parent = cells.glued[:]
    for eid, (a, b, _, _, codes) in enumerate(rows):
        for c in codes[levels >> eid & 1][0]:
            x, y = a + c, b + c
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            while parent[y] != y:
                parent[y] = y = parent[parent[y]]
            if x < y:
                parent[y] = x
            elif y < x:
                parent[x] = y
    for x, p in enumerate(parent):
        parent[x] = parent[p]
    region = parent

    groups = {}
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

    adj = {f: [] for f in faces}
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


def _face_tree_draws():
    """Real parts of honeycomb(1..8) and of random lifts of degree 1 to 7,
    each with its reference cell model, under random signs."""
    from tropcurve.selfcheck import random_nonsingular_curve

    rng = random.Random(38)
    curves = [(honeycomb(d), 300) for d in range(1, 9)]
    curves += [(random_nonsingular_curve(rng, d), 40) for d in range(1, 8) for _ in range(8)]
    for curve, draws in curves:
        cells = _Cells_reference(curve)
        for _ in range(draws):
            yield real_part(curve, phase_from_signs(curve, random_sign_distribution(rng, curve))), cells


def test_face_tree_matches_the_euler_characteristic_reference():
    from tropcurve.realstruct import _face_tree, _FaceTree

    depths, lines, draws = set(), 0, 0
    for rp, cells in _face_tree_draws():
        got, want = _face_tree(rp), _face_tree_reference(rp, cells)
        assert list(got.groups) == list(want.groups)
        for name in _FaceTree._fields:
            if name != "groups":
                assert getattr(got, name) == getattr(want, name), name
        depths.update(got.depth.values())
        lines += any(f == g for f, g in got.groups)
        draws += 1
    # nested ovals, pseudo-lines and curves of every degree were met
    assert draws == 8 * 300 + 56 * 40 and depths == {0, 1, 2, 3} and lines > 2000


def _lemma_draws():
    """Phases of honeycomb(1..8) and of random lifts of degree 1 to 7, from
    random signs and from random admissible twist sets, every other one
    dividing, which most hyperbolic draws are; each with a translate
    whose lines ``_Base.levels`` checks."""
    from tropcurve.realstruct import EPS4, adm_space, div_space
    from tropcurve.selfcheck import random_nonsingular_curve

    rng = random.Random(45)
    curves = [(honeycomb(d), 48) for d in range(1, 9)]
    curves += [(random_nonsingular_curve(rng, d), 12) for d in range(1, 8) for _ in range(4)]
    for curve, draws in curves:
        n, spaces = len(curve.bounded_edges), (adm_space(curve).basis, div_space(curve).basis)
        for k in range(draws):
            bits = 0
            for b in spaces[k & 1]:
                bits ^= b.bits * rng.randrange(2)
            twists = TwistSet.from_vector(curve, Gf2Vector(n, bits))
            for phase in (phase_from_signs(curve, random_sign_distribution(rng, curve)),
                          phase_from_twists(curve, twists)):
                yield curve, phase
                yield curve, phase.translate(rng.choice(EPS4[1:]))


def test_each_vertex_copy_meets_no_or_two_drawn_copies_and_lies_on_their_faces():
    """Why ``_face_tree`` checks no vertex copy: the three edges at a vertex
    lie in three classes mod 2, so their lines share no point and a vertex
    copy meets 0 or 2 drawn copies, and with two the undrawn third joins
    it to one of their faces.  Why the locus checks nothing of its face:
    the deepest disk face of a hyperbolic real part is a leaf, in the face
    pair of its own oval alone."""
    from itertools import compress

    from tropcurve import is_hyperbolic
    from tropcurve.realstruct import _base, _cells, _face_tree

    vertex_copies = hyperbolic = 0
    for curve, phase in _lemma_draws():
        rp = real_part(curve, phase)
        tree, cells, index = _face_tree(rp), _cells(curve), _base(curve).index
        region = tree.region
        drawn = set(compress(cells.copies, rp._picks[0]))
        for v, cell in enumerate(curve.vertex_cell):
            for c in range(4):
                meets = [e for e in curve.vertex_edges[v] if 4 * e + c in drawn]
                assert len(meets) in (0, 2)
                for e in meets:
                    p, q = curve.edges[e].dual
                    (apex,) = set(cell) - {p, q}
                    faces = region[4 * index[p] + c], region[4 * index[q] + c]
                    assert region[4 * index[apex] + c] in faces
                vertex_copies += 1
        if curve.degree > 1 and is_hyperbolic(curve, twists_from_phase(curve, phase))[0]:
            face = max(tree.disk.values(), key=tree.depth.__getitem__)
            assert sum(face in pair for pair in tree.groups) == 1
            hyperbolic += 1
    assert vertex_copies == 264_192 and hyperbolic == 858


def test_links_that_keep_the_sheet_lift_no_face_connected(monkeypatch):
    """A mutant whose z = 0 links keep the sheet: the double cover falls
    apart, no face lifts connected, and a quartic raises.  A cubic has no
    such face either way, so it is still labelled as before."""
    import inspect

    from tropcurve import realstruct

    source = inspect.getsource(realstruct._face_tree)
    assert source.count("flip = 1\n") == 1
    namespace = dict(vars(realstruct))
    exec(source.replace("flip = 1\n", "flip = 0\n"), namespace)
    quartic, cubic = honeycomb(4), honeycomb(3)
    phases = [phase_from_signs(c, SignDistribution.constant(c)) for c in (quartic, cubic)]
    reports = [_report_key(count_components_direct(real_part(c, p))) for c, p in zip((quartic, cubic), phases)]
    # the mutant labels real parts of fresh copies, which keep no face tree
    rps = [real_part(c, RealPhaseStructure(p.lines)) for c, p in zip((quartic, cubic), phases)]
    monkeypatch.setattr(realstruct, "_face_tree", namespace["_face_tree"])
    with pytest.raises(InvariantViolation, match="^0 faces lift connected to S\\^2 for a curve of degree 4$"):
        count_components_direct(rps[0])
    assert _report_key(count_components_direct(rps[1])) == reports[1]


def test_face_tree_that_skips_undrawn_unions_is_killed_by_the_cut_scan_or_an_invariant(monkeypatch):
    """A mutant whose undrawn pass skips every 7th union: faces that
    should be one stay apart.  With no vertex-copy check, the cut scan's
    report or one of the invariants left must still tell it apart."""
    import inspect
    from itertools import islice

    from tropcurve import realstruct
    from tropcurve.selfcheck import cut_scan_components, report_difference

    source = inspect.getsource(realstruct._face_tree)
    loop = "    for x, y in zip(compress(atoms_p, undrawn), compress(atoms_q, undrawn)):\n"
    assert source.count(loop) == 1
    skipping = (
        "    for k, (x, y) in enumerate(zip(compress(atoms_p, undrawn), compress(atoms_q, undrawn))):\n"
        "        if k % 7 == 6:\n"
        "            continue\n"
    )
    namespace = dict(vars(realstruct))
    exec(source.replace(loop, skipping), namespace)
    draws = [(rp, cut_scan_components(rp)) for rp, _ in islice(_face_tree_draws(), 0, None, 20)]
    monkeypatch.setattr(realstruct, "_face_tree", namespace["_face_tree"])
    raised = differed = 0
    for rp, scan in draws:
        try:
            report = count_components_direct(rp)
        except InvariantViolation:
            raised += 1
            continue
        differed += report_difference(report, scan) is not None
    # the other 76 of the 232 draws give the cut scan's report
    assert len(draws) == 232 and raised and differed and raised + differed == 156


# -- the sign rule as columns ---------------------------------------------


def _phase_of_signs_reference(base, minus):
    """The per-edge route: an edge's level is 1 iff the signs at its dual
    endpoints agree."""
    return RealPhaseStructure(tuple(
        pair[1 ^ ((minus >> i ^ minus >> j) & 1)] for pair, (i, j) in zip(base.line_pairs, base.duals)
    ))


def _parities(bits, masks, offsets):
    """Bit k is the parity of bits & masks[k], flipped by bit k of offsets."""
    out = offsets
    for k, mask in enumerate(masks):
        if (bits & mask).bit_count() & 1:
            out ^= 1 << k
    return out


def _twists_from_signs_reference(curve, delta):
    """The row route: one parity per bounded edge over the sign rule's rows."""
    from tropcurve.realstruct import _base

    bits = _parities(_base(curve).minus(delta), *_sign_rows_reference(curve))
    return TwistSet.from_edges(curve, (eid for k, eid in enumerate(curve.bounded_edges) if bits >> k & 1))


def test_column_conversions_match_the_per_edge_and_row_routes():
    from tropcurve.realstruct import _base

    rng = random.Random(32)
    draws = 0
    for curve in _table_curves():
        curve = _fresh(curve)
        base = _base(curve)
        # each point's column lists the edges whose dual edge ends there
        assert base.point_edges == tuple(sum(1 << e for e in curve.region_edges[p]) for p in base.points)
        for _ in range(4):
            delta = random_sign_distribution(rng, curve)
            minus = base.minus(delta)
            phase, want = phase_from_signs(curve, delta), _phase_of_signs_reference(base, minus)
            assert base.levels(phase) == base.levels(want)
            assert phase.lines == want.lines
            twists, want = twists_from_signs(curve, delta), _twists_from_signs_reference(curve, delta)
            assert twists.vector == want.vector and twists.edges == want.edges
            draws += 1
    assert draws == 4 * len(_table_curves())


def test_signs_from_phase_reads_back_the_signs_that_induced_the_phase():
    rng = random.Random(38)
    read_back = 0
    for curve in _table_curves():
        other = _fresh(curve)  # the same curve with tables of its own
        for _ in range(4):
            delta = random_sign_distribution(rng, curve)
            for phase in (phase_from_signs(curve, delta), phase_from_twists(curve, twists_from_signs(curve, delta))):
                # a phase from its lines, and one read on other tables, take the walk
                walked = RealPhaseStructure(phase.lines)
                assert walked._read is None and phase._read[2] is not None
                want = list(signs_from_phase(curve, walked).signs.items())
                assert list(signs_from_phase(curve, phase).signs.items()) == want
                assert list(signs_from_phase(other, phase).signs.items()) == want
                read_back += 1
            # the signs themselves, or their negation, with + at point 0
            first = delta.signs[curve.dual.lattice_points[0]]
            assert signs_from_phase(curve, phase_from_signs(curve, delta)).signs == {
                p: s * first for p, s in delta.signs.items()
            }
    assert read_back == 8 * len(_table_curves())


# -- records whose fields are built on first read -------------------------


def _records(curve, delta):
    """The twist set, phase and components that the conversions and the
    face tree build from one sign distribution, none of their lazy fields
    read yet."""
    phase = phase_from_signs(curve, delta)
    return [twists_from_signs(curve, delta), phase, *count_components_direct(real_part(curve, phase)).components]


def _unbuilt(record):
    if isinstance(record, TwistSet):
        return record._edges is None
    if isinstance(record, RealPhaseStructure):
        return record._lines is None
    return record._edge_copies is None and record._interior_regions is None


def _eager(record):
    """The same value through the record's positional constructor."""
    if isinstance(record, TwistSet):
        return TwistSet(frozenset(record.edges), record.vector)
    if isinstance(record, RealPhaseStructure):
        return RealPhaseStructure(tuple(record.lines))
    return CurveComponentInfo(record.edge_copies, record.kind, record.nesting_depth, record.interior_regions)


def _fields(record):
    """The record's fields, in the order of its constructor."""
    if isinstance(record, TwistSet):
        return (record.edges, record.vector)
    if isinstance(record, RealPhaseStructure):
        return (record.lines,)
    return (record.edge_copies, record.kind, record.nesting_depth, record.interior_regions)


def _others(record):
    """Copies of the record with one field changed each."""
    if isinstance(record, TwistSet):
        edges, vector = _fields(record)
        return [TwistSet(edges | {-1}, vector), TwistSet(edges, Gf2Vector(vector.length + 1, vector.bits))]
    if isinstance(record, RealPhaseStructure):
        return [RealPhaseStructure(record.lines[:-1])]
    copies, kind, depth, interior = _fields(record)
    return [
        CurveComponentInfo(copies | {(-1, (0, 0))}, kind, depth, interior),
        CurveComponentInfo(copies, kind + "?", depth, interior),
        CurveComponentInfo(copies, kind, depth + 1, interior),
        CurveComponentInfo(copies, kind, depth, frozenset() if interior is None else None),
    ]


_VALUE_CHECKS = {
    "==": lambda lazy, eager: lazy == eager and eager == lazy and not lazy != eager,
    # a frozen dataclass hashes the tuple of its fields
    "hash": lambda lazy, eager: hash(lazy) == hash(eager) == hash(_fields(eager)),
    "!= a changed field": lambda lazy, eager: all(lazy != x and x != lazy for x in _others(eager)),
    "repr": lambda lazy, eager: repr(lazy) == repr(eager),
    "dict key": lambda lazy, eager: {eager: 1}.get(lazy) == 1 and {lazy: 1}.get(eager) == 1,
    "set member": lambda lazy, eager: lazy in {eager} and eager in {lazy},
}


def _pin_draws(d):
    curve = honeycomb(d)
    rng = random.Random(32)
    yield curve, SignDistribution({p: -1 if (p[0] + 2 * p[1]) % 3 == 1 else 1 for p in curve.dual.lattice_points})
    for _ in range(4):
        yield curve, random_sign_distribution(rng, curve)


def test_lazy_records_equal_their_eager_copies():
    # each check reads a fresh lazy record, none of whose fields was built
    rng = random.Random(33)
    draws = [(c, delta) for d in (2, 3) for c, delta in _pin_draws(d)]
    draws += [(c, random_sign_distribution(rng, c)) for c in _table_curves()[1:12] for _ in range(2)]
    kinds = set()
    for curve, delta in draws:
        eager = [_eager(r) for r in _records(curve, delta)]
        for name, check in _VALUE_CHECKS.items():
            lazy = _records(curve, delta)
            assert len(lazy) == len(eager)
            for record, want in zip(lazy, eager):
                assert _unbuilt(record), name
                assert check(record, want), (name, want)
                kinds.add((type(record).__name__, getattr(record, "kind", None)))
        # a lazy report equals one built from the eager components
        report = count_components_direct(real_part(curve, phase_from_signs(curve, delta)))
        assert report == type(report)(report.count, tuple(eager[2:]), report.nesting_parent)
        # and a record of another value differs from it
        other = _eager(twists_from_signs(curve, SignDistribution.constant(curve)))
        if other != eager[0]:
            assert twists_from_signs(curve, delta) != other
            assert twists_from_signs(curve, delta) not in {other}
    assert kinds == {("TwistSet", None), ("RealPhaseStructure", None),
                     ("CurveComponentInfo", "oval"), ("CurveComponentInfo", "pseudo-line")}


# reprs recorded before the records built their fields on first read
_PINNED_HONEYCOMB_2 = (
    "TwistSet(edges=frozenset({4}), vector=Gf2Vector(length=3, bits=2))",
    "RealPhaseStructure(lines=(PhaseLine(rep=(0, 1), direction=(1, 0)), PhaseLine(rep=(0, 0), direction=(0, 1)), "
    "PhaseLine(rep=(0, 0), direction=(1, 0)), PhaseLine(rep=(0, 0), direction=(1, 1)), "
    "PhaseLine(rep=(1, 0), direction=(0, 1)), PhaseLine(rep=(0, 0), direction=(1, 1)), "
    "PhaseLine(rep=(0, 0), direction=(1, 0)), PhaseLine(rep=(0, 0), direction=(0, 1)), "
    "PhaseLine(rep=(0, 1), direction=(1, 1))))",
    "CurveComponentInfo(edge_copies=frozenset({(3, (1, 1)), (1, (0, 1)), (8, (0, 1)), (4, (1, 0)), (2, (0, 0)), "
    "(7, (0, 0)), (3, (0, 0)), (2, (1, 0)), (5, (0, 0)), (8, (1, 0)), (6, (0, 0)), (1, (0, 0)), (4, (1, 1)), "
    "(6, (1, 0)), (0, (0, 1)), (0, (1, 1)), (7, (0, 1)), (5, (1, 1))}), kind='oval', nesting_depth=1, "
    "interior_regions=frozenset({((0, 2), (0, 0)), ((0, 2), (1, 0)), ((1, 0), (0, 1)), ((1, 1), (0, 1)), "
    "((1, 1), (1, 0)), ((0, 2), (0, 1)), ((0, 2), (1, 1)), ((0, 1), (1, 1)), ((1, 0), (0, 0)), ((0, 1), (0, 1))}))",
)
# sha256 of the reprs of every record of _pin_draws(d), one per line
_PINNED_REPR_DIGESTS = {
    2: "f572847b05de190ed29211d4572b94ccfb3f734a83065dab48a86d9cec556862",
    3: "76f2de369fd7711cfb58d1c4c46e3158e0afe2bd81e0f6ca18e76c5a1e4811be",
}


def test_lazy_record_reprs_are_pinned():
    curve, delta = next(_pin_draws(2))
    assert tuple(map(repr, _records(curve, delta))) == _PINNED_HONEYCOMB_2
    for d, want in _PINNED_REPR_DIGESTS.items():
        text = "\n".join(repr(r) for curve, delta in _pin_draws(d) for r in _records(curve, delta))
        assert hashlib.sha256(text.encode()).hexdigest() == want, d
