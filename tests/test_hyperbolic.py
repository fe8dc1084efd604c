import hashlib
import random
import re
from fractions import Fraction

import pytest

from tropcurve import (
    SignDistribution,
    TwistSet,
    adm_space,
    div_space,
    honeycomb,
    honeycomb_locus,
    hyp_alpha_flat,
    hyperbolic_wrt_point,
    hyperbolicity_locus,
    is_admissible,
    is_dividing,
    is_hyperbolic,
    multi_bridges,
    phase_from_signs,
    phase_from_twists,
    primitive_cycles,
    twists_from_phase,
)
from tropcurve.errors import (
    DegreeUnset,
    InvariantViolation,
    NotAdmissible,
    NotDividing,
    NotHoneycomb,
    PointOnCurve,
    ValidationError,
)
from tropcurve.geometry import canonical_direction
from tropcurve.gf2 import Gf2Subspace, Gf2Vector
from tropcurve.realstruct import EPS4, RealPhaseStructure, _base, region_class, twist_matrix
from tropcurve.selfcheck import (
    SigmaV,
    _ComponentAnalysis,
    is_generic,
    pointwise_signed_locus,
    pointwise_verdicts,
    random_nonsingular_curve,
    random_sign_distribution,
)


def stable_phase(d):
    c = honeycomb(d)
    return c, phase_from_signs(c, SignDistribution.constant(c))


def bridge_twists(curve, keys):
    table = {b.dual_line: b for b in multi_bridges(curve)}
    edges = set()
    for key in keys:
        edges |= table[key].edges
    return TwistSet.from_edges(curve, edges)


def test_sigma_v_classification():
    sig = SigmaV((Fraction(0), Fraction(0)))
    assert sig.classify((Fraction(3), Fraction(0))) == ("ray", (1, 0))
    assert sig.classify((Fraction(0), Fraction(2))) == ("ray", (0, 1))
    assert sig.classify((Fraction(-1), Fraction(-1))) == ("ray", (1, 1))
    assert sig.classify((Fraction(2), Fraction(1))) == ("sector", (1, 1))
    assert sig.classify((Fraction(-2), Fraction(1))) == ("sector", (1, 0))
    assert sig.classify((Fraction(1), Fraction(-2))) == ("sector", (0, 1))
    assert sig.classify((Fraction(0), Fraction(0))) == ("apex",)


def test_genericity_rejects_vertex_hits_and_overlaps():
    c = honeycomb(2)  # vertices (1,1),(2,2),(2,3),(3,2)
    with pytest.raises(PointOnCurve):
        is_generic((Fraction(1), Fraction(1)), c)
    # vertical ray up from (2,1) hits the vertex (2,2)
    assert not is_generic((Fraction(2), Fraction(1)), c)
    # the southwest diagonal from (3,3) overlaps the bounded (1,1)-edge
    assert not is_generic((Fraction(3), Fraction(3)), c)
    assert is_generic((Fraction(1, 7), Fraction(5, 11)), c)


def test_is_hyperbolic_examples():
    c4 = honeycomb(4)
    ok, k = is_hyperbolic(c4, TwistSet.from_edges(c4, []))
    assert (ok, k) == (False, 3)
    c5 = honeycomb(5)
    ok, k = is_hyperbolic(c5, TwistSet.from_edges(c5, c5.bounded_edges))
    assert (ok, k) == (True, 2)
    with pytest.raises(NotAdmissible):
        c3 = honeycomb(3)
        (cycle,) = primitive_cycles(c3)
        is_hyperbolic(c3, TwistSet.from_edges(c3, [min(cycle.edges)]))


def test_degree_six_block_fixture():
    c = honeycomb(6)
    T = bridge_twists(c, [("d", s) for s in (2, 3, 4, 5)])
    cycles = primitive_cycles(c)
    A = twist_matrix(c, T)
    ranks = {}
    for s in (2, 3, 4, 5):
        idx = [i for i, cy in enumerate(cycles) if sum(cy.center) == s]
        from tropcurve.gf2 import Gf2Matrix

        sub = Gf2Matrix(len(idx), len(idx), tuple(
            sum((A.row_bits[i] >> j & 1) << k for k, j in enumerate(idx)) for i in idx))
        ranks[s] = sub.rank()
    assert [ranks[s] for s in (2, 3, 4, 5)] == [0, 2, 2, 4]
    ok, k = is_hyperbolic(c, T)
    assert (ok, k) == (True, 2)


def test_multi_bridges_census():
    c4 = honeycomb(4)
    bridges = multi_bridges(c4)
    assert len(bridges) == 9
    sizes = sorted(len(b.edges) for b in bridges)
    assert sizes == [1, 1, 1, 2, 2, 2, 3, 3, 3]
    from tropcurve import is_admissible, is_dividing

    for b in bridges:
        T = TwistSet.from_edges(c4, b.edges)
        assert is_admissible(c4, T) and is_dividing(c4, T)
    # pairwise disjoint supports spanning the dividing space
    seen = set()
    for b in bridges:
        assert not (b.edges & seen)
        seen |= b.edges
    vectors = [TwistSet.from_edges(c4, b.edges).vector for b in bridges]
    span = Gf2Subspace.from_vectors(len(c4.bounded_edges), vectors)
    assert span.dim == 9 == div_space(c4).dim
    for v in vectors:
        assert div_space(c4).contains(v)

    c2 = honeycomb(2)
    bridges2 = multi_bridges(c2)
    assert len(bridges2) == 3
    assert all(len(b.edges) == 1 for b in bridges2)

    with pytest.raises(NotHoneycomb):
        multi_bridges(_non_honeycomb_quartic())


def _non_honeycomb_quartic():
    # knock one coefficient to break a honeycomb direction but keep it smooth
    from tropcurve import TropicalPolynomial, curve_from_polynomial

    coeffs = {
        (i, j): Fraction(-(i * i + i * j + j * j)) for i in range(3) for j in range(3 - i)
    }
    coeffs[(1, 1)] += Fraction(3, 2)
    return curve_from_polynomial(TropicalPolynomial(coeffs))


def _lemma_curves():
    """honeycomb(1..20), a translate of each, and the honeycombs among
    seeded ``random_nonsingular_curve`` draws of degree 2..8."""
    rng = random.Random(46)
    curves = [honeycomb(d) for d in range(1, 21)]
    curves += [c.translated((Fraction(d, 3), Fraction(-5, d))) for d, c in enumerate(curves, 1)]
    draws = [random_nonsingular_curve(rng, d) for d in range(2, 9) for _ in range(30)]
    return curves + [c for c in draws if c.is_honeycomb()]


def test_honeycomb_dual_is_the_standard_triangulation_and_each_bridge_cuts_it_in_two():
    """The lemma ``multi_bridges`` rests on and does not re-check: a
    honeycomb's dual cells are the unit triangles of the standard
    triangulation, so its bounded edges fall into 3(d-1) families by dual
    line, each parallel and each leaving two parts when removed."""
    curves = _lemma_curves()
    for curve in curves:
        d = curve.degree
        standard = {frozenset({(i, j), (i + 1, j), (i, j + 1)}) for i in range(d) for j in range(d - i)}
        standard |= {frozenset({(i + 1, j), (i, j + 1), (i + 1, j + 1)}) for i in range(d) for j in range(d - 1 - i)}
        assert {frozenset(cell) for cell in curve.vertex_cell} == standard
        bridges = multi_bridges(curve)
        assert len(bridges) == 3 * (d - 1)
        assert sorted(e for b in bridges for e in b.edges) == sorted(curve.bounded_edges)
        for b in bridges:
            assert {canonical_direction(curve.edges[e].direction) for e in b.edges} == {b.direction}
            assert _parts_without(curve, b.edges) == 2, (d, b.dual_line)
    assert len(curves) == 40 + 96


def _parts_without(curve, removed):
    """The number of connected parts of the curve's vertices and its
    bounded edges outside removed, by a union-find."""
    parent = list(range(len(curve.vertex_cell)))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for eid in curve.bounded_edges:
        if eid not in removed:
            parent[root(curve.edges[eid].tail)] = root(curve.edges[eid].head)
    return len({root(v) for v in range(len(parent))})


def test_honeycomb_locus_examples():
    c4 = honeycomb(4)
    all_T = TwistSet.from_edges(c4, c4.bounded_edges)
    assert honeycomb_locus(c4, all_T) == frozenset(c4.dual.lattice_points)
    assert honeycomb_locus(c4, TwistSet.from_edges(c4, [])) == frozenset()
    diag3 = bridge_twists(c4, [("d", 3)])
    assert honeycomb_locus(c4, diag3) == frozenset({(1, 1)})
    # small degrees: an untwisted honeycomb still has unconstrained corners
    c2 = honeycomb(2)
    assert honeycomb_locus(c2, TwistSet.from_edges(c2, [])) == frozenset(
        {(1, 0), (0, 1), (1, 1)}
    )
    c3 = honeycomb(3)
    assert honeycomb_locus(c3, TwistSet.from_edges(c3, [])) == frozenset({(1, 1)})


def test_honeycomb_locus_guards():
    c3 = honeycomb(3)
    (cycle,) = primitive_cycles(c3)
    # one hexagon edge of each direction class: direction sums vanish but
    # the overlap count is odd, so admissible yet not dividing
    from tropcurve.geometry import canonical_direction

    by_class = {}
    for eid in sorted(cycle.edges):
        by_class.setdefault(canonical_direction(c3.edges[eid].direction), eid)
    T = TwistSet.from_edges(c3, by_class.values())
    assert is_admissible(c3, T) and not is_dividing(c3, T)
    with pytest.raises(NotDividing):
        honeycomb_locus(c3, T)
    q = _non_honeycomb_quartic()
    with pytest.raises(NotHoneycomb):
        honeycomb_locus(q, TwistSet.from_edges(q, []))
    with pytest.raises(NotHoneycomb):
        hyp_alpha_flat(q, (1, 1))


def _bridge_outcome(curve, twists):
    try:
        honeycomb_locus(curve, twists)
    except (NotAdmissible, NotDividing) as exc:
        return type(exc), str(exc)
    return None


def _cycle_outcome(curve, twists):
    """What ``honeycomb_locus`` must answer, by the cycle route."""
    try:
        dividing = is_dividing(curve, twists)
    except NotAdmissible as exc:
        return NotAdmissible, str(exc)
    return None if dividing else (NotDividing, "the bridge criterion needs a dividing twist set")


def _partly_twisted(curve, edges):
    return any(0 < len(b.edges & edges) < len(b.edges) for b in multi_bridges(curve))


def test_bridge_pass_decides_dividing_as_the_cycle_route():
    """``honeycomb_locus`` decides "dividing" off the bridges alone: on
    every twist set of honeycomb(1..3) and on 200 seeded non-unions of
    bridges at d = 4..8 (admissible sets drawn from ``adm_space``, and
    unions of bridges with one edge flipped), it accepts iff
    ``is_dividing`` does and otherwise refuses with the cycle route's
    error and message."""
    cases = []
    for d in (1, 2, 3):
        c = honeycomb(d)
        n = len(c.bounded_edges)
        cases += [(c, TwistSet.from_vector(c, Gf2Vector(n, m))) for m in range(1 << n)]
    rng = random.Random(52)
    curves = {d: honeycomb(d) for d in range(4, 9)}
    drawn = 0
    while drawn < 200:
        c = curves[rng.randrange(4, 9)]
        if drawn % 2:
            bits = 0
            for b in adm_space(c).basis:
                if rng.random() < 0.5:
                    bits ^= b.bits
            edges = set(TwistSet.from_vector(c, Gf2Vector(len(c.bounded_edges), bits)).edges)
        else:
            edges = {e for b in multi_bridges(c) if rng.random() < 0.5 for e in b.edges}
            edges ^= {rng.choice(c.bounded_edges)}
        if _partly_twisted(c, edges):
            cases.append((c, TwistSet.from_edges(c, edges)))
            drawn += 1
    outcomes = set()
    for c, twists in cases:
        want = _cycle_outcome(c, twists)
        assert _bridge_outcome(c, twists) == want, (c.require_degree(), sorted(twists.edges))
        outcomes.add(want and want[0])
    assert len(cases) == 521 + 200
    assert outcomes == {None, NotAdmissible, NotDividing}


def test_bridge_routes_build_only_the_bridge_table():
    # a first bridge call reads the bridges and no cycle table
    for d in range(2, 13):
        c = honeycomb(d)
        honeycomb_locus(c, TwistSet.from_edges(c, c.bounded_edges))
        assert c._tables.keys() == {"_bridge_table"}, d
        c = honeycomb(d)
        hyp_alpha_flat(c, (1, 1))
        assert c._tables.keys() == {"_bridge_table"}, d


def test_honeycomb_locus_matches_sweep_on_small_untwisted_cases():
    for d in (2, 3):
        c = honeycomb(d)
        T = TwistSet.from_edges(c, [])
        phase = phase_from_twists(c, T)
        report = hyperbolicity_locus(c, phase)
        assert report.locus == honeycomb_locus(c, T)
        assert report.hyperbolic


def test_exlast_diagonal_bridge():
    c4 = honeycomb(4)
    T = bridge_twists(c4, [("d", 3)])
    phase = phase_from_twists(c4, T)
    report = hyperbolicity_locus(c4, phase)
    assert report.hyperbolic and report.kernel_dim == 1
    assert report.locus == frozenset({(1, 1)})
    assert report.signed_locus == frozenset({((1, 1), eps) for _, eps in report.signed_locus})
    assert len(report.signed_locus) == 1


def test_stable_honeycombs_hyperbolic_everywhere():
    for d in (1, 2, 3):
        c, phase = stable_phase(d)
        report = hyperbolicity_locus(c, phase)
        assert report.hyperbolic
        assert report.stable
        assert report.kernel_dim == (d + 1) // 2 - 1
        assert report.component_count == (d + 1) // 2
        assert report.locus == frozenset(c.dual.lattice_points)
        assert report.locus == frozenset(a for a, _ in pointwise_signed_locus(c, phase))


def test_verdict_depends_only_on_component():
    # the pencil oracle gives one verdict wherever in the component it samples
    def verdicts(curve, phase, alpha, eps):
        twisted = frozenset(twists_from_phase(curve, phase).edges)
        return {
            _ComponentAnalysis(curve, phase, alpha, start=k).verdict(eps, twisted).hyperbolic
            for k in (0, 7, 19, 40, 77)
        }

    c, phase = stable_phase(3)
    for alpha in ((0, 0), (1, 1), (2, 0)):
        assert verdicts(c, phase, alpha, (0, 0)) == {True}
    c4 = honeycomb(4)
    T = bridge_twists(c4, [("d", 3)])
    phase4 = phase_from_twists(c4, T)
    for alpha, eps in (((2, 1), (0, 0)), ((1, 1), (0, 0))):
        assert len(verdicts(c4, phase4, alpha, eps)) == 1


def test_verdict_constant_on_glued_classes():
    c, phase = stable_phase(2)
    for alpha in c.dual.lattice_points:
        for eps in EPS4:
            rep = region_class(c, alpha, eps)[1]
            a = hyperbolic_wrt_point(c, phase, alpha, eps)
            b = hyperbolic_wrt_point(c, phase, alpha, rep)
            assert a.hyperbolic == b.hyperbolic


def test_accepts_component_objects():
    from tropcurve import complement_components

    c, phase = stable_phase(2)
    comp = next(cc for cc in complement_components(c) if cc.dual_point == (1, 1))
    verdict = hyperbolic_wrt_point(c, phase, comp, (0, 0))
    assert verdict.hyperbolic
    assert verdict.component == (1, 1)


def test_failing_condition_three_reported():
    c4 = honeycomb(4)
    T = bridge_twists(c4, [("d", 3)])
    phase = phase_from_twists(c4, T)
    verdict = hyperbolic_wrt_point(c4, phase, (2, 1), (0, 0))
    assert not verdict.hyperbolic
    assert verdict.failing_condition == 3


def test_honeycomb_conditions_one_and_two_pass():
    # on a hyperbolic curve every "no" is a copy outside the innermost oval
    c4 = honeycomb(4)
    T = bridge_twists(c4, [("d", 3)])
    phase = phase_from_twists(c4, T)
    for alpha in c4.dual.lattice_points:
        for eps in ((0, 0), (1, 1)):
            verdict = hyperbolic_wrt_point(c4, phase, alpha, eps)
            assert verdict.failing_condition in (None, 3)


def test_stable_curves_pass_everywhere_at_the_identity_symmetry():
    # one fixed symmetry witnesses every component at once
    for d in (2, 3, 4):
        c, phase = stable_phase(d)
        for alpha in c.dual.lattice_points:
            cls = region_class(c, alpha, (0, 0))[1]
            assert hyperbolic_wrt_point(c, phase, alpha, cls).hyperbolic


def test_partially_twisted_honeycomb_fails_each_fixed_symmetry(rng):
    # dropping a bridge from the stable class leaves no symmetry that
    # works for every component simultaneously
    for d in (3, 4):
        c = honeycomb(d)
        bridges = multi_bridges(c)
        keys = [b.dual_line for b in bridges[1:]]
        T = bridge_twists(c, keys)
        assert is_dividing(c, T)
        phase = phase_from_twists(c, T)
        for eps in EPS4:
            witnesses = [
                alpha
                for alpha in c.dual.lattice_points
                if hyperbolic_wrt_point(c, phase, alpha, region_class(c, alpha, eps)[1]).hyperbolic
            ]
            assert len(witnesses) < len(c.dual.lattice_points)


def test_stable_limit_cases():
    c, phase = stable_phase(3)
    assert hyperbolicity_locus(c, phase).stable
    # all edges twisted but the consistent symmetry is not the identity:
    # the constant signs re-signed by eps = (1, 0), v -> (-1)^(v_0)
    delta = SignDistribution({v: -1 if v[0] & 1 else 1 for v in c.dual.lattice_points})
    phase2 = phase_from_signs(c, delta)
    assert twists_from_phase(c, phase2).edges == frozenset(c.bounded_edges)
    # same twist data is still hyperbolic with respect to every point
    report = hyperbolicity_locus(c, phase2)
    assert report.locus == frozenset(c.dual.lattice_points)
    assert not report.stable
    # non-honeycomb curve
    q = _non_honeycomb_quartic()
    phase_q = phase_from_signs(q, SignDistribution.constant(q))
    assert not hyperbolicity_locus(q, phase_q).stable


def _stable_by_lines(curve, phase):
    """The stable limit as it was read off the phase lines: a honeycomb
    with every bounded edge twisted and no line through (0,0)."""
    return (curve.is_honeycomb()
            and twists_from_phase(curve, phase).edges == frozenset(curve.bounded_edges)
            and not any(line.contains((0, 0)) for line in phase.lines))


def test_a_locus_reads_level_bits_and_keeps_stable():
    # the cases of test_stable_limit_cases, and every honeycomb to d=6
    # with all edges twisted or with constant signs; the locus must not
    # build the phase's lines, and stable must equal the line-based rule
    c3 = honeycomb(3)
    q = _non_honeycomb_quartic()
    cases = [
        (c3, phase_from_signs(c3, SignDistribution.constant(c3))),
        (c3, phase_from_signs(c3, SignDistribution({v: -1 if v[0] & 1 else 1 for v in c3.dual.lattice_points}))),
        (q, phase_from_signs(q, SignDistribution.constant(q))),
    ]
    for d in range(1, 7):
        c = honeycomb(d)
        every = TwistSet.from_edges(c, c.bounded_edges)
        cases.append((c, phase_from_twists(c, every)))
        cases.append((c, phase_from_twists(c, every, (c.bounded_edges[-1], (1, 1)) if c.bounded_edges else None)))
        cases.append((c, phase_from_signs(c, SignDistribution.constant(c))))
    stable = 0
    for curve, phase in cases:
        assert phase._lines is None
        report = hyperbolicity_locus(curve, phase)
        assert phase._lines is None
        assert report.stable == _stable_by_lines(curve, phase)
        stable += report.stable
    assert 4 <= stable <= len(cases) - 4


def test_hyp_alpha_flats_for_the_quartic():
    c4 = honeycomb(4)
    flat11 = hyp_alpha_flat(c4, (1, 1))
    assert [b.dual_line for b in flat11.constraining_bridges] == [("d", 3)]
    assert flat11.flat.dim == 9 - 1 == 8
    flat00 = hyp_alpha_flat(c4, (0, 0))
    assert [b.dual_line for b in flat00.constraining_bridges] == [("d", 1), ("d", 2), ("d", 3)]
    assert flat00.flat.dim == 9 - 3
    # every member of the flat puts (1,1) in the bridge locus
    sample = 0
    for v in flat11.flat.enumerate():
        T = TwistSet.from_vector(c4, v)
        assert (1, 1) in honeycomb_locus(c4, T)
        sample += 1
        if sample > 40:
            break


def test_hyp_alpha_flat_matches_brute_force_enumeration():
    c3 = honeycomb(3)
    div = div_space(c3)
    for alpha in ((1, 1), (0, 0), (2, 1), (0, 2)):
        flat = hyp_alpha_flat(c3, alpha)
        brute = {
            v.bits
            for v in div.enumerate()
            if alpha in honeycomb_locus(c3, TwistSet.from_vector(c3, v))
        }
        assert {v.bits for v in flat.flat.enumerate()} == brute


def _hyp_alpha_flat_by_solving(curve, alpha):
    """The route ``hyp_alpha_flat`` took before it read the bridges: one
    affine system, div_space's orthogonal constraints at 0 and each edge
    of a constraining bridge at 1, solved by ``solve_affine``, with the
    checks it ran on the answer."""
    from tropcurve.gf2 import Gf2Matrix, Gf2Vector, kernel, solve_affine
    from tropcurve.hyperbolic import _constraining_keys

    bridges = {b.dual_line: b for b in multi_bridges(curve)}
    constraining = tuple(bridges[k] for k in _constraining_keys(alpha, curve.degree))
    div = div_space(curve)
    n = len(curve.bounded_edges)
    rows = tuple(b.bits for b in div.basis)
    constraints = [(c, 0) for c in kernel(Gf2Matrix(len(rows), n, rows)).basis]
    for b in constraining:
        for eid in sorted(b.edges):
            constraints.append((Gf2Vector.from_indices(n, [curve.bounded_index[eid]]), 1))
    flat = solve_affine(constraints, n)
    assert flat is not None and div.dim - flat.dim == len(constraining)
    union = Gf2Vector.from_indices(n, [curve.bounded_index[eid] for b in constraining for eid in b.edges])
    assert flat.space.contains(union ^ flat.offset)
    return flat, constraining


def test_dividing_space_is_spanned_by_the_bridges_and_each_flat_read_off_them():
    """The lemma ``hyp_alpha_flat`` rests on: on a honeycomb the dividing
    space is the span of the 3(d-1) multi-bridges' indicator vectors.  So
    the flat at alpha is the union of its constraining bridges plus the
    span of the others, the same offset, space and bridges as the
    solving route gave."""
    from tropcurve.gf2 import Gf2Vector

    for d in range(1, 21):
        curve = honeycomb(d)
        n = len(curve.bounded_edges)
        bridges = multi_bridges(curve)
        vectors = [Gf2Vector.from_indices(n, [curve.bounded_index[eid] for eid in b.edges]) for b in bridges]
        assert len(vectors) == 3 * (d - 1) and div_space(curve) == Gf2Subspace.from_vectors(n, vectors)
        if d <= 12:
            for alpha in curve.dual.lattice_points:
                flat = hyp_alpha_flat(curve, alpha)
                assert (flat.flat, flat.constraining_bridges) == _hyp_alpha_flat_by_solving(curve, alpha)


def test_disjoint_dividing_addition_preserves_hyperbolicity(rng):
    for d in (3, 4, 5):
        c = honeycomb(d)
        bridges = multi_bridges(c)
        # hyperbolic base: every bridge twisted (the stable class)
        base = set(range(len(bridges)))
        for _ in range(6):
            drop = rng.randrange(len(bridges))
            keys = [bridges[i].dual_line for i in base if i != drop]
            T = bridge_twists(c, keys)
            ok, _ = is_hyperbolic(c, T)
            if not ok:
                continue
            add = bridges[drop]
            union = TwistSet.from_edges(c, set(T.edges) | set(add.edges))
            assert T.edges.isdisjoint(add.edges)
            ok2, _ = is_hyperbolic(c, union)
            assert ok2


def test_sweep_matches_oval_method_off_the_honeycomb_world(rng):
    # the pointwise sweep and the innermost-oval method agree; random
    # non-honeycomb curves drive the vertex and determinant-2 failure
    # paths that honeycombs never hit
    conditions = set()
    for _ in range(12):
        d = rng.randrange(2, 5)
        curve = random_nonsingular_curve(rng, d)
        delta = random_sign_distribution(rng, curve)
        phase = phase_from_signs(curve, delta)
        report = hyperbolicity_locus(curve, phase)
        assert report.hyperbolic == bool(report.locus)
        verdicts = pointwise_verdicts(curve, phase)
        assert report.signed_locus == frozenset(key for key, v in verdicts.items() if v.hyperbolic)
        conditions |= {v.failing_condition for v in verdicts.values()}
    assert 1 in conditions or 2 in conditions or 3 in conditions


def test_pencil_line_relative_twist_matches_intersect_machinery(rng):
    # rebuild each condition-3 overlap as an honest two-curve intersection
    # and compare the inline verdict with is_relatively_twisted
    from tropcurve import (
        SignDistribution as SD,
        TropicalPolynomial,
        curve_from_polynomial,
        intersection_components,
        is_relatively_twisted,
    )
    from tropcurve.intersect import SEGMENT_OVERLAP
    from tropcurve.realstruct import EPS4 as _EPS4

    checked = 0
    for trial in range(30):
        d = rng.randrange(3, 5)
        curve = honeycomb(d)
        edges = set()
        for b in multi_bridges(curve):
            if rng.random() < 0.5:
                edges |= b.edges
        phase = phase_from_twists(curve, TwistSet.from_edges(curve, edges))
        alpha = rng.choice(curve.dual.lattice_points)
        ana = _ComponentAnalysis(curve, phase, alpha)
        eids = [r["eid"] for r in ana.cond3_overlaps]
        if not eids:
            continue
        # the analysis records are combinatorial; recover each crossing point
        crossing_points = {}
        for eid in eids:
            e = curve.edges[eid]
            for ray in ((1, 0), (0, 1), (-1, -1)):
                from tropcurve.geometry import intersect_param_lines

                res = intersect_param_lines(ana.v, ray, curve.edge_anchor(eid), e.direction)
                if res is None or res[0] == "collinear":
                    continue
                t, s = res[1], res[2]
                tmax = curve.edge_tmax(eid)
                if t > 0 and 0 < s < tmax:
                    crossing_points[eid] = (ana.v[0] + ray[0] * t, ana.v[1] + ray[1] * t)
        for rec in ana.cond3_overlaps:
            eid = rec["eid"]
            u0 = crossing_points[eid]
            line = curve_from_polynomial(
                TropicalPolynomial({(0, 0): 0, (1, 0): -u0[0], (0, 1): -u0[1]})
            )
            try:
                comps = intersection_components(curve, line)
            except Exception:
                continue
            overlaps = [
                c for c in comps if c.kind == SEGMENT_OVERLAP and c.edge_a == eid
            ]
            if len(overlaps) != 1:
                continue
            comp = overlaps[0]
            want_line = phase.lines[eid]
            for eps in _EPS4:
                # the unique line structure through (v, eps) matching the edge
                matching = []
                for s10 in (1, -1):
                    for s01 in (1, -1):
                        ph_l = phase_from_signs(
                            line, SD({(0, 0): 1, (1, 0): s10, (0, 1): s01})
                        )
                        if ph_l.lines[comp.edge_b] != want_line:
                            continue
                        rv_eid = next(
                            e2.index for e2 in line.edges
                            if e2.direction == rec["rv"][0]
                        )
                        if ph_l.lines[rv_eid].contains(eps):
                            matching.append(ph_l)
                assert len(matching) == 1
                via_intersect = is_relatively_twisted(comp, phase, matching[0])
                via_inline = ana._relatively_twisted(rec, eps)
                assert via_intersect == via_inline
                checked += 1
    assert checked >= 40


def test_the_nest_verdict_is_the_rank_verdict():
    """The locus's nest test (d // 2 ovals down) and kernel dimension
    (components less one) against the rank route: every phase of
    honeycomb(1..3) and of 12 seeded lifts of degree 2 and 3, a phase
    being the one induced by signs with (0,0) plus, and 200 random-sign
    phases of seeded lifts of degree 4..8."""
    rng = random.Random(3)
    cases = []
    curves = [honeycomb(d) for d in (1, 2, 3)]
    curves += [random_nonsingular_curve(rng, d) for d in (2, 3) for _ in range(6)]
    for c in curves:
        base = _base(c)
        cases += [(c, base.phase_of_signs(m << 1)) for m in range(2 ** (len(base.points) - 1))]
    for _ in range(200):
        c = random_nonsingular_curve(rng, rng.randrange(4, 9))
        cases.append((c, phase_from_signs(c, random_sign_distribution(rng, c))))
    hyperbolic = 0
    for c, phase in cases:
        report = hyperbolicity_locus(c, phase)
        assert (report.hyperbolic, report.kernel_dim) == is_hyperbolic(c, twists_from_phase(c, phase))
        hyperbolic += report.hyperbolic
    assert len(cases) == 4012
    assert 1000 < hyperbolic < 3000, hyperbolic


def test_constant_signs_twist_every_bounded_edge_of_a_honeycomb():
    # the stability lemma behind the locus's stable field: the two unit
    # triangles on a dual edge pq have apexes r and p + q - r, whose
    # coordinate sums differ by q - p mod 2, which is nonzero
    for d in range(1, 31):
        c = honeycomb(d)
        twists = twists_from_phase(c, phase_from_signs(c, SignDistribution.constant(c)))
        assert twists.edges == frozenset(c.bounded_edges), d


def test_bridge_locus_is_the_locus_on_every_dividing_set():
    # every dividing twist set of honeycomb(2..5): the bridge criterion's
    # lattice triangle is the innermost oval's interior, empty iff the
    # curve is not hyperbolic
    sets = 0
    for d in range(2, 6):
        c = honeycomb(d)
        for v in div_space(c).enumerate():
            twists = TwistSet.from_vector(c, v)
            report = hyperbolicity_locus(c, phase_from_twists(c, twists))
            assert honeycomb_locus(c, twists) == report.locus, (d, sorted(twists.edges))
            assert report.hyperbolic == bool(report.locus), (d, sorted(twists.edges))
            assert is_hyperbolic(c, twists)[0] == report.hyperbolic, (d, sorted(twists.edges))
            sets += 1
    assert sets == 8 + 64 + 512 + 4096


def reproducer_conic():
    # a hyperbolic non-honeycomb conic on which the pencil conditions
    # wrongly accept the copy ((0,0),(0,0)): edge directions outside the
    # three pencil classes are never inspected
    from tropcurve import TropicalPolynomial, curve_from_polynomial

    coeffs = {
        (0, 0): -6, (0, 1): -2, (0, 2): Fraction(2, 3),
        (1, 0): -1, (1, 1): 6, (2, 0): Fraction(1, 3),
    }
    c = curve_from_polynomial(TropicalPolynomial({p: Fraction(a) for p, a in coeffs.items()}))
    signs = {p: (1 if p == (0, 1) else -1) for p in coeffs}
    return c, phase_from_signs(c, SignDistribution(signs))


def test_reproducer_conic_locus_is_the_innermost_oval_interior():
    c, phase = reproducer_conic()
    report = hyperbolicity_locus(c, phase)
    assert report.hyperbolic
    assert report.kernel_dim == 0
    assert report.component_count == 1
    assert report.locus == frozenset({(0, 1), (1, 0), (1, 1)})
    assert report.signed_locus == frozenset({((0, 1), (0, 0)), ((1, 0), (1, 0)), ((1, 1), (0, 1))})


def test_reproducer_conic_pointwise_rejects_the_outer_copy():
    c, phase = reproducer_conic()
    verdict = hyperbolic_wrt_point(c, phase, (0, 0), (0, 0))
    assert not verdict.hyperbolic
    assert verdict.failing_condition == 3


def test_locus_runs_no_pointwise_sweep(monkeypatch):
    import tropcurve.selfcheck as sc

    def refuse(*args, **kwargs):
        raise RuntimeError("the pointwise sweep is an oracle, not a production route")

    monkeypatch.setattr(sc, "_ComponentAnalysis", refuse)
    monkeypatch.setattr(sc, "_pencil_scan", refuse)
    c4 = honeycomb(4)
    phase4 = phase_from_twists(c4, bridge_twists(c4, [("d", 3)]))
    report = hyperbolicity_locus(c4, phase4)
    assert report.locus == frozenset({(1, 1)})
    c, phase = reproducer_conic()
    assert hyperbolicity_locus(c, phase).locus == frozenset({(0, 1), (1, 0), (1, 1)})
    # point queries read the same locus, on every copy
    for curve, ph, want in ((c4, phase4, report), (c, phase, hyperbolicity_locus(c, phase))):
        for alpha in curve.dual.lattice_points:
            for eps in EPS4:
                verdict = hyperbolic_wrt_point(curve, ph, alpha, eps)
                assert verdict.hyperbolic == (region_class(curve, alpha, eps) in want.signed_locus)


def test_point_query_matches_the_pencil_oracle(rng):
    # where the pencil conditions hold (honeycombs and lifts near them),
    # the locus route and the oracle agree on every copy, under every eps
    cases = []
    for d in (1, 2, 3, 4):
        c = honeycomb(d)
        cases.append((c, phase_from_signs(c, SignDistribution.constant(c))))
        for _ in range(2):
            cases.append((c, phase_from_signs(c, random_sign_distribution(rng, c))))
    # random_nonsingular_curve draws are mostly honeycombs; keep the others
    lifts = 0
    while lifts < 6:
        c = random_nonsingular_curve(rng, rng.randrange(2, 6))
        if c.is_honeycomb():
            continue
        lifts += 1
        for _ in range(3):
            cases.append((c, phase_from_signs(c, random_sign_distribution(rng, c))))
    conditions = set()
    for curve, phase in cases:
        oracle = pointwise_verdicts(curve, phase)
        for alpha in curve.dual.lattice_points:
            for eps in EPS4:
                got = hyperbolic_wrt_point(curve, phase, alpha, eps)
                assert got.hyperbolic == oracle[region_class(curve, alpha, eps)].hyperbolic
                conditions.add(got.failing_condition)
    assert conditions == {None, 1, 2, 3}
    # non-canonical symmetries: eps is read modulo 2
    c, phase = stable_phase(2)
    assert hyperbolic_wrt_point(c, phase, (1, 1), (2, -1)) == hyperbolic_wrt_point(c, phase, (1, 1), (0, 1))


def test_point_query_rejects_a_point_off_the_polygon():
    c, phase = stable_phase(2)
    with pytest.raises(ValueError, match="is not a lattice point of the Newton polygon"):
        hyperbolic_wrt_point(c, phase, (3, 3), (0, 0))
    with pytest.raises(ValueError, match="is not a lattice point of the Newton polygon"):
        hyperbolic_wrt_point(c, phase, (1, -1), (0, 0))


def test_point_query_checks_the_point_before_computing_the_locus(monkeypatch):
    import tropcurve.hyperbolic as hyp

    def refuse(*args, **kwargs):
        raise RuntimeError("an off-polygon point needs no locus")

    monkeypatch.setattr(hyp, "hyperbolicity_locus", refuse)
    c, phase = stable_phase(3)
    with pytest.raises(ValueError, match="is not a lattice point of the Newton polygon"):
        hyperbolic_wrt_point(c, phase, (4, 0), (0, 0))


def test_honeycomb_locus_check_kills_a_verdict_that_no_quintic_is_hyperbolic(monkeypatch):
    """A mutant ``hyperbolicity_locus`` whose nest test never holds at
    d = 5: the fully twisted quintic is hyperbolic, so the check fails
    on it against the oracle's rank route."""
    import inspect

    import tropcurve.hyperbolic as hyp
    import tropcurve.selfcheck as sc
    from tropcurve.selfcheck import run_check

    assert run_check("honeycomb-locus", random.Random(2), 5).passed
    source = inspect.getsource(hyp.hyperbolicity_locus)
    test = "== d // 2"
    assert source.count(test) == 1
    namespace = dict(vars(hyp))
    exec(source.replace(test, test + " and d != 5"), namespace)
    monkeypatch.setattr(sc, "hyperbolicity_locus", namespace["hyperbolicity_locus"])
    result = run_check("honeycomb-locus", random.Random(2), 5)
    assert not result.passed and result.detail.startswith("fully twisted d=5: "), result.detail


def test_honeycomb_locus_check_kills_bridges_that_misread_the_vertical_level(monkeypatch):
    """A mutant bridge table (``hyperbolic._bridge_table``, which
    ``multi_bridges`` returns) that reads the vertical family's level off
    p[1], which varies along the family: its bridges are not the dual
    lines, so the bridge locus differs from the oval's, and the check
    fails without a bridge check in production."""
    import inspect

    import tropcurve.hyperbolic as hyp
    from tropcurve.selfcheck import run_check

    source = inspect.getsource(hyp._bridge_table)
    line = "            level = p[0]\n"
    assert source.count(line) == 1
    namespace = dict(vars(hyp))
    exec(source.replace(line, "            level = p[1]\n"), namespace)
    # run_check builds its curves afresh, so no curve holds the real table
    monkeypatch.setattr(hyp, "_bridge_table", namespace["_bridge_table"])
    result = run_check("honeycomb-locus", random.Random(2), 5)
    assert not result.passed, result.detail
    assert re.match(r"trial \d+ \(d=\d+\): bridges \[.*\] != oval \[", result.detail), result.detail


def test_honeycomb_locus_check_kills_a_bridge_pass_that_accepts_partly_twisted_sets(monkeypatch):
    """A mutant ``honeycomb_locus`` that skips a partly twisted bridge
    instead of refusing: the flipped draws catch it against the cycle
    route."""
    import inspect

    import tropcurve.hyperbolic as hyp
    import tropcurve.selfcheck as sc
    from tropcurve.selfcheck import run_check

    source = inspect.getsource(hyp.honeycomb_locus)
    test = "elif not b.edges <= edges:"
    assert source.count(test) == 1
    namespace = dict(vars(hyp))
    exec(source.replace(test, "elif False:"), namespace)
    monkeypatch.setattr(sc, "honeycomb_locus", namespace["honeycomb_locus"])
    result = run_check("honeycomb-locus", random.Random(2), 5)
    assert not result.passed
    assert re.match(r"flip trial \d+ \(d=\d+\): bridges accepted, cycles NotAdmissible: ", result.detail), result.detail


def test_honeycomb_locus_check_reaches_not_dividing_at_seed_0(monkeypatch):
    """At ``verify --seed 0`` the admissible draws of ``honeycomb-locus``
    reach the bridge pass's ``NotDividing``, which the flipped draws never
    do, so a mutant ``honeycomb_locus`` that skips a partly twisted bridge
    of an admissible set fails the check there against the cycle route."""
    import inspect

    import tropcurve.hyperbolic as hyp
    import tropcurve.selfcheck as sc
    from tropcurve.selfcheck import CHECKS, run_check

    _, offset, budget = CHECKS["honeycomb-locus"]
    refused = []

    def recording(curve, twists):
        try:
            return hyp.honeycomb_locus(curve, twists)
        except (NotAdmissible, NotDividing) as exc:
            refused.append(type(exc))
            raise

    monkeypatch.setattr(sc, "honeycomb_locus", recording)
    assert run_check("honeycomb-locus", random.Random(0 + offset), budget(25)).passed
    assert NotDividing in refused
    source = inspect.getsource(hyp.honeycomb_locus)
    refusal = 'raise NotDividing("the bridge criterion needs a dividing twist set")'
    assert source.count(refusal) == 1
    namespace = dict(vars(hyp))
    exec(source.replace(refusal, "continue"), namespace)
    monkeypatch.setattr(sc, "honeycomb_locus", namespace["honeycomb_locus"])
    result = run_check("honeycomb-locus", random.Random(0 + offset), budget(25))
    assert not result.passed
    assert re.match(r"admissible trial \d+ \(d=\d+\): bridges accepted, cycles NotDividing: ", result.detail), \
        result.detail


def test_report_has_one_field_per_quantity():
    from dataclasses import fields

    from tropcurve import HyperbolicityReport

    assert [f.name for f in fields(HyperbolicityReport)] == [
        "hyperbolic", "kernel_dim", "component_count", "stable", "locus", "signed_locus",
    ]


def test_point_query_needs_a_degree():
    from tropcurve import TropicalPolynomial, curve_from_polynomial

    square = {(0, 0): 0, (1, 0): Fraction(-1, 2), (0, 1): Fraction(-1, 3), (1, 1): -2}
    c = curve_from_polynomial(TropicalPolynomial({p: Fraction(a) for p, a in square.items()}))
    phase = phase_from_signs(c, SignDistribution.constant(c))
    with pytest.raises(DegreeUnset):
        hyperbolic_wrt_point(c, phase, (0, 0), (0, 0))


def test_point_query_validates_the_phase():
    c = honeycomb(2)
    phase = phase_from_signs(c, SignDistribution.constant(c))
    short = RealPhaseStructure(phase.lines[:-1])
    with pytest.raises(ValidationError, match="does not cover every edge"):
        hyperbolic_wrt_point(c, short, (1, 1), (0, 0))


# sha256 of the pencil analysis over the corpus below, as recorded with the
# Fraction pencil scan that the integer scan replaced
PENCIL_DIGEST = "a1ec272d9cb1a86334eb5e2ac3755af1a62217c8e8ebc61384f2d6cabd98b78b"


def test_pencil_analysis_golden():
    from tropcurve import curve_from_polynomial
    from tropcurve.errors import DegeneratePolygon, SingularSubdivision
    from tropcurve.selfcheck import random_lift

    # non-honeycomb lifts bring edges with determinant 2 against a ray
    rng = random.Random(9)
    curves = [honeycomb(d) for d in range(1, 6)]
    curves += [random_nonsingular_curve(rng, d) for d in range(1, 7)]
    while len(curves) < 31:
        try:
            curve = curve_from_polynomial(random_lift(rng))
        except (SingularSubdivision, DegeneratePolygon):
            continue
        if curve.degree is not None and not curve.is_honeycomb():
            curves.append(curve)
    lines = []
    for curve in curves:
        for delta in (SignDistribution.constant(curve), random_sign_distribution(rng, curve)):
            phase = phase_from_signs(curve, delta)
            twisted = frozenset(twists_from_phase(curve, phase).edges)
            for alpha in curve.dual.lattice_points:
                ana = _ComponentAnalysis(curve, phase, alpha)
                lines.append(repr((
                    alpha, ana.v, ana.sector, ana.cond1_failure, ana.cond2_edges,
                    ana.cond3_contained, [rec["eid"] for rec in ana.cond3_overlaps],
                )))
                for eps in EPS4:
                    v = ana.verdict(eps, twisted)
                    lines.append(repr((eps, v.hyperbolic, v.failing_condition, v.detail)))
        # points on a pencil line of a vertex (vertex hits, overlaps and
        # collinear edges behind the point) and random half-integer points
        points = []
        for ux, uy in curve.vertices:
            for k in (-3, -1, 1, 2):
                h = Fraction(k, 2)
                points += [(ux + h, uy), (ux, uy + h), (ux + h, uy + h)]
        xs = [int(u[0]) for u in curve.vertices]
        ys = [int(u[1]) for u in curve.vertices]
        for _ in range(40):
            points.append((
                Fraction(rng.randrange(2 * min(xs) - 4, 2 * max(xs) + 5), 2),
                Fraction(rng.randrange(2 * min(ys) - 4, 2 * max(ys) + 5), 2),
            ))
        for p in points:
            try:
                lines.append(repr((p, is_generic(p, curve))))
            except PointOnCurve:
                lines.append(repr((p, "on curve")))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PENCIL_DIGEST


_OPTIMIZED_INVARIANTS = """
import tropcurve.hyperbolic as hyp
import tropcurve.realstruct as realstruct
import tropcurve.selfcheck as selfcheck
from tropcurve import TwistSet, honeycomb, phase_from_twists

assert False, "the interpreter must run with -O"  # stripped under -O
real = realstruct._tree_walk


def one_face_short(adj, root):
    order, up = real(adj, root)
    return order[:-1], up


realstruct._tree_walk = one_face_short
curve = honeycomb(4)
phase = phase_from_twists(curve, TwistSet.from_edges(curve, curve.bounded_edges))
try:
    hyp.hyperbolicity_locus(curve, phase)
except AssertionError as exc:
    print("AssertionError:", exc)
try:
    selfcheck.sides_differ(((0, 0), (1, 1)), lambda e: e == (0, 0), lambda e: False)
except AssertionError as exc:
    print("AssertionError:", exc)
conic = honeycomb(2)
ray = next(e.index for e in conic.edges if not e.bounded)
try:
    selfcheck.edge_twisted_geometric(conic, phase_from_twists(conic, TwistSet.from_edges(conic, ())), ray)
except AssertionError as exc:
    print("AssertionError:", exc)
"""


def test_locus_invariants_hold_under_python_optimize():
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZED_INVARIANTS],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "AssertionError: the faces of the real part are not connected\n"
        "AssertionError: twist verdict must not depend on the phase element\n"
        "AssertionError: only bounded edges carry a twist\n"
    )


def test_selfcheck_invariants_are_typed():
    # the inputs of the python -O test above, in this interpreter
    from tropcurve.selfcheck import edge_twisted_geometric, sides_differ

    with pytest.raises(InvariantViolation, match="twist verdict must not depend on the phase element"):
        sides_differ(((0, 0), (1, 1)), lambda e: e == (0, 0), lambda e: False)
    conic = honeycomb(2)
    ray = next(e.index for e in conic.edges if not e.bounded)
    with pytest.raises(InvariantViolation, match="only bounded edges carry a twist"):
        edge_twisted_geometric(conic, phase_from_twists(conic, TwistSet.from_edges(conic, ())), ray)


# -- the locus against the component-report route ------------------------


def locus_corpus():
    """(curve, phase) pairs: honeycombs d = 1..7 under the constant and a
    random sign distribution and under random unions of multi-bridges,
    and seeded ``random_lift`` draws of a degree under random signs."""
    from tropcurve import curve_from_polynomial
    from tropcurve.errors import DegeneratePolygon, SingularSubdivision
    from tropcurve.selfcheck import random_lift

    rng = random.Random(20)
    cases = []
    for d in range(1, 8):
        c = honeycomb(d)
        cases.append((c, phase_from_signs(c, SignDistribution.constant(c))))
        cases.append((c, phase_from_signs(c, random_sign_distribution(rng, c))))
        bridges = multi_bridges(c)
        for _ in range(4):
            edges = set()
            for b in bridges:
                if rng.random() < 0.5:
                    edges |= b.edges
            cases.append((c, phase_from_twists(c, TwistSet.from_edges(c, edges))))
    lifts = 0
    while lifts < 16:
        try:
            c = curve_from_polynomial(random_lift(rng))
        except (SingularSubdivision, DegeneratePolygon):
            continue
        if c.degree is None:
            continue
        lifts += 1
        for _ in range(3):
            cases.append((c, phase_from_signs(c, random_sign_distribution(rng, c))))
    return cases


def locus_lines(cases):
    """One line per locus and one per point query, a query at every
    lattice point under a symmetry that cycles with the point."""
    lines = []
    for curve, phase in cases:
        r = hyperbolicity_locus(curve, phase)
        lines.append(repr((r.hyperbolic, r.kernel_dim, r.component_count, r.stable,
                           sorted(r.locus), sorted(r.signed_locus))))
        for k, alpha in enumerate(curve.dual.lattice_points):
            v = hyperbolic_wrt_point(curve, phase, alpha, EPS4[k % 4])
            lines.append(repr((v.component, v.eps, v.hyperbolic, v.failing_condition, v.detail)))
    return lines


# sha256 of ``locus_lines`` over ``locus_corpus``, as recorded with the
# component-report route that the face labelling replaced
LOCUS_DIGEST = "b3f006ee942b205caad4c41d413ce5c8dd5809d31d044a87135bab67eabc5ca8"


def test_locus_golden():
    lines = locus_lines(locus_corpus())
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == LOCUS_DIGEST


def test_locus_matches_the_report_route():
    from dataclasses import fields

    from tropcurve.selfcheck import locus_from_report

    hyperbolic = 0
    for curve, phase in locus_corpus():
        got, want = hyperbolicity_locus(curve, phase), locus_from_report(curve, phase)
        for f in fields(want):
            assert getattr(got, f.name) == getattr(want, f.name), f.name
        hyperbolic += got.hyperbolic and curve.degree >= 4
    # nested ovals, where the innermost one is read off its disk face
    assert hyperbolic >= 12


def test_locus_builds_no_component_report(monkeypatch):
    import tropcurve.hyperbolic as hyp
    import tropcurve.realstruct as rs

    def refuse(*args, **kwargs):
        raise RuntimeError("the locus reads the face labelling, not the component report")

    monkeypatch.setattr(rs, "count_components_direct", refuse)
    monkeypatch.setattr(hyp, "count_components_direct", refuse, raising=False)
    lines = locus_lines(locus_corpus())
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == LOCUS_DIGEST
