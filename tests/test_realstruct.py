import random

import pytest

from tropcurve import (
    SignDistribution,
    TropicalPolynomial,
    TwistSet,
    adm_space,
    count_components_direct,
    count_components_matrix,
    curve_from_polynomial,
    div_space,
    honeycomb,
    is_admissible,
    is_dividing,
    phase_from_signs,
    phase_from_twists,
    primitive_cycles,
    real_part,
    signs_from_phase,
    twists_from_phase,
    twists_from_signs,
)
from tropcurve.errors import NotAdmissible
from tropcurve.realstruct import EPS4, _cells, region_class
from tropcurve.selfcheck import (
    _UnionFind,
    climbing_sign_walk,
    cut_scan_components,
    random_lift,
    random_nonsingular_curve,
    random_sign_distribution,
    real_topology_violation,
    region_find,
    report_difference,
    run_check,
)

from conftest import make_line


def test_line_phase_from_constant_signs():
    line = make_line()
    phase = phase_from_signs(line, SignDistribution.constant(line))
    eid = line.edge_by_dual((0, 0), (1, 0))
    assert set(phase.lines[eid].elements) == {(1, 0), (1, 1)}


def test_phase_invariant_under_negation():
    c = honeycomb(3)
    rng = random.Random(3)
    delta = random_sign_distribution(rng, c)
    negated = SignDistribution({v: -s for v, s in delta.signs.items()})
    assert phase_from_signs(c, delta) == phase_from_signs(c, negated)


def test_resigning_translates_the_phase():
    c = honeycomb(3)
    rng = random.Random(4)
    delta = random_sign_distribution(rng, c)
    base = phase_from_signs(c, delta)
    for eps in ((0, 1), (1, 0), (1, 1)):
        # the symmetric re-signing v -> (-1)^(eps.v) * sign(v)
        resigned = SignDistribution({v: -s if (eps[0] * v[0] + eps[1] * v[1]) & 1 else s
                                     for v, s in delta.signs.items()})
        moved = phase_from_signs(c, resigned)
        assert moved == base.translate(eps)
        assert twists_from_signs(c, resigned).edges == twists_from_signs(c, delta).edges


def test_twist_sign_rule_distinct_case():
    c = honeycomb(2)
    # all-plus signs twist every bounded edge (opposite cell vertices always
    # differ mod 2 on the standard triangulation)
    T = twists_from_signs(c, SignDistribution.constant(c))
    assert T.edges == frozenset(c.bounded_edges)


def test_twist_sign_rule_coincident_case():
    # two cells over a common edge whose opposite vertices agree mod 2
    curve = curve_from_polynomial(
        TropicalPolynomial({(0, 1): 0, (1, 1): 0, (0, 2): -1, (2, 0): -1})
    )
    (eid,) = curve.bounded_edges
    assert set(curve.edges[eid].dual) == {(0, 1), (1, 1)}
    v3v4 = {(0, 2), (2, 0)}  # congruent mod 2
    delta = SignDistribution({(0, 1): 1, (1, 1): 1, (0, 2): 1, (2, 0): 1})
    assert twists_from_signs(curve, delta).edges == frozenset()
    delta2 = SignDistribution({(0, 1): 1, (1, 1): 1, (0, 2): 1, (2, 0): -1})
    assert twists_from_signs(curve, delta2).edges == {eid}
    # the phase route agrees
    assert twists_from_phase(curve, phase_from_signs(curve, delta)).edges == frozenset()
    assert twists_from_phase(curve, phase_from_signs(curve, delta2)).edges == {eid}


def test_honeycomb_all_plus_twists_everything():
    for d in (2, 3, 4, 5):
        c = honeycomb(d)
        T = twists_from_signs(c, SignDistribution.constant(c))
        assert T.edges == frozenset(c.bounded_edges)
        assert len(T.edges) == 3 * d * (d - 1) // 2


def test_admissibility_examples():
    c = honeycomb(3)
    assert is_admissible(c, TwistSet.from_edges(c, []))
    (cycle,) = primitive_cycles(c)
    single = TwistSet.from_edges(c, [min(cycle.edges)])
    assert not is_admissible(c, single)
    with pytest.raises(NotAdmissible):
        is_dividing(c, single)
    assert is_dividing(c, TwistSet.from_edges(c, []))


def test_dividing_counterexample_by_enumeration():
    # some admissible set meets the hexagon in an odd number of edges
    c = honeycomb(3)
    (cycle,) = primitive_cycles(c)
    adm = adm_space(c)
    odd = None
    for v in adm.enumerate():
        T = TwistSet.from_vector(c, v)
        if len(T.edges & cycle.edges) % 2 == 1:
            odd = T
            break
    assert odd is not None
    assert is_admissible(c, odd)
    assert not is_dividing(c, odd)
    assert not div_space(c).contains(odd.vector)


def test_space_dimensions():
    for d in range(2, 7):
        c = honeycomb(d)
        g = (d - 1) * (d - 2) // 2
        assert len(c.bounded_edges) == 3 * d * (d - 1) // 2
        assert adm_space(c).dim == 3 * (d - 1) + g
        assert div_space(c).dim == 3 * (d - 1)
    c2 = honeycomb(2)
    assert adm_space(c2).dim == div_space(c2).dim == 3


def test_dividing_membership_matches_parity_check(rng):
    for _ in range(25):
        d = rng.randrange(2, 5)
        c = random_nonsingular_curve(rng, d)
        delta = random_sign_distribution(rng, c)
        T = twists_from_signs(c, delta)
        assert is_admissible(c, T)
        assert is_dividing(c, T) == div_space(c).contains(T.vector)


def test_phase_from_twists_round_trip():
    for d in (2, 3, 4):
        c = honeycomb(d)
        for vec in adm_space(c).basis:
            T = TwistSet.from_vector(c, vec)
            phase = phase_from_twists(c, T)
            assert twists_from_phase(c, phase).edges == T.edges


def test_phase_from_twists_round_trip_on_random_lifts():
    # non-honeycomb subdivisions, some on non-simplex polygons; honeycombs
    # are covered above
    from tropcurve.errors import DegeneratePolygon, SingularSubdivision
    from tropcurve.selfcheck import random_lift

    rng = random.Random(31)
    checked = 0
    while checked < 60:
        try:
            c = curve_from_polynomial(random_lift(rng))
        except (DegeneratePolygon, SingularSubdivision):
            continue
        if c.is_honeycomb():
            continue
        T = TwistSet.from_edges(c, [])
        for vec in adm_space(c).basis:
            if rng.random() < 0.5:
                T = TwistSet.from_vector(c, T.vector ^ vec)
        seed = (rng.randrange(len(c.edges)), rng.choice(EPS4))
        phase = phase_from_twists(c, T, seed)
        assert phase.lines[seed[0]].contains(seed[1])
        assert twists_from_phase(c, phase).edges == T.edges
        checked += 1


def test_phase_from_twists_rejects_inadmissible():
    c = honeycomb(3)
    (cycle,) = primitive_cycles(c)
    with pytest.raises(NotAdmissible):
        phase_from_twists(c, TwistSet.from_edges(c, [min(cycle.edges)]))


def test_all_twisted_conic_recovers_the_constant_structure():
    c = honeycomb(2)
    built = phase_from_twists(c, TwistSet.from_edges(c, c.bounded_edges))
    reference = phase_from_signs(c, SignDistribution.constant(c))
    assert any(built == reference.translate(eps) for eps in EPS4)


def test_phase_from_twists_seeds_agree():
    c = honeycomb(3)
    T = TwistSet.from_edges(c, c.bounded_edges)
    seeds = [(c.bounded_edges[0], eps) for eps in EPS4]
    twist_sets = set()
    for seed in seeds:
        phase = phase_from_twists(c, T, seed)
        assert phase.lines[seed[0]].contains(seed[1])
        twist_sets.add(twists_from_phase(c, phase).edges)
    assert twist_sets == {T.edges}


def test_phase_from_twists_refuses_a_seed_edge_off_the_curve_and_reads_the_seed_eps_mod_2():
    # edge -1 once seeded the last edge, edge 99 and eps (0, 3) raised a
    # bare IndexError
    c = honeycomb(2)
    T = TwistSet.from_edges(c, ())
    for eid in (-1, len(c.edges), 99):
        with pytest.raises(ValueError, match=rf"^seed edge {eid} is not an edge of the curve$"):
            phase_from_twists(c, T, (eid, (0, 0)))
    for eid in range(len(c.edges)):
        phase = phase_from_twists(c, T, (eid, (0, 3)))
        assert phase == phase_from_twists(c, T, (eid, (0, 1)))
        assert phase.lines[eid].contains((0, 1))
        assert phase_from_twists(c, T, (eid, (-2, 5))) == phase


def test_vertex_condition_holds_for_constructed_phases(rng):
    # every element of every line continues over exactly one other edge
    for _ in range(10):
        c = random_nonsingular_curve(rng, rng.randrange(1, 4))
        phase = phase_from_signs(c, random_sign_distribution(rng, c))
        for v, incident in enumerate(c.vertex_edges):
            for eid in incident:
                for eps in phase.lines[eid].elements:
                    conts = [o for o in incident if o != eid and phase.lines[o].contains(eps)]
                    assert len(conts) == 1


def test_real_part_of_line_is_a_pseudoline():
    line = make_line()
    phase = phase_from_signs(line, SignDistribution.constant(line))
    rp = real_part(line, phase)
    assert len(rp.edge_copies) == 6
    report = count_components_direct(rp)
    assert report.count == 1
    assert report.components[0].kind == "pseudo-line"


def test_real_part_of_conic_is_one_oval():
    c = honeycomb(2)
    # any sign distribution: the conic has no cycles, so one component
    rng = random.Random(9)
    for _ in range(5):
        delta = random_sign_distribution(rng, c)
        T = twists_from_signs(c, delta)
        assert count_components_matrix(c, T) == 1
        report = count_components_direct(real_part(c, phase_from_signs(c, delta)))
        assert report.count == 1
        assert report.components[0].kind == "oval"


def test_stable_quartic_has_two_nested_ovals():
    c = honeycomb(4)
    phase = phase_from_signs(c, SignDistribution.constant(c))
    report = count_components_direct(real_part(c, phase))
    assert report.count == 2
    kinds = [comp.kind for comp in report.components]
    assert kinds == ["oval", "oval"]
    assert sorted(comp.nesting_depth for comp in report.components) == [1, 2]
    inner = max(report.components, key=lambda comp: comp.nesting_depth)
    outer = min(report.components, key=lambda comp: comp.nesting_depth)
    assert report.nesting_parent[report.components.index(inner)] == report.components.index(outer)


def test_oval_flag_matches_region_count_delta(rng):
    # deleting an oval's copies merges the two flanking sides of the full
    # region graph (count drops by one); deleting a pseudo-line changes nothing
    for _ in range(12):
        d = rng.randrange(1, 5)
        c = random_nonsingular_curve(rng, d)
        delta = random_sign_distribution(rng, c)
        rp = real_part(c, phase_from_signs(c, delta))
        report = count_components_direct(rp)
        atoms = [(a, e) for a in c.dual.lattice_points for e in EPS4]

        def n_regions(cut):
            uf = region_find(rp, cut)
            return len({uf.find(x) for x in atoms})

        full = n_regions(rp.edge_copies)
        for comp in report.components:
            without = n_regions(rp.edge_copies - comp.edge_copies)
            assert full - without == (1 if comp.kind == "oval" else 0)
        # nesting is consistent with interior containment
        for i, inner in enumerate(report.components):
            j = report.nesting_parent[i]
            if j is None:
                continue
            outer = report.components[j]
            assert inner.interior_regions < outer.interior_regions
            assert inner.nesting_depth == outer.nesting_depth + 1


def test_direct_report_matches_cut_scan():
    # the cell model against the per-cut union-find scan: full reports,
    # on random concave lifts and on arbitrary non-singular d*simplex lifts
    from tropcurve.errors import DegeneratePolygon, SingularSubdivision

    rng = random.Random(8)
    lifts = 0
    for k in range(1000):
        if k % 2:
            try:
                c = curve_from_polynomial(random_lift(rng))
            except (DegeneratePolygon, SingularSubdivision):
                continue
            if c.degree is None:
                continue
            lifts += 1
        else:
            c = random_nonsingular_curve(rng, rng.randint(1, 7))
        rp = real_part(c, phase_from_signs(c, random_sign_distribution(rng, c)))
        direct, scan = count_components_direct(rp), cut_scan_components(rp)
        assert direct == scan, f"draw {k}: {report_difference(direct, scan)}"
    assert lifts >= 100


def _harnack_signs(c):
    return SignDistribution(
        {p: -1 if p[0] % 2 == 0 and p[1] % 2 == 0 else 1 for p in c.dual.lattice_points}
    )


def test_direct_report_matches_cut_scan_on_deep_nests_and_many_ovals():
    # the random draws above nest at most 2 deep and reach at most 7 ovals;
    # hyperbolic honeycombs nest d // 2 deep, Harnack's signs and climbing
    # sign walks give M-curves
    from tropcurve import is_hyperbolic, multi_bridges
    from tropcurve.errors import DegeneratePolygon, SingularSubdivision

    rng = random.Random(14)
    for d in range(4, 11):
        c = honeycomb(d)
        bridges = multi_bridges(c)
        found = 0
        for _ in range(200):
            edges = set().union(*(b.edges for b in bridges if rng.random() < 0.5))
            twists = TwistSet.from_edges(c, edges)
            if not is_hyperbolic(c, twists)[0]:
                continue
            rp = real_part(c, phase_from_twists(c, twists))
            direct, scan = count_components_direct(rp), cut_scan_components(rp)
            assert direct == scan, f"d={d}: {report_difference(direct, scan)}"
            chain = sorted(
                (comp.nesting_depth, i) for i, comp in enumerate(direct.components) if comp.kind == "oval"
            )
            assert [depth for depth, _ in chain] == list(range(1, d // 2 + 1))
            assert [direct.nesting_parent[i] for _, i in chain] == [None] + [i for _, i in chain[:-1]]
            found += 1
            if found == 2:
                break
        assert found == 2, f"d={d}: fewer than two hyperbolic unions of multi-bridges"

    for d in range(1, 13):
        c = honeycomb(d)
        rp = real_part(c, phase_from_signs(c, _harnack_signs(c)))
        direct, scan = count_components_direct(rp), cut_scan_components(rp)
        assert direct == scan, f"Harnack d={d}: {report_difference(direct, scan)}"
        assert direct.count == (d - 1) * (d - 2) // 2 + 1

    curves = m_curves = 0
    while curves < 12:
        try:
            c = curve_from_polynomial(random_lift(rng))
        except (DegeneratePolygon, SingularSubdivision):
            continue
        if c.degree is None:
            continue
        curves += 1
        g = (c.degree - 1) * (c.degree - 2) // 2
        for delta in climbing_sign_walk(rng, c, 3 * len(c.dual.lattice_points)):
            rp = real_part(c, phase_from_signs(c, delta))
            direct, scan = count_components_direct(rp), cut_scan_components(rp)
            assert direct == scan, f"walk on d={c.degree}: {report_difference(direct, scan)}"
            m_curves += direct.count == g + 1
    assert m_curves >= 10


def test_real_topology_check_passes_and_sees_m_curves():
    result = run_check("real-topology", random.Random(3), 12)
    assert result.passed, result.detail
    schemes, m_curves = (int(result.detail.split(", ")[k].split()[0]) for k in (1, 2))
    assert m_curves >= 20 and schemes > m_curves


def test_real_topology_violation_names_the_restriction():
    from tropcurve.realstruct import ComponentReport, CurveComponentInfo

    def report(*depths):
        comps = tuple(
            CurveComponentInfo(frozenset(), "pseudo-line" if t == 0 else "oval", t, None) for t in depths
        )
        return ComponentReport(len(comps), comps, (None,) * len(comps))

    # Harnack's sextic <9 u 1<1>> and a quintic M-curve pass
    assert real_topology_violation(6, report(*[1] * 10, 2), False) is None
    assert real_topology_violation(5, report(0, *[1] * 6), False) is None
    assert real_topology_violation(4, report(*[1] * 5), False).startswith("Harnack")
    assert real_topology_violation(4, report(0, 1), False).startswith("1 pseudo-lines")
    assert real_topology_violation(4, report(1, 2, 3), False).startswith("Bezout: a nest of depth 3")
    assert real_topology_violation(4, report(1, 2, 1), False).startswith("Bezout: a nest of depth k")
    assert real_topology_violation(6, report(*[1] * 11), False).startswith("Petrovsky")
    assert real_topology_violation(6, report(*[1] * 9, 2, 2), False).startswith("Gudkov-Rokhlin")
    assert real_topology_violation(6, report(*[1] * 8, 2, 2), False).startswith("Gudkov-Krakhnov-Kharlamov")
    assert real_topology_violation(4, report(1, 1, 1), True).startswith("Klein")
    assert real_topology_violation(4, report(1, 1), True).startswith("Arnold")


def test_harnack_signs_give_an_m_curve_in_every_parity_class():
    # delta = -1 exactly where (i mod 2, j mod 2) is one class: the four
    # classes differ by re-signing, and on any primitive convex
    # triangulation each gives an M-curve (g + 1 components, a dividing
    # twist set) with exactly one component reaching the rays
    rng = random.Random(19)
    curves = [honeycomb(d) for d in range(1, 21)]
    curves += [random_nonsingular_curve(rng, d) for d in range(1, 9) for _ in range(6)]
    for c in curves:
        d = c.degree
        rays = {e.index for e in c.edges if not e.bounded}
        for cls in ((0, 0), (0, 1), (1, 0), (1, 1)):
            delta = SignDistribution({p: -1 if (p[0] % 2, p[1] % 2) == cls else 1 for p in c.dual.lattice_points})
            twists = twists_from_signs(c, delta)
            direct = count_components_direct(real_part(c, phase_from_signs(c, delta)))
            g = (d - 1) * (d - 2) // 2
            assert count_components_matrix(c, twists) == direct.count == g + 1, (d, cls)
            assert is_dividing(c, twists), (d, cls)
            reaching = [k for k in direct.components if any(eid in rays for eid, _ in k.edge_copies)]
            assert len(reaching) == 1, (d, cls)

@pytest.mark.parametrize("d", [30, 40])
def test_matrix_count_equals_model_count_on_large_honeycombs(d):
    # all-plus signs twist every edge, the costliest rank on the ladder;
    # Harnack's signs give an M-curve
    c = honeycomb(d)
    points = c.dual.lattice_points
    draws = [
        SignDistribution(dict.fromkeys(points, 1)),
        SignDistribution({p: -1 if p[0] % 2 == 0 and p[1] % 2 == 0 else 1 for p in points}),
    ]
    rng = random.Random(d)
    draws += [random_sign_distribution(rng, c) for _ in range(3)]
    for delta in draws:
        direct = count_components_direct(real_part(c, phase_from_signs(c, delta)))
        assert count_components_matrix(c, twists_from_signs(c, delta)) == direct.count


def test_union_find_handles_long_chains():
    uf = _UnionFind()
    for i in range(3000):
        uf.union(i, i + 1)
    assert uf.find(0) == uf.find(3000)


def test_matrix_count_equals_model_count(rng):
    for _ in range(40):
        d = rng.randrange(1, 6)
        c = random_nonsingular_curve(rng, d)
        delta = random_sign_distribution(rng, c)
        T = twists_from_signs(c, delta)
        assert is_admissible(c, T)
        phase = phase_from_signs(c, delta)
        assert twists_from_phase(c, phase).edges == T.edges
        direct = count_components_direct(real_part(c, phase))
        assert count_components_matrix(c, T) == direct.count
        assert sum(1 for comp in direct.components if comp.kind == "pseudo-line") == d % 2


def test_matrix_count_equals_model_count_on_random_lifts():
    # arbitrary non-singular d*simplex lifts, not only near-honeycomb ones
    from tropcurve.errors import DegeneratePolygon, SingularSubdivision
    from tropcurve.selfcheck import random_lift

    rng = random.Random(11)
    checked = non_honeycombs = 0
    while checked < 100:
        try:
            c = curve_from_polynomial(random_lift(rng))
        except (DegeneratePolygon, SingularSubdivision):
            continue
        if c.degree is None:
            continue
        delta = random_sign_distribution(rng, c)
        direct = count_components_direct(real_part(c, phase_from_signs(c, delta)))
        assert count_components_matrix(c, twists_from_signs(c, delta)) == direct.count
        assert sum(1 for comp in direct.components if comp.kind == "pseudo-line") == c.degree % 2
        checked += 1
        non_honeycombs += not c.is_honeycomb()
    assert non_honeycombs >= 30


def test_empty_twists_give_one_plus_genus():
    for d in (3, 4, 5):
        c = honeycomb(d)
        T = TwistSet.from_edges(c, [])
        g = (d - 1) * (d - 2) // 2
        assert count_components_matrix(c, T) == 1 + g


def test_signs_from_phase_round_trip(rng):
    for _ in range(10):
        c = random_nonsingular_curve(rng, rng.randrange(1, 4))
        delta = random_sign_distribution(rng, c)
        phase = phase_from_signs(c, delta)
        rec = signs_from_phase(c, phase)
        agree = {p: rec.signs[p] * delta.signs[p] for p in delta.signs}
        assert len(set(agree.values())) == 1  # delta up to a global sign


def test_region_class_orbits():
    c = honeycomb(2)
    # corners collapse fully, side points glue in pairs, interior points are free
    assert region_class(c, (0, 0), (1, 1)) == ((0, 0), (0, 0))
    assert region_class(c, (1, 0), (0, 1)) == ((1, 0), (0, 0))  # bottom: glue (0,1)
    assert region_class(c, (1, 1), (1, 0)) == ((1, 1), (0, 1))  # hypotenuse: glue (1,1)
    c4 = honeycomb(4)
    assert region_class(c4, (1, 1), (1, 1)) == ((1, 1), (1, 1))
    assert region_class(c4, (1, 1), (0, 1)) == ((1, 1), (0, 1))


def test_region_class_table_matches_region_class():
    rng = random.Random(67)
    curves = [honeycomb(d) for d in range(1, 9)] + [random_nonsingular_curve(rng, d) for d in (1, 2, 3, 4, 5, 6)]
    for c in curves:
        d = c.degree
        table = _cells(c).region_class
        keys = [(alpha, eps) for alpha in c.dual.lattice_points for eps in EPS4]
        assert sorted(table) == sorted(keys)
        for alpha, eps in keys:
            assert table[alpha, eps] == region_class(c, alpha, eps)
        # at each corner two strata glue all four copies into one
        for corner in ((0, 0), (d, 0), (0, d)):
            assert {table[corner, eps] for eps in EPS4} == {(corner, (0, 0))}


def test_real_part_requires_degree():
    square = curve_from_polynomial(
        TropicalPolynomial({(0, 0): 0, (1, 0): -2, (0, 1): -2, (1, 1): 0})
    )
    phase = phase_from_signs(square, SignDistribution.constant(square))
    from tropcurve.errors import DegreeUnset

    with pytest.raises(DegreeUnset):
        real_part(square, phase)


def _scheme(report):
    """The real scheme of a component report: J for the pseudo-line, and
    the ovals as <...>, with n for n empty ovals side by side and 1<...>
    for an oval with ovals inside."""
    children = {}
    for i, (c, parent) in enumerate(zip(report.components, report.nesting_parent)):
        if c.kind == "oval":
            children.setdefault(parent, []).append(i)

    def inside(parent):
        kids = children.get(parent, [])
        empty = sum(i not in children for i in kids)
        return "⊔".join(([str(empty)] if empty else []) + [f"1⟨{inside(i)}⟩" for i in kids if i in children])

    top = ["J"] * sum(c.kind == "pseudo-line" for c in report.components)
    if children.get(None):
        top.append(f"⟨{inside(None)}⟩")
    return "⊔".join(top)


# the real schemes of honeycomb(d) over every sign distribution with + at
# (0, 0), (1, 0) and (0, 1), and how many distributions give each
_SIGN_CENSUS = {
    1: {"J": 1},
    2: {"⟨1⟩": 8},
    3: {"J": 64, "J⊔⟨1⟩": 64},
    4: {"⟨1⟩": 1792, "⟨2⟩": 1344, "⟨3⟩": 448, "⟨4⟩": 64, "⟨1⟨1⟩⟩": 448},
}


@pytest.mark.parametrize("d", sorted(_SIGN_CENSUS))
def test_every_sign_distribution_of_a_small_honeycomb_gives_the_pinned_schemes(d):
    from collections import Counter
    from itertools import product

    curve = honeycomb(d)
    fixed = dict.fromkeys([(0, 0), (1, 0), (0, 1)], 1)
    free = [p for p in curve.dual.lattice_points if p not in fixed]
    census = Counter()
    for signs in product((1, -1), repeat=len(free)):
        delta = SignDistribution({**fixed, **dict(zip(free, signs))})
        census[_scheme(count_components_direct(real_part(curve, phase_from_signs(curve, delta))))] += 1
    assert census == _SIGN_CENSUS[d]
