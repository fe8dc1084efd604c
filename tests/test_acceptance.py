"""Acceptance criteria, one test per criterion, each printing a PASS line
with its runtime and asserting the stated time budget."""

import random
import time
from fractions import Fraction

from tropcurve import (
    SignDistribution,
    TwistSet,
    count_components_direct,
    count_components_matrix,
    div_space,
    honeycomb,
    honeycomb_locus,
    hyperbolicity_locus,
    intersection_components,
    is_admissible,
    is_dividing,
    is_hyperbolic,
    is_relatively_twisted,
    multi_bridges,
    phase_from_signs,
    phase_from_twists,
    primitive_cycles,
    real_lift,
    real_part,
    tangency_possible,
    bezout_total,
    twists_from_phase,
    twists_from_signs,
)
from tropcurve.curve import TropicalPolynomial, curve_from_polynomial
from tropcurve.errors import UnsupportedConfiguration
from tropcurve.gf2 import Gf2Matrix, Gf2Subspace, kernel
from tropcurve.intersect import CONJ_PAIR, TANGENT_DOUBLE, TWO_REAL
from tropcurve.realstruct import twist_matrix
from tropcurve.selfcheck import (
    pointwise_signed_locus,
    random_nonsingular_curve,
    random_sign_distribution,
)

from conftest import make_line


def _pointwise_locus(curve, phase):
    return frozenset(a for a, _ in pointwise_signed_locus(curve, phase))


class _Timer:
    def __init__(self, name, budget):
        self.name = name
        self.budget = budget

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            status = "PASS" if elapsed < self.budget else "PASS (over budget)"
            print(f"criterion {self.name}: {status} in {elapsed:.2f}s (budget {self.budget}s)")
            assert elapsed < self.budget, f"{self.name} took {elapsed:.2f}s > {self.budget}s"
        else:
            print(f"criterion {self.name}: FAIL after {elapsed:.2f}s")
        return False


def test_criterion_1_stable_honeycomb_suite():
    with _Timer("1 (stable honeycombs d=1..6)", 2.0):
        for d in range(1, 7):
            curve = honeycomb(d)
            delta = SignDistribution.constant(curve)
            twists = twists_from_signs(curve, delta)
            assert twists.edges == frozenset(curve.bounded_edges)
            assert len(twists.edges) == 3 * d * (d - 1) // 2
            phase = phase_from_signs(curve, delta)
            hyp, k = is_hyperbolic(curve, twists)
            assert hyp and k == (d + 1) // 2 - 1
            assert count_components_matrix(curve, twists) == (d + 1) // 2
            report = hyperbolicity_locus(curve, phase)
            assert report.stable
            assert report.component_count == (d + 1) // 2
            everything = frozenset(curve.dual.lattice_points)
            assert report.locus == everything
            assert _pointwise_locus(curve, phase) == everything
            assert len(everything) == (d + 1) * (d + 2) // 2


def test_criterion_2_diagonal_bridge_quartic():
    with _Timer("2 (quartic with one diagonal multi-bridge)", 1.0):
        curve = honeycomb(4)
        bridge = next(b for b in multi_bridges(curve) if b.dual_line == ("d", 3))
        twists = TwistSet.from_edges(curve, bridge.edges)
        assert honeycomb_locus(curve, twists) == frozenset({(1, 1)})
        phase = phase_from_twists(curve, twists)
        report = hyperbolicity_locus(curve, phase)
        assert report.locus == frozenset({(1, 1)})
        assert len(report.signed_locus) == 1
        assert next(iter(report.signed_locus))[0] == (1, 1)


def test_criterion_3_dimension_formulas():
    with _Timer("3 (dimension formulas d=2..7)", 1.0):
        for d in range(2, 8):
            curve = honeycomb(d)
            g = (d - 1) * (d - 2) // 2
            assert len(curve.bounded_edges) == 3 * d * (d - 1) // 2
            assert len(primitive_cycles(curve)) == g
            assert div_space(curve).dim == 3 * (d - 1)
            bridges = multi_bridges(curve)
            assert len(bridges) == 3 * (d - 1)
            seen = set()
            for b in bridges:
                assert not (b.edges & seen)
                seen |= b.edges
            vectors = [TwistSet.from_edges(curve, b.edges).vector for b in bridges]
            span = Gf2Subspace.from_vectors(len(curve.bounded_edges), vectors)
            assert span.dim == 3 * (d - 1)
            div = div_space(curve)
            assert all(div.contains(v) for v in vectors)


def test_criterion_4_oracle_equivalence():
    with _Timer("4 (200 random curves: matrix vs model)", 30.0):
        rng = random.Random(20240)
        for trial in range(200):
            d = rng.randrange(1, 6)
            curve = random_nonsingular_curve(rng, d)
            delta = random_sign_distribution(rng, curve)
            twists = twists_from_signs(curve, delta)
            assert is_admissible(curve, twists), f"trial {trial}"
            via_matrix = count_components_matrix(curve, twists)
            phase = phase_from_signs(curve, delta)
            via_model = count_components_direct(real_part(curve, phase)).count
            assert via_matrix == via_model, f"trial {trial}: {via_matrix} != {via_model}"
            assert is_dividing(curve, twists) == div_space(curve).contains(twists.vector)


def test_criterion_5_honeycomb_locus_triple_equivalence():
    with _Timer("5 (50 dividing twist sets: three locus routes)", 60.0):
        rng = random.Random(555)
        for trial in range(50):
            d = rng.randrange(2, 6)
            curve = honeycomb(d)
            edges: set[int] = set()
            for b in multi_bridges(curve):
                if rng.random() < 0.5:
                    edges |= b.edges
            twists = TwistSet.from_edges(curve, edges)
            assert is_dividing(curve, twists)
            via_bridges = honeycomb_locus(curve, twists)
            phase = phase_from_twists(curve, twists)
            report = hyperbolicity_locus(curve, phase)
            assert report.locus == via_bridges, f"trial {trial} (d={d})"
            assert _pointwise_locus(curve, phase) == via_bridges, f"trial {trial} (d={d})"


def _lift_fixture_hook(m):
    coeffs = {(0, 0): Fraction(0)}
    for j in range(m):
        coeffs[(1, j)] = Fraction(-((2 * j - (m - 1)) ** 2))
    return curve_from_polynomial(TropicalPolynomial(coeffs))


def test_criterion_6_lift_classification_table():
    with _Timer("6 (lift classification table)", 1.0):
        def line_phase(line, flip=False):
            return phase_from_signs(
                line, SignDistribution({(0, 0): 1, (1, 0): -1 if flip else 1, (0, 1): 1})
            )

        # transverse rows, m = 1..4
        a, b = make_line(), make_line(0, -5, -3)
        comp = intersection_components(a, b)[0]
        out = real_lift(comp, line_phase(a), line_phase(b))
        assert (comp.multiplicity, out.reals, out.pairs) == (1, 1, 0)

        for m in (2, 3, 4):
            curve = _lift_fixture_hook(m)
            ray = next(e for e in curve.edges if not e.bounded and e.direction == (-(m - 1), 1))
            anchor = curve.edge_anchor(ray.index)
            probe = (anchor[0] - 2 * (m - 1), anchor[1] + 2)
            line = make_line(0, -(probe[0] - 3), -(probe[1] - 3))
            comps = [c for c in intersection_components(line, curve)
                     if c.kind == "transverse" and c.multiplicity == m]
            assert len(comps) == 1
            comp = comps[0]
            if m % 2 == 1:
                out = real_lift(comp, line_phase(line), phase_from_signs(curve, SignDistribution.constant(curve)))
                assert (out.reals, out.pairs) == (1, (m - 1) // 2)
            else:
                ph_c = phase_from_signs(curve, SignDistribution.constant(curve))
                equal = real_lift(comp, line_phase(line), ph_c)
                assert (equal.reals, equal.pairs) == (2, (m - 2) // 2)
                distinct = real_lift(comp, line_phase(line, flip=True), ph_c)
                assert (distinct.reals, distinct.pairs) == (0, m // 2)

        # edge inside an edge: three phase/twist cases
        conic = honeycomb(2)
        line = make_line(0, 5, 5)
        comp = intersection_components(conic, line)[0]
        assert comp.kind == "edge-in-edge" and comp.multiplicity == 2
        ph_plus = phase_from_signs(conic, SignDistribution.constant(conic))
        ph_nt = phase_from_signs(
            conic,
            SignDistribution({p: (-1 if p == (0, 0) else 1) for p in conic.dual.lattice_points}),
        )
        twisted_equal = real_lift(comp, ph_plus, line_phase(line))
        assert (twisted_equal.variant, twisted_equal.reals, twisted_equal.locations) == ("forced-real", 2, None)
        distinct = real_lift(comp, ph_plus, line_phase(line, flip=True))
        assert distinct.reals == 2 and distinct.locations == comp.segment  # at the edge vertices
        indet = real_lift(comp, ph_nt, line_phase(line))
        assert set(indet.possible) == {TWO_REAL, CONJ_PAIR, TANGENT_DOUBLE}
        assert not tangency_possible(comp, ph_plus, line_phase(line))       # twisted
        assert not tangency_possible(comp, ph_plus, line_phase(line, flip=True))  # phases differ
        assert tangency_possible(comp, ph_nt, line_phase(line))             # non-twisted + equal

        # segment overlap: three cases, locations at the segment vertices
        line2 = make_line(0, Fraction(-3, 2), Fraction(-3, 2))
        comp2 = intersection_components(conic, line2)[0]
        assert comp2.kind == "segment-overlap" and comp2.multiplicity == 2
        rel_tw = line_phase(line2)
        rel_nt = phase_from_signs(line2, SignDistribution({(0, 0): 1, (1, 0): -1, (0, 1): -1}))
        dist = phase_from_signs(line2, SignDistribution({(0, 0): 1, (1, 0): -1, (0, 1): 1}))
        assert is_relatively_twisted(comp2, ph_plus, rel_tw)
        indet2 = real_lift(comp2, ph_plus, rel_tw)
        assert set(indet2.possible) == {TWO_REAL, CONJ_PAIR, TANGENT_DOUBLE}
        assert not is_relatively_twisted(comp2, ph_plus, rel_nt)
        forced = real_lift(comp2, ph_plus, rel_nt)
        assert (forced.variant, forced.reals, forced.locations) == ("forced-real", 2, None)
        located = real_lift(comp2, ph_plus, dist)
        assert located.reals == 2 and located.locations == comp2.segment
        assert tangency_possible(comp2, ph_plus, rel_tw)          # relatively twisted + equal
        assert not tangency_possible(comp2, ph_plus, rel_nt)      # relatively non-twisted
        assert not tangency_possible(comp2, ph_plus, dist)        # phases differ


def test_criterion_7_bezout_totals():
    with _Timer("7 (50 generic pairs: degree product + parity)", 10.0):
        rng = random.Random(777)
        done = 0
        while done < 50:
            da, db = rng.randrange(1, 5), rng.randrange(1, 5)
            a = random_nonsingular_curve(rng, da)
            b = random_nonsingular_curve(rng, db).translated(
                (Fraction(rng.randrange(-300, 300), 101), Fraction(rng.randrange(-300, 300), 103))
            )
            try:
                comps = intersection_components(a, b)
            except UnsupportedConfiguration:
                continue
            if any(c.kind != "transverse" for c in comps):
                continue
            assert bezout_total(a, b) == da * db
            pa = phase_from_signs(a, random_sign_distribution(rng, a))
            pb = phase_from_signs(b, random_sign_distribution(rng, b))
            for comp in comps:
                out = real_lift(comp, pa, pb)
                assert out.variant.startswith("forced")
                assert (out.reals + 2 * out.pairs) == comp.multiplicity
                assert (out.reals - comp.multiplicity) % 2 == 0
            done += 1


def test_criterion_8_degree_six_nested_ovals():
    with _Timer("8 (degree-6 fixture with block ranks 0,2,2,4)", 2.0):
        curve = honeycomb(6)
        table = {b.dual_line: b for b in multi_bridges(curve)}
        edges: set[int] = set()
        for s in (2, 3, 4, 5):
            edges |= table[("d", s)].edges
        twists = TwistSet.from_edges(curve, edges)
        assert is_dividing(curve, twists)
        cycles = primitive_cycles(curve)
        A = twist_matrix(curve, twists)
        for s, want in ((2, 0), (3, 2), (4, 2), (5, 4)):
            idx = [i for i, cy in enumerate(cycles) if sum(cy.center) == s]
            sub = Gf2Matrix(len(idx), len(idx), tuple(
                sum((A.row_bits[i] >> j & 1) << k for k, j in enumerate(idx)) for i in idx))
            assert sub.rank() == want
        assert kernel(A).dim == 2
        hyp, k = is_hyperbolic(curve, twists)
        assert hyp and k == 2
        phase = phase_from_twists(curve, twists)
        assert twists_from_phase(curve, phase).edges == twists.edges
        report = count_components_direct(real_part(curve, phase))
        assert report.count == 3
        assert [c.kind for c in report.components].count("oval") == 3
        assert sorted(c.nesting_depth for c in report.components) == [1, 2, 3]
