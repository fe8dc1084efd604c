import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropcurve.gf2 import (
    AffineFlat,
    Gf2Matrix,
    Gf2Subspace,
    Gf2Vector,
    PhaseLine,
    kernel,
    solve_affine,
)


@st.composite
def matrices(draw):
    rows = draw(st.integers(1, 40))
    cols = draw(st.integers(1, 40))
    bits = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    return Gf2Matrix(rows, cols, tuple(bits))


@given(matrices())
@settings(max_examples=300, deadline=None)
def test_rank_nullity(m):
    assert m.rank() + kernel(m).dim == m.cols


@given(matrices())
@settings(max_examples=150, deadline=None)
def test_kernel_vectors_annihilated(m):
    ker = kernel(m)
    for v in ker.basis:
        assert m.mul_vector(v).is_zero
    # re-reducing the basis does not change its cardinality
    again = Gf2Subspace.from_vectors(m.cols, ker.basis)
    assert again.dim == ker.dim


def test_rank_nullity_bulk():
    rng = random.Random(5)
    for _ in range(1000):
        rows = rng.randrange(1, 41)
        cols = rng.randrange(1, 41)
        m = Gf2Matrix(rows, cols, tuple(rng.getrandbits(cols) for _ in range(rows)))
        assert m.rank() + kernel(m).dim == cols


def test_kernel_examples():
    assert kernel(Gf2Matrix.zero(3, 3)).dim == 3
    assert kernel(Gf2Matrix.identity(4)).dim == 0
    m = Gf2Matrix.from_rows(2, [[1, 1], [1, 1]])
    ker = kernel(m)
    assert ker.dim == 1
    assert ker.basis[0].to_list() == [1, 1]


def test_solve_affine_full_space():
    flat = solve_affine([], ambient_dim=5)
    assert flat is not None and flat.dim == 5 and flat.is_linear


def test_solve_affine_hyperplane():
    v = Gf2Vector.from_list([1, 0, 1, 1])
    flat = solve_affine([(v, 1)], 4)
    assert isinstance(flat, AffineFlat)
    assert flat.dim == 3
    assert not flat.is_linear
    assert v.dot(flat.offset) == 1
    for b in flat.space.basis:
        assert v.dot(b) == 0


def test_solve_affine_contradiction():
    v = Gf2Vector.from_list([1, 1, 0])
    assert solve_affine([(v, 0), (v, 1)], 3) is None


def test_subspace_membership_and_enumeration():
    basis = [Gf2Vector.from_list([1, 0, 1]), Gf2Vector.from_list([0, 1, 1])]
    space = Gf2Subspace.from_vectors(3, basis)
    elems = {v.bits for v in space.enumerate()}
    assert len(elems) == 4
    for v in space.enumerate():
        assert space.contains(v)
    assert not space.contains(Gf2Vector.from_list([1, 0, 0]))


def test_subspace_intersection():
    rng = random.Random(11)
    for _ in range(30):
        n = rng.randrange(1, 10)
        a = Gf2Subspace.from_vectors(n, [Gf2Vector(n, rng.getrandbits(n)) for _ in range(3)])
        b = Gf2Subspace.from_vectors(n, [Gf2Vector(n, rng.getrandbits(n)) for _ in range(3)])
        cap = a.intersect(b)
        both = {v.bits for v in a.enumerate()} & {v.bits for v in b.enumerate()}
        assert {v.bits for v in cap.enumerate()} == both


def test_orthogonal_constraints_cut_the_space():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randrange(1, 12)
        vecs = [Gf2Vector(n, rng.getrandbits(n)) for _ in range(rng.randrange(0, 5))]
        space = Gf2Subspace.from_vectors(n, vecs)
        cons = space.orthogonal_constraints()
        assert len(cons) == n - space.dim
        for v in space.enumerate():
            assert all(c.dot(v) == 0 for c in cons)


@given(st.tuples(st.integers(0, 1), st.integers(0, 1)),
       st.sampled_from([(1, 0), (0, 1), (1, 1)]))
@settings(max_examples=50, deadline=None)
def test_phase_line_elements_differ_by_direction(rep, direction):
    line = PhaseLine(rep, direction)
    a, b = line.elements
    assert (a[0] ^ b[0], a[1] ^ b[1]) == direction
    assert line.contains(a) and line.contains(b)
    assert PhaseLine.from_level(direction, line.level) == line


def test_phase_line_rejects_zero_direction():
    with pytest.raises(ValueError):
        PhaseLine((0, 0), (0, 0))


def test_phase_line_translate():
    line = PhaseLine((0, 0), (1, 0))
    moved = line.translate((0, 1))
    assert set(moved.elements) == {(0, 1), (1, 1)}
    assert moved.direction == (1, 0)


def test_factored_solve_matches_brute_force():
    from tropcurve.gf2 import factor

    rng = random.Random(12)
    for _ in range(300):
        rows, cols = rng.randrange(0, 8), rng.randrange(1, 7)
        a = [rng.getrandbits(cols) for _ in range(rows)]
        fac = factor(a, cols)
        free = ~sum(1 << p for p in fac.pivots)
        for rhs in range(1 << rows):
            sols = [x for x in range(1 << cols)
                    if all((r & x).bit_count() % 2 == rhs >> k & 1 for k, r in enumerate(a))]
            x = fac.solve(rhs)
            if not sols:
                assert x is None
                continue
            # the one solution with every free coordinate 0
            assert [s for s in sols if not s & free] == [x]
        assert fac.kernel() == kernel(Gf2Matrix(rows, cols, tuple(a)))


def _reduce_rows_reference(rows, width=None):
    """Row reduction with the basis as lists sorted by pivot, each new row
    tested against every pivot in turn: the reduction the pivot-bit one in
    ``gf2._reduce_rows`` must reproduce exactly."""
    low = -1 if width is None else (1 << width) - 1
    basis, pivots, null = [], [], []
    for row in rows:
        for b, p in zip(basis, pivots):
            if (row >> p) & 1:
                row ^= b
        if row & low:
            p = (row & -row).bit_length() - 1
            idx = 0
            while idx < len(pivots) and pivots[idx] < p:
                idx += 1
            basis.insert(idx, row)
            pivots.insert(idx, p)
            for k in range(len(basis)):
                if k != idx and (basis[k] >> p) & 1:
                    basis[k] ^= row
        else:
            null.append(row)
    return basis, pivots, null


def test_reduce_rows_matches_the_reference():
    from tropcurve.gf2 import _reduce_rows

    rng = random.Random(24)
    for k in range(3000):
        cols = rng.randrange(1, 48)
        rows = [rng.getrandbits(cols) & rng.getrandbits(cols) if rng.random() < 0.5 else rng.getrandbits(cols)
                for _ in range(rng.randrange(0, 50))]
        if rows and rng.random() < 0.2:
            rows += rng.sample(rows, min(len(rows), 3)) + [0]
        if k % 2:
            rows = [r | 1 << (cols + i) for i, r in enumerate(rows)]
            assert _reduce_rows(rows, cols) == _reduce_rows_reference(rows, cols)
        else:
            assert _reduce_rows(rows) == _reduce_rows_reference(rows)


def _factor_fields(fac):
    return fac.reduced, fac.pivots, fac.combos, fac.null


def test_factor_of_sign_rule_systems_matches_the_reference():
    from tropcurve import curve_from_polynomial, honeycomb
    from tropcurve import gf2
    from tropcurve.errors import DegeneratePolygon, SingularSubdivision
    from tropcurve.realstruct import _base, _sign_rule
    from tropcurve.selfcheck import random_lift

    curves = [honeycomb(d) for d in range(1, 8)]
    rng = random.Random(9)
    while len(curves) < 60:
        try:
            curves.append(curve_from_polynomial(random_lift(rng)))
        except (SingularSubdivision, DegeneratePolygon):
            continue
    systems = [(_sign_rule(c)[0], len(_base(c).points)) for c in curves]
    got = [_factor_fields(gf2.factor(rows, cols)) for rows, cols in systems]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf2, "_reduce_rows", _reduce_rows_reference)
        want = [_factor_fields(gf2.factor(rows, cols)) for rows, cols in systems]
    assert got == want
