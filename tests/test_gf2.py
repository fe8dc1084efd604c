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
    # the basis is its own canonical form: re-reducing it changes nothing
    assert Gf2Subspace.from_vectors(m.cols, ker.basis) == ker


def test_rank_nullity_bulk():
    rng = random.Random(5)
    for _ in range(1000):
        rows = rng.randrange(1, 41)
        cols = rng.randrange(1, 41)
        m = Gf2Matrix(rows, cols, tuple(rng.getrandbits(cols) for _ in range(rows)))
        assert m.rank() + kernel(m).dim == cols


def test_kernel_examples():
    assert kernel(Gf2Matrix(3, 3, (0, 0, 0))).dim == 3
    assert kernel(Gf2Matrix(4, 4, (0b0001, 0b0010, 0b0100, 0b1000))).dim == 0
    m = Gf2Matrix(2, 2, (0b11, 0b11))
    ker = kernel(m)
    assert ker.dim == 1
    assert ker.basis[0] == Gf2Vector(2, 0b11)


def test_solve_affine_full_space():
    flat = solve_affine([], ambient_dim=5)
    assert flat is not None and flat.dim == 5 and flat.space.contains(flat.offset)


def test_solve_affine_hyperplane():
    v = Gf2Vector(4, 0b1101)
    flat = solve_affine([(v, 1)], 4)
    assert isinstance(flat, AffineFlat)
    assert flat.dim == 3
    assert not flat.space.contains(flat.offset)
    assert (v.bits & flat.offset.bits).bit_count() & 1 == 1
    for b in flat.space.basis:
        assert (v.bits & b.bits).bit_count() & 1 == 0


def test_solve_affine_contradiction():
    v = Gf2Vector(3, 0b011)
    assert solve_affine([(v, 0), (v, 1)], 3) is None


def test_subspace_membership_and_enumeration():
    basis = [Gf2Vector(3, 0b101), Gf2Vector(3, 0b110)]
    space = Gf2Subspace.from_vectors(3, basis)
    elems = {v.bits for v in space.enumerate()}
    assert len(elems) == 4
    for v in space.enumerate():
        assert space.contains(v)
    assert not space.contains(Gf2Vector(3, 0b001))


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


def test_solve_affine_matches_brute_force():
    from tropcurve.gf2 import _reduce_rows

    rng = random.Random(12)
    for _ in range(300):
        rows, cols = rng.randrange(0, 8), rng.randrange(1, 7)
        a = [rng.getrandbits(cols) for _ in range(rows)]
        space = kernel(Gf2Matrix(rows, cols, tuple(a)))
        free = ~sum(1 << p for p in _reduce_rows(a)[1])
        for rhs in range(1 << rows):
            sols = [x for x in range(1 << cols)
                    if all((r & x).bit_count() % 2 == rhs >> k & 1 for k, r in enumerate(a))]
            flat = solve_affine([(Gf2Vector(cols, r), rhs >> k & 1) for k, r in enumerate(a)], cols)
            if not sols:
                assert flat is None
                continue
            assert sorted(v.bits for v in flat.enumerate()) == sols
            # the one solution with every free coordinate 0, the least one
            assert [s for s in sols if not s & free] == [flat.offset.bits] == [min(sols)]
            assert flat.space == space


def _reduce_rows_reference(rows, width=None):
    """Row reduction that back-substitutes each new pivot row into every
    basis row at once: the reduction ``gf2._reduce_rows``'s forward pass
    plus one back-substitution pass must reproduce exactly."""
    if not rows:
        return [], [], []
    low = -1 if width is None else (1 << width) - 1
    basis = {}   # pivot bit -> reduced row
    pivots = 0
    null = []
    for row in rows:
        hit = row & pivots
        while hit:
            p = hit & -hit
            row ^= basis[p]
            hit ^= p
        if row & low:
            p = row & -row
            for q, b in basis.items():
                if b & p:
                    basis[q] = b ^ row
            basis[p] = row
            pivots |= p
        else:
            null.append(row)
    order = sorted(basis)
    return [basis[p] for p in order], [p.bit_length() - 1 for p in order], null


def _kernel_reference(m):
    """The kernel read off the lowest-pivot reduction, its basis then
    reduced a second time: the canonical basis ``gf2.kernel`` must return
    from its one reduction on highest pivots."""
    reduced, pivots, _ = _reduce_rows_reference(list(m.row_bits))
    basis = []
    for j in range(m.cols):
        if j in pivots:
            continue
        v = 1 << j
        for b, p in zip(reduced, pivots):
            if (b >> j) & 1:
                v |= 1 << p
        basis.append(v)
    again, _, _ = _reduce_rows_reference(basis)
    assert len(again) + len(reduced) == m.cols
    return Gf2Subspace(m.cols, tuple(Gf2Vector(m.cols, v) for v in again))


def _assert_matches_the_references(m):
    from tropcurve.gf2 import _reduce_rows

    rows, n = list(m.row_bits), m.cols
    want = _reduce_rows_reference(rows)
    assert _reduce_rows(rows) == want[:2]
    # solve_affine's right-hand side is column n of its rows; the reference
    # keeps it as a tag, never pivoted on: one right-hand side the rows
    # solve at x = 0101..., and one that is inconsistent on most dependent rows
    solvable = [(r & 0x5555555555555).bit_count() & 1 for r in rows]
    arbitrary = [(r.bit_count() + i) & 1 for i, r in enumerate(rows)]
    for rhs in (solvable, arbitrary):
        flat = solve_affine([(Gf2Vector(n, r), b) for r, b in zip(rows, rhs)], n)
        reduced, pivots, null = _reduce_rows_reference([r | b << n for r, b in zip(rows, rhs)], n)
        assert (flat is None) == any(z >> n & 1 for z in null)
        if flat is not None:
            assert flat.offset.bits == sum(1 << p for r, p in zip(reduced, pivots) if r >> n & 1)
    assert m.rank() == len(want[0])
    assert kernel(m).basis == _kernel_reference(m).basis


def test_twist_matrices_match_the_references():
    from tropcurve import TwistSet, honeycomb
    from tropcurve.realstruct import twist_matrix
    from tropcurve.selfcheck import random_nonsingular_curve

    rng = random.Random(45)
    curves = [honeycomb(d) for d in range(2, 13)]
    curves += [random_nonsingular_curve(rng, rng.randrange(2, 9)) for _ in range(12)]
    for curve in curves:
        twist_sets = [(), curve.bounded_edges]
        twist_sets += [[e for e in curve.bounded_edges if rng.random() < p] for p in (0.1, 0.5, 0.9)]
        for edges in twist_sets:
            _assert_matches_the_references(twist_matrix(curve, TwistSet.from_edges(curve, edges)))


def test_reduce_rows_matches_the_reference():
    rng = random.Random(24)
    for _ in range(3000):
        cols = rng.randrange(1, 48)
        rows = [rng.getrandbits(cols) & rng.getrandbits(cols) if rng.random() < 0.5 else rng.getrandbits(cols)
                for _ in range(rng.randrange(0, 50))]
        if rows and rng.random() < 0.2:
            rows += rng.sample(rows, min(len(rows), 3)) + [0]
        _assert_matches_the_references(Gf2Matrix(len(rows), cols, tuple(rows)))
