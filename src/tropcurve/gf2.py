"""Linear algebra over GF(2) using int bitsets, plus affine lines in (Z/2)^2.

Vectors are stored as Python ints (bit i = coordinate i), which makes
row operations single XORs.

Pivots: every basis this module returns is fully reduced on lowest
pivots (each vector's lowest bit is its pivot, and no other vector holds
that bit) and sorted by pivot.  A subspace has exactly one such basis:
its pivots are the lowest bits of its nonzero vectors, and the vector at
pivot p is the one vector of the space holding p and no other pivot.  So
every route to it returns the same vectors.  Inside ``kernel`` the
matrix itself is reduced on highest pivots instead: the null-space
vectors read off that form are then canonical as they stand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


@dataclass(frozen=True)
class Gf2Vector:
    """Vector in GF(2)^length, coordinates packed into an int."""

    length: int
    bits: int = 0

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("negative length")
        if self.bits < 0 or self.bits >> self.length:
            raise ValueError("bits do not fit in the stated length")

    @classmethod
    def from_indices(cls, length: int, indices: Iterable[int]) -> "Gf2Vector":
        bits = 0
        for i in indices:
            bits ^= 1 << i
        return cls(length, bits)

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    def __xor__(self, other: "Gf2Vector") -> "Gf2Vector":
        if self.length != other.length:
            raise ValueError("dimension mismatch")
        return Gf2Vector(self.length, self.bits ^ other.bits)


def _echelon(rows: Iterable[int]) -> dict[int, int]:
    """One forward pass on lowest pivots: each row is cleared by the basis
    row at its lowest bit while that bit is a pivot, until it is zero or
    its lowest bit is a new pivot.  Returns the basis, keyed by pivot bit,
    each row's lowest bit its pivot.  No back-substitution: a basis row
    may still hold pivots above its own."""
    basis: dict[int, int] = {}   # pivot bit -> echelon row
    pivots = 0
    for row in rows:
        while row:
            p = row & -row
            if not p & pivots:
                basis[p] = row
                pivots |= p
                break
            row ^= basis[p]
    return basis


def _reduce_rows(rows: list[int]) -> tuple[list[int], list[int]]:
    """Row-reduce fully on lowest pivots: the canonical basis of the rows'
    span.  Returns the reduced rows and their pivot columns, both sorted
    by pivot.

    ``_echelon``'s forward pass, then one back-substitution pass from the
    highest pivot down, in which a row XORs in the reduced rows at the
    pivots it holds above its own."""
    basis = _echelon(rows)
    order = sorted(basis)
    pivots = sum(order)
    for p in reversed(order):
        row = basis[p]
        hit = row & pivots ^ p
        while hit:
            q = hit & -hit
            row ^= basis[q]
            hit ^= q
        basis[p] = row
    return [basis[p] for p in order], [p.bit_length() - 1 for p in order]


@dataclass(frozen=True)
class Gf2Matrix:
    """Dense GF(2) matrix; each row is an int bitset of width cols."""

    rows: int
    cols: int
    row_bits: tuple[int, ...]

    def __post_init__(self):
        if len(self.row_bits) != self.rows:
            raise ValueError("row count mismatch")
        for r in self.row_bits:
            if r < 0 or r >> self.cols:
                raise ValueError("row wider than cols")

    def mul_vector(self, v: Gf2Vector) -> Gf2Vector:
        if v.length != self.cols:
            raise ValueError("dimension mismatch")
        out = 0
        for i, row in enumerate(self.row_bits):
            if (row & v.bits).bit_count() & 1:
                out |= 1 << i
        return Gf2Vector(self.rows, out)

    def rank(self) -> int:
        """The pivots of one forward pass on lowest pivots (``_echelon``):
        a rank needs no back-substitution."""
        return len(_echelon(self.row_bits))


@dataclass(frozen=True)
class Gf2Subspace:
    """Linear subspace of GF(2)^ambient_dim with a reduced, ordered basis."""

    ambient_dim: int
    basis: tuple[Gf2Vector, ...]

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Gf2Vector]) -> "Gf2Subspace":
        rows = [v.bits for v in vectors]
        reduced, _ = _reduce_rows(rows)
        return cls(ambient_dim, tuple(Gf2Vector(ambient_dim, r) for r in reduced))

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Gf2Vector) -> bool:
        if v.length != self.ambient_dim:
            raise ValueError("dimension mismatch")
        r = v.bits
        for b in self.basis:
            p = (b.bits & -b.bits).bit_length() - 1
            if (r >> p) & 1:
                r ^= b.bits
        return r == 0

    def enumerate(self) -> Iterator[Gf2Vector]:
        """All 2^dim elements; only sensible for small dimensions."""
        n = self.dim
        for mask in range(1 << n):
            bits = 0
            m = mask
            k = 0
            while m:
                if m & 1:
                    bits ^= self.basis[k].bits
                m >>= 1
                k += 1
            yield Gf2Vector(self.ambient_dim, bits)


@dataclass(frozen=True)
class AffineFlat:
    """Solution set offset + space of a consistent affine system over GF(2)."""

    offset: Gf2Vector
    space: Gf2Subspace

    @property
    def dim(self) -> int:
        return self.space.dim

    def enumerate(self) -> Iterator[Gf2Vector]:
        for s in self.space.enumerate():
            yield s ^ self.offset


def kernel(m: Gf2Matrix) -> Gf2Subspace:
    """Basis of {v : m.v = 0}, canonical (lowest pivots); dim = cols -
    rank.

    One reduction on highest pivots: a forward pass clears each row by the
    basis row at its highest bit, then a pass from the lowest pivot up
    XORs into each row the reduced rows at the pivots it holds below its
    own.  ``_kernel`` reads the basis off that form.
    """
    basis: dict[int, int] = {}   # pivot bit -> row, its highest bit the pivot
    pivots = 0
    for row in m.row_bits:
        while row:
            p = 1 << row.bit_length() - 1
            if not p & pivots:
                basis[p] = row
                pivots |= p
                break
            row ^= basis[p]
    rest = pivots
    while rest:
        p = rest & -rest
        rest ^= p
        row = basis[p]
        hit = row & pivots ^ p
        while hit:
            q = hit & -hit
            row ^= basis[q]
            hit ^= q
        basis[p] = row
    return _kernel(list(basis.values()), list(basis), m.cols)


def _kernel(reduced: Sequence[int], pivots: Sequence[int], n: int) -> Gf2Subspace:
    """The kernel of a matrix fully reduced on highest pivots: rows
    ``reduced``, their pivot bits ``pivots``, n columns.

    Free column j gives v_j = e_j + the sum of e_p over the rows p that
    hold bit j.  Each such p is above j, so v_j's lowest bit is j, and no
    other v holds it: the v_j, in column order, are the kernel's canonical
    basis as they stand, one per non-pivot column: dim = n - rank."""
    free = (1 << n) - 1 ^ sum(pivots)
    vectors: dict[int, int] = {}   # free bit j -> v_j
    while free:
        q = free & -free
        vectors[q] = q
        free ^= q
    for row, p in zip(reduced, pivots):
        rest = row ^ p
        while rest:
            q = rest & -rest
            vectors[q] |= p
            rest ^= q
    return Gf2Subspace(n, tuple([Gf2Vector(n, v) for v in vectors.values()]))


def solve_affine(constraints: Sequence[tuple[Gf2Vector, int]], ambient_dim: int) -> AffineFlat | None:
    """Solve the system {c.x = b}; None when inconsistent.

    One row reduction of the rows with b as column n: the system is
    inconsistent iff n is a pivot, and otherwise a reduced row's bit n is
    the offset's bit at its pivot (free coordinates 0).  The space is
    ``kernel`` of the rows.  The result distinguishes the empty case
    (None), a linear solution space and a proper affine flat.
    """
    n = ambient_dim
    for c, _ in constraints:
        if c.length != n:
            raise ValueError("mixed ambient dimensions")
    reduced, pivots = _reduce_rows([c.bits | (b & 1) << n for c, b in constraints])
    if pivots and pivots[-1] == n:
        return None
    particular = sum(1 << p for r, p in zip(reduced, pivots) if r >> n & 1)
    rows = tuple(c.bits for c, _ in constraints)
    return AffineFlat(Gf2Vector(n, particular), kernel(Gf2Matrix(len(rows), n, rows)))


_LINE_NORMALS = {(1, 0): (0, 1), (0, 1): (1, 0), (1, 1): (1, 1)}


@dataclass(frozen=True)
class PhaseLine:
    """1-dimensional affine line {a, a + direction} in (Z/2)^2.

    Stored canonically: rep is the lexicographically smaller element.
    ``level`` is the invariant bit rep.n for n the normal of the direction
    class; together with the direction it pins the line down completely.
    """

    rep: tuple[int, int]
    direction: tuple[int, int]

    def __post_init__(self):
        r = (self.rep[0] & 1, self.rep[1] & 1)
        d = (self.direction[0] & 1, self.direction[1] & 1)
        if d == (0, 0):
            raise ValueError("phase line needs a nonzero direction")
        other = (r[0] ^ d[0], r[1] ^ d[1])
        n = _LINE_NORMALS[d]
        object.__setattr__(self, "rep", min(r, other))
        object.__setattr__(self, "direction", d)
        object.__setattr__(self, "level", (r[0] * n[0] + r[1] * n[1]) & 1)

    @property
    def elements(self) -> tuple[tuple[int, int], tuple[int, int]]:
        a = self.rep
        d = self.direction
        return (a, (a[0] ^ d[0], a[1] ^ d[1]))

    def contains(self, eps: tuple[int, int]) -> bool:
        e = (eps[0] & 1, eps[1] & 1)
        return e in self.elements

    def translate(self, eps: tuple[int, int]) -> "PhaseLine":
        n = _LINE_NORMALS[self.direction]
        return PHASE_LINES[self.direction, self.level ^ ((eps[0] * n[0] + eps[1] * n[1]) & 1)]


# the six phase lines, keyed by (direction class, level); the lines the
# library builds are these objects, and other lines compare equal by value
PHASE_LINES: dict[tuple[tuple[int, int], int], PhaseLine] = {
    (d, (a[0] * n[0] + a[1] * n[1]) & 1): PhaseLine(a, d)
    for d, n in _LINE_NORMALS.items()
    for a in ((0, 0), (1, 0), (0, 1))
}
