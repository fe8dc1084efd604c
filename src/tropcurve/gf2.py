"""Linear algebra over GF(2) using int bitsets, plus affine lines in (Z/2)^2.

Vectors are stored as Python ints (bit i = coordinate i), which makes
row operations single XORs.  Pivoting is always on the lowest free index
so every reduced basis is reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import InvariantViolation


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


def _reduce_rows(rows: list[int], width: int | None = None) -> tuple[list[int], list[int], list[int]]:
    """Row-reduce (lowest pivot index first).

    Bits from ``width`` up are tags: they ride along with every row
    operation but are never pivoted on.  Returns the reduced rows that are
    nonzero below ``width`` and their pivot columns, both sorted by pivot,
    and the rows that reduced to zero below it.

    The basis is kept fully reduced, keyed by pivot bit, with one int
    holding every pivot bit: a new row is cleared by the rows at the set
    bits of ``row & pivots`` alone, since no basis row has another's pivot.
    """
    if not rows:
        return [], [], []
    low = -1 if width is None else (1 << width) - 1
    basis: dict[int, int] = {}   # pivot bit -> reduced row
    pivots = 0
    null: list[int] = []
    for row in rows:
        hit = row & pivots
        while hit:
            p = hit & -hit
            row ^= basis[p]
            hit ^= p
        if row & low:
            p = row & -row
            # back-substitute; assigning to present keys keeps the dict's size
            for q, b in basis.items():
                if b & p:
                    basis[q] = b ^ row
            basis[p] = row
            pivots |= p
        else:
            null.append(row)
    order = sorted(basis)
    return [basis[p] for p in order], [p.bit_length() - 1 for p in order], null


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
        basis, _, _ = _reduce_rows(list(self.row_bits))
        return len(basis)


@dataclass(frozen=True)
class Gf2Subspace:
    """Linear subspace of GF(2)^ambient_dim with a reduced, ordered basis."""

    ambient_dim: int
    basis: tuple[Gf2Vector, ...]

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Gf2Vector]) -> "Gf2Subspace":
        rows = [v.bits for v in vectors]
        reduced, _, _ = _reduce_rows(rows)
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

    def orthogonal_constraints(self) -> list[Gf2Vector]:
        """Rows c with c.x = 0 cutting out exactly this subspace."""
        # the basis is fully reduced with each pivot its row's lowest bit
        # (see from_vectors); c.x = 0 on the space iff c is orthogonal to it
        reduced = [b.bits for b in self.basis]
        pivots = [(r & -r).bit_length() - 1 for r in reduced]
        return list(_kernel(reduced, pivots, self.ambient_dim).basis)


@dataclass(frozen=True)
class AffineFlat:
    """Solution set offset + space of a consistent affine system over GF(2)."""

    offset: Gf2Vector
    space: Gf2Subspace

    @property
    def dim(self) -> int:
        return self.space.dim

    def contains(self, v: Gf2Vector) -> bool:
        return self.space.contains(v ^ self.offset)

    def enumerate(self) -> Iterator[Gf2Vector]:
        for s in self.space.enumerate():
            yield s ^ self.offset


def kernel(m: Gf2Matrix) -> Gf2Subspace:
    """Basis of {v : m.v = 0}; dim = cols - rank, verified."""
    reduced, pivots, _ = _reduce_rows(list(m.row_bits))
    return _kernel(reduced, pivots, m.cols)


def _kernel(reduced: Sequence[int], pivots: Sequence[int], n: int) -> Gf2Subspace:
    """The kernel of a matrix in reduced row echelon form."""
    pivot_set = set(pivots)
    basis = []
    for j in range(n):
        if j in pivot_set:
            continue
        v = 1 << j
        for b, p in zip(reduced, pivots):
            if (b >> j) & 1:
                v |= 1 << p
        basis.append(Gf2Vector(n, v))
    space = Gf2Subspace.from_vectors(n, basis)
    if space.dim + len(reduced) != n:
        raise InvariantViolation("rank-nullity violated")
    return space


def solve_affine(
    constraints: Sequence[tuple[Gf2Vector, int]], ambient_dim: int | None = None
) -> AffineFlat | None:
    """Solve the system {c.x = b}; None when inconsistent.

    One row reduction of the rows, each tagged with its b: the offset is
    the solution with free coordinates 0.  The result distinguishes the
    empty case (None), a linear solution space
    (``flat.space.contains(flat.offset)``) and a proper affine flat.
    """
    if ambient_dim is None:
        if not constraints:
            raise ValueError("ambient_dim required when there are no constraints")
        ambient_dim = constraints[0][0].length
    n = ambient_dim
    for c, _ in constraints:
        if c.length != n:
            raise ValueError("mixed ambient dimensions")
    # b rides along as a tag bit at column n; a pivot row's tag is the offset's bit
    tag = 1 << n
    reduced, pivots, null = _reduce_rows([c.bits | (b & 1) * tag for c, b in constraints], n)
    if any(z & tag for z in null):
        return None
    particular = sum(1 << p for r, p in zip(reduced, pivots) if r & tag)
    low = tag - 1
    return AffineFlat(Gf2Vector(n, particular), _kernel([r & low for r in reduced], pivots, n))


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

    @classmethod
    def from_level(cls, direction: tuple[int, int], level: int) -> "PhaseLine":
        return PHASE_LINES[(direction[0] & 1, direction[1] & 1), level & 1]


# the six phase lines, keyed by (direction class, level); the lines the
# library builds are these objects, and other lines compare equal by value
PHASE_LINES: dict[tuple[tuple[int, int], int], PhaseLine] = {
    (d, (a[0] * n[0] + a[1] * n[1]) & 1): PhaseLine(a, d)
    for d, n in _LINE_NORMALS.items()
    for a in ((0, 0), (1, 0), (0, 1))
}
