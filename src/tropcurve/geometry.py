"""Exact 2D predicates over rationals and small lattice-polygon utilities.

Everything here is Fraction/int arithmetic; no floats.  Points are
(Fraction, Fraction) pairs, lattice points are (int, int) pairs.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Point = tuple[Fraction, Fraction]
IVec = tuple[int, int]

_new = object.__new__


def _fraction(n: int, d: int) -> Fraction:
    """``Fraction(n, d)`` for ints n and d > 0, reduced by one gcd and
    written into ``Fraction``'s two slots, as the stdlib's own
    ``Fraction._from_coprime_ints`` (3.12) does: ``Fraction(n, d)`` first
    dispatches on its arguments' types and costs about three times as much."""
    g = gcd(n, d)
    f = _new(Fraction)
    f._numerator, f._denominator = n // g, d // g
    return f


def sub(p, q):
    """p - q for points or lattice vectors."""
    return (p[0] - q[0], p[1] - q[1])


def det2(u, v):
    return u[0] * v[1] - u[1] * v[0]


def dot2(u, v):
    return u[0] * v[0] + u[1] * v[1]


def primitive(v: IVec) -> IVec:
    """Primitive integer vector parallel to v (keeps orientation)."""
    if v == (0, 0):
        raise ValueError("zero vector has no primitive form")
    g = gcd(abs(v[0]), abs(v[1]))
    return (v[0] // g, v[1] // g)


def rot90(v: IVec) -> IVec:
    """Counterclockwise quarter turn."""
    return (-v[1], v[0])


def canonical_direction(v: IVec) -> IVec:
    """Primitive representative of the unoriented direction class of v."""
    p = primitive(v)
    if p[0] > 0 or (p[0] == 0 and p[1] > 0):
        return p
    return (-p[0], -p[1])


def convex_hull(points: list[IVec]) -> list[IVec]:
    """Monotone-chain hull, counterclockwise, without repeated endpoint."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def half(seq):
        out: list[IVec] = []
        for x, y in seq:
            # pop while out[-2] -> out[-1] -> (x, y) does not turn left
            while len(out) >= 2:
                (ax, ay), (bx, by) = out[-2], out[-1]
                if (bx - ax) * (y - ay) - (by - ay) * (x - ax) > 0:
                    break
                out.pop()
            out.append((x, y))
        return out

    lower = half(pts)
    upper = half(list(reversed(pts)))
    return lower[:-1] + upper[:-1]


def polygon_twice_area(hull: list[IVec]) -> int:
    a = 0
    n = len(hull)
    for i in range(n):
        a += det2(hull[i], hull[(i + 1) % n])
    return abs(a)


def point_strictly_in_hull(hull: list[IVec], p: IVec) -> bool:
    n = len(hull)
    if n < 3:
        return False
    for i in range(n):
        if det2(sub(hull[(i + 1) % n], hull[i]), sub(p, hull[i])) <= 0:
            return False
    return True


def side_lattice_points(a: IVec, b: IVec) -> list[IVec]:
    """The lattice points of the segment a-b, in order from a to b."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    steps = gcd(dx, dy)
    return [(a[0] + t * dx // steps, a[1] + t * dy // steps) for t in range(steps + 1)]


def hull_lattice_count(hull: list[IVec]) -> int:
    """The number of lattice points of a counterclockwise hull, by Pick's
    theorem: (twice-area + boundary points) / 2 + 1.  A segment counts as
    the cycle of its two directed edges and a point as one edge of length 0."""
    n = len(hull)
    boundary = sum(
        gcd(hull[(i + 1) % n][0] - hull[i][0], hull[(i + 1) % n][1] - hull[i][1]) for i in range(n)
    )
    return (polygon_twice_area(hull) + boundary) // 2 + 1


def hull_lattice_points(hull: list[IVec]) -> list[IVec]:
    """The lattice points of a counterclockwise hull, sorted.

    Column x of a polygon runs from the highest lower bound to the lowest
    upper bound that its half-planes det(q - p, z - p) >= 0 put on y there:
    an edge p -> q heading right (ux > 0) bounds y from below at
    py + ceil(uy (x - px) / ux), one heading left from above at
    py + floor(uy (x - px) / ux), and a vertical edge only bounds x."""
    n = len(hull)
    if n == 1:
        return list(hull)
    if n == 2:
        return side_lattice_points(*sorted(hull))
    lower, upper = [], []
    for i, (px, py) in enumerate(hull):
        qx, qy = hull[(i + 1) % n]
        ux, uy = qx - px, qy - py
        if ux > 0:
            lower.append((px, py, ux, uy))
        elif ux < 0:
            upper.append((px, py, -ux, uy))
    xs = [p[0] for p in hull]
    out = []
    for x in range(min(xs), max(xs) + 1):
        lo = max(py - (uy * (px - x)) // w for px, py, w, uy in lower)
        hi = min(py + (uy * (px - x)) // w for px, py, w, uy in upper)
        out.extend((x, y) for y in range(lo, hi + 1))
    return out


def intersect_param_lines(p: Point, d, q: Point, e):
    """Solve p + t*d = q + s*e.

    Returns ('point', t, s), ('collinear',) or None for parallel disjoint
    supporting lines.
    """
    dd = det2(d, e)
    w = sub(q, p)
    if dd == 0:
        if det2(d, w) == 0:
            return ("collinear",)
        return None
    t = Fraction(det2(w, e), dd)
    s = Fraction(det2(w, d), dd)
    return ("point", t, s)


def line_param(anchor: Point, d, p: Point) -> Fraction:
    """The t with p = anchor + t*d, for p on that line."""
    w = sub(p, anchor)
    return w[0] / d[0] if d[0] != 0 else w[1] / d[1]


def on_frame(x: Fraction, y: Fraction, den: int) -> IVec:
    """Numerators of the point (x, y) over den, a multiple of both denominators."""
    return (x.numerator * (den // x.denominator), y.numerator * (den // y.denominator))
