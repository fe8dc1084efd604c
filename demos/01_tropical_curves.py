"""Build plane tropical curves from max-plus polynomials.

A tropical polynomial max(a_ij + i*x + j*y) traces out a piecewise
linear curve: the locus where the maximum is achieved twice.  The
combinatorics of the curve is controlled by the regular subdivision
that the coefficients induce on the Newton polygon.
"""

from fractions import Fraction
from pathlib import Path

from tropcurve import (
    TropicalPolynomial,
    complement_components,
    curve_from_polynomial,
    honeycomb,
    primitive_cycles,
    render_svg,
)

# the repository root, so the printed paths are the same in every checkout
root = Path(__file__).resolve().parent.parent
out_dir = root / "demos" / "out"
out_dir.mkdir(exist_ok=True)

# A tropical line: max(0, x, y).  One vertex, three rays.
line = curve_from_polynomial(TropicalPolynomial({(0, 0): 0, (1, 0): 0, (0, 1): 0}))
print("tropical line")
print("  vertex:", line.vertices[0])
print("  ray directions:", sorted(e.direction for e in line.edges))

# A conic with generic coefficients.
conic = curve_from_polynomial(
    TropicalPolynomial(
        {
            (0, 0): 0,
            (1, 0): Fraction(-1, 2),
            (0, 1): -1,
            (2, 0): -3,
            (1, 1): -2,
            (0, 2): -4,
        }
    )
)
print("\nconic from a generic lift")
print("  vertices:", len(conic.vertices), "(twice the polygon area)")
print("  bounded edges:", len(conic.bounded_edges))
print("  dual cells:", len(conic.dual.cells), "unimodular triangles")

# The canonical honeycomb of degree 4: every edge direction is
# horizontal, vertical or diagonal.
quartic = honeycomb(4)
print("\ndegree-4 honeycomb")
print("  honeycomb:", quartic.is_honeycomb())
print("  primitive cycles:", len(primitive_cycles(quartic)), "(the genus)")
print("  complement components:", len(complement_components(quartic)))
for cycle in primitive_cycles(quartic):
    print(f"    cycle around {cycle.center}: {len(cycle.edges)} edges")

svg = render_svg(quartic)
(out_dir / "quartic_honeycomb.svg").write_text(svg)
print("\nwrote", (out_dir / "quartic_honeycomb.svg").relative_to(root))
