"""Hyperbolicity loci of real tropical curves.

A real tropical curve is hyperbolic when some point sees every line
through it meet the curve in only real points.  The set of complement
components carrying such points is the inside of the innermost oval; on
honeycombs a census of twisted multi-bridges gives it too, and the two
must agree.  A point query reads its verdict off the same locus and says
why a component copy is left out: condition 3 when the curve is
hyperbolic but the copy lies outside the innermost oval.
"""

from pathlib import Path

from tropcurve import (
    SignDistribution,
    TwistSet,
    honeycomb,
    honeycomb_locus,
    hyp_alpha_flat,
    hyperbolic_wrt_point,
    hyperbolicity_locus,
    multi_bridges,
    phase_from_signs,
    phase_from_twists,
    render_svg,
)

# the repository root, so the printed paths are the same in every checkout
root = Path(__file__).resolve().parent.parent
out_dir = root / "demos" / "out"
out_dir.mkdir(exist_ok=True)

print("stable quintic: constant signs twist every bounded edge")
quintic = honeycomb(5)
phase = phase_from_signs(quintic, SignDistribution.constant(quintic))
report = hyperbolicity_locus(quintic, phase)
print(f"  hyperbolic: {report.hyperbolic}, stable: {report.stable}")
print(f"  kernel dim {report.kernel_dim}, so {report.component_count} real components")
print(f"  locus: all {len(report.locus)} components")

print("\nquartic with a single twisted diagonal bridge")
quartic = honeycomb(4)
diag = next(b for b in multi_bridges(quartic) if b.dual_line == ("d", 3))
twists = TwistSet.from_edges(quartic, diag.edges)
print("  bridge census locus:", sorted(honeycomb_locus(quartic, twists)))
phase4 = phase_from_twists(quartic, twists)
report4 = hyperbolicity_locus(quartic, phase4)
print("  oval locus:         ", sorted(report4.locus))
print("  signed locus (one mirror copy):", sorted(report4.signed_locus))
verdict = hyperbolic_wrt_point(quartic, phase4, (2, 1), (0, 0))
print(f"  why (2,1) fails: condition {verdict.failing_condition}, {verdict.detail}")

svg = render_svg(quartic, phase=phase4, twists=twists, locus=report4.locus)
(out_dir / "quartic_bridge_locus.svg").write_text(svg)
print("  wrote", (out_dir / "quartic_bridge_locus.svg").relative_to(root))

print("\ntwist sets whose locus contains a given component form a flat")
for alpha in ((1, 1), (0, 0), (2, 1)):
    flat = hyp_alpha_flat(quartic, alpha)
    names = [b.dual_line for b in flat.constraining_bridges]
    print(f"  {alpha}: codim {len(names)} in Div (bridges {names}), dim {flat.flat.dim}")
