import hashlib
import json
import random
import re
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from tropcurve import (
    SignDistribution,
    TropicalPolynomial,
    build_scenario,
    curve_from_polynomial,
    honeycomb,
    hyperbolicity_locus,
    load_spec,
    phase_from_signs,
    render_svg,
    save_spec,
    twists_from_signs,
)
from tropcurve.errors import InvariantViolation, ParseError, TropcurveError, ValidationError
from tropcurve.selfcheck import pair_scan_curve, random_lift, random_sign_distribution


def test_shorthand_constant_signs():
    spec = load_spec('{"curve": {"honeycomb": 4}, "real_structure": {"signs": "all+"}}')
    scen = build_scenario(spec)
    assert scen.curve.degree == 4
    assert all(s == 1 for s in scen.delta.signs.values())
    assert len(scen.twists.edges) == 18


def test_round_trip_is_identity():
    texts = [
        '{"curve": {"honeycomb": 3}, "real_structure": {"signs": "all+"}}',
        json.dumps(
            {
                "curve": {
                    "support": [[0, 0], [1, 0], [0, 1]],
                    "coefficients": {"0,0": 0, "1,0": "1/2", "0,1": -2},
                },
                "real_structure": {"signs": {"(0,0)": 1, "(1,0)": -1, "(0,1)": 1}},
                "query": {"component": [0, 0], "eps": [1, 0]},
            }
        ),
    ]
    for text in texts:
        spec = load_spec(text)
        again = load_spec(save_spec(spec))
        assert again == spec
        assert save_spec(again) == save_spec(spec)


def test_missing_sign_point_is_named():
    spec_text = json.dumps(
        {
            "curve": {"honeycomb": 4},
            "real_structure": {
                "signs": {f"{i},{j}": 1 for i in range(5) for j in range(5 - i) if (i, j) != (2, 1)}
            },
        }
    )
    with pytest.raises(ValidationError, match=r"\(2, 1\)"):
        load_spec(spec_text)


def test_exactly_one_structure_kind():
    text = json.dumps(
        {
            "curve": {"honeycomb": 2},
            "real_structure": {"signs": "all+", "twists": {"edges": []}},
        }
    )
    with pytest.raises(ValidationError, match="exactly one"):
        load_spec(text)


def test_float_coefficients_rejected():
    text = json.dumps(
        {
            "curve": {"support": [[0, 0], [1, 0], [0, 1]], "coefficients": {"0,0": 0.5, "1,0": 0, "0,1": 0}},
            "real_structure": {"signs": "all+"},
        }
    )
    with pytest.raises(ValidationError, match="float"):
        load_spec(text)


def test_invalid_json_reports_position():
    with pytest.raises(ParseError, match="line 1"):
        load_spec("{nope")


def test_twist_spec_builds_phase():
    text = json.dumps(
        {
            "curve": {"honeycomb": 2},
            "real_structure": {
                "twists": {
                    "edges": [[[0, 1], [1, 0]], [[1, 0], [1, 1]], [[0, 1], [1, 1]]],
                    "seed": {"edge": [[0, 1], [1, 0]], "eps": [1, 0]},
                }
            },
        }
    )
    scen = build_scenario(load_spec(text))
    assert len(scen.twists.edges) == 3
    seed_edge = scen.curve.edge_by_dual((0, 1), (1, 0))
    assert scen.phase.lines[seed_edge].contains((1, 0))


def test_unknown_twist_edge_rejected():
    text = json.dumps(
        {
            "curve": {"honeycomb": 2},
            "real_structure": {"twists": {"edges": [[[0, 0], [2, 2]]]}},
        }
    )
    with pytest.raises(ValidationError):
        build_scenario(load_spec(text))


def test_explicit_phase_spec_round_trips():
    c = honeycomb(2)
    phase = phase_from_signs(c, SignDistribution.constant(c))
    table = {}
    for e in c.edges:
        a, b = sorted(e.dual)
        key = f"{a[0]},{a[1]}|{b[0]},{b[1]}"
        table[key] = [list(x) for x in phase.lines[e.index].elements]
    text = json.dumps({"curve": {"honeycomb": 2}, "real_structure": {"phase": table}})
    scen = build_scenario(load_spec(text))
    assert scen.phase == phase
    assert scen.twists.edges == frozenset(c.bounded_edges)


def test_second_curve_and_query():
    text = json.dumps(
        {
            "curve": {"honeycomb": 2},
            "real_structure": {"signs": "all+"},
            "second": {"curve": {"honeycomb": 1}, "real_structure": {"signs": "all+"}},
            "query": {"component": [1, 1], "eps": [0, 1]},
        }
    )
    scen = build_scenario(load_spec(text))
    assert scen.second is not None
    assert scen.second.curve.degree == 1
    assert scen.query == ((1, 1), (0, 1))


def _quadrant_polylines(svg_text):
    quad = svg_text.split('<g id="quadrants">')[1].split("</g>")[0]
    return re.findall(r"<polyline ", quad)


def test_render_line_draws_six_edge_copies():
    from conftest import make_line

    line = make_line()
    phase = phase_from_signs(line, SignDistribution.constant(line))
    svg = render_svg(line, phase=phase)
    assert svg.startswith("<svg ")
    assert len(_quadrant_polylines(svg)) == 6  # 3 edges x 2 copies


def test_render_markers_and_locus_counts():
    c = honeycomb(4)
    delta = SignDistribution.constant(c)
    phase = phase_from_signs(c, delta)
    twists = twists_from_signs(c, delta)
    report = hyperbolicity_locus(c, phase)
    svg = render_svg(c, phase=phase, twists=twists, locus=report.locus, delta=delta)
    markers = svg.split('<g id="twist-markers">')[1].split("</g>")[0]
    assert len(re.findall(r"<circle ", markers)) == len(twists.edges)
    locus_layer = svg.split('<g id="locus">')[1].split("</g>")[0]
    assert len(re.findall(r"<polygon ", locus_layer)) == len(report.locus)


def test_render_with_a_locus_builds_no_fraction_coefficients():
    # the locus clip reads the frame's int heights, so neither a curve nor
    # a translated copy gets its Fraction coefficients from a render
    for c in (honeycomb(3), honeycomb(5).translated((Fraction(1, 3), Fraction(-2, 7)))):
        phase = phase_from_signs(c, SignDistribution.constant(c))
        locus = hyperbolicity_locus(c, phase).locus
        assert locus
        render_svg(c, phase, None, locus)
        assert "poly" not in vars(c)


def test_render_handles_curves_without_a_degree():
    from fractions import Fraction

    from tropcurve import TropicalPolynomial, curve_from_polynomial

    square = curve_from_polynomial(
        TropicalPolynomial({(0, 0): 0, (1, 0): -2, (0, 1): -2, (1, 1): 0})
    )
    phase = phase_from_signs(square, SignDistribution.constant(square))
    svg = render_svg(square, phase=phase)
    assert svg.startswith("<svg ")
    assert len(_quadrant_polylines(svg)) == 0  # no projective panel content


def test_render_is_deterministic():
    c = honeycomb(3)
    delta = SignDistribution.constant(c)
    phase = phase_from_signs(c, delta)
    twists = twists_from_signs(c, delta)
    a = render_svg(c, phase=phase, twists=twists)
    b = render_svg(c, phase=phase, twists=twists)
    assert a == b


def _golden_corpus():
    """Seeded renders: honeycombs d=1-8, d*simplex and other random lifts
    (mixed denominators included), and locus-shaded figures."""
    rng = random.Random(6)
    groups = {"honeycomb": [], "simplex-lift": [], "other-support": [], "locus": []}
    for d in range(1, 9):
        c = honeycomb(d)
        delta = random_sign_distribution(rng, c)
        phase = phase_from_signs(c, delta)
        groups["honeycomb"].append(render_svg(c, phase, twists_from_signs(c, delta), None, delta))
    for d in range(1, 6):
        c = honeycomb(d)
        delta = SignDistribution.constant(c)
        phase = phase_from_signs(c, delta)
        locus = hyperbolicity_locus(c, phase).locus
        groups["locus"].append(render_svg(c, phase, twists_from_signs(c, delta), locus, delta))
    while len(groups["simplex-lift"]) < 100 or len(groups["other-support"]) < 30:
        try:
            c = curve_from_polynomial(random_lift(rng))
        except TropcurveError:
            continue
        key, cap = ("simplex-lift", 100) if c.degree is not None else ("other-support", 30)
        if len(groups[key]) >= cap:
            continue
        delta = random_sign_distribution(rng, c)
        phase = phase_from_signs(c, delta)
        twists = twists_from_signs(c, delta)
        groups[key].append(render_svg(c, phase, twists, None, delta))
        if c.degree is not None and len(groups["locus"]) < 25:
            locus = hyperbolicity_locus(c, phase).locus
            groups["locus"].append(render_svg(c, phase, twists, locus, delta))
    return groups


def test_render_bytes_match_golden_digests():
    groups = _golden_corpus()
    digests = {k: (len(v), hashlib.sha256("".join(v).encode()).hexdigest()[:16]) for k, v in groups.items()}
    assert digests == {
        "honeycomb": (8, "1b095c05673640b2"),
        "simplex-lift": (100, "5253fae539c9939c"),
        "other-support": (30, "6d09fdf4ab1bd454"),
        "locus": (25, "f8ace0ce5fc8dbdc"),
    }
    layers = [s.split('<g id="locus">')[1].split("</g>")[0] for s in groups["locus"] if '<g id="locus">' in s]
    shaded = [layer for layer in layers if "<polygon " in layer]
    assert len(shaded) >= 20
    assert all(not _quadrant_polylines(s) for s in groups["other-support"])


def _large_and_mixed_corpus():
    """Seeded renders: honeycombs d=9, 10, 12 (and d=9 locus-shaded), and
    translated lifts with mixed coefficient denominators, every second one
    with all coefficients raised by 1/13 so that its frame denominator is
    13 times the vertex lcm."""
    rng = random.Random(12)
    groups = {"honeycomb-large": [], "mixed-denominator": []}
    for d in (9, 10, 12):
        c = honeycomb(d)
        delta = random_sign_distribution(rng, c)
        phase = phase_from_signs(c, delta)
        groups["honeycomb-large"].append(render_svg(c, phase, twists_from_signs(c, delta), None, delta))
    c = honeycomb(9)
    delta = SignDistribution.constant(c)
    phase = phase_from_signs(c, delta)
    locus = hyperbolicity_locus(c, phase).locus
    groups["honeycomb-large"].append(render_svg(c, phase, twists_from_signs(c, delta), locus, delta))
    offsets = [(Fraction(1, 3), Fraction(-2, 7)), (Fraction(-5, 6), Fraction(3, 10)), (Fraction(7, 9), Fraction(0))]
    wide_frames = 0
    while len(groups["mixed-denominator"]) < 40:
        k = len(groups["mixed-denominator"])
        poly = random_lift(rng)
        if len({a.denominator for a in poly.coefficients.values()}) < 2:
            continue
        if k % 2:
            poly = TropicalPolynomial({p: a + Fraction(1, 13) for p, a in poly.coefficients.items()})
        try:
            c = curve_from_polynomial(poly)
        except TropcurveError:
            continue
        c = c.translated(offsets[k % 3])
        wide_frames += c.frame.den > lcm(*(x.denominator for v in c.vertices for x in v))
        delta = random_sign_distribution(rng, c)
        phase = phase_from_signs(c, delta)
        twists = twists_from_signs(c, delta)
        locus = hyperbolicity_locus(c, phase).locus if c.degree is not None else None
        groups["mixed-denominator"].append(render_svg(c, phase, twists, locus, delta))
    return groups, wide_frames


def test_render_bytes_match_golden_digests_large_and_mixed():
    groups, wide_frames = _large_and_mixed_corpus()
    digests = {k: (len(v), hashlib.sha256("".join(v).encode()).hexdigest()[:16]) for k, v in groups.items()}
    assert digests == {
        "honeycomb-large": (4, "45ed5ef4cf871f2d"),
        "mixed-denominator": (40, "a263eccd34630e37"),
    }
    assert wide_frames == 20
    shaded = [s for s in groups["mixed-denominator"] if '<g id="locus">' in s]
    assert sum("<polygon " in s.split('<g id="locus">')[1].split("</g>")[0] for s in shaded) >= 10


# Reference definitions over Fraction for the integer closed forms in io_render.


def _fmt_reference(x):
    scaled = Fraction(x) * 10_000
    n = scaled.numerator // scaled.denominator
    sign = "-" if n < 0 else ""
    whole, frac = divmod(abs(n), 10_000)
    s = f"{sign}{whole}.{frac:04d}".rstrip("0").rstrip(".")
    return s if s not in ("", "-") else "0"


def _squash_reference(x, y):
    m = max(Fraction(0), x, y)
    w0, w1, w2 = 1 / (1 + m), 1 / (1 + m - x), 1 / (1 + m - y)
    s = w0 + w1 + w2
    return (w1 / s, w2 / s)


def _ray_limit_reference(x, y, direction):
    if direction == (-1, 0):
        m = max(Fraction(0), y)
        w = (1 / (1 + m), Fraction(0), 1 / (1 + m - y))
    elif direction == (0, -1):
        m = max(Fraction(0), x)
        w = (1 / (1 + m), 1 / (1 + m - x), Fraction(0))
    else:
        c = y - x
        w = (Fraction(0), 1 / (1 + c), Fraction(1)) if c >= 0 else (Fraction(0), Fraction(1), 1 / (1 - c))
    s = sum(w)
    return (w[1] / s, w[2] / s)


_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=60)


@seed(6)
@settings(max_examples=400, deadline=None, database=None)
@given(x=_rationals, y=_rationals, extra=st.integers(1, 24))
def test_integer_squash_and_ray_limits_match_fraction_definitions(x, y, extra):
    from tropcurve.io_render import _ray_limit, _triangle_point

    den = 8 * extra * x.denominator * y.denominator
    a, b = int(x * den), int(y * den)
    u, v, s = _triangle_point(a, b, den)
    assert s > 0 and (Fraction(u, s), Fraction(v, s)) == _squash_reference(x, y)
    # both orders, so the (1,1) ray sees c = y - x >= 0 and c < 0
    for (p, q), (i, j) in (((x, y), (a, b)), ((y, x), (b, a))):
        for direction in ((-1, 0), (0, -1), (1, 1)):
            u, v, s = _ray_limit(i, j, den, direction)
            assert s > 0 and (Fraction(u, s), Fraction(v, s)) == _ray_limit_reference(p, q, direction)


def test_a_ray_that_misses_the_boundary_is_an_invariant_violation():
    from tropcurve.io_render import _ray_limit

    with pytest.raises(InvariantViolation, match=r"ray direction \(1, 0\) does not reach the boundary"):
        _ray_limit(0, 0, 8, (1, 0))


# A reference copy of the quadrant panel as it was written before each
# edge's two copies were formatted in one loop: every sample's four
# quadrant decimals in a list, then one formatting pass per drawn copy.


def _quadrant_decimals_reference(u, v, s):
    q, r = divmod(1_300_000 * u, s)
    xs = (6_000_000 + q, 6_000_000 - q - (r > 0))
    q, r = divmod(1_300_000 * v, s)
    return xs, (1_400_000 - q - (r > 0), 1_400_000 + q)


def _sample_decimals_reference(a, b, sa, sb, steps, den):
    from tropcurve.io_render import _triangle_point

    return [_quadrant_decimals_reference(*_triangle_point(a + t * sa, b + t * sb, den)) for t in steps]


def _quadrant_points_reference(decimals, eps):
    e0, e1 = eps
    return " ".join(
        f"{_fmt_reference(Fraction(xs[e0], 10_000))},{_fmt_reference(Fraction(ys[e1], 10_000))}"
        for xs, ys in decimals
    )


def _quadrant_panel_reference(curve, phase):
    from tropcurve.io_render import _ray_limit, _triangle_point
    from tropcurve.realstruct import EPS4

    parts = ['<g id="quadrants">']
    triangle = [_quadrant_decimals_reference(u, v, 1) for u, v in ((0, 0), (1, 0), (0, 1))]
    for eps in EPS4:
        points = _quadrant_points_reference(triangle, eps)
        parts.append(f'<polygon points="{points}" fill="none" stroke="#bbb" stroke-width="0.8"/>')
    if phase is not None and curve.degree is not None:
        den = 8 * curve.frame.den
        verts = [(8 * x, 8 * y) for x, y in curve.frame.vertices]
        at_vertex = [_quadrant_decimals_reference(*_triangle_point(a, b, den)) for a, b in verts]
        for e in curve.edges:
            a, b = verts[e.tail]
            if e.bounded:
                ha, hb = verts[e.head]
                decimals = [
                    at_vertex[e.tail],
                    *_sample_decimals_reference(a, b, (ha - a) // 8, (hb - b) // 8, range(1, 8), den),
                    at_vertex[e.head],
                ]
            else:
                dx, dy = e.direction
                decimals = [
                    at_vertex[e.tail],
                    *_sample_decimals_reference(a, b, dx * den, dy * den, (1, 2, 4, 8, 16, 64), den),
                    _quadrant_decimals_reference(*_ray_limit(a, b, den, e.direction)),
                ]
            for eps in sorted(phase.lines[e.index].elements):
                points = _quadrant_points_reference(decimals, eps)
                parts.append(f'<polyline points="{points}" fill="none" stroke="#b03030" stroke-width="1.2"/>')
    parts.append("</g>")
    return "\n".join(parts)


def test_quadrant_panel_matches_the_reference_panel():
    # random phases of honeycombs and of perturbed lifts, moved so that
    # frames have den > 1 and vertices negative coordinates
    rng = random.Random(31)
    curves = [honeycomb(d) for d in range(1, 8)]
    while len(curves) < 70:
        d = rng.randint(2, 5)
        coeffs = {
            (i, j): Fraction(-8 * (i * i + i * j + j * j) + rng.randint(-8, 8), 8)
            for i in range(d + 1) for j in range(d + 1 - i)
        }
        try:
            curves.append(curve_from_polynomial(TropicalPolynomial(coeffs)))
        except TropcurveError:
            continue
    wide = negative = 0
    for k, curve in enumerate(curves):
        if k % 2:
            offset = (Fraction(rng.randint(-60, 20), rng.choice((1, 3, 5))), Fraction(rng.randint(-60, 20), 7))
            curve = curve.translated(offset)
        wide += curve.frame.den > 1
        negative += any(x < 0 or y < 0 for x, y in curve.frame.vertices)
        for _ in range(3):
            delta = random_sign_distribution(rng, curve)
            phase = phase_from_signs(curve, delta)
            svg = render_svg(curve, phase, None, None, delta)
            panel = svg[svg.index('<g id="quadrants">'):svg.rindex("</g>") + 4]
            assert panel == _quadrant_panel_reference(curve, phase)
    assert wide > 40 and negative > 40


@seed(6)
@settings(max_examples=400, deadline=None, database=None)
@given(num=st.integers(-10**9, 10**9), den=st.integers(1, 10**6))
def test_integer_formatter_matches_fraction_formatter(num, den):
    from tropcurve.io_render import _fmt

    assert _fmt(num, den) == _fmt_reference(Fraction(num, den))


@seed(12)
@settings(max_examples=400, deadline=None, database=None)
@given(s=st.integers(1, 10**12), u_part=st.fractions(0, 1), v_part=st.fractions(0, 1))
@example(s=13, u_part=Fraction(1), v_part=Fraction(0))  # u = s, v = 0: both remainders 0
@example(s=13, u_part=Fraction(1, 13), v_part=Fraction(2, 13))  # 1300000 * u divisible by s
@example(s=7, u_part=Fraction(3, 7), v_part=Fraction(1))  # a remainder, v = s
def test_quadrant_closed_forms_match_fraction_definitions(s, u_part, v_part):
    from tropcurve.io_render import _quadrant_strings

    u, v = int(u_part * s), int(v_part * s)
    xs, ys = _quadrant_strings(u, v, s)
    for e0, e1 in ((0, 0), (0, 1), (1, 0), (1, 1)):
        x = 600 + (-130 if e0 else 130) * Fraction(u, s)
        y = 140 - (-130 if e1 else 130) * Fraction(v, s)
        assert (xs[e0], ys[e1]) == (_fmt_reference(x), _fmt_reference(y))


def _structures(curve, delta):
    phase = phase_from_signs(curve, delta)
    locus = hyperbolicity_locus(curve, phase).locus if curve.degree is not None else None
    return phase, twists_from_signs(curve, delta), locus, delta


def test_render_does_not_depend_on_the_construction_or_the_frame():
    # the pair scan's frame is built from its Fraction vertices, a translated
    # copy's frame is over lcm(den, offset denominators): the bytes agree
    rng = random.Random(120)
    built = 0
    while built < 40:
        poly = random_lift(rng)
        try:
            curve = curve_from_polynomial(poly)
        except TropcurveError:
            continue
        built += 1
        delta = random_sign_distribution(rng, curve)
        svg = render_svg(curve, *_structures(curve, delta))
        assert svg == render_svg(pair_scan_curve(poly), *_structures(pair_scan_curve(poly), delta))
        if built % 4:
            continue
        moved = curve
        for _ in range(3):
            offset = tuple(Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 7, 12, 101))) for _ in range(2))
            moved = moved.translated(offset)
            twin = pair_scan_curve(moved.poly)
            assert render_svg(moved, *_structures(moved, delta)) == render_svg(twin, *_structures(twin, delta))


def _clip_reference(curve, alpha, box):
    """The clip over Fraction on the curve's own coordinates."""
    x0, x1, y0, y1 = box
    poly = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    a_alpha = curve.poly.coefficients[alpha]
    for beta in curve.poly.support:
        if beta == alpha:
            continue
        nx, ny = alpha[0] - beta[0], alpha[1] - beta[1]
        c = curve.poly.coefficients[beta] - a_alpha
        out = []
        m = len(poly)
        for i in range(m):
            p, q = poly[i], poly[(i + 1) % m]
            fp = nx * p[0] + ny * p[1] - c
            fq = nx * q[0] + ny * q[1] - c
            if fp >= 0:
                out.append(p)
            if (fp > 0 and fq < 0) or (fp < 0 and fq > 0):
                t = fp / (fp - fq)
                out.append((p[0] + (q[0] - p[0]) * t, p[1] + (q[1] - p[1]) * t))
        poly = out
        if not poly:
            break
    return poly


def test_integer_clip_matches_the_fraction_clip():
    from tropcurve.io_render import _clip_region

    rng = random.Random(121)
    curves = [honeycomb(d) for d in (1, 3, 5)]
    while len(curves) < 20:
        try:
            curves.append(curve_from_polynomial(random_lift(rng)))
        except TropcurveError:
            continue
    empty = corners = 0
    for curve in curves:
        den = 8 * curve.frame.den * rng.choice((1, 3))
        k = den // curve.frame.den
        xs = [k * x for x, _ in curve.frame.vertices]
        ys = [k * y for _, y in curve.frame.vertices]
        boxes = [(min(xs) - 2 * den, max(xs) + 2 * den, min(ys) - 2 * den, max(ys) + 2 * den)]
        # boxes with a curve vertex as a corner, and a box far from the curve
        for vx, vy in rng.sample(list(zip(xs, ys)), min(3, len(xs))):
            boxes.append((vx, vx + rng.randint(1, 3 * den), vy - rng.randint(1, 3 * den), vy))
        boxes.append((max(xs) + 50 * den, max(xs) + 51 * den, max(ys) + 50 * den, max(ys) + 51 * den))
        for box in boxes:
            frac_box = tuple(Fraction(b, den) for b in box)
            for alpha in curve.dual.lattice_points:
                got = _clip_region(curve, alpha, box, den)
                assert all(w > 0 for _, _, w in got)
                want = _clip_reference(curve, alpha, frac_box)
                assert [(Fraction(x, w * den), Fraction(y, w * den)) for x, y, w in got] == want
                empty += not got
                corners += any(p in want for p in ((frac_box[0], frac_box[3]), (frac_box[1], frac_box[2])))
    assert empty > 100 and corners > 100


# two keys that name one lattice point or one dual edge, each with its message
_DUPLICATE_KEYS = [
    (
        {
            "curve": {
                "support": [[0, 0], [1, 0], [0, 1]],
                "coefficients": {"0,0": "0", "(0,0)": "5", "1,0": 0, "0,1": 0},
            },
            "real_structure": {"signs": "all+"},
        },
        "curve: keys '0,0' and '(0,0)' both name the lattice point (0, 0)",
    ),
    (
        {
            "curve": {"honeycomb": 1},
            "real_structure": {"signs": {"0,0": 1, "0, 0": -1, "1,0": 1, "0,1": 1}},
        },
        "real_structure: keys '0,0' and '0, 0' both name the lattice point (0, 0)",
    ),
    (
        {
            "curve": {"honeycomb": 1},
            "real_structure": {"phase": {
                "0,0|1,0": [[0, 0], [0, 1]], "1,0|0,0": [[1, 0], [1, 1]],
                "0,0|0,1": [[0, 0], [1, 0]], "0,1|1,0": [[0, 0], [1, 1]],
            }},
        },
        "real_structure: keys '0,0|1,0' and '1,0|0,0' both name the dual edge 0,0|1,0",
    ),
]


@pytest.mark.parametrize("data,message", _DUPLICATE_KEYS, ids=["coefficients", "signs", "phase"])
def test_two_keys_for_one_point_or_edge_are_rejected(data, message):
    with pytest.raises(ValidationError) as exc:
        load_spec(json.dumps(data))
    assert str(exc.value) == message


@pytest.mark.parametrize("data,message", _DUPLICATE_KEYS, ids=["coefficients", "signs", "phase"])
def test_two_keys_for_one_point_or_edge_exit_1(data, message, tmp_path, capsys):
    from tropcurve.cli import main

    spec = tmp_path / "duplicate.trop.json"
    spec.write_text(json.dumps(data))
    assert main(["analyze", "--spec", str(spec)]) == 1
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {message}\n")


def test_a_key_given_twice_in_one_object_is_rejected():
    text = '{"curve": {"honeycomb": 1}, "real_structure": {"signs": {"0,0": 1, "0,0": -1, "1,0": 1, "0,1": 1}}}'
    with pytest.raises(ParseError, match="key '0,0' appears twice in one object"):
        load_spec(text)


# sha256 of the outcomes below, one repr per line: the curve's fields, or
# the exception's type and message.  Recorded while ``_build_curve`` read
# int heights beside ``curve_from_polynomial``, so it pins that the two
# routes build and refuse alike.
SPEC_CURVE_DIGEST = "137b4f38cadeab951f6c9a8ae81fec507e3958744cf901c73e68b9163075f244"


def _curve_outcome(curve_data):
    from tropcurve.io_render import _build_curve

    try:
        c = _build_curve(curve_data)
    except Exception as exc:
        return type(exc), str(exc)
    return c.edges, c.dual, c.degree, c.frame, list(c.frame.heights), list(c.poly.coefficients)


def test_spec_curves_are_built_or_refused_as_the_reference():
    rng = random.Random(33)
    specs = [json.loads(save_spec(load_spec(json.dumps(
        {"curve": {"support": [list(p) for p in poly.coefficients],
                   "coefficients": {f"{i},{j}": str(a) for (i, j), a in poly.coefficients.items()}},
         "real_structure": {"signs": "all+"}}))))["curve"] for poly in (random_lift(rng) for _ in range(80))]
    specs += [{"honeycomb": 3}]
    # specs made without load_spec: other key spellings, repeated points,
    # negative exponents, values load_spec would refuse
    line = {"0,0": 0, "1,0": "1/2", "0,1": -1}
    for key, value in [("(1, 1)", 0), ("-1,0", 0), ("0,-2", "3"), ("01,0", 5), ("+1,0", 0), ("1,0,0", 0),
                       ("１,0", 0), ("1" * 5000 + ",0", 0), (("tuple",), 0), ("1,1", 1.5), ("1,1", True),
                       ("1,1", " 1/2 "), ("1,1", "1e3"), ("1,1", "1/0"), ("1,1", "2/-4"), ("1,1", "9" * 5000),
                       ("1,1", None), ("(0,0)", "7/3"), ("1,0", "-6/4")]:
        specs.append({"coefficients": {**line, key: value}})
    specs += [{"coefficients": {}}, {"coefficients": {"(-1,-1)": 0, "-2,0": 0}}]
    outcomes = [_curve_outcome(spec) for spec in specs]
    assert hashlib.sha256("\n".join(map(repr, outcomes)).encode()).hexdigest() == SPEC_CURVE_DIGEST
    kinds = {o[0].__name__ if isinstance(o[0], type) else "built" for o in outcomes}
    assert kinds >= {"built", "ValueError", "ParseError", "ValidationError", "SingularSubdivision", "TypeError"}, kinds
