"""The CLI on mutated real structures, on mutated curves and on seeded
intersection pairs: every run ends in a documented exit code (0, 1 or 2)
and never in a traceback."""

import contextlib
import io
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropcurve import curve_from_polynomial, honeycomb, phase_from_signs, twists_from_signs
from tropcurve.cli import main
from tropcurve.errors import DegeneratePolygon, SingularSubdivision, ValidationError
from tropcurve.geometry import sub
from tropcurve.io_render import load_spec
from tropcurve.realstruct import EPS4
from tropcurve.selfcheck import random_lift, random_sign_distribution

_DEGENERATE_PHASE = {
    "curve": {"honeycomb": 1},
    "real_structure": {"phase": {"0,0|1,0": [[0, 0], [0, 0]], "0,0|0,1": [[0, 0], [1, 0]], "0,1|1,0": [[0, 0], [1, 1]]}},
}


def test_degenerate_phase_line_is_rejected_by_load_spec():
    with pytest.raises(ValidationError, match=r"phase line for 0,0\|1,0 needs two distinct elements"):
        load_spec(json.dumps(_DEGENERATE_PHASE))


@pytest.mark.parametrize("command", ["analyze", "hyperbolic", "render"])
def test_degenerate_phase_line_exits_1(command, tmp_path, capsys):
    spec = tmp_path / "degenerate.trop.json"
    spec.write_text(json.dumps(_DEGENERATE_PHASE))
    assert main([command, "--spec", str(spec)]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: real_structure: phase line for 0,0|1,0") and "Traceback" not in out.err


def _key(p):
    return f"{p[0]},{p[1]}"


def _lift_pool(seed: int, draws: int):
    """(curve spec, curve) for the draws of ``random_lift`` that are
    non-singular curves of some degree."""
    rng = random.Random(seed)
    pool = []
    for _ in range(draws):
        poly = random_lift(rng)
        try:
            curve = curve_from_polynomial(poly)
        except (SingularSubdivision, DegeneratePolygon):
            continue
        if curve.degree is None:
            continue
        coeffs = {_key(p): str(a) for p, a in sorted(poly.coefficients.items())}
        pool.append(({"support": [list(p) for p in sorted(poly.coefficients)], "coefficients": coeffs}, curve))
    return pool


_CURVES = [({"honeycomb": d}, honeycomb(d)) for d in range(1, 5)] + _lift_pool(8, 40)
_EPS = st.sampled_from(EPS4)


@st.composite
def _scenarios(draw):
    """A valid curve and a real structure drawn from random signs, then
    mutated: phase lines of random element pairs (equal pairs included),
    reversed and dropped edge keys, twist edges toggled, random twist
    seeds, partial sign maps."""
    curve_data, curve = draw(st.sampled_from(_CURVES))
    edges = [e.dual for e in curve.edges]
    points = curve.dual.lattice_points
    rng = random.Random(draw(st.integers(0, 2**16)))
    delta = random_sign_distribution(rng, curve)
    mutated = draw(st.sets(st.sampled_from(range(len(edges))), max_size=2)) if draw(st.booleans()) else set()
    kind = draw(st.sampled_from(("signs", "twists", "phase")))
    if kind == "signs":
        dropped = {points[k % len(points)] for k in mutated}
        structure = {_key(p): s for p, s in delta.signs.items() if p not in dropped}
    elif kind == "twists":
        chosen = set(twists_from_signs(curve, delta).edges) ^ mutated
        structure = {"edges": [[list(p), list(q)][:: rng.choice((1, -1))] for p, q in (edges[k] for k in chosen)]}
        if draw(st.booleans()):
            p, q = draw(st.sampled_from(edges))
            structure["seed"] = {"edge": [list(q), list(p)], "eps": list(draw(_EPS))}
    else:
        lines = phase_from_signs(curve, delta).lines
        structure = {}
        for k, ((p, q), line) in enumerate(zip(edges, lines)):
            key = [_key(p), _key(q)][:: rng.choice((1, -1))]
            pair = line.elements
            if k in mutated:
                if draw(st.booleans()):
                    continue  # dropped
                pair = (draw(_EPS), draw(_EPS))
            structure["|".join(key)] = [list(pair[0]), list(pair[1])]
    spec = {"curve": curve_data, "real_structure": {kind: structure}}
    point = draw(st.sampled_from(points + ((99, 99),)))
    return spec, point, draw(st.none() | _EPS)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(scenario=_scenarios())
def test_cli_survives_mutated_real_structures(scenario):
    spec, point, eps = scenario
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "fuzz.trop.json")
        Path(path).write_text(json.dumps(spec))
        query = ["--point", f"({point[0]},{point[1]})"] + ([] if eps is None else ["--eps", f"{eps[0]},{eps[1]}"])
        for argv in (
            ["analyze", "--spec", path],
            ["analyze", "--spec", path, "--format", "json"],
            ["hyperbolic", "--spec", path],
            ["hyperbolic", "--spec", path, *query],
            ["render", "--spec", path, "--locus"],
        ):
            code, _, err = _run(argv)
            assert code in (0, 1, 2), argv
            assert "Traceback" not in err


def _curve_spec(curve, rng):
    """A scenario for ``curve`` from its coefficients, with all-plus or
    random signs."""
    poly = curve.poly
    coeffs = {_key(p): str(a) for p, a in sorted(poly.coefficients.items())}
    signs = "all+" if rng.random() < 0.5 else {_key(p): s for p, s in random_sign_distribution(rng, curve).signs.items()}
    return {
        "curve": {"support": [list(p) for p in sorted(poly.coefficients)], "coefficients": coeffs},
        "real_structure": {"signs": signs},
    }


_SECOND = ("lift", "translated", "vertex-on-vertex", "shared-ray")


@st.composite
def _intersection_pairs(draw):
    """Two curves for ``intersect``: the second is another curve of the
    pool, a translated copy of the first, another curve moved so that one
    of its vertices sits on a vertex of the first, or the first moved along
    one of its rays, so that the two share that ray."""
    _, a = draw(st.sampled_from(_CURVES))
    rng = random.Random(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(_SECOND))
    if kind == "lift":
        _, b = draw(st.sampled_from(_CURVES))
    elif kind == "translated":
        b = a.translated((Fraction(rng.randint(-40, 40), rng.choice((1, 2, 7))), Fraction(rng.randint(-40, 40), 3)))
    elif kind == "vertex-on-vertex":
        _, b = draw(st.sampled_from(_CURVES))
        b = b.translated(sub(rng.choice(a.vertices), rng.choice(b.vertices)))
    else:
        ray = rng.choice([e for e in a.edges if not e.bounded])
        t = Fraction(rng.randint(1, 9), rng.choice((1, 2)))
        b = a.translated((ray.direction[0] * t, ray.direction[1] * t))
    return _curve_spec(a, rng), _curve_spec(b, rng), draw(st.booleans())


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(pair=_intersection_pairs())
def test_cli_intersect_survives_seeded_pairs(pair):
    spec_a, spec_b, swap = pair
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, spec in (("a", spec_a), ("b", spec_b)):
            paths.append(str(Path(tmp) / f"{name}.trop.json"))
            Path(paths[-1]).write_text(json.dumps(spec))
        a, b = paths[::-1] if swap else paths
        for fmt in ("text", "json"):
            argv = ["intersect", "--a", a, "--b", b, "--format", fmt]
            code, out, err = _run(argv)
            assert code in (0, 1, 2), (argv, err)
            assert "Traceback" not in err
            assert _run(argv) == (code, out, err), argv


_MUTATIONS = ("drop", "nudge", "non-simplex", "collinear")


@st.composite
def _mutated_curves(draw):
    """A curve spec of the pool, mutated: one support point dropped, one
    coefficient moved by +-1/8, a rectangle support with near-honeycomb
    heights, or a support on one line; with all-plus or random signs.
    Comes with one of its support points, for a ``--point`` query."""
    _, curve = draw(st.sampled_from(_CURVES))
    rng = random.Random(draw(st.integers(0, 2**16)))
    coeffs = dict(curve.poly.coefficients)
    kind = draw(st.sampled_from(_MUTATIONS))
    if kind == "drop":
        del coeffs[rng.choice(sorted(coeffs))]
    elif kind == "nudge":
        p = rng.choice(sorted(coeffs))
        coeffs[p] += Fraction(rng.choice((1, -1)), 8)
    elif kind == "non-simplex":
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        coeffs = {(i, j): Fraction(-16 * (i * i + i * j + j * j) + rng.randrange(16), 8)
                  for i in range(a + 1) for j in range(b + 1)}
    else:
        u = rng.choice(((1, 0), (0, 1), (1, 1), (1, -1)))
        coeffs = {(k * u[0], 2 + k * u[1]): Fraction(rng.randint(-8, 8), 8) for k in range(rng.randint(1, 4))}
    points = sorted(coeffs)
    signs = "all+" if rng.random() < 0.5 else {_key(p): rng.choice((1, -1)) for p in points}
    spec = {
        "curve": {"support": [list(p) for p in points], "coefficients": {_key(p): str(coeffs[p]) for p in points}},
        "real_structure": {"signs": signs},
    }
    return spec, rng.choice(points)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(scenario=_mutated_curves())
def test_cli_survives_mutated_curves(scenario):
    spec, point = scenario
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "fuzz.trop.json")
        Path(path).write_text(json.dumps(spec))
        for argv in (
            ["build", "--spec", path],
            ["analyze", "--spec", path, "--format", "json"],
            ["hyperbolic", "--spec", path],
            ["hyperbolic", "--spec", path, "--point", f"({point[0]},{point[1]})"],
            # outside every polygon of the pool
            ["hyperbolic", "--spec", path, "--point", "(99,99)"],
            ["render", "--spec", path],
        ):
            code, out, err = _run(argv)
            assert code in (0, 1, 2), (argv, err)
            assert "Traceback" not in err
            assert _run(argv) == (code, out, err), argv
