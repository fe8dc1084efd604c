"""The scenario parser against a reference copy of its Fraction route.

``_normalize_curve`` reads a canonical coefficient key "i,j" and a
canonical rational "p", "-p", "p/q" or "-p/q" on ints, and sends every
other spelling through ``parse_point_key`` and ``_parse_rational``;
``_normalize_structure`` reads canonical sign keys the same way.  The
reference below parses every key by the regex and every value through
``Fraction``.  On every input both give the same normalized spec, or the
same exception type and message.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from tropcurve.cli import main
from tropcurve.errors import ParseError, TropcurveError, ValidationError
from tropcurve.geometry import convex_hull, hull_lattice_count, hull_lattice_points
from tropcurve.io_render import (
    _check_size,
    _claim,
    _edge_key,
    _normalize_curve,
    _normalize_structure,
    _parse_edge_key,
    _parse_pair,
    _parse_point,
    _parse_rational,
    parse_eps,
    parse_point_key,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _format_rational_reference(x: Fraction):
    return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def _normalize_curve_reference(data, field: str):
    if not isinstance(data, dict):
        raise ParseError("curve must be an object", field)
    if "honeycomb" in data:
        d = data["honeycomb"]
        if type(d) is not int or d < 1:
            raise ValidationError("honeycomb degree must be a positive integer", field)
        if len(data) != 1:
            raise ValidationError("honeycomb curves take no further fields", field)
        _check_size((d + 1) * (d + 2) // 2, field)
        return {"honeycomb": d}, [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]
    if "support" not in data or "coefficients" not in data:
        raise ParseError("curve needs either 'honeycomb' or 'support'+'coefficients'", field)
    if not (isinstance(data["support"], list) and data["support"]):
        raise ParseError("support must be a nonempty list of lattice points", field)
    if not isinstance(data["coefficients"], dict):
        raise ParseError("coefficients must be an object keyed by lattice points", field)
    points = {_parse_point(p, f"{field}.support") for p in data["support"]}
    support = sorted(points)
    if any(c < 0 for p in support for c in p):
        raise ValidationError("support points must have nonnegative coordinates", field)
    hull = convex_hull(support)
    _check_size(hull_lattice_count(hull), field)
    coeffs, named = {}, {}
    for key, value in data["coefficients"].items():
        pt = parse_point_key(key, f"{field}.coefficients")
        _claim(named, pt, key, f"the lattice point {pt}", field)
        coeffs[pt] = _parse_rational(value, f"{field}.coefficients[{key}]")
    missing = [p for p in support if p not in coeffs]
    if missing:
        raise ValidationError(f"support points {missing} have no coefficient", field)
    extra = coeffs.keys() - points
    if extra:
        raise ValidationError(f"coefficients given outside the support: {sorted(extra)}", field)
    curve = {
        "support": [list(p) for p in support],
        "coefficients": {f"{p[0]},{p[1]}": _format_rational_reference(coeffs[p]) for p in support},
    }
    return curve, hull_lattice_points(hull)


def _normalize_structure_reference(data, lattice, field: str) -> dict:
    if not isinstance(data, dict):
        raise ParseError("real_structure must be an object", field)
    kinds = [k for k in ("signs", "twists", "phase") if k in data]
    if len(kinds) != 1:
        raise ValidationError(
            f"real_structure needs exactly one of signs/twists/phase, got {kinds}", field
        )
    kind = kinds[0]
    if set(data) != {kind}:
        raise ParseError(f"unknown fields in real_structure: {sorted(set(data) - {kind})}", field)
    if kind == "signs":
        signs = data["signs"]
        if signs == "all+":
            table = {p: 1 for p in lattice}
        elif signs == "all-":
            table = {p: -1 for p in lattice}
        elif isinstance(signs, dict):
            table, named = {}, {}
            for key, value in signs.items():
                pt = parse_point_key(key, f"{field}.signs")
                _claim(named, pt, key, f"the lattice point {pt}", field)
                if type(value) is not int or value not in (1, -1):
                    raise ValidationError(f"sign at {pt} must be 1 or -1", field)
                table[pt] = value
            missing = [p for p in lattice if p not in table]
            if missing:
                raise ValidationError(f"signs missing for lattice points {missing}", field)
            extra = table.keys() - set(lattice)
            if extra:
                raise ValidationError(f"signs given off the polygon: {sorted(extra)}", field)
        else:
            raise ParseError("signs must be 'all+', 'all-' or a lattice-point map", field)
        return {"signs": {f"{p[0]},{p[1]}": table[p] for p in sorted(table)}}
    if kind == "twists":
        tw = data["twists"]
        if not isinstance(tw, dict) or not isinstance(tw.get("edges"), list):
            raise ParseError("twists must be an object with an 'edges' list", field)
        edges = [_parse_pair(pair, f"{field}.twists.edges") for pair in tw["edges"]]
        out: dict = {"edges": sorted([list(a), list(b)] for a, b in edges)}
        if "seed" in tw and tw["seed"] is not None:
            seed = tw["seed"]
            if not isinstance(seed, dict) or "edge" not in seed:
                raise ParseError("seed must be an object with an 'edge'", f"{field}.twists.seed")
            a, b = _parse_pair(seed["edge"], f"{field}.twists.seed.edge")
            eps = parse_eps(seed.get("eps", [0, 0]), f"{field}.twists.seed.eps")
            out["seed"] = {"edge": [list(a), list(b)], "eps": list(eps)}
        return {"twists": out}
    if not isinstance(data["phase"], dict):
        raise ParseError("phase must be an object keyed by dual edges", field)
    table, named = {}, {}
    for key, value in data["phase"].items():
        edge = _edge_key(_parse_edge_key(key, f"{field}.phase"))
        _claim(named, edge, key, f"the dual edge {edge}", field)
        if not (isinstance(value, list) and len(value) == 2):
            raise ParseError(f"bad phase line {value!r} for {key}", field)
        a, b = table[edge] = sorted(parse_eps(x, f"{field}.phase[{key}]") for x in value)
        if a == b:
            raise ValidationError(
                f"phase line for {key} needs two distinct elements, got {list(a)} twice", field
            )
    return {"phase": {k: [list(a), list(b)] for k, (a, b) in sorted(table.items())}}


def _outcome(normalize_curve, normalize_structure, data):
    """The normalized curve and structure, or the exception's type and text."""
    try:
        curve, lattice = normalize_curve(data["curve"], "curve")
        return curve, normalize_structure(data["real_structure"], lattice, "real_structure")
    except TropcurveError as exc:
        return type(exc), str(exc)


def _assert_same(data):
    got = _outcome(_normalize_curve, _normalize_structure, data)
    want = _outcome(_normalize_curve_reference, _normalize_structure_reference, data)
    assert got == want
    # an int stays an int and a string a string, as the reference writes them
    if isinstance(got[0], dict) and "coefficients" in got[0]:
        assert [type(v) for v in got[0]["coefficients"].values()] == [
            type(v) for v in want[0]["coefficients"].values()
        ]
    return got


def _triangle(coefficients, signs=None):
    """A unit-triangle scenario with the given coefficient and sign maps."""
    return {
        "curve": {"support": [[0, 0], [1, 0], [0, 1]], "coefficients": coefficients},
        "real_structure": {"signs": signs if signs is not None else "all+"},
    }


def test_construct_workload_texts_parse_as_the_reference(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import NullTracer
    from workloads import WORKLOADS

    supports = 0
    for seed in (1, 2):
        for op in WORKLOADS["construct"].setup(seed, NullTracer()).ops:
            got = _assert_same(json.loads(op.data["text"]))
            supports += "support" in got[0]
    assert supports > 50


# coefficient values off the canonical int route, and values on it that
# reduce or refuse
_VALUES = [
    0, 7, -7, 10**40, True, False, 0.5, 3.0, None, [], {"p": 1},
    "0", "-0", "007", "-007/014", "6/4", "-6/4", "0/5", "-0/5", "4/2", "1/1", "12345678901234567890/10",
    "+3", " 3/6 ", "3/6 ", "1_0", "1_0/2", "0.5", "-1.25", "1e3", "3/-6", "-3/-6", "--3", "-", "", "/",
    "3/", "/3", "1//2", "1/2/3", "1/0", "0/0", "-5/00", "abc", "٣", "١/٢", "３", "²", "1/٢",
    "1" * 5000, "1/" + "7" * 5000, "-" + "9" * 4300, "9" * 4301,
]


@pytest.mark.parametrize("value", _VALUES, ids=[repr(v)[:24] for v in _VALUES])
def test_coefficient_values_parse_as_the_reference(value):
    _assert_same(_triangle({"0,0": value, "1,0": 0, "0,1": "-1/2"}))


# coefficient and sign keys off the canonical lookup: other spellings of a
# support point, points off the support, and keys that do not parse
_KEYS = ["(1,0)", "(1, 0)", " 1,0", "1 ,0", "01,0", "1,00", "-0,0", "١,٠", "(١,٠)", "1,0,", "1;0", "x",
         "2,2", "-1,0", "1," + "0" * 5000]


@pytest.mark.parametrize("key", _KEYS)
def test_coefficient_and_sign_keys_parse_as_the_reference(key):
    _assert_same(_triangle({"0,0": 0, key: "1/3", "0,1": 0}))
    _assert_same(_triangle({"0,0": 0, "1,0": 2, "0,1": 0}, {"0,0": 1, key: -1, "0,1": 1}))


@pytest.mark.parametrize("keys", [
    ("1,0", "(1,0)"), ("(1,0)", "1,0"), ("1,0", "١,٠"), ("١,٠", "1, 0"), ("1,0", "01,0"),
])
def test_two_keys_for_one_point_are_refused_as_the_reference(keys):
    first, second = keys
    coefficients = {"0,0": 0, first: 1, second: 2, "0,1": 0}
    assert _assert_same(_triangle(coefficients))[0] is ValidationError
    signs = {"0,0": 1, first: 1, second: -1, "0,1": 1}
    assert _assert_same(_triangle({"0,0": 0, "1,0": 0, "0,1": 0}, signs))[0] is ValidationError


def test_other_structures_and_supports_parse_as_the_reference():
    square = [[0, 0], [1, 0], [0, 1], [1, 1]]
    cases = [
        {"curve": {"honeycomb": 3}, "real_structure": {"signs": "all-"}},
        {"curve": {"honeycomb": 2}, "real_structure": {"signs": {f"{i},{j}": 1 for i in range(3) for j in range(3)}}},
        {"curve": {"support": square, "coefficients": {"0,0": 0, "1,0": "-2", "0,1": -2, "1,1": "0/3"}},
         "real_structure": {"twists": {"edges": [[[1, 0], [0, 1]]]}}},
        {"curve": {"support": square, "coefficients": {"0,0": 0, "1,0": -2, "0,1": -2}},
         "real_structure": {"signs": "all+"}},
        {"curve": {"support": [[0, 0], [2, 0], [0, 2]], "coefficients": {"0,0": 0, "2,0": 0, "0,2": 0}},
         "real_structure": {"signs": {"0,0": 1, "2,0": 1, "0,2": 1}}},
        {"curve": {"support": [[0, 0], [1, 0], [0, 1]], "coefficients": {"0,0": 0, "1,0": 0, "0,1": 0}},
         "real_structure": {"phase": {"0,0|1,0": [[0, 0], [0, 1]], "0,0|0,1": [[0, 0], [1, 0]],
                                      "0,1|1,0": [[0, 0], [1, 1]]}}},
        {"curve": {"support": [[0, 0], [1, 0], [0, 1]], "coefficients": {"0,0": 0, "1,0": 0, "0,1": 0}},
         "real_structure": {"signs": {"0,0": 1, "1,0": 2, "0,1": 1}}},
    ]
    for data in cases:
        _assert_same(data)


def test_a_5000_digit_coefficient_is_one_error_line(tmp_path, capsys):
    data = _triangle({"0,0": "1" * 5000, "1,0": 0, "0,1": 0})
    kind, message = _assert_same(data)
    assert kind is ValidationError and message.startswith("curve.coefficients[0,0]: cannot parse rational '111")
    spec = tmp_path / "long.trop.json"
    spec.write_text(json.dumps(data))
    assert main(["build", "--spec", str(spec)]) == 1
    out = capsys.readouterr()
    assert (out.out, out.err) == ("", f"error: {message}\n")
