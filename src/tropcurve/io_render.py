"""Scenario files (.trop.json) and deterministic SVG figures.

A scenario bundles a curve (canonical honeycomb or explicit support and
rational coefficients), exactly one description of its real structure
(signs, twists, or explicit phase lines), an optional second curve for
intersection runs, and an optional point query.  Rationals travel as
"p/q" strings; floats are rejected outright.  Parsing reads the canonical
spelling on ints: a coefficient key "i,j" of a support point, or a sign
key "i,j" of a lattice point, is looked up in a table of those keys, and
a coefficient that is an int or an ASCII-digit "p", "-p", "p/q" or "-p/q"
is reduced with int and gcd.  Every other spelling goes through the key
regex and ``Fraction``, so the same points, values and refusals result,
and two keys that name one point are still refused.

SVG figure coordinates are the exact rationals floor-rounded to 4
decimals, computed on the curve's own integer frame scaled by 8: every
vertex is an int pair over D = 8 * curve.frame.den, and each coordinate is
written from one floor division n = (10^4 * num) // den, as n // 10^4 and
the decimal suffix of n % 10^4 read from a table.  The quadrant panel maps
an affine point (a/D, b/D) onto the unit triangle by the projective squash
in closed form: with M = max(0, a, b), A = D + M, B = A - a, C = A - b and
S = AB + AC + BC, the squash is (u/s, v/s) = (AC/S, AB/S).  Its copy in
quadrant eps is at x = 600 + 130u/s (eps0 = 0) or 600 - 130u/s (eps0 = 1)
and y = 140 - 130v/s (eps1 = 0) or 140 + 130v/s (eps1 = 1), so 10^4
times the rounded x is 6000000 + (+-1300000 * u) // s and 10^4 times the
rounded y is 1400000 + (-+1300000 * v) // s, the signs picked from eps
(-ceil(n/s) = floor(-n/s)).  Each vertex is squashed once into its four
coordinate strings, which every edge that ends there reads.  Each edge
then picks its two copies' signs once and runs one int loop over its
samples (a bounded edge's interior samples step from its tail by
(head - tail)/8, an exact int step on this frame), writing, sample by
sample, the coordinates of its two drawn copies only, one floor division
per coordinate.  Locus shading clips the frame box on homogeneous int
triples.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .curve import TropicalCurve, TropicalPolynomial, curve_from_polynomial, honeycomb
from .errors import InvariantViolation, ParseError, ValidationError
from .geometry import IVec, convex_hull, hull_lattice_count, hull_lattice_points
from .gf2 import PhaseLine
from .realstruct import (
    EPS4,
    RealPhaseStructure,
    SignDistribution,
    TwistSet,
    phase_from_signs,
    phase_from_twists,
    signs_from_phase,
    twists_from_phase,
    twists_from_signs,
)

# the lattice points of honeycomb(100): a scenario curve whose Newton polygon
# has more is refused before any of them is listed
MAX_LATTICE_POINTS = 5151

_POINT_KEY = re.compile(r"^\(?\s*(-?\d+)\s*,\s*(-?\d+)\s*\)?$")


def parse_point_key(key: str, field: str) -> IVec:
    """A lattice point written "i,j" or "(i,j)"."""
    m = _POINT_KEY.match(key)
    if not m:
        raise ParseError(f"bad lattice point key {key!r}", field)
    try:
        return (int(m.group(1)), int(m.group(2)))
    except ValueError:  # a coordinate past sys.get_int_max_str_digits()
        raise ParseError("lattice point key has a coordinate with too many digits", field) from None


def _parse_point(value, field: str) -> IVec:
    """A lattice point written [i, j]."""
    if not (isinstance(value, list) and len(value) == 2 and all(type(c) is int for c in value)):
        raise ParseError(f"bad lattice point {value!r}", field)
    return (value[0], value[1])


def _parse_pair(value, field: str) -> tuple[IVec, IVec]:
    """Two lattice points [[i, j], [k, l]], sorted."""
    if not (isinstance(value, list) and len(value) == 2):
        raise ParseError(f"bad lattice segment {value!r}", field)
    a, b = sorted((_parse_point(value[0], field), _parse_point(value[1], field)))
    return a, b


def parse_eps(value, field: str) -> tuple[int, int]:
    """Symmetry bits written [b, b] or "b,b", each bit 0 or 1."""
    bits = value.split(",") if isinstance(value, str) else value
    if isinstance(bits, list) and len(bits) == 2 and all(str(b).strip() in ("0", "1") for b in bits):
        return (int(bits[0]), int(bits[1]))
    raise ValidationError(f"symmetry must be two bits, each 0 or 1, got {value!r}", field)


def check_lattice_point(curve: TropicalCurve, point: IVec, field: str) -> IVec:
    """The point, when it is a lattice point of the curve's Newton polygon."""
    if point not in curve.dual.lattice_points:
        raise ValidationError(f"{point} is not a lattice point of the Newton polygon", field)
    return point


def _parse_rational(value, field: str) -> Fraction:
    if isinstance(value, bool):
        raise ValidationError("coefficient must be an integer or a 'p/q' string", field)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ValidationError("float coefficients are not exact; use 'p/q' strings", field)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ValidationError(f"cannot parse rational {value!r}", field) from None
    raise ValidationError(f"cannot parse rational {value!r}", field)


def _rational_parts(value, field: str) -> tuple[int, int]:
    """The reduced numerator and denominator of a coefficient.  An int, or
    a string of ASCII digits "p", "-p", "p/q" or "-p/q", is read with int
    and gcd; any other value goes through ``_parse_rational``."""
    if type(value) is int:
        return value, 1
    if type(value) is str:
        num, slash, den = value.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        if digits.isascii() and digits.isdigit() and (not slash or (den.isascii() and den.isdigit())):
            try:
                p, q = int(num), int(den) if slash else 1
            except ValueError:  # past sys.get_int_max_str_digits()
                q = 0
            if q == 0:
                raise ValidationError(f"cannot parse rational {value!r}", field)
            g = gcd(p, q)
            return p // g, q // g
    x = _parse_rational(value, field)
    return x.numerator, x.denominator


def _format_rational(p: int, q: int):
    return p if q == 1 else f"{p}/{q}"


def _edge_key(pair) -> str:
    (a, b) = sorted((tuple(pair[0]), tuple(pair[1])))
    return f"{a[0]},{a[1]}|{b[0]},{b[1]}"


def _parse_edge_key(key: str, field: str) -> tuple[IVec, IVec]:
    parts = key.split("|")
    if len(parts) != 2:
        raise ParseError(f"bad edge key {key!r}", field)
    return (parse_point_key(parts[0], field), parse_point_key(parts[1], field))


def _claim(named: dict, item, key: str, what: str, field: str) -> None:
    """Record that ``key`` names ``item``; a second key for it is an error,
    not a silent overwrite."""
    first = named.setdefault(item, key)
    if first != key:
        raise ValidationError(f"keys {first!r} and {key!r} both name {what}", field)


@dataclass
class ScenarioSpec:
    """Normalized scenario contents (plain JSON-shaped data)."""

    curve: dict
    real_structure: dict
    second: dict | None = None
    query: dict | None = None


@dataclass
class Scenario:
    """Resolved scenario: concrete curve plus real structure objects."""

    curve: TropicalCurve
    delta: SignDistribution
    phase: RealPhaseStructure
    twists: TwistSet
    second: "Scenario | None" = None
    query: tuple[IVec, tuple[int, int]] | None = None


def _check_size(count: int, field: str) -> None:
    if count > MAX_LATTICE_POINTS:
        try:
            shown = str(count)
        except ValueError:  # past sys.get_int_max_str_digits()
            shown = "too many"
        raise ValidationError(
            f"the Newton polygon has {shown} lattice points, more than the cap of {MAX_LATTICE_POINTS}", field
        )


def _normalize_curve(data, field: str) -> tuple[dict, list[IVec]]:
    """The normalized curve and the lattice points of its Newton polygon,
    counted before they are listed."""
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
    # a support point's canonical key "i,j" is looked up; any other key is parsed
    keys = {f"{i},{j}": (i, j) for i, j in support}
    coeffs, named = {}, {}
    for key, value in data["coefficients"].items():
        pt = keys.get(key) or parse_point_key(key, f"{field}.coefficients")
        _claim(named, pt, key, f"the lattice point {pt}", field)
        coeffs[pt] = _rational_parts(value, f"{field}.coefficients[{key}]")
    missing = [p for p in support if p not in coeffs]
    if missing:
        raise ValidationError(f"support points {missing} have no coefficient", field)
    extra = coeffs.keys() - points
    if extra:
        raise ValidationError(f"coefficients given outside the support: {sorted(extra)}", field)
    curve = {
        "support": [list(p) for p in support],
        "coefficients": {key: _format_rational(*coeffs[pt]) for key, pt in keys.items()},
    }
    return curve, hull_lattice_points(hull)


def _normalize_structure(data, lattice: list[IVec], field: str) -> dict:
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
            keys = {f"{i},{j}": (i, j) for i, j in lattice}
            table, named = {}, {}
            for key, value in signs.items():
                pt = keys.get(key) or parse_point_key(key, f"{field}.signs")
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


def _members(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members; a key given twice is an error, not a
    silent overwrite."""
    out: dict = {}
    for key, value in pairs:
        if key in out:
            raise ParseError(f"key {key!r} appears twice in one object")
        out[key] = value
    return out


def load_spec(text: str) -> ScenarioSpec:
    """Parse and normalize a scenario file."""
    try:
        data = json.loads(text, object_pairs_hook=_members)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except ValueError:  # an integer past sys.get_int_max_str_digits()
        raise ParseError("invalid JSON: an integer has too many digits") from None
    except RecursionError:
        raise ParseError("invalid JSON: arrays or objects nested too deeply") from None
    if not isinstance(data, dict):
        raise ParseError("scenario must be a JSON object")
    unknown = set(data) - {"curve", "real_structure", "second", "query"}
    if unknown:
        raise ParseError(f"unknown top-level fields: {sorted(unknown)}")
    if "curve" not in data:
        raise ParseError("scenario needs a 'curve'", "curve")
    if "real_structure" not in data:
        raise ParseError("scenario needs a 'real_structure'", "real_structure")
    curve, lattice = _normalize_curve(data["curve"], "curve")
    structure = _normalize_structure(data["real_structure"], lattice, "real_structure")
    second = None
    if data.get("second") is not None:
        sec = data["second"]
        if not isinstance(sec, dict) or "curve" not in sec or "real_structure" not in sec:
            raise ParseError("'second' needs its own curve and real_structure", "second")
        sec_curve, sec_lattice = _normalize_curve(sec["curve"], "second.curve")
        second = {
            "curve": sec_curve,
            "real_structure": _normalize_structure(
                sec["real_structure"], sec_lattice, "second.real_structure"
            ),
        }
    query = None
    if data.get("query") is not None:
        q = data["query"]
        if not isinstance(q, dict) or "component" not in q:
            raise ParseError("query needs a 'component'", "query")
        comp = q["component"]
        if isinstance(comp, str):
            comp = parse_point_key(comp, "query.component")
        else:
            comp = _parse_point(comp, "query.component")
        eps = parse_eps(q.get("eps", [0, 0]), "query.eps")
        query = {"component": list(comp), "eps": list(eps)}
    return ScenarioSpec(curve=curve, real_structure=structure, second=second, query=query)


def save_spec(spec: ScenarioSpec) -> str:
    data: dict = {"curve": spec.curve, "real_structure": spec.real_structure}
    if spec.second is not None:
        data["second"] = spec.second
    if spec.query is not None:
        data["query"] = spec.query
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _build_curve(curve_data: dict) -> TropicalCurve:
    """The spec's curve: ``honeycomb(d)``, or the curve of the polynomial
    of its coefficients, each key read by ``parse_point_key`` and each
    value by ``_parse_rational``.  A spec made without ``load_spec`` is
    refused as ``TropicalPolynomial`` and ``curve_from_polynomial`` refuse
    it."""
    if "honeycomb" in curve_data:
        return honeycomb(curve_data["honeycomb"])
    return curve_from_polynomial(TropicalPolynomial({
        parse_point_key(k, "coefficients"): _parse_rational(v, "coefficients")
        for k, v in curve_data["coefficients"].items()
    }))


def _build_one(curve_data: dict, structure: dict) -> Scenario:
    curve = _build_curve(curve_data)
    if "signs" in structure:
        table = {
            parse_point_key(k, "signs"): v for k, v in structure["signs"].items()
        }
        delta = SignDistribution(table)
        delta.validate_for(curve)
        phase = phase_from_signs(curve, delta)
        twists = twists_from_signs(curve, delta)
    elif "twists" in structure:
        ids = []
        for a, b in structure["twists"]["edges"]:
            try:
                ids.append(curve.edge_by_dual(tuple(a), tuple(b)))
            except KeyError:
                raise ValidationError(f"{[a, b]} is not a dual edge of the curve", "twists") from None
        for eid in ids:
            if not curve.edges[eid].bounded:
                raise ValidationError("twists may only mark bounded edges", "twists")
        twists = TwistSet.from_edges(curve, ids)
        seed = None
        if "seed" in structure["twists"]:
            s = structure["twists"]["seed"]
            try:
                seed_edge = curve.edge_by_dual(tuple(s["edge"][0]), tuple(s["edge"][1]))
            except KeyError:
                raise ValidationError("seed edge is not a dual edge of the curve", "twists") from None
            seed = (seed_edge, (s["eps"][0], s["eps"][1]))
        phase = phase_from_twists(curve, twists, seed)
        delta = signs_from_phase(curve, phase)
    else:
        lines: list[PhaseLine | None] = [None] * len(curve.edges)
        for key, (a, b) in structure["phase"].items():
            pair = _parse_edge_key(key, "phase")
            try:
                eid = curve.edge_by_dual(*pair)
            except KeyError:
                raise ValidationError(f"{key} is not a dual edge of the curve", "phase") from None
            lines[eid] = PhaseLine(tuple(a), (a[0] ^ b[0], a[1] ^ b[1]))
        missing = [e.index for e in curve.edges if lines[e.index] is None]
        if missing:
            raise ValidationError(f"phase lines missing for edges {missing}", "phase")
        phase = RealPhaseStructure(tuple(lines))
        phase.validate_for(curve)
        delta = signs_from_phase(curve, phase)
        twists = twists_from_phase(curve, phase)
    return Scenario(curve=curve, delta=delta, phase=phase, twists=twists)


def build_scenario(spec: ScenarioSpec) -> Scenario:
    """Resolve a normalized spec into curve and structure objects."""
    scen = _build_one(spec.curve, spec.real_structure)
    if spec.second is not None:
        scen.second = _build_one(spec.second["curve"], spec.second["real_structure"])
    if spec.query is not None:
        comp = check_lattice_point(scen.curve, tuple(spec.query["component"]), "query.component")
        scen.query = (comp, tuple(spec.query["eps"]))
    return scen


# -- SVG rendering --------------------------------------------------------
#
# A figure coordinate is an exact rational kept as two ints, num/den with
# den > 0; a mapped point is the triple (x_num, y_num, den).  It is written
# as the whole part of n = floor(10^4 * num / den) and the decimal suffix of
# n mod 10^4, read from one table.  Where a coordinate is nonnegative by
# construction (the lattice points of panel 1, the vertices of panel 2 and
# every point of panel 3), render_svg writes n from its closed form inline,
# and its whole part, at most 730, from a second table.
#
# Panel 3 squashes each vertex once into its four quadrant coordinate
# strings.  A bounded edge adds its 7 interior samples tail + k * (head -
# tail)/8, k = 1..7, and a ray its 6 finite samples tail + t * direction,
# t = 1, 2, 4, 8, 16, 64 (in affine units, den on this frame), then its
# exact limit on the triangle's boundary.  One loop per edge squashes each
# sample and writes the coordinates of the edge's two drawn copies, the
# phase line's rep and rep ^ direction; each copy is one polyline.

_SUFFIXES: list[str] = []
# str(k) for k <= 730: every coordinate that render_svg writes from its
# closed form lies in [0, 730], so its whole part is read from this table
_WHOLES: list[str] = []


def _suffixes() -> list[str]:
    """The suffix of f/10^4 for every f < 10^4: "" for 0, then ".0001", ...,
    ".5", ....  Built on first use with ``_WHOLES``, so a process that never
    renders keeps no table."""
    if not _SUFFIXES:
        _SUFFIXES.extend(f".{f:04d}".rstrip("0") if f else "" for f in range(10_000))
        _WHOLES.extend(map(str, range(731)))
    return _SUFFIXES


def _fmt(num: int, den: int) -> str:
    """Fixed 4-decimal rendering of num/den, den > 0 (floor rounding)."""
    n = (10_000 * num) // den
    suffix = _SUFFIXES or _suffixes()
    if n < 0:
        whole, frac = divmod(-n, 10_000)
        return f"-{whole}{suffix[frac]}"
    return f"{n // 10_000}{suffix[n % 10_000]}"


def _pt(x: int, y: int, den: int) -> str:
    return f"{_fmt(x, den)},{_fmt(y, den)}"


def _triangle_point(a: int, b: int, den: int) -> tuple[int, int, int]:
    """Projective squash of the affine point (a/den, b/den) onto the open
    unit triangle, as (u, v, s) standing for (u/s, v/s).

    With M = max(0, a, b), A = den + M, B = A - a, C = A - b and
    S = AB + AC + BC the squash is (AC/S, AB/S).
    """
    big = den + max(0, a, b)
    ab, ac = big * (big - a), big * (big - b)
    return ac, ab, ab + ac + (big - a) * (big - b)


def _ray_limit(a: int, b: int, den: int, direction: IVec) -> tuple[int, int, int]:
    """Exact limit of the squash along the ray from (a/den, b/den), as
    (u, v, s) standing for (u/s, v/s)."""
    if direction == (-1, 0):
        big = den + max(0, b)
        return 0, big, 2 * big - b
    if direction == (0, -1):
        big = den + max(0, a)
        return big, 0, 2 * big - a
    if direction == (1, 1):
        c = b - a  # invariant along the ray
        if c >= 0:
            return den, den + c, 2 * den + c
        return den - c, den, 2 * den - c
    raise InvariantViolation(f"ray direction {direction} does not reach the boundary")


def _quadrant_strings(u: int, v: int, s: int) -> tuple[tuple[str, str], tuple[str, str]]:
    """The coordinates of the triangle point (u/s, v/s), 0 <= u, v <= s, in
    the quadrant panel, floor-rounded to 4 decimals: x = 600 + 130u/s and
    600 - 130u/s for eps0 = 0, 1, and y = 140 - 130v/s and 140 + 130v/s for
    eps1 = 0, 1.  One division per coordinate gives both signs, and every
    value is nonnegative."""
    suffix, whole = _SUFFIXES or _suffixes(), _WHOLES
    q, r = divmod(1_300_000 * u, s)
    x0, x1 = 6_000_000 + q, 6_000_000 - q - (r > 0)
    q, r = divmod(1_300_000 * v, s)
    y0, y1 = 1_400_000 - q - (r > 0), 1_400_000 + q
    return (
        (f"{whole[x0 // 10_000]}{suffix[x0 % 10_000]}", f"{whole[x1 // 10_000]}{suffix[x1 % 10_000]}"),
        (f"{whole[y0 // 10_000]}{suffix[y0 % 10_000]}", f"{whole[y1 // 10_000]}{suffix[y1 % 10_000]}"),
    )


# the interior samples of a bounded edge, at k/8 of the way from tail to
# head, and the finite samples of a ray, at t units along its direction
_EDGE_STEPS = range(1, 8)
_RAY_STEPS = (1, 2, 4, 8, 16, 64)


def _clip_region(curve: TropicalCurve, alpha: IVec, box: tuple[int, int, int, int], den: int):
    """Complement component of alpha clipped to the frame box
    x0 <= x <= x1, y0 <= y <= y1, the box on the frame 1/den (den a
    multiple of ``curve.frame.den``).

    Sutherland-Hodgman against the half-plane of every other support
    monomial, in support order: the frozenset of the frame's heights
    iterates as ``curve.poly.support`` does, without building ``poly``.
    A point is an int triple (X, Y, W) with W > 0 standing for
    (X/(W*den), Y/(W*den)); the crossing of the line F = 0 between points
    P and Q is Fp*Q - Fq*P (sign flipped so W > 0), reduced by its gcd."""
    x0, x1, y0, y1 = box
    poly = [(x0, y0, 1), (x1, y0, 1), (x1, y1, 1), (x0, y1, 1)]
    heights = curve.frame.heights
    k = den // curve.frame.den
    h_alpha = heights[alpha]
    for beta in frozenset(heights):
        if beta == alpha:
            continue
        # keep (alpha - beta) . X >= a_beta - a_alpha, times W * den
        nx, ny = alpha[0] - beta[0], alpha[1] - beta[1]
        c = k * (heights[beta] - h_alpha)
        values = [nx * x + ny * y - c * w for x, y, w in poly]
        out = []
        m = len(poly)
        for i in range(m):
            j = (i + 1) % m
            p, q, fp, fq = poly[i], poly[j], values[i], values[j]
            if fp >= 0:
                out.append(p)
            if fp * fq < 0:
                if fp < 0:
                    fp, fq = -fp, -fq
                x, y, w = fp * q[0] - fq * p[0], fp * q[1] - fq * p[1], fp * q[2] - fq * p[2]
                g = gcd(x, y, w)
                out.append((x // g, y // g, w // g))
        poly = out
        if not poly:
            break
    return poly


def render_svg(
    curve: TropicalCurve,
    phase: RealPhaseStructure | None = None,
    twists: TwistSet | None = None,
    locus=None,
    delta: SignDistribution | None = None,
) -> str:
    """Deterministic three-panel figure: dual subdivision, affine curve
    with twist markers and locus shading, and the four-quadrant real part."""
    parts: list[str] = []
    # the curve's integer frame times 8: vertex k is (verts[k][0]/den,
    # verts[k][1]/den), and edge samples at k/8 and edge midpoints stay on it
    frame = curve.frame
    den = 8 * frame.den
    verts = [(8 * x, 8 * y) for x, y in frame.vertices]
    xs = [v[0] for v in verts]
    ys = [v[1] for v in verts]
    x0, x1, y0, y1 = min(xs) - 2 * den, max(xs) + 2 * den, min(ys) - 2 * den, max(ys) + 2 * den
    span = max(x1 - x0, y1 - y0)

    suffix, whole = _SUFFIXES or _suffixes(), _WHOLES

    # panel 1: dual subdivision, the largest i + j at 120px.  Lattice points
    # are nonnegative (TropicalPolynomial refuses others), so every figure
    # coordinate here is nonnegative and 10^4 times it is one floor division.
    parts.append('<g id="dual" transform="translate(20,20)">')
    maxsum = max(1, max(p[0] + p[1] for p in curve.dual.lattice_points))
    lattice = {}
    dots = []
    for p in curve.dual.lattice_points:
        x = 1_200_000 * p[0] // maxsum
        y = (1_400_000 * maxsum - 1_200_000 * p[1]) // maxsum
        cx, cy = f"{whole[x // 10_000]}{suffix[x % 10_000]}", f"{whole[y // 10_000]}{suffix[y % 10_000]}"
        lattice[p] = f"{cx},{cy}"
        dots.append(f'<circle cx="{cx}" cy="{cy}" r="2.4" fill="#333"/>')
        if delta is not None:  # the label sits 4px right of and above the dot
            label = "+" if delta.signs[p] > 0 else "−"
            x, y = x + 40_000, y - 40_000
            dots.append(
                f'<text x="{whole[x // 10_000]}{suffix[x % 10_000]}" y="{whole[y // 10_000]}{suffix[y % 10_000]}"'
                f' font-size="9">{label}</text>'
            )
    for cell in curve.dual.cells:
        points = " ".join([lattice[p] for p in cell])
        parts.append(f'<polygon points="{points}" fill="#f6f2e8" stroke="#777" stroke-width="0.8"/>')
    parts.extend(dots)
    parts.append("</g>")

    # panel 2: affine curve, the frame box scaled to 220px
    def amap(a, b, k=1):
        """Figure point of the affine point (a/(k*den), b/(k*den))."""
        return (200 * span * k + 220 * (a - x0 * k), 20 * span * k + 220 * (y1 * k - b), span * k)

    parts.append('<g id="curve" transform="translate(0,0)">')
    box = " ".join(_pt(*amap(x, y)) for x, y in ((x0, y0), (x1, y0), (x1, y1), (x0, y1)))
    parts.append(f'<polygon points="{box}" fill="white" stroke="#aaa" stroke-width="0.8"/>')
    if locus:
        parts.append('<g id="locus">')
        for alpha in sorted(locus):
            region = _clip_region(curve, alpha, (x0, x1, y0, y1), den)
            if region:
                points = " ".join(_pt(*amap(x, y, w)) for x, y, w in region)
                parts.append(f'<polygon points="{points}" fill="#cfe6ff" stroke="none"/>')
        parts.append("</g>")
    # amap of a vertex, which lies at least 2 units inside the frame box
    vertex_xy = []
    dots = []
    for a, b in verts:
        x = 2_000_000 + 2_200_000 * (a - x0) // span
        y = 200_000 + 2_200_000 * (y1 - b) // span
        cx, cy = f"{whole[x // 10_000]}{suffix[x % 10_000]}", f"{whole[y // 10_000]}{suffix[y % 10_000]}"
        vertex_xy.append(f"{cx},{cy}")
        dots.append(f'<circle cx="{cx}" cy="{cy}" r="1.8" fill="#000"/>')
    for e in curve.edges:
        start = vertex_xy[e.tail]
        if e.bounded:
            end = vertex_xy[e.head]
        else:
            # the ray leaves the box (margin 2) at parameter n/k, in units of 1/den
            a, b = verts[e.tail]
            dx, dy = e.direction
            exits = []
            if dx:
                exits.append((x1 - a if dx > 0 else a - x0, abs(dx)))
            if dy:
                exits.append((y1 - b if dy > 0 else b - y0, abs(dy)))
            if len(exits) == 2 and exits[1][0] * exits[0][1] < exits[0][0] * exits[1][1]:
                exits.reverse()
            n, k = exits[0]
            end = _pt(*amap(a * k + dx * n, b * k + dy * n, k))
        parts.append(f'<polyline points="{start} {end}" fill="none" stroke="#222" stroke-width="1.6"/>')
    if twists is not None:
        parts.append('<g id="twist-markers">')
        for eid in sorted(twists.edges):
            e = curve.edges[eid]
            (a, b), (ha, hb) = verts[e.tail], verts[e.head]
            x, y, d = amap((a + ha) // 2, (b + hb) // 2)
            parts.append(f'<circle cx="{_fmt(x, d)}" cy="{_fmt(y, d)}" r="3.2" fill="#1f6fbf"/>')
        parts.append("</g>")
    parts.extend(dots)
    parts.append("</g>")

    # panel 3: four-quadrant real part on the diamond model
    parts.append('<g id="quadrants">')
    triangle = [_quadrant_strings(u, v, 1) for u, v in ((0, 0), (1, 0), (0, 1))]
    for e0, e1 in EPS4:
        points = " ".join([f"{xs[e0]},{ys[e1]}" for xs, ys in triangle])
        parts.append(f'<polygon points="{points}" fill="none" stroke="#bbb" stroke-width="0.8"/>')
    # mirror copies need the projective compactification, so a degree
    if phase is not None and curve.degree is not None:
        at_vertex = [_quadrant_strings(*_triangle_point(a, b, den)) for a, b in verts]
        lines = phase.lines
        for e in curve.edges:
            # the edge's two copies, rep and rep ^ direction: a PhaseLine
            # keeps rep the smaller, so they are in sorted order
            line = lines[e.index]
            (e0, e1), (d0, d1) = line.rep, line.direction
            f0, f1 = e0 ^ d0, e1 ^ d1
            # per copy, 10^4 times the rounded x and y are
            # 6000000 + (kx * u) // s and 1400000 + (ky * v) // s
            kx1, ky1 = -1_300_000 if e0 else 1_300_000, 1_300_000 if e1 else -1_300_000
            kx2, ky2 = -1_300_000 if f0 else 1_300_000, 1_300_000 if f1 else -1_300_000
            xs, ys = at_vertex[e.tail]
            one, two = [f"{xs[e0]},{ys[e1]}"], [f"{xs[f0]},{ys[f1]}"]
            a, b = verts[e.tail]
            if e.bounded:
                ha, hb = verts[e.head]
                sa, sb, steps = (ha - a) // 8, (hb - b) // 8, _EDGE_STEPS
                end = at_vertex[e.head]
            else:
                dx, dy = e.direction
                sa, sb, steps = dx * den, dy * den, _RAY_STEPS
                end = _quadrant_strings(*_ray_limit(a, b, den, e.direction))
            # each sample squashed as _triangle_point, then _quadrant_strings
            # for the two copies' coordinates, inline
            for t in steps:
                x, y = a + t * sa, b + t * sb
                big = x if x > y else y
                big = den + big if big > 0 else den
                bx, by = big - x, big - y
                ab, ac = big * bx, big * by
                s = ab + ac + bx * by
                n, m = 6_000_000 + kx1 * ac // s, 1_400_000 + ky1 * ab // s
                one.append(f"{whole[n // 10_000]}{suffix[n % 10_000]},{whole[m // 10_000]}{suffix[m % 10_000]}")
                n, m = 6_000_000 + kx2 * ac // s, 1_400_000 + ky2 * ab // s
                two.append(f"{whole[n // 10_000]}{suffix[n % 10_000]},{whole[m // 10_000]}{suffix[m % 10_000]}")
            xs, ys = end
            one.append(f"{xs[e0]},{ys[e1]}")
            two.append(f"{xs[f0]},{ys[f1]}")
            for points in (one, two):
                parts.append(
                    f'<polyline points="{" ".join(points)}" fill="none" stroke="#b03030" stroke-width="1.2"/>'
                )
    parts.append("</g>")

    body = "\n".join(parts)
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'width="760" height="300" viewBox="0 0 760 300">\n'
        f"{body}\n</svg>\n"
    )
