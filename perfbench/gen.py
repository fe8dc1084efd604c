"""Seeded input generator for the benchmark.

Every draw takes a ``random.Random`` derived from the workload seed, so one
seed gives the same inputs on every run and on every commit.  The library
only ever sees the generated coefficients, signs and scenario texts.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction


def workload_rng(workload: str, seed: int, stream: str = "") -> random.Random:
    # str seeds are hashed with SHA-512, independent of PYTHONHASHSEED
    return random.Random(f"{workload}:{seed}:{stream}")


def lattice(d: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(d + 1) for j in range(d + 1 - i)]


def near_honeycomb_coefficients(rng: random.Random, d: int) -> dict:
    """The concave lift of ``selfcheck.random_nonsingular_curve``:
    -2(i^2+ij+j^2) plus noise in [0, 2) on a 1/8 grid."""
    return {
        (i, j): Fraction(-16 * (i * i + i * j + j * j) + rng.randrange(16), 8)
        for i, j in lattice(d)
    }


def perturbed_coefficients(rng: random.Random, d: int) -> dict:
    """A random negative definite quadratic form -(a i^2 + b ij + c j^2)
    plus noise in [-1, 1] on a 1/8 grid.

    The form's reduced lattice basis decides the shape of the cells, so
    non-honeycomb subdivisions occur; the noise breaks concavity often
    enough that some draws are singular (the natural rejection rate).
    """
    while True:
        a, c = rng.randint(1, 6), rng.randint(1, 6)
        b = rng.randint(-2 * min(a, c), 2 * min(a, c))
        if b * b < 4 * a * c:
            break
    return {
        (i, j): Fraction(-8 * (a * i * i + b * i * j + c * j * j) + rng.randint(-8, 8), 8)
        for i, j in lattice(d)
    }


def coefficients(rng: random.Random, kind: str, d: int) -> dict:
    if kind == "near":
        return near_honeycomb_coefficients(rng, d)
    if kind == "perturbed":
        return perturbed_coefficients(rng, d)
    raise ValueError(f"no coefficient draw for kind {kind!r}")


def random_signs(rng: random.Random, points) -> dict:
    return {p: rng.choice((1, -1)) for p in sorted(points)}


def _key(p) -> str:
    return f"{p[0]},{p[1]}"


def _rational(x: Fraction):
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def curve_json(d: int, coeffs: dict | None) -> dict:
    """Scenario ``curve`` field: a canonical honeycomb when coeffs is None."""
    if coeffs is None:
        return {"honeycomb": d}
    support = sorted(coeffs)
    return {
        "support": [list(p) for p in support],
        "coefficients": {_key(p): _rational(coeffs[p]) for p in support},
    }


def signs_json(signs: dict) -> dict:
    return {"signs": {_key(p): s for p, s in sorted(signs.items())}}


def twists_json(curve, edge_ids) -> dict:
    pairs = sorted(sorted(list(p) for p in curve.edges[e].dual) for e in edge_ids)
    return {"twists": {"edges": pairs}}


def scenario_text(curve: dict, real_structure: dict) -> str:
    """A ``.trop.json`` file body, formatted like ``io_render.save_spec``."""
    return json.dumps({"curve": curve, "real_structure": real_structure}, sort_keys=True, indent=2) + "\n"


def parse_key(key: str) -> tuple[int, int]:
    i, j = key.split(",")
    return (int(i), int(j))
