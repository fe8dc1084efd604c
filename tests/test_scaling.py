"""A scaling guard from deterministic call counts: a step quadratic in the
lattice points shows as a call count that grows faster than they do.

Each case counts the calls that ``cProfile`` sees at two sizes of
``honeycomb(d)`` and asserts that their ratio is at most 1.3 times the
ratio of the lattice points N = (d + 1)(d + 2) / 2.  Only ratios are
compared: comprehensions stop being calls in Python 3.12 (PEP 709), so
absolute counts differ between versions.  Work in a loop that calls
nothing is not counted.
"""

import contextlib
import cProfile
import io
import json
import pstats

import pytest

from tropcurve import TwistSet, honeycomb, hyperbolic_wrt_point, hyperbolicity_locus, phase_from_twists
from tropcurve.cli import main
from tropcurve.realstruct import EPS4

SLACK = 1.3


def _points(d: int) -> int:
    return (d + 1) * (d + 2) // 2


def _calls(fn, *args) -> int:
    prof = cProfile.Profile()
    prof.runcall(fn, *args)
    return pstats.Stats(prof).total_calls


def _assert_near_linear(counts: dict[int, int], small: int, large: int) -> None:
    calls, points = counts[large] / counts[small], _points(large) / _points(small)
    assert calls <= SLACK * points, f"calls x{calls:.2f} against N x{points:.2f} from d={small} to d={large}"


def _cli(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0


def _sweep(curve, phase) -> None:
    for alpha in curve.dual.lattice_points:
        for eps in EPS4:
            hyperbolic_wrt_point(curve, phase, alpha, eps)


def test_a_point_sweep_after_one_locus_is_linear_in_the_lattice_points():
    """Every copy's point query on the fully twisted honeycomb, a
    hyperbolic phase, once its locus is known: each query reads one atom
    of the face tree the phase keeps."""
    counts = {}
    for d in (10, 20):
        curve = honeycomb(d)
        phase = phase_from_twists(curve, TwistSet.from_edges(curve, curve.bounded_edges))
        assert hyperbolicity_locus(curve, phase).hyperbolic
        counts[d] = _calls(_sweep, curve, phase)
    _assert_near_linear(counts, 10, 20)


@pytest.mark.parametrize(
    "argv",
    [["build"], ["analyze"], ["hyperbolic"], ["hyperbolic", "--point", "(1,1)"]],
    ids=["build", "analyze", "hyperbolic", "hyperbolic --point"],
)
def test_a_cli_command_is_near_linear_in_the_lattice_points(argv, tmp_path):
    """``tropcurve.cli.main`` in process on an all-plus honeycomb, after
    a first run at d = 4, left out of the ratio, that fills whatever the
    process keeps between calls."""
    counts = {}
    for d in (4, 20, 40):
        spec = tmp_path / f"d{d}.trop.json"
        spec.write_text(json.dumps({"curve": {"honeycomb": d}, "real_structure": {"signs": "all+"}}))
        counts[d] = _calls(_cli, [argv[0], "--spec", str(spec), *argv[1:]])
    _assert_near_linear(counts, 20, 40)
