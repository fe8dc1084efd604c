"""The timing tools under ``tools/`` run against the current library: each
tool's per-seed function on seed 1 with one repeat, the construction
ladder on small degrees, every table ``first_use`` times on a fresh curve,
each timing tool as a script, with the shared ``harness`` it imports, and
the collections ``loop_gc`` counts inside a workload's passes."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from tropcurve import honeycomb

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool(name):
    if str(TOOLS) not in sys.path:
        sys.path.insert(0, str(TOOLS))  # as for a script: the tools import ``harness`` beside them
    spec = importlib.util.spec_from_file_location(f"tools_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_first_use_times_every_table_of_the_locus_workload():
    first_use = _tool("first_use")
    out = first_use.first_use(1, 1)
    assert out["curves"] > 0
    assert set(first_use.LOCUS) <= set(out["ms"])
    assert out["locus_sum_ms"] > 0


def test_first_use_tables_build_on_a_fresh_curve():
    first_use = _tool("first_use")
    curve = honeycomb(3)
    for name, use in first_use._tables():
        assert use(curve) is not None, name


@pytest.mark.parametrize("name", ["construct_stages", "intersect_stages", "patchwork_stages"])
def test_stage_tools_time_every_stage(name):
    tool = _tool(name)
    out = tool.stages(1, 1)
    assert out["ops"] > 0
    assert out["pass"].keys() == {f"{stage}_ms" for stage in tool.STAGES}


def test_construct_ladder_times_the_given_degrees():
    out = _tool("construct_stages").ladder((3, 4))
    assert list(out) == ["d3", "d4"]
    assert [row["edges"] for row in out.values()] == [len(honeycomb(d).edges) for d in (3, 4)]
    assert all(row["build_ms"] >= 0 and row["render_svg_ms"] >= 0 for row in out.values())


# per script: its top-level keys, the keys of its seed-1 entry and of a ladder row
_SCRIPT_KEYS = {
    "construct_stages": (["python", "stages", "ladder"], ["ops", "refused", "groups", "pass"],
                         ["edges", "build_ms", "render_svg_ms"]),
    "patchwork_stages": (["python", "stages"], ["ops", "groups", "pass"], None),
    "intersect_stages": (["python", "stages"], ["ops", "solved", "refused", "groups", "pass"], None),
    "first_use": (["python", "first_use", "ladder"], ["curves", "ms", "locus_sum_ms"], ["edges", "cold_ms", "warm_ms"]),
}


@pytest.mark.parametrize("name", list(_SCRIPT_KEYS))
def test_tools_run_as_scripts(name):
    tool = _tool(name)
    run = subprocess.run([sys.executable, str(TOOLS / f"{name}.py"), "--seeds", "1", "--repeats", "1"],
                         capture_output=True, text=True, check=True)
    out = json.loads(run.stdout)
    top, per_seed, ladder_row = _SCRIPT_KEYS[name]
    assert list(out) == top
    seed1 = out[top[1]]["seed1"]
    assert list(seed1) == per_seed
    if "refused" in seed1:
        assert list(seed1["refused"]) == list(tool.STAGES)
    if "solved" in seed1:
        assert seed1["solved"] > 0
    if "groups" in seed1:
        stage_keys = [f"{stage}_ms" for stage in tool.STAGES]
        assert list(seed1["pass"]) == stage_keys
        assert all(list(row) == ["ops", *stage_keys] for row in seed1["groups"].values())
        assert sum(row["ops"] for row in seed1["groups"].values()) == seed1["ops"] > 0
    if ladder_row:
        degrees = tool.harness.LADDER
        assert list(out["ladder"]) == [f"d{d}" for d in degrees]
        assert all(list(row) == ladder_row for row in out["ladder"].values())
        assert [row["edges"] for row in out["ladder"].values()] == [len(honeycomb(d).edges) for d in degrees]


def test_loop_gc_counts_the_collections_inside_the_passes():
    loop_gc = _tool("loop_gc")
    one = loop_gc.loop_gc("patchwork", 1, 1)
    assert list(one) == ["passes", "ops", "loop_ms", "collections", "ms"]
    assert one["passes"] == 1 and one["ops"] > 0 and one["loop_ms"] > 0
    assert len(one["collections"]) == len(one["ms"]) == 3
    run = subprocess.run([sys.executable, str(TOOLS / "loop_gc.py"), "--seeds", "1", "--workloads", "patchwork"],
                         capture_output=True, text=True, check=True)
    out = json.loads(run.stdout)
    assert list(out) == ["python", "seconds", "loop_gc"] and list(out["loop_gc"]) == ["patchwork"]
    seed1 = out["loop_gc"]["patchwork"]["seed1"]
    # the benchmark's pass count for its run_seconds, each pass the same ops
    assert seed1["passes"] > 1 and seed1["ops"] == seed1["passes"] * one["ops"]
    assert all(n >= 0 for n in seed1["collections"]) and sum(seed1["collections"]) > 0


def test_reach_lists_the_functions_one_demo_leaves_unreached():
    reach = _tool("reach")
    demo = TOOLS.parent / "demos" / "01_tropical_curves.py"
    missed = {line.split()[0] for line in reach.unreached([lambda: reach.run_demo(demo)])}
    assert {"selfcheck.run_check", "cli.main", "io_render.load_spec"} <= missed
    assert not {"curve.honeycomb", "curve.curve_from_polynomial", "io_render.render_svg"} & missed
    assert len(missed) < len(reach.functions())


# the functions that no production entry point reaches, each kept on purpose
_KEPT_UNREACHED = {
    "curve.TropicalCurve.dominating",  # named in README beside argmax
    "curve._Record.__hash__",  # a record's frozen-dataclass hash, pinned in test_curve
    "curve._Record.__repr__",  # a record's frozen-dataclass repr, pinned in test_curve
    "gf2.AffineFlat.enumerate",  # the brute force the GF(2) tests check against
    "gf2.Gf2Subspace.enumerate",  # the brute force the GF(2) tests check against
    "intersect.IntersectionComponent.__repr__",  # pinned in test_intersect
    "io_render._parse_rational",  # reads the spellings of a rational that int does not
    "io_render.save_spec",  # its round trip through load_spec pins the parser
    "selfcheck.is_generic",  # named in README as a route of the pencil sweep
    "selfcheck.relative_twist_signs",  # named in README as the sign-based sidedness rule
}


def test_reach_leaves_only_the_kept_functions_unreached():
    run = subprocess.run([sys.executable, str(TOOLS / "reach.py"), "--seed", "1"],
                         capture_output=True, text=True, check=True, timeout=300)
    *missed, last = run.stdout.splitlines()
    assert {line.split()[0] for line in missed} == _KEPT_UNREACHED
    total = len(_tool("reach").functions())
    assert last == f"reached {total - len(_KEPT_UNREACHED)} of {total} functions"
