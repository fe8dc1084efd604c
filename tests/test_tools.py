"""The timing tools under ``tools/`` run against the current library: each
tool's per-seed function on seed 1 with one repeat (the d >= 20 ladders
are left out), and every table ``first_use`` times on a fresh curve."""

import importlib.util
from pathlib import Path

import pytest

from tropcurve import honeycomb

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool(name):
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


@pytest.mark.parametrize("name", ["construct_stages", "intersect_stages"])
def test_stage_tools_time_every_stage(name):
    tool = _tool(name)
    out = tool.stages(1, 1)
    assert out["ops"] > 0
    assert out["pass"].keys() == {f"{stage}_ms" for stage in tool.STAGES}


def test_reach_lists_the_functions_one_demo_leaves_unreached():
    reach = _tool("reach")
    demo = TOOLS.parent / "demos" / "01_tropical_curves.py"
    missed = {line.split()[0] for line in reach.unreached([lambda: reach.run_demo(demo)])}
    assert {"selfcheck.run_check", "cli.main", "io_render.load_spec"} <= missed
    assert not {"curve.honeycomb", "curve.curve_from_polynomial", "io_render.render_svg"} & missed
    assert len(missed) < len(reach.functions())
