"""The tools under ``tools/`` run against the current library: one A/A
round of every stage ``ab.py`` times, with the keys of its records, its
refusals, and ``ab.py`` as a script; every table a ``first_use`` stage
times on a fresh curve; the collections ``loop_gc`` counts inside a
workload's passes; and the functions ``reach`` finds unreached."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import tropcurve
from tropcurve import honeycomb

TOOLS = Path(__file__).resolve().parent.parent / "tools"
SRC = TOOLS.parent / "src"


def _tool(name):
    if str(TOOLS) not in sys.path:
        sys.path.insert(0, str(TOOLS))  # as for a script: the tools import ``harness`` beside them
    spec = importlib.util.spec_from_file_location(f"tools_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def every_stage():
    """One A/A round of every stage at seed 1, run in this process."""
    ab = _tool("ab")
    return ab.harness, ab.run(SRC, None, list(ab.harness.STAGES), [1], 1)


def test_ab_records_each_side_of_every_stage(every_stage):
    harness, out = every_stage
    assert list(out) == ["python", "base", "change", "seeds", "rounds", "stages"]
    assert out["base"] == out["change"] == str(SRC) and out["rounds"] == 1
    assert list(out["stages"]) == list(harness.STAGES)
    for name, stage in out["stages"].items():
        assert list(stage) == ["base", "change", "ratio", "won", "groups"], name
        for record in [stage, *stage["groups"].values()]:
            assert list(record) == ["base", "change", "ratio", "won"] + (["groups"] if record is stage else [])
            for side in ("base", "change"):
                assert list(record[side]) == ["ops", "refused", "median_ms", "iqr_ms"]
                assert record[side]["median_ms"] > 0 and record[side]["iqr_ms"] == 0
            # an A/A run: both sides ran the same ops and refused the same
            assert record["base"]["ops"] == record["change"]["ops"] > 0, name
            assert record["base"]["refused"] == record["change"]["refused"], name
            assert record["ratio"] > 0 and record["won"] in (0, 1)
        assert stage["base"]["ops"] == sum(g["base"]["ops"] for g in stage["groups"].values())


@pytest.mark.parametrize("workload", ["construct", "intersect", "patchwork"])
def test_workload_stages_time_every_step(every_stage, workload):
    harness, out = every_stage
    names = [name for name in out["stages"] if name.startswith(f"{workload}.")]
    assert names == [f"{workload}.{step}" for step in harness.CHAINS[workload][1]]
    if workload == "construct":  # the perturbed lifts a build refuses skip the later steps
        refused = out["stages"]["construct.build"]["base"]["refused"]
        assert refused > 0
        assert out["stages"]["construct.render_svg"]["base"]["ops"] == \
            out["stages"]["construct.build"]["base"]["ops"] - refused


def test_first_use_times_every_table_of_the_locus_workload(every_stage):
    harness, out = every_stage
    curves = {id(op.data["curve"]) for op in harness.Side(SRC, "base").ops("locus", [1])}
    for name in harness.TABLES:
        assert out["stages"][f"first_use.{name}"]["base"]["ops"] == len(curves) > 0


def test_first_use_tables_build_on_a_fresh_curve():
    side = SimpleNamespace(tc=tropcurve)
    results = {"curve_from_polynomial": honeycomb(3)}
    for name, step in list(_tool("ab").harness.TABLES.items())[1:]:
        fn, args = step(side, results, None)
        assert fn(*args) is not None, name


def test_construct_ladder_times_the_given_degrees(every_stage):
    harness, out = every_stage
    for name in harness.HONEYCOMB:
        groups = out["stages"][f"honeycomb.{name}"]["groups"]
        assert list(groups) == [f"d{d}" for d in harness.LADDER]
        assert all(g["base"]["ops"] == 1 for g in groups.values())


def test_a_side_runs_the_workloads_on_its_own_tree():
    harness = _tool("ab").harness
    before = {name: sys.modules.get(name) for name in ("tropcurve", "tropcurve.io_render", "workloads", "spans")}
    side = harness.Side(SRC, "base")
    assert side.tc.__name__ == "tropcurve_base"
    assert side.workloads.render_svg is side.tc.io_render.render_svg
    assert side.spans.REFUSALS[0].__module__ == "tropcurve_base.errors"
    assert {name: sys.modules.get(name) for name in before} == before


def test_ab_refuses_a_tree_without_the_package_and_sides_that_differ(tmp_path, monkeypatch):
    ab = _tool("ab")
    with pytest.raises(SystemExit, match=r"^error: .* has no tropcurve/__init__.py"):
        ab.run(tmp_path, None, ["construct.load_spec"], [1], 1)
    with pytest.raises(SystemExit, match=r"^error: .* has no tropcurve/__init__.py"):
        ab.run(SRC, tmp_path, ["construct.load_spec"], [1], 1)
    # a stage whose set-up builds one op on the base and two on the change
    lopsided = (lambda side, seeds: {"g": [()] * (1 + side.tc.__name__.endswith("change"))},
                lambda side, item: (int, item))
    monkeypatch.setitem(ab.harness.STAGES, "lopsided", lopsided)
    with pytest.raises(SystemExit, match=r"^error: lopsided: the sides built different op counts"):
        ab.run(SRC, None, ["lopsided"], [1], 1)


# per stage set: cheap stages of it for ``ab.py`` run as a script
_SCRIPT_STAGES = {
    "construct_stages": ["construct.load_spec", "honeycomb.build"],
    "first_use": ["first_use._Base", "honeycomb.locus_cold"],
    "intersect_stages": ["intersect.edge_hits"],
    "patchwork_stages": ["patchwork.signs_from_phase"],
}


@pytest.mark.parametrize("name", list(_SCRIPT_STAGES))
def test_tools_run_as_scripts(name):
    stages = _SCRIPT_STAGES[name]
    run = subprocess.run([sys.executable, str(TOOLS / "ab.py"), "--base", str(SRC), "--stage", *stages,
                          "--seeds", "1", "--rounds", "2"],
                         capture_output=True, text=True, check=True)
    out = json.loads(run.stdout)
    assert list(out) == ["python", "base", "change", "seeds", "rounds", "stages"]
    assert list(out["stages"]) == stages
    assert out["rounds"] == 2 and out["seeds"] == [1]
    for stage in out["stages"].values():
        assert stage["groups"] and 0 <= stage["won"] <= 2
        assert stage["base"]["ops"] == stage["change"]["ops"] == sum(g["base"]["ops"] for g in stage["groups"].values())


def test_ab_refuses_an_unknown_stage_as_a_script():
    bad = subprocess.run([sys.executable, str(TOOLS / "ab.py"), "--base", str(SRC), "--stage", "construct.nothing"],
                         capture_output=True, text=True)
    assert bad.returncode != 0 and "error:" in bad.stderr and not bad.stdout


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
    "gf2.Gf2Vector.__xor__",  # serves AffineFlat.enumerate, and test_realstruct adds twist vectors with it
    "gf2.solve_affine",  # the reference that phase_from_twists and the GF(2) brute-force tests check against
    "intersect.IntersectionComponent.__repr__",  # pinned in test_intersect
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
