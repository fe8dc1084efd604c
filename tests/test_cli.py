import copy
import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tropcurve import intersection_components
from tropcurve.cli import main
from tropcurve.errors import UnsupportedConfiguration, ValidationError
from tropcurve.io_render import build_scenario, load_spec
from tropcurve.realstruct import _face_tree


@pytest.fixture
def specs(tmp_path):
    paths = {}

    def write(name, data):
        p = tmp_path / name
        p.write_text(json.dumps(data))
        paths[name] = str(p)

    write(
        "stable_quartic.trop.json",
        {"curve": {"honeycomb": 4}, "real_structure": {"signs": "all+"}},
    )
    write(
        "empty_twists_d4.trop.json",
        {"curve": {"honeycomb": 4}, "real_structure": {"twists": {"edges": []}}},
    )
    write(
        "line.trop.json",
        {
            "curve": {
                "support": [[0, 0], [1, 0], [0, 1]],
                "coefficients": {"0,0": 0, "1,0": "-13/7", "0,1": "-8/11"},
            },
            "real_structure": {"signs": "all+"},
        },
    )
    write(
        "line_origin.trop.json",
        {
            "curve": {
                "support": [[0, 0], [1, 0], [0, 1]],
                "coefficients": {"0,0": 0, "1,0": 0, "0,1": 0},
            },
            "real_structure": {"signs": "all+"},
        },
    )
    write("broken.trop.json", {"curve": {"honeycomb": 4}})
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build(specs, capsys):
    code, out, _ = run(capsys, "build", "--spec", specs["stable_quartic.trop.json"])
    assert code == 0
    assert "vertices: 16" in out
    assert "complement_components: 15" in out


def test_analyze_stable_quartic(specs, capsys):
    code, out, _ = run(
        capsys, "analyze", "--spec", specs["stable_quartic.trop.json"], "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["twist_count"] == 18
    assert data["admissible"] and data["dividing"]
    assert data["components_matrix"] == data["components_direct"] == 2


def test_analyze_empty_twists(specs, capsys):
    code, out, _ = run(
        capsys, "analyze", "--spec", specs["empty_twists_d4.trop.json"], "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["components_matrix"] == 4  # 1 + genus
    assert data["dividing"]


def test_hyperbolic_report(specs, capsys):
    code, out, _ = run(
        capsys, "hyperbolic", "--spec", specs["stable_quartic.trop.json"], "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["hyperbolic"] is True
    assert data["locus_size"] == 15
    assert data["stable"] is True
    assert set(data) == {
        "hyperbolic", "kernel_dim", "component_count", "stable", "locus", "signed_locus",
        "locus_size",
    }


def _point_json(component, failing_condition, detail):
    return json.dumps({
        "component": list(component), "detail": detail, "eps": [0, 0],
        "failing_condition": failing_condition, "hyperbolic": failing_condition is None,
    }, sort_keys=True, indent=2) + "\n"


def test_hyperbolic_single_point(specs, capsys):
    argv = ("hyperbolic", "--spec", specs["stable_quartic.trop.json"], "--point", "(1,1)", "--eps", "0,0")
    assert run(capsys, *argv) == (0, "point (1,1) eps=(0, 0): hyperbolic\n", "")
    assert run(capsys, *argv, "--format", "json") == (0, _point_json((1, 1), None, ""), "")


# the reproducer conic of tests/test_hyperbolic.py: hyperbolic, and its
# copy ((0,0),(0,0)) lies outside the one oval
_OUTER_COPY_CONIC = {
    "curve": {
        "support": [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [2, 0]],
        "coefficients": {"0,0": -6, "0,1": -2, "0,2": "2/3", "1,0": -1, "1,1": 6, "2,0": "1/3"},
    },
    "real_structure": {"signs": {"0,0": -1, "0,1": 1, "0,2": -1, "1,0": -1, "1,1": -1, "2,0": -1}},
}
# a quartic whose only negative sign is at (0,2): its twist set is not dividing
_NOT_DIVIDING_QUARTIC = {
    "curve": {"honeycomb": 4},
    "real_structure": {"signs": {f"{i},{j}": -1 if (i, j) == (0, 2) else 1 for i in range(5) for j in range(5 - i)}},
}


@pytest.mark.parametrize(
    "scenario, point, condition, detail",
    [
        (_NOT_DIVIDING_QUARTIC, (1, 1), 1, "the twist set is not dividing"),
        ({"curve": {"honeycomb": 4}, "real_structure": {"twists": {"edges": []}}}, (1, 1), 2,
         "the twist-matrix kernel has dimension 3, not 1"),
        (_OUTER_COPY_CONIC, (0, 0), 3, "the copy ((0, 0), (0, 0)) lies outside the innermost oval"),
    ],
    ids=["not-dividing", "kernel-dimension", "outside-the-innermost-oval"],
)
def test_hyperbolic_point_reasons(scenario, point, condition, detail, tmp_path, capsys):
    spec = tmp_path / "point.trop.json"
    spec.write_text(json.dumps(scenario))
    argv = ("hyperbolic", "--spec", str(spec), "--point", f"({point[0]},{point[1]})", "--eps", "0,0")
    text = f"point ({point[0]},{point[1]}) eps=(0, 0): not hyperbolic (condition {condition}: {detail})\n"
    assert run(capsys, *argv) == (0, text, "")
    assert run(capsys, *argv, "--format", "json") == (0, _point_json(point, condition, detail), "")


def test_intersect_generic_line(specs, capsys):
    code, out, _ = run(
        capsys,
        "intersect", "--a", specs["line.trop.json"], "--b", specs["stable_quartic.trop.json"],
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 4
    assert data["total_multiplicity"] == 4


def test_intersect_unsupported_exits_2(specs, capsys):
    code, _, err = run(
        capsys,
        "intersect", "--a", specs["line_origin.trop.json"], "--b", specs["line_origin.trop.json"],
    )
    assert code == 2
    assert "unsupported" in err.lower()


def test_validation_error_exits_1(specs, capsys):
    code, _, err = run(capsys, "build", "--spec", specs["broken.trop.json"])
    assert code == 1
    assert "real_structure" in err


def test_unknown_flag_exits_1(specs, capsys):
    assert main(["build", "--spec", specs["stable_quartic.trop.json"], "--bogus"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert "verify" in capsys.readouterr().out


def test_reports_are_byte_identical(specs, capsys):
    outs = set()
    for _ in range(2):
        _, out, _ = run(
            capsys, "hyperbolic", "--spec", specs["stable_quartic.trop.json"], "--format", "json"
        )
        outs.add(out)
    assert len(outs) == 1


def test_render_to_file(specs, capsys, tmp_path):
    out_path = tmp_path / "fig.svg"
    code, _, _ = run(
        capsys, "render", "--spec", specs["stable_quartic.trop.json"], "--out", str(out_path)
    )
    assert code == 0
    assert out_path.read_text().startswith("<svg ")


def test_verify_green(specs, capsys):
    code, out, _ = run(capsys, "verify", "--seed", "1", "--trials", "6")
    assert code == 0
    assert "MISMATCH" not in out


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_verify_refuses_fewer_than_one_trial(trials, capsys):
    # such a run would report "ok" for checks that drew no input
    code, out, err = run(capsys, "verify", "--trials", trials)
    assert (code, out) == (1, "")
    assert err == f"error: tropcurve verify: argument --trials: must be at least 1, not {trials}\n"


def test_verify_mismatch_exits_3(specs, capsys, monkeypatch):
    import tropcurve.selfcheck as sc

    def broken(seed=0, trials=25):
        return [sc.CheckResult("component-counts", False, "forced for the test")]

    monkeypatch.setattr(sc, "run_all", broken)
    code, out, _ = run(capsys, "verify")
    assert code == 3
    assert "MISMATCH" in out


def test_verify_reports_a_raising_check_as_a_mismatch(capsys, monkeypatch):
    import tropcurve.selfcheck as sc

    def broken(curve, phase):
        raise AssertionError("oval nesting must be a chain")

    monkeypatch.setattr(sc, "hyperbolicity_locus", broken)
    code, out, err = run(capsys, "verify", "--trials", "1")
    assert code == 3
    assert "locus-routes: MISMATCH (AssertionError: oval nesting must be a chain)\n" in out
    assert "rank-nullity: ok" in out and "intersection-routes: ok" in out
    assert err == ""


_CONIC = {"curve": {"honeycomb": 2}, "real_structure": {"signs": "all+"}}
_TWIST_EDGE = [[0, 1], [1, 0]]
# the unit square has no degree d, so it has no locus to read a point verdict off
_SQUARE = {
    "curve": {
        "support": [[0, 0], [1, 0], [0, 1], [1, 1]],
        "coefficients": {"0,0": 0, "1,0": "-1/2", "0,1": "-1/3", "1,1": -2},
    },
    "real_structure": {"signs": "all+"},
}


@pytest.mark.parametrize(
    "scenario, extra",
    [
        (dict(_CONIC, query={"component": [1, 0], "eps": ["a", 0]}), []),
        (dict(_CONIC, query={"component": [1, 0], "eps": [0]}), []),
        (dict(_CONIC, query={"component": [1, 0], "eps": [5, 0]}), []),
        (dict(_CONIC, query={"component": [1]}), []),
        (dict(_CONIC, real_structure={"twists": {"edges": [[1, 2]]}}), []),
        (dict(_CONIC, real_structure={"twists": {"edges": [_TWIST_EDGE], "seed": {"edge": 5}}}), []),
        (_CONIC, ["--point", "(1,0)", "--eps", "a,b"]),
        (_CONIC, ["--point", "(1,0)", "--eps", "1"]),
        (_CONIC, ["--point", "(9,9)"]),
        (dict(_CONIC, real_structure={"twists": {"edges": [], "seed": {"edge": _TWIST_EDGE, "eps": [2, 0]}}}), []),
        (dict(_CONIC, real_structure={"phase": {"0,0|1,0": [["a", 0], [0, 1]]}}), []),
        ({"curve": {"support": [], "coefficients": {}}, "real_structure": {"signs": "all+"}}, []),
        ({"curve": {"honeycomb": 1}, "real_structure": {"signs": {"0,0": True, "1,0": 1, "0,1": 1}}}, []),
        (b"\xff\xfe not UTF-8", []),
        (_SQUARE, ["--point", "(0,0)"]),
        (_CONIC, ["--eps", "7,7"]),
        (_CONIC, ["--eps", "1,1"]),
        (dict(_CONIC, query={"component": [1, 0], "eps": [0, 0]}), ["--eps", "7,7"]),
        (_CONIC, ["render", "--format", "json"]),
    ],
    ids=[
        "query-eps-not-bits", "query-eps-short", "query-eps-out-of-range", "query-component-short",
        "twist-edge-not-points", "twist-seed-not-edge", "eps-flag-not-bits", "eps-flag-short",
        "point-flag-off-polygon", "twist-seed-eps-out-of-range", "phase-element-not-bits",
        "empty-support", "sign-not-int", "file-not-utf8", "point-query-without-degree",
        "eps-flag-out-of-range-without-query", "eps-flag-without-query",
        "eps-flag-out-of-range-with-query", "render-format-flag",
    ],
)
def test_malformed_field_or_flag_exits_1(scenario, extra, tmp_path, capsys):
    spec = tmp_path / "bad.trop.json"
    if isinstance(scenario, bytes):
        spec.write_bytes(scenario)
    else:
        spec.write_text(json.dumps(scenario))
    # extra may start with a subcommand other than hyperbolic
    command, extra = (extra[0], extra[1:]) if extra and not extra[0].startswith("-") else ("hyperbolic", extra)
    code, out, err = run(capsys, command, "--spec", str(spec), *extra)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_eps_flag_overrides_query_eps(tmp_path, capsys):
    spec = tmp_path / "query.trop.json"
    spec.write_text(json.dumps(dict(_CONIC, query={"component": [1, 0], "eps": [0, 0]})))
    code, out, _ = run(capsys, "hyperbolic", "--spec", str(spec), "--eps", "1,1")
    assert code == 0
    assert out.startswith("point (1,0) eps=(1, 1): ")
    code, out_json, _ = run(capsys, "hyperbolic", "--spec", str(spec), "--eps", "1,1", "--format", "json")
    assert code == 0
    assert json.loads(out_json)["eps"] == [1, 1]
    plain = tmp_path / "plain.trop.json"
    plain.write_text(json.dumps(_CONIC))
    code, out_flags, _ = run(capsys, "hyperbolic", "--spec", str(plain), "--point", "(1,0)", "--eps", "1,1")
    assert (code, out_flags) == (0, out)


def test_render_locus_is_byte_identical_across_processes(specs):
    src = str(Path(__file__).resolve().parent.parent / "src")
    for name in ("stable_quartic.trop.json", "line.trop.json"):
        outs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=hash_seed)
            proc = subprocess.run(
                [sys.executable, "-m", "tropcurve.cli", "render", "--spec", specs[name], "--locus"],
                env=env, capture_output=True, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)
        assert outs[0] == outs[1]
        assert b'<g id="locus">' in outs[0]


def _poly_scenario(coefficients):
    return {
        "curve": {
            "support": [[int(c) for c in k.split(",")] for k in coefficients],
            "coefficients": coefficients,
        },
        "real_structure": {"signs": "all+"},
    }


# an edge of the cubic and a ray of the line leave one shared vertex in the
# same direction, so their overlap starts at a vertex of both curves
_OVERLAP_CUBIC = _poly_scenario({
    "0,0": "1/64", "0,1": "-107/56", "0,2": "-31/4", "0,3": "-713/40", "1,0": "-379/64",
    "1,1": "-193/16", "1,2": "-265/12", "2,0": "-383/16", "2,1": "-955/28", "3,0": "-755/14",
})
_OVERLAP_LINE = _poly_scenario({"0,0": 0, "1,0": "-669/64", "0,1": "-393/64"})


def test_overlap_endpoint_on_vertices_of_both_exits_2(tmp_path, capsys):
    paths = []
    for name, scenario in (("cubic", _OVERLAP_CUBIC), ("line", _OVERLAP_LINE)):
        path = tmp_path / f"{name}.trop.json"
        path.write_text(json.dumps(scenario))
        paths.append(str(path))
    message = "overlap endpoint is a vertex of both curves"
    for a, b in (paths, paths[::-1]):
        curves = [build_scenario(load_spec(Path(p).read_text())).curve for p in (a, b)]
        with pytest.raises(UnsupportedConfiguration, match=f"^{message}$"):
            intersection_components(*curves)
        code, out, err = run(capsys, "intersect", "--a", a, "--b", b)
        assert (code, out, err) == (2, "", f"unsupported configuration: {message}\n")


# a line and a conic whose vertices meet at (1, 7/8)
_VERTEX_LINE = _poly_scenario({"0,0": "1/4", "0,1": "-5/8", "1,0": "-3/4"})
_VERTEX_CONIC = _poly_scenario({"0,0": "1/4", "0,1": "21/8", "0,2": "-3/8", "1,0": "5/2", "1,1": "13/8", "2,0": 0})


def test_a_vertex_of_both_curves_exits_2_with_the_point_as_written(tmp_path, capsys):
    paths = []
    for name, scenario in (("line", _VERTEX_LINE), ("conic", _VERTEX_CONIC)):
        path = tmp_path / f"{name}.trop.json"
        path.write_text(json.dumps(scenario))
        paths.append(str(path))
    code, out, err = run(capsys, "intersect", "--a", paths[0], "--b", paths[1])
    assert (code, out, err) == (2, "", "unsupported configuration: (1,7/8) is a vertex of both curves\n")


def test_production_modules_do_not_load_the_oracles():
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, tropcurve, tropcurve.cli; print('tropcurve.selfcheck' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def _line_scenario(c1, c2, signs=(1, 1, 1)):
    """The tropical line max(0, c1 + x, c2 + y) with the signs of 1, x and y."""
    scenario = _poly_scenario({"0,0": 0, "1,0": str(c1), "0,1": str(c2)})
    scenario["real_structure"] = {"signs": dict(zip(("0,0", "1,0", "0,1"), signs))}
    return scenario


_CONIC = {"curve": {"honeycomb": 2}, "real_structure": {"signs": "all+"}}
_HOOK = _poly_scenario({"0,0": 0, "1,0": -9, "1,1": -1, "1,2": -1, "1,3": -9})
# the pairs of demos/04_real_intersections.py: edge-in-edge, segment overlap, a det-4 crossing
_DEMO_PAIRS = [
    (_CONIC, _line_scenario(5, 5)),
    (_CONIC, _line_scenario(5, 5, (1, -1, 1))),
    (_CONIC, _line_scenario("-3/2", "-3/2")),
    (_CONIC, _line_scenario("-3/2", "-3/2", (1, -1, -1))),
    (_line_scenario(24, -7), _HOOK),
    (_line_scenario(24, -7, (1, -1, 1)), _HOOK),
]


def test_intersect_output_of_the_demo_pairs_is_unchanged(tmp_path, capsys):
    outputs = []
    for k, pair in enumerate(_DEMO_PAIRS):
        paths = []
        for name, scenario in zip("ab", pair):
            paths.append(tmp_path / f"{k}{name}.trop.json")
            paths[-1].write_text(json.dumps(scenario))
        for fmt in ("text", "json"):
            code, out, err = run(capsys, "intersect", "--a", str(paths[0]), "--b", str(paths[1]), "--format", fmt)
            assert (code, err) == (0, "")
            outputs.append(out)
    assert outputs[0] == (
        "components: 1   total multiplicity: 2\n"
        "  edge-in-edge at (1, 1) mult=2 -> forced-real reals=2 pairs=0\n"
    )
    # recorded when components were frozen dataclasses
    digest = hashlib.sha256("".join(outputs).encode()).hexdigest()
    assert digest == "17457e8be48c533b74b5829fef5ee7dbbb93a577dc4bcf48e71ba624bb33bd3e"


def test_intersect_invariant_exits_4(tmp_path, capsys, monkeypatch):
    paths = []
    scenarios = (
        _poly_scenario({"0,0": 0, "1,0": -2, "0,1": -2, "1,1": 0}),
        _line_scenario(0, 4),  # its diagonal ray passes through the vertex (2,-2) of the first curve
    )
    for name, scenario in zip("ab", scenarios):
        paths.append(str(tmp_path / f"{name}.trop.json"))
        Path(paths[-1]).write_text(json.dumps(scenario))
    assert run(capsys, "intersect", "--a", paths[0], "--b", paths[1])[0] == 0
    # a fault that hides the vertex: the hit lies on two edges of one curve and is a vertex of neither
    monkeypatch.setattr("tropcurve.intersect._end_vertex", lambda curve, k, eids, key: None)
    code, out, err = run(capsys, "intersect", "--a", paths[0], "--b", paths[1])
    assert (code, out) == (4, "")
    assert err == "internal error: (2,-2) is a vertex of neither curve but lies on several edges of one\n"


def _without_ray_2_at_vertex_0(curve):
    broken = copy.copy(curve)
    broken.vertex_edges = (tuple(e for e in curve.vertex_edges[0] if e != 2),) + curve.vertex_edges[1:]
    return broken


def _ray_2_turned(curve):
    broken = copy.copy(curve)
    edges = list(curve.frame.edges)
    x, y, dx, dy, t = edges[2]
    edges[2] = (x, y, dy, -dx, t)
    broken.frame = dataclasses.replace(curve.frame, edges=tuple(edges))
    return broken


@pytest.mark.parametrize("pair, fault, message", [
    # the conic's edge 3 reaches the line's vertex and runs along its ray 2
    (2, _without_ray_2_at_vertex_0, "0 edges of B at vertex 0 run along edge 3 of A"),
    # the conic's edge 3 starts on the line's ray 2 and runs along it
    (0, _ray_2_turned, "edge 3 of A runs along edge 2 of B but does not overlap it"),
])
def test_intersect_walk_invariants_exit_4(tmp_path, capsys, monkeypatch, pair, fault, message):
    paths = []
    for name, scenario in zip("ab", _DEMO_PAIRS[pair]):
        paths.append(str(tmp_path / f"{name}.trop.json"))
        Path(paths[-1]).write_text(json.dumps(scenario))
    assert run(capsys, "intersect", "--a", paths[0], "--b", paths[1])[0] == 0
    # a broken curve B: the walk along an overlap finds no edge to follow, or no overlap
    monkeypatch.setattr("tropcurve.cli.intersection_components",
                        lambda a, b: intersection_components(a, fault(b)))
    code, out, err = run(capsys, "intersect", "--a", paths[0], "--b", paths[1])
    assert (code, out) == (4, "")
    assert err == f"internal error: {message}\n"


def test_hyperbolic_invariant_exits_4(specs, capsys, monkeypatch):
    def drop_an_oval(rp):
        tree = _face_tree(rp)
        return tree._replace(disk=dict(list(tree.disk.items())[1:]))

    argv = ("hyperbolic", "--spec", specs["stable_quartic.trop.json"])
    assert run(capsys, *argv)[0] == 0
    # a fault in the face labelling: the hyperbolic quartic shows one oval, not two
    monkeypatch.setattr("tropcurve.hyperbolic._face_tree", drop_an_oval)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (4, "")
    assert err == "internal error: hyperbolic curve must have floor(d/2) ovals\n"


_HUGE = "1" + "0" * 5000  # past Python's 4300-digit limit on int <-> str conversion
_HUGE_CONIC = '{"curve": {"honeycomb": %s}, "real_structure": {"signs": "all+"}}' % _HUGE


@pytest.mark.parametrize(
    "text, argv",
    [
        (_HUGE_CONIC, ["build"]),
        (_HUGE_CONIC, ["analyze"]),
        (_HUGE_CONIC, ["intersect"]),
        (_HUGE_CONIC, ["hyperbolic"]),
        (_HUGE_CONIC, ["render"]),
        ("[" * 100_000 + "]" * 100_000, ["build"]),
        (json.dumps(dict(_CONIC, real_structure={"signs": {f"{_HUGE},0": 1}})), ["analyze"]),
        (json.dumps(dict(_SQUARE, curve=dict(_SQUARE["curve"], coefficients={f"0,{_HUGE}": 0}))), ["build"]),
        (json.dumps(_CONIC), ["hyperbolic", "--point", f"({_HUGE},0)"]),
    ],
    ids=[
        "huge-int-build", "huge-int-analyze", "huge-int-intersect", "huge-int-hyperbolic",
        "huge-int-render", "deep-nesting", "huge-sign-key", "huge-coefficient-key", "huge-point-flag",
    ],
)
def test_oversized_input_exits_1_with_one_error_line(text, argv, tmp_path, capsys):
    spec = tmp_path / "big.trop.json"
    spec.write_text(text)
    inputs = ["--a", str(spec), "--b", str(spec)] if argv[0] == "intersect" else ["--spec", str(spec)]
    code, out, err = run(capsys, argv[0], *inputs, *argv[1:])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


def _triangle_support(n):
    corners = [[0, 0], [n, 0], [0, n]]
    return {"support": corners, "coefficients": {f"{i},{j}": 0 for i, j in corners}}


@pytest.mark.parametrize(
    "text, field, count",
    [
        (json.dumps(dict(_CONIC, curve={"honeycomb": 100_000})), "curve", "5000150001"),
        (json.dumps(dict(_CONIC, curve=_triangle_support(10**6))), "curve", "500001500001"),
        (json.dumps(dict(_CONIC, curve={"honeycomb": 10**4000})), "curve", "too many"),
        (json.dumps(dict(_CONIC, second=dict(_CONIC, curve={"honeycomb": 101}))), "second.curve", "5253"),
    ],
    ids=["honeycomb-100000", "support-triangle-10^6", "honeycomb-4001-digits", "second-honeycomb-101"],
)
def test_oversized_newton_polygon_exits_1_with_one_error_line(text, field, count, tmp_path, capsys):
    spec = tmp_path / "big.trop.json"
    spec.write_text(text)
    code, out, err = run(capsys, "build", "--spec", str(spec))
    assert (code, out) == (1, "")
    assert err == f"error: {field}: the Newton polygon has {count} lattice points, more than the cap of 5151\n"


def test_the_lattice_point_cap_admits_honeycomb_100():
    spec = load_spec(json.dumps(dict(_CONIC, curve={"honeycomb": 100})))
    assert len(spec.real_structure["signs"]) == 5151
    # the 100-triangle has 5151 points too, and any polygon with one more is refused
    load_spec(json.dumps(dict(_CONIC, curve=_triangle_support(100))))
    wide = _triangle_support(100)
    wide["support"].append([101, 0])
    wide["coefficients"]["101,0"] = 0
    with pytest.raises(ValidationError, match="has 5152 lattice points"):
        load_spec(json.dumps(dict(_CONIC, curve=wide)))


_VERIFY_SEED0_TRIALS5 = """\
rank-nullity: ok (50 random matrices)
construction: ok (50 random lifts, 38 non-singular)
component-counts: ok (5 random curves)
twist-rules: ok (5 honeycombs and random lifts, 536 edge configurations, 14 overlap configurations)
real-topology: ok (5 sign walks, 117 real schemes, 88 M-curves, 88 dividing)
honeycomb-locus: ok (5 random dividing twist sets and the fully twisted honeycombs of degree 2..7)
locus-routes: ok (5 random curves)
bezout: ok (5 generic pairs)
intersection-routes: ok (5 random pairs and 2 steep crossings, 2 pairs with a crossing of multiplicity >= 2)
point-location: ok (5 trials, 492 argmax queries, 145 region points)
"""


def test_verify_output_is_pinned(capsys):
    # every check's draws, trial budget and detail message show in these lines
    code, out, err = run(capsys, "verify", "--seed", "0", "--trials", "5")
    assert (code, out, err) == (0, _VERIFY_SEED0_TRIALS5, "")


def test_verify_prints_the_same_bytes_under_every_python_on_path():
    # pyproject says requires-python >= 3.10; each interpreter that starts must agree
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))

    def verify(python):
        return subprocess.run([python, "-m", "tropcurve.cli", "verify", "--seed", "0", "--trials", "5"],
                              env=env, capture_output=True, timeout=120)

    want = verify(sys.executable)
    assert (want.returncode, want.stdout.decode(), want.stderr) == (0, _VERIFY_SEED0_TRIALS5, b"")
    for minor in range(10, 14):
        python = shutil.which(f"python3.{minor}")
        # a pyenv shim for a version that is not selected exits 127
        if python is None or subprocess.run([python, "-c", ""], capture_output=True, timeout=60).returncode == 127:
            continue
        got = verify(python)
        assert (got.returncode, got.stdout, got.stderr) == (0, want.stdout, b""), python
