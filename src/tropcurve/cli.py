"""Command-line frontend: build, analyze, intersect, hyperbolic, render, verify."""

from __future__ import annotations

import argparse
import json
import sys

from .curve import complement_components, primitive_cycles
from .errors import InvariantViolation, TropcurveError, UnsupportedConfiguration, ValidationError
from .hyperbolic import hyperbolic_wrt_point, hyperbolicity_locus
from .intersect import intersection_components, real_lift
from .io_render import (
    _edge_key,
    build_scenario,
    check_lattice_point,
    load_spec,
    parse_eps,
    parse_point_key,
    render_svg,
)
from .realstruct import (
    count_components_direct,
    count_components_matrix,
    is_admissible,
    is_dividing,
    real_part,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; reserve 2 for unsupported geometry
    def error(self, message):
        self.exit(1, f"error: {self.prog}: {message}\n")


def _read_spec(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return load_spec(fh.read())


def _fmt_point(p) -> str:
    return f"({p[0]},{p[1]})"


def _cmd_build(args) -> tuple[dict, list[str]]:
    scen = build_scenario(_read_spec(args.spec))
    curve = scen.curve
    cycles = primitive_cycles(curve)
    data = {
        "degree": curve.degree,
        "vertices": len(curve.vertices),
        "bounded_edges": len(curve.bounded_edges),
        "unbounded_edges": len(curve.edges) - len(curve.bounded_edges),
        "cells": len(curve.dual.cells),
        "lattice_points": len(curve.dual.lattice_points),
        "primitive_cycles": len(cycles),
        "honeycomb": curve.is_honeycomb(),
    }
    if curve.degree is not None:
        data["complement_components"] = len(complement_components(curve))
    lines = [f"{k}: {v}" for k, v in sorted(data.items())]
    lines.append("vertex coordinates:")
    lines += [f"  ({v[0]}, {v[1]})" for v in curve.vertices]
    return data, lines


def _cmd_analyze(args) -> tuple[dict, list[str]]:
    scen = build_scenario(_read_spec(args.spec))
    curve, twists = scen.curve, scen.twists
    admissible = is_admissible(curve, twists)
    dividing = is_dividing(curve, twists) if admissible else False
    matrix_count = count_components_matrix(curve, twists) if admissible else None
    k = matrix_count - 1 if admissible else None
    direct = count_components_direct(real_part(curve, scen.phase))
    data = {
        "twisted_edges": sorted(_edge_key(curve.edges[e].dual) for e in twists.edges),
        "twist_count": len(twists.edges),
        "admissible": admissible,
        "dividing": dividing,
        "kernel_dim": k,
        "components_matrix": matrix_count,
        "components_direct": direct.count,
        "kinds": sorted(c.kind for c in direct.components),
    }
    lines = [
        f"twisted edges ({data['twist_count']}): " + " ".join(data["twisted_edges"]),
        f"admissible: {admissible}",
        f"dividing: {dividing}",
        f"kernel dim: {k}",
        f"components (matrix): {matrix_count}",
        f"components (direct): {direct.count}  [{', '.join(data['kinds'])}]",
    ]
    return data, lines


def _lift_data(comp, out):
    loc = None
    if out.locations is not None:
        loc = [[str(p[0]), str(p[1])] for p in out.locations]
    where = comp.point if comp.point is not None else comp.segment[0]
    entry = {
        "kind": comp.kind,
        "multiplicity": comp.multiplicity,
        "at": [str(where[0]), str(where[1])],
        "lift": out.variant,
        "reals": out.reals,
        "pairs": out.pairs,
        "locations": loc,
    }
    if comp.segment is not None:
        entry["segment_end"] = [str(comp.segment[1][0]), str(comp.segment[1][1])]
    if out.possible:
        entry["possible"] = list(out.possible)
    if out.non_real_possible:
        entry["non_real_possible"] = True
    return entry


def _cmd_intersect(args) -> tuple[dict, list[str]]:
    sa = build_scenario(_read_spec(args.a))
    sb = build_scenario(_read_spec(args.b))
    comps = intersection_components(sa.curve, sb.curve)
    rows = [_lift_data(c, real_lift(c, sa.phase, sb.phase)) for c in comps]
    total = sum(c.multiplicity for c in comps)
    data = {"components": rows, "count": len(rows), "total_multiplicity": total}
    lines = [f"components: {len(rows)}   total multiplicity: {total}"]
    for r in rows:
        loc = f" at ({r['at'][0]}, {r['at'][1]})"
        extra = f" locations={r['locations']}" if r.get("locations") else ""
        poss = f" possible={r['possible']}" if r.get("possible") else ""
        lines.append(
            f"  {r['kind']}{loc} mult={r['multiplicity']} -> {r['lift']}"
            f" reals={r['reals']} pairs={r['pairs']}{extra}{poss}"
        )
    return data, lines


def _report_data(report):
    signed = sorted((list(a), list(e)) for a, e in report.signed_locus)
    return {
        "hyperbolic": report.hyperbolic,
        "kernel_dim": report.kernel_dim,
        "component_count": report.component_count,
        "stable": report.stable,
        "locus": sorted(list(a) for a in report.locus),
        "signed_locus": signed,
        "locus_size": len(report.locus),
    }


def _cmd_hyperbolic(args) -> tuple[dict, list[str]]:
    scen = build_scenario(_read_spec(args.spec))
    curve, phase = scen.curve, scen.phase
    query = scen.query
    if args.point is not None:
        query = (check_lattice_point(curve, parse_point_key(args.point, "--point"), "--point"), (0, 0))
    if args.eps is not None:
        if query is None:
            raise ValidationError("needs --point or a scenario query", "--eps")
        query = (query[0], parse_eps(args.eps, "--eps"))
    if query is not None:
        alpha, eps = query
        verdict = hyperbolic_wrt_point(curve, phase, alpha, eps)
        data = {
            "component": list(alpha),
            "eps": list(eps),
            "hyperbolic": verdict.hyperbolic,
            "failing_condition": verdict.failing_condition,
            "detail": verdict.detail,
        }
        status = "hyperbolic" if verdict.hyperbolic else f"not hyperbolic (condition {verdict.failing_condition}: {verdict.detail})"
        return data, [f"point {_fmt_point(alpha)} eps={eps}: {status}"]
    report = hyperbolicity_locus(curve, phase)
    lines = [
        f"hyperbolic: {report.hyperbolic}",
        f"kernel dim: {report.kernel_dim}",
        f"real components: {report.component_count}",
        f"stable: {report.stable}",
        f"locus H ({len(report.locus)}): " + " ".join(_fmt_point(a) for a in sorted(report.locus)),
        f"signed locus RH ({len(report.signed_locus)}): "
        + " ".join(f"{_fmt_point(a)}@{e[0]}{e[1]}" for a, e in sorted(report.signed_locus)),
    ]
    return _report_data(report), lines


def _cmd_render(args) -> str:
    scen = build_scenario(_read_spec(args.spec))
    locus = hyperbolicity_locus(scen.curve, scen.phase).locus if args.locus else None
    return render_svg(scen.curve, phase=scen.phase, twists=scen.twists, locus=locus, delta=scen.delta)


def _cmd_verify(args) -> int:
    from .selfcheck import run_all

    results = run_all(seed=args.seed, trials=args.trials)
    ok = True
    for r in results:
        status = "ok" if r.passed else "MISMATCH"
        sys.stdout.write(f"{r.name}: {status} ({r.detail})\n")
        ok = ok and r.passed
    return 0 if ok else 3


def main(argv=None) -> int:
    parser = _Parser(prog="tropcurve", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, handler, inputs=(("--spec", "scenario file (.trop.json)"),), fmt=True):
        """A subcommand whose output ``main`` writes, with its input files,
        --format (not for render's SVG) and --out."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        for flag, text in inputs:
            p.add_argument(flag, required=True, help=text)
        if fmt:
            p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None, help="write output to a file")
        return p

    command("build", "print curve combinatorics", _cmd_build)
    command("analyze", "twists, admissibility, component counts", _cmd_analyze)
    command("intersect", "classify intersection components of two scenarios", _cmd_intersect,
            inputs=(("--a", None), ("--b", None)))
    p = command("hyperbolic", "hyperbolicity report or a single point verdict", _cmd_hyperbolic)
    p.add_argument("--point", default=None, help='component lattice point "(i,j)"')
    p.add_argument("--eps", default=None, help="symmetry bits b,b")
    p = command("render", "emit an SVG figure", _cmd_render, fmt=False)
    p.add_argument("--locus", action="store_true", help="shade the hyperbolicity locus")
    p = sub.add_parser("verify", help="run the oracle cross-check suite")
    p.set_defaults(handler=_cmd_verify)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=25)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help (0) or a usage error (1, see _Parser)
        return exc.code
    try:
        result = args.handler(args)
        if args.command == "verify":  # it writes its own lines and exit code
            return result
        if isinstance(result, str):  # render's SVG
            text = result
        elif args.format == "json":
            text = json.dumps(result[0], sort_keys=True, indent=2) + "\n"
        else:
            text = "\n".join(result[1]) + "\n"
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        return 0
    except UnsupportedConfiguration as exc:
        sys.stderr.write(f"unsupported configuration: {exc}\n")
        return 2
    except InvariantViolation as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return 4
    except (TropcurveError, OSError, UnicodeDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
