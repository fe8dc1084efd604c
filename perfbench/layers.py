"""Per-layer metrics from the spans and counts of one traced run.

A layer is a module of ``tropcurve``.  Times are medians in ms, rescaled
to the reference speed like the end-to-end times, over the
spans of one call (or over the per-op sum of several calls, set-up excluded);
``<layer>.self_share`` is the layer's self time over the total time of the
root spans (traced set-up plus traced pass).  A layer a workload does not
call reports 0.
"""

from __future__ import annotations

import statistics

from spans import Tracer

CONVERSIONS = {"phase_from_signs", "twists_from_signs", "twists_from_phase",
               "phase_from_twists", "signs_from_phase"}
KINDS = ("transverse", "isolated-vertex", "edge-in-edge", "segment-overlap")


def layer_metrics(tr: Tracer, scale: float, overhead_ratio: float) -> dict[str, float]:
    spans = tr.spans

    def _median_ms(seconds) -> float:
        seconds = list(seconds)
        return statistics.median(seconds) * 1000 * scale if seconds else 0.0

    selfs = tr.self_times()
    root_total = sum(s.duration for s in spans if s.parent is None)
    layer_self: dict[str, float] = {}
    for s, t in zip(spans, selfs):
        layer_self[s.layer] = layer_self.get(s.layer, 0.0) + t

    def share(layer):
        return layer_self.get(layer, 0.0) / root_total

    def calls(layer, *names):
        return [s for s in spans if s.layer == layer and s.name in names]

    def per_op(layer, *names):
        sums: dict[int, float] = {}
        for s in calls(layer, *names):
            if s.op is not None:
                sums[s.op] = sums.get(s.op, 0.0) + s.duration
        return sums.values()

    def count(key):
        return tr.counts.get(key, 0)

    builds = calls("curve", "build")
    refused = sum(s.status == "refused" for s in builds)
    loci = calls("hyperbolic", "hyperbolicity_locus")
    loci_ok = sum(s.status == "ok" for s in loci)
    m = {
        "curve.build_ms.p50": _median_ms(s.duration for s in builds),
        "curve.build_ms.d10": _median_ms(s.duration for s in builds if s.info["degree"] == 10),
        "curve.build_calls": len(builds),
        "curve.build_refused": refused,
        "curve.accept_ratio": (len(builds) - refused) / len(builds) if builds else 0.0,
        "curve.support_points": sum(s.info["support"] for s in builds),
        "curve.self_share": share("curve"),
        "io_render.load_spec_ms": _median_ms(s.duration for s in calls("io_render", "load_spec")),
        "io_render.render_svg_ms": _median_ms(s.duration for s in calls("io_render", "render_svg")),
        "io_render.svg_bytes": count("io_render.svg_bytes"),
        "io_render.self_share": share("io_render"),
        "realstruct.convert_ms": _median_ms(per_op("realstruct", *CONVERSIONS)),
        "realstruct.count_matrix_ms": _median_ms(
            s.duration for s in calls("realstruct", "count_components_matrix")),
        "realstruct.count_direct_ms": _median_ms(
            per_op("realstruct", "real_part", "count_components_direct")),
        "realstruct.div_space_ms": _median_ms(
            s.duration for s in calls("realstruct", "div_space") if s.op is not None),
        "realstruct.components_total": count("realstruct.components_total"),
        "realstruct.ovals_total": count("realstruct.ovals_total"),
        "realstruct.self_share": share("realstruct"),
        "gf2.kernel_ms": _median_ms(s.duration for s in calls("gf2", "kernel")),
        "gf2.kernel_calls": len(calls("gf2", "kernel")),
        "gf2.self_share": share("gf2"),
        "hyperbolic.locus_ms.p50": _median_ms(s.duration for s in loci),
        "hyperbolic.locus_ms.d10": _median_ms(s.duration for s in loci if s.info["degree"] == 10),
        "hyperbolic.point_ms": _median_ms(
            s.duration for s in calls("hyperbolic", "hyperbolic_wrt_point")),
        "hyperbolic.locus_calls": len(loci),
        "hyperbolic.failed": sum(s.status == "error" for s in loci),
        "hyperbolic.hyperbolic_share": count("hyperbolic.hyperbolic") / loci_ok if loci_ok else 0.0,
        "hyperbolic.locus_atoms_total": count("hyperbolic.locus_atoms_total"),
        "hyperbolic.self_share": share("hyperbolic"),
        "intersect.components_ms": _median_ms(
            s.duration for s in calls("intersect", "intersection_components")),
        "intersect.lift_ms": _median_ms(per_op("intersect", "real_lift")),
        "intersect.edge_pairs": count("intersect.edge_pairs"),
    }
    for kind in KINDS:
        m[f"intersect.kind.{kind}"] = count(f"intersect.kind.{kind}")
    m["intersect.refused"] = sum(
        s.status == "refused" for s in calls("intersect", "intersection_components"))
    m["intersect.self_share"] = share("intersect")
    m["trace.overhead_ratio"] = overhead_ratio
    return m
