"""tropcurve benchmark: closed-loop workloads over the library, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of construct, patchwork, locus, intersect (see BENCHMARK.json
for why each exists), or ``all``, which runs each workload in its own
process and prints all of them.  Inputs come from the seed alone.  The
library is imported from ``src/`` next to this directory, never from an
installed copy.

Untraced (``--trace 0``): set-up runs three times (``setup_s`` is the
median), then a fixed number of whole passes over the fixed op list runs:
as many as fill S seconds at the reference speed (PASS_REFERENCE_S), and at
least 100 ops.  The work, and with it the attempted and failed counts,
depends on the seed and S alone, never on how fast the machine is that day.
The end-to-end metrics come from that loop.
Times are rescaled to a fixed reference CPU speed (see PROBE_* below); the
printed notes give the measured values beside them.
Traced (``--trace 1``): one traced set-up, one untraced pass, one traced
pass; the per-layer metrics come from the traced spans, and
``trace.overhead_ratio`` is traced pass time over untraced pass time.  Spans
are written to ``perfbench/out/``.

Either way, outputs are checked outside the timed region: every op of the
first pass against an independent route, every later pass against the
first, and a sample of scenarios through the CLI twice.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NAMES = ("construct", "patchwork", "locus", "intersect")
SETUP_REPEATS = 3
MIN_OPS = 100
CLI_SAMPLES_PER_SLICE = 1
CLI_SAMPLE_MAX_DEGREE = 4
# On a shared virtual machine the CPU speed drifts by 20% or more over
# seconds, so times are rescaled to a fixed reference speed: a stdlib-only
# probe (no tropcurve code) runs between ops every PROBE_INTERVAL_S.  Its
# mean time against PROBE_REFERENCE_S gives the run's speed scale; each op
# is scaled by the mean of the PROBE_WINDOW probes around it, and each
# set-up by the probes just before and after it.  On a 2-vCPU VM (Python
# 3.11), over 90 s of an interleaved loop, op time moved by 9% (coefficient
# of variation over 6 s blocks) while the ratio of op time to probe time
# moved by 2%.
PROBE_INTERVAL_S = 0.025
PROBE_REFERENCE_S = 0.0015
PROBE_WINDOW = 5
# Seconds one pass over a workload's op list takes at the reference speed
# (2-vCPU VM, Python 3.11, seed 1); they turn --seconds into a pass count.
PASS_REFERENCE_S = {"construct": 8.7, "patchwork": 1.0, "locus": 7.5, "intersect": 2.7}


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_contract() -> dict:
    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        die(f"cannot read BENCHMARK.json: {exc}")


def import_library() -> None:
    if not (SRC / "tropcurve" / "__init__.py").is_file():
        die(f"no tropcurve sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tropcurve

    if Path(tropcurve.__file__).resolve().parent != (SRC / "tropcurve").resolve():
        die(f"tropcurve was imported from {tropcurve.__file__}, not from {SRC}")


def commit_id() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "tropcurve").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def probe() -> float:
    """Seconds taken by a fixed mix of the work the library does: Fraction
    arithmetic, tuple-keyed dicts and string formatting."""
    t0 = time.perf_counter()
    total, table, parts = Fraction(0), {}, []
    for i in range(1, 260):
        q = Fraction(i % 89 + 1, i % 97 + 2)
        total += q * q
        table[(i % 13, i % 7)] = q
        parts.append(f"{q.numerator}/{q.denominator}")
    "".join(sorted(parts))
    return time.perf_counter() - t0


@dataclass
class Loop:
    times: list = field(default_factory=list)      # seconds per executed op
    statuses: list = field(default_factory=list)   # "ok" | "refused" | "error" per execution
    index: list = field(default_factory=list)      # op index per execution
    at_probe: list = field(default_factory=list)   # latest probe per execution
    first: list = field(default_factory=list)      # (status, result) per op, first pass
    outcomes: list = field(default_factory=list)   # outcome text per op, first pass
    drifted: set = field(default_factory=set)      # op indices whose outcome changed between passes
    probes: list = field(default_factory=list)     # probe seconds, between ops
    passes: int = 0
    elapsed: float = 0.0                           # loop wall time without probes

    @property
    def scale(self) -> float:
        """Factor from measured seconds to seconds at the reference speed."""
        return PROBE_REFERENCE_S / statistics.fmean(self.probes)

    def scaled_times(self) -> list:
        """Each op's seconds at the reference speed of its neighbourhood."""
        half = PROBE_WINDOW // 2
        local = [
            PROBE_REFERENCE_S / statistics.fmean(self.probes[max(0, j - half):j + half + 1])
            for j in range(len(self.probes))
        ]
        return [t * local[j] for t, j in zip(self.times, self.at_probe)]


def pass_count(workload: str, seconds: float, n_ops: int) -> int:
    """Whole passes that fill `seconds` at the reference speed, with at
    least MIN_OPS ops in all."""
    return max(round(seconds / PASS_REFERENCE_S[workload]), -(-MIN_OPS // n_ops), 1)


def run_passes(wl, ops, tr, passes: int) -> Loop:
    """`passes` whole passes over ops."""
    from spans import REFUSALS

    loop = Loop()
    loop.probes.append(probe())
    start = last_probe = time.perf_counter()
    while loop.passes < passes:
        for i, op in enumerate(ops):
            if time.perf_counter() - last_probe >= PROBE_INTERVAL_S:
                loop.probes.append(probe())
                last_probe = time.perf_counter()
            tr.op = i
            t0 = time.perf_counter()
            try:
                res = tr.call("bench", "op", wl.run, op, tr)
                status = "ok"
            except REFUSALS as exc:
                res, status = exc, "refused"
            except Exception as exc:  # a failed op is counted, not fatal
                res, status = exc, "error"
            loop.times.append(time.perf_counter() - t0)
            loop.statuses.append(status)
            loop.index.append(i)
            loop.at_probe.append(len(loop.probes) - 1)
            text = wl.outcome(op, res) if status == "ok" else f"{status}:{type(res).__name__}"
            if loop.passes == 0:
                loop.first.append((status, res))
                loop.outcomes.append(text)
            elif text != loop.outcomes[i]:
                loop.drifted.add(i)
        loop.passes += 1
    loop.elapsed = time.perf_counter() - start - sum(loop.probes[1:])
    return loop


def digest(loop: Loop) -> str:
    return hashlib.sha256("\n".join(loop.outcomes).encode()).hexdigest()[:16]


def check_outputs(wl, ops, loop: Loop) -> tuple[dict, list]:
    """Oracle checks on the first pass and the CLI determinism check."""
    from clicheck import cli_check

    bad = {}
    for i, (op, (status, res)) in enumerate(zip(ops, loop.first)):
        if status == "ok":
            msg = wl.check(op, res)
            if msg is not None:
                bad[i] = msg
    for i in sorted(loop.drifted):
        bad[i] = "outcome differs between passes"
    problems = []
    if wl.cli_command is not None:
        samples, seen = [], {}
        for op, (status, res) in zip(ops, loop.first):
            if op.degree > CLI_SAMPLE_MAX_DEGREE or seen.get(op.slice, 0) >= CLI_SAMPLES_PER_SLICE:
                continue
            seen[op.slice] = seen.get(op.slice, 0) + 1
            text, extra = wl.cli_input(op)
            if status == "ok":
                expected = wl.cli_expect(op, res)
            elif status == "refused":
                expected = {"exit": 1}
            else:
                expected = {"exit": f"raised {type(res).__name__}"}
            samples.append((text, extra, expected))
        OUT.mkdir(exist_ok=True)
        problems = cli_check(wl.cli_command, samples, str(OUT))
        print(f"cli {wl.cli_command}: {len(samples)} scenarios run twice, "
              f"{'identical and agreeing' if not problems else f'{len(problems)} problems'}")
    return bad, problems


def tally(loop: Loop, bad: dict) -> tuple[int, int, int]:
    attempted = len(loop.statuses)
    refused = sum(s == "refused" for s in loop.statuses)
    failed = sum(s == "error" or i in bad for s, i in zip(loop.statuses, loop.index))
    return attempted, refused, failed


def untraced(wl, workload: str, seed: int, seconds: float):
    from spans import NullTracer

    tr = NullTracer()
    setup_times, setup_scaled = [], []
    prepared = None
    around = [probe() for _ in range(PROBE_WINDOW)]
    for _ in range(SETUP_REPEATS):
        prepared = None  # let the previous set-up go before building the next
        t0 = time.perf_counter()
        prepared = wl.setup(seed, tr)
        setup_times.append(time.perf_counter() - t0)
        after = [probe() for _ in range(PROBE_WINDOW)]
        setup_scaled.append(setup_times[-1] * PROBE_REFERENCE_S / statistics.fmean(around + after))
        around = after
    loop = run_passes(wl, prepared.ops, tr, pass_count(workload, seconds, len(prepared.ops)))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    bad, problems = check_outputs(wl, prepared.ops, loop)
    attempted, refused, failed = tally(loop, bad)
    ms = [t * 1000 for t in loop.scaled_times()]
    metrics = {
        "ops_per_s": (attempted - failed) / (loop.elapsed * loop.scale),
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": statistics.quantiles(ms, n=10)[8],
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": peak_rss_mb,
        "ok_rate": (attempted - failed) / attempted,
    }
    notes = {"ops_per_s": f"completed {attempted - failed} ops in {loop.elapsed:.3f} s measured, "
                          f"speed scale {loop.scale:.4f} from {len(loop.probes)} probes",
             "op_p50_ms": f"{statistics.median(loop.times) * 1000:.3f} ms measured",
             "op_p90_ms": f"{len(ms)} ops, {sum(x > metrics['op_p90_ms'] for x in ms)} beyond it",
             "setup_s": f"median of {SETUP_REPEATS}, measured " + " ".join(f"{t:.4f}" for t in setup_times),
             "ok_rate": f"error_rate {failed / attempted:.4f} ({failed}/{attempted})"}
    return prepared, loop, bad, problems, (attempted, refused, failed), metrics, notes


def traced(wl, seed: int, workload: str):
    from layers import layer_metrics
    from spans import NullTracer, Tracer

    tr = Tracer()
    prepared = tr.call("bench", "setup", wl.setup, seed, tr)
    plain = run_passes(wl, prepared.ops, NullTracer(), 1)
    loop = run_passes(wl, prepared.ops, tr, 1)
    if loop.outcomes != plain.outcomes:
        loop.drifted.update(i for i, (a, b) in enumerate(zip(loop.outcomes, plain.outcomes)) if a != b)
    bad, problems = check_outputs(wl, prepared.ops, loop)
    counts = tally(loop, bad)
    metrics = layer_metrics(tr, loop.scale, loop.elapsed * loop.scale / (plain.elapsed * plain.scale))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.json"
    tr.write(path)
    notes = {"trace.overhead_ratio": f"traced pass {loop.elapsed:.3f} s x {loop.scale:.4f} / "
                                     f"untraced pass {plain.elapsed:.3f} s x {plain.scale:.4f}"}
    print(f"spans: {len(tr.spans)} written to {path.relative_to(ROOT)}")
    return prepared, loop, bad, problems, counts, metrics, notes


def run_one(args, contract) -> int:
    import_library()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in contract[key]}
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# python={platform.python_version()} nproc={os.cpu_count()} "
          f"commit={commit_id()} src_sha256={source_digest()}")
    if args.trace:
        prepared, loop, bad, problems, counts, metrics, notes = traced(wl, args.seed, args.workload)
    else:
        prepared, loop, bad, problems, counts, metrics, notes = untraced(wl, args.workload, args.seed, args.seconds)
    if set(metrics) != set(units):
        die(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json {key}")
    properties = dict(prepared.properties, **wl.properties(prepared, loop.first))
    for name, value in sorted(properties.items()):
        print(f"input {name} = {value}")
    attempted, refused, failed = counts
    print(f"ops: {attempted} attempted in {loop.passes} passes of {len(prepared.ops)}, "
          f"{refused} refused, {failed} failed; digest {digest(loop)}")
    for i, msg in sorted(bad.items()):
        print(f"check failed on op {i} ({prepared.ops[i].slice}, d={prepared.ops[i].degree}): {msg}")
    for msg in problems:
        print(f"cli check: {msg}")
    for name in units:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {name} = {metrics[name]} {units[name]}{note}")
    correct = not bad and not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args, contract) -> int:
    """Each workload in its own process, one after the other."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            die(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged, sort_keys=True))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="tropcurve benchmark")
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    contract = load_contract()
    if args.workload == "all":
        return run_all(args, contract)
    return run_one(args, contract)


if __name__ == "__main__":
    sys.exit(main())
