"""The stride benchmark: one workload, one run, every metric by name.

Usage:
    python3 bench/run.py --workload score_batch|sample|cli --seed N --seconds 30 --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Inputs are generated from ``--seed``.  Set-up (input generation
and store pre-fill) runs three times and is reported as ``setup_s``, the
median.  With ``--trace 0`` the workload loops for ``--seconds``, with a
fixed host probe timed between ops, and the end-to-end metrics are
reported: op latency in units of the probe's time, peak memory and
set-up time.  With ``--trace 1`` a fixed number of ops runs in two pairs
of passes, plain and then with spans on every public function, and the
per-layer metrics and the tracing overhead are reported.

Each metric is printed as ``metric NAME VALUE UNIT``; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 1 when any output check failed.  Scratch files live in
``.bench_work/`` and are removed at the end, apart from the last trace.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]

from tracing import Tracer  # noqa: E402
from workloads import SCALES, WORKLOADS, Phase, fastest, percentile  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 3
TRACED_PASSES = 2  # pairs of plain and traced passes in a traced run
WORK_DIR = ROOT / ".bench_work"
RECORDED_OUTPUTS = Path(__file__).resolve().parent / "recorded_outputs.json"


def environment() -> dict:
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit,
    }


def peak_rss_mb(with_children: bool) -> float:
    kilobytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kilobytes += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kilobytes / 1024


def end_to_end(workload, phase: Phase, setup_s: float) -> dict[str, tuple[float, str]]:
    """Op latency in units of the host probe's time, memory and set-up time.

    The probe runs between the ops, so both see the same host: the median
    compares each op with the probe next to it, the mean compares the
    means over the whole pass.
    """
    probes = workload.probe.samples_ns
    return {
        "op_p50_ref": (percentile(phase.relative_latencies(), 50), "ref"),
        "op_mean_ref": (statistics.fmean(phase.durations_ns) / statistics.fmean(probes), "ref"),
        "peak_rss_mb": (peak_rss_mb(with_children=not workload.in_process), "MB"),
        "setup_s": (setup_s, "s"),
    }


def raw_figures(workload, phase: Phase) -> dict[str, tuple[float, str]]:
    """Latencies in plain time, as measured on this host."""
    return {
        "op_p50_ms": (percentile(phase.latencies_ns(), 50) / 1e6, "ms"),
        "ops_per_s": (phase.attempted / (sum(phase.durations_ns) / 1e9), "1/s"),
        "host.probe_p50_ms": (statistics.median(workload.probe.samples_ns) / 1e6, "ms"),
        "host.probes": (len(workload.probe.samples_ns), "count"),
    }


def per_layer(tracer: Tracer, plain: Phase, traced: Phase, traced_ops: int, unrejected: int) -> dict[str, tuple[float, str]]:
    """Per-op layer figures from the spans of ``traced_ops`` traced ops.

    ``plain`` and ``traced`` are the fastest passes over the same ops
    without and with spans; their difference is the tracing overhead.
    ``unrejected`` is how many of the defect probe's inputs were mishandled.
    """
    totals = tracer.layer_totals()
    counters = tracer.counters

    def self_time(layer: str, unit_ns: float) -> float:
        return totals.get(layer, {}).get("self_ns", 0) / unit_ns / traced_ops

    def calls(layer: str) -> float:
        return totals.get(layer, {}).get("calls", 0) / traced_ops

    def median_ms(name: str) -> float:
        samples = traced.samples_ns.get(name)
        return statistics.median(samples) / 1e6 if samples else 0.0

    saves = totals.get("runstore.save_run", {}).get("calls", 0)
    return {
        "io.decode_manifest.self_ms": (self_time("io.decode_manifest", 1e6), "ms/op"),
        "io.report_to_json.self_ms": (self_time("io.report_to_json", 1e6), "ms/op"),
        "model.validate_manifest.self_ms": (self_time("model.validate_manifest", 1e6), "ms/op"),
        "model.validate_manifest.calls": (calls("model.validate_manifest"), "calls/op"),
        "model.poison_unrejected": (unrejected, "count"),
        "scoring.score_dataset.self_ms": (self_time("scoring.score_dataset", 1e6), "ms/op"),
        "scoring.component_score.calls": (calls("scoring.component_score"), "calls/op"),
        "digests.content_digest.self_ms": (self_time("digests.content_digest", 1e6), "ms/op"),
        "digests.content_digest.calls": (calls("digests.content_digest"), "calls/op"),
        "digests.canonical_bytes": (counters["digests.canonical_bytes"] / traced_ops, "B/op"),
        "runstore.save_run.self_ms": (self_time("runstore.save_run", 1e6), "ms/op"),
        "runstore.load_run.self_ms": (self_time("runstore.load_run", 1e6), "ms/op"),
        "runstore.save_run.existing_ratio": (counters["runstore.save_run.existing"] / saves if saves else 0.0, "ratio"),
        "runstore.resolve_run_id.self_ms": (self_time("runstore.resolve_run_id", 1e6), "ms/op"),
        "io.parse_population.self_ms": (self_time("io.parse_population", 1e6), "ms/op"),
        "sampling.select_representative_sample.self_s": (self_time("sampling.select_representative_sample", 1e9), "s/op"),
        "sampling.swaps_applied": (counters["sampling.swaps_applied"] / traced_ops, "swaps/op"),
        "sampling.saturation_curve.self_ms": (self_time("sampling.saturation_curve", 1e6), "ms/op"),
        "sampling.js_divergence.calls": (calls("sampling.js_divergence"), "calls/op"),
        "cli.import_ms": (median_ms("import"), "ms"),
        "cli.interpreter_ms": (median_ms("interpreter"), "ms"),
        "cli.main.self_ms": (self_time("cli.main", 1e6), "ms/op"),
        "delta.build_delta_report.self_ms": (self_time("delta.build_delta_report", 1e6), "ms/op"),
        "delta.emit_delta_report.self_ms": (self_time("delta.emit_delta_report", 1e6), "ms/op"),
        "trace.overhead_pct": (100 * (sum(traced.durations_ns) / sum(plain.durations_ns) - 1), "%"),
    }


def check_recorded(workload, seed: int, scale: str) -> list[str]:
    """Compare output digests with the ones recorded for the default seed."""
    if seed != DEFAULT_SEED:
        return []
    recorded = json.loads(RECORDED_OUTPUTS.read_text(encoding="utf-8")).get(scale, {}).get(workload.name)
    if not recorded:
        return [f"{workload.name}: no outputs recorded for scale {scale}"]
    return [
        f"{workload.name} {key}: outputs differ from the recorded ones"
        for key, value in recorded.items()
        if workload.recorded.get(key) != value
    ]


def measure(args, directory: Path) -> tuple[dict, dict, list[Phase], list[str], Tracer | None, tuple | None]:
    """Set up and run one workload: (reported metrics, further figures, passes, mismatches, tracer, defects)."""
    workload = WORKLOADS[args.workload](args.seed, SCALES[args.scale])
    setup_times = []
    for repeat in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup(directory / f"setup{repeat}")
        setup_times.append(time.perf_counter() - start)
    warm = workload.warm_up(directory / "warm")
    mismatches = warm.mismatches if warm is not None else []

    defects = workload.defect_probe(directory / "defects")
    unrejected = sum(defects[0].values()) if defects else 0

    if not args.trace:
        workload.probe.samples_ns.clear()  # only probes taken between timed ops count
        phase = workload.run(directory / "timed", args.seconds, None, None)
        metrics = end_to_end(workload, phase, statistics.median(setup_times))
        figures = {**raw_figures(workload, phase), **workload.measured(phase)}
        passes = [phase]
        tracer = None
    else:
        ops = workload.trace_ops()
        tracer = Tracer()
        plain, traced = [], []
        for i in range(TRACED_PASSES):
            plain.append(workload.run(directory / f"plain{i}", None, ops, None))
            if workload.in_process:
                tracer.install()
            try:
                traced.append(workload.run(directory / f"traced{i}", None, ops, tracer))
            finally:
                tracer.uninstall()
        passes = plain + traced
        metrics = per_layer(tracer, fastest(plain), fastest(traced), ops * TRACED_PASSES, unrejected)
        figures = {}
    for phase in passes:
        mismatches += phase.mismatches
    mismatches += check_recorded(workload, args.seed, args.scale)
    print(f"outputs {json.dumps(workload.recorded, sort_keys=True)}")
    return metrics, figures, passes, mismatches, tracer, defects


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one stride benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(SCALES), default="full", help="smoke: tiny inputs, for a quick check")
    args = parser.parse_args(argv)

    print(f"env {json.dumps(environment(), sort_keys=True)}")
    WORK_DIR.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        metrics, figures, passes, mismatches, tracer, defects = measure(args, directory)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    if tracer is not None:
        tracer.dump(WORK_DIR / f"spans-{args.workload}.jsonl", workload=args.workload, seed=args.seed)

    attempted = sum(phase.attempted for phase in passes)
    failed = sum(phase.failed for phase in passes)
    failures = sum((phase.failures for phase in passes), start=Counter())
    for cause, count in sorted(failures.items()):
        print(f"failed {count} x {cause}")
    if defects is not None:
        mishandled, probed = defects
        for cause, count in sorted(mishandled.items()):
            print(f"known defect: {count} x non-finite or oversized manifest {cause}")
        print(f"metric poison.unrejected {sum(mishandled.values())} count")
        print(f"metric poison.probed {probed} count")
    for message in mismatches:
        print(f"MISMATCH {message}")
    print(f"metric attempted {attempted} ops")
    print(f"metric failed {failed} ops")
    print(f"metric failed_ratio {failed / attempted} ratio")
    for name, (value, unit) in {**metrics, **figures}.items():
        print(f"metric {name} {value} {unit}")

    result = {
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not mismatches else 1


if __name__ == "__main__":
    raise SystemExit(main())
