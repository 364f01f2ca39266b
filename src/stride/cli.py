"""Command-line interface.

Subcommands cover the full workflow: score a manifest, explain a stored
run, validate a manifest, plot saturation curves, select representative
samples, and diff two rating records.  Exit codes: 0 on success, 2 for
schema or invariant problems in the inputs, 3 when a computation or
store lookup cannot proceed, or when writing the output fails.  A reader
that closes the pipe early ends the output quietly, with the command's
own exit code.

Each handler imports the modules it runs, so one call loads only those,
and returns its exit code and its output, which :func:`main` writes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .errors import ComputationError, SchemaError, StoreError

if TYPE_CHECKING:
    from .model import StrideReport, WeightConfig


def _read_text(path: str, label: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {label} file {path!r}: {exc}") from None


def _load_weights(argument: str) -> WeightConfig:
    from .io import parse_weight_config

    # The literal 'equal' names no file; parse_weight_config expands it.
    text = argument if argument.strip() == "equal" else _read_text(argument, "weights")
    return parse_weight_config(text)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_score(args: argparse.Namespace) -> tuple[int, str]:
    from .io import parse_manifest, report_to_json
    from .runstore import save_run, store_path_from_env
    from .scoring import score_dataset

    manifest = parse_manifest(_read_text(args.manifest, "manifest"))
    config = _load_weights(args.weights)
    report = score_dataset(manifest, config)
    document = report_to_json(report)
    # --out is written first, so a bad output path saves no run.
    if args.out:
        try:
            Path(args.out).write_text(document, encoding="utf-8")
        except OSError as exc:
            raise SchemaError(f"cannot write output file {args.out!r}: {exc}") from None
    run_id = save_run(report, store_path_from_env())
    print(f"run saved: {run_id}", file=sys.stderr)
    return 0, "" if args.out else document


def format_explanation(report: StrideReport) -> str:
    """Plain-text walk from sub-scores through components to the trust value."""
    from .model import COMPONENT_METRICS, ComponentId
    from .scoring import component_breakdowns

    lines = [f"manifest digest: {report.manifest_digest}", ""]
    breakdowns = component_breakdowns(report)
    for index, component in enumerate(ComponentId):
        breakdown = breakdowns[component]
        sign = "-" if component is ComponentId.SELF_SERVING else "+"
        coefficient = report.config_snapshot.alpha[index]
        lines.append(
            f"{component.name.lower().replace('_', '-')} ({component.value}) = {breakdown.total:.4f}"
            f"   [enters as {sign}{coefficient:g} * {component.value}]"
        )
        in_breakdown = {term.metric_id for term in breakdown.terms}
        for term in breakdown.terms:
            lines.append(
                f"  {term.metric_id.value:<3} weight {term.weight:.4f}"
                f"  value {term.value:.4f}  contribution {term.contribution:.4f}"
            )
        for metric in COMPONENT_METRICS[component]:
            if metric not in in_breakdown:
                lines.append(f"  {metric.value:<3} not applicable")
        lines.append("")
    lines.append(f"trust = {report.trust:.4f}")
    return "\n".join(lines) + "\n"


def _cmd_explain(args: argparse.Namespace) -> tuple[int, str]:
    from .runstore import load_run, store_path_from_env

    record = load_run(args.run, store_path_from_env())
    return 0, f"run: {record.run_id}\nsaved: {record.timestamp}\n{format_explanation(record.report)}"


def _cmd_validate(args: argparse.Namespace) -> tuple[int, str]:
    from .io import manifest_violations

    manifest, violations = manifest_violations(_read_text(args.manifest, "manifest"))
    if not violations:
        return 0, f"{manifest.dataset_id or args.manifest}: ok\n"
    return 2, "".join(f"{violation}\n" for violation in violations)


def _cmd_sample_curve(args: argparse.Namespace) -> tuple[int, str]:
    from .io import parse_population
    from .sampling import saturation_curve

    population = parse_population(_read_text(args.population, "population"), args.population)
    try:
        sizes = [int(part) for part in args.sizes.split(",") if part.strip()]
    except ValueError:
        raise SchemaError(f"--sizes must be a comma-separated list of integers, got {args.sizes!r}") from None
    points = saturation_curve(population, args.criterion, sizes, args.seed, bins=args.bins)
    return 0, "sample_size,divergence\n" + "".join(f"{point.sample_size},{point.divergence!r}\n" for point in points)


def _cmd_sample_select(args: argparse.Namespace) -> tuple[int, str]:
    from .io import parse_population
    from .sampling import select_representative_sample

    population = parse_population(_read_text(args.population, "population"), args.population)
    if args.criteria:
        criteria = [part.strip() for part in args.criteria.split(",") if part.strip()]
    else:
        shared = set(population[0].criteria)
        for record in population[1:]:
            shared &= set(record.criteria)
        criteria = sorted(shared)
    result = select_representative_sample(
        population, args.k, criteria, args.seed, bins=args.bins, max_swaps=args.max_swaps
    )
    document = {
        "criteria": list(result.criteria),
        "deviation": result.deviation,
        "initial_deviation": result.initial_deviation,
        "k": args.k,
        "seed": args.seed,
        "selected": list(result.record_ids),
        "swaps_applied": result.swaps_applied,
    }
    try:
        text = json.dumps(document, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # NaN or an infinity among the divergences
        raise ComputationError(f"selection has no JSON form: {exc}") from None
    return 0, text + "\n"


def _cmd_delta(args: argparse.Namespace) -> tuple[int, str]:
    from .delta import build_delta_report, emit_delta_report
    from .io import parse_annotations, parse_rating_record

    baseline = parse_rating_record(_read_text(args.baseline, "baseline rating"), "baseline")
    recomputed = parse_rating_record(_read_text(args.stride, "rating"), "stride")
    annotations = (
        parse_annotations(_read_text(args.annotations, "annotations")) if args.annotations else {}
    )
    report = build_delta_report(baseline, recomputed, annotations)
    return 0, emit_delta_report(report, format=args.format)


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stride",
        description="Trust scoring for benchmark datasets and rating discrepancy analysis.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    score = commands.add_parser("score", help="score a dataset manifest")
    score.add_argument("--manifest", required=True, help="manifest JSON file")
    score.add_argument("--weights", required=True, help="weight config JSON file, or the literal 'equal'")
    score.add_argument("--out", help="write the report JSON here instead of stdout")
    score.set_defaults(handler=_cmd_score)

    explain = commands.add_parser("explain", help="show the per-step breakdown of a stored run")
    explain.add_argument("--run", required=True, help="run id (or unique prefix)")
    explain.set_defaults(handler=_cmd_explain)

    validate = commands.add_parser("validate", help="list manifest invariant violations")
    validate.add_argument("--manifest", required=True, help="manifest JSON file")
    validate.set_defaults(handler=_cmd_validate)

    sample = commands.add_parser("sample", help="sampling diagnostics")
    sample_commands = sample.add_subparsers(dest="sample_command", required=True)

    curve = sample_commands.add_parser("curve", help="saturation curve as CSV")
    curve.add_argument("--population", required=True, help="population records (JSON or CSV)")
    curve.add_argument("--criterion", required=True, help="criterion to compare on")
    curve.add_argument("--sizes", required=True, help="comma-separated sample sizes")
    curve.add_argument("--seed", required=True, type=int, help="random seed")
    curve.add_argument("--bins", type=int, default=10, help="bins for numeric criteria (default 10)")
    curve.set_defaults(handler=_cmd_sample_curve)

    select = sample_commands.add_parser("select", help="greedy representative subset")
    select.add_argument("--population", required=True, help="population records (JSON or CSV)")
    select.add_argument("--k", required=True, type=int, help="subset size")
    select.add_argument("--seed", required=True, type=int, help="random seed")
    select.add_argument("--criteria", help="comma-separated criteria (default: all shared)")
    select.add_argument("--bins", type=int, default=10, help="bins for numeric criteria (default 10)")
    select.add_argument("--max-swaps", type=int, help="swap budget (default 10 * k)")
    select.set_defaults(handler=_cmd_sample_select)

    delta = commands.add_parser("delta", help="diff two rating records and classify discrepancies")
    delta.add_argument("--baseline", required=True, help="baseline rating record JSON")
    delta.add_argument("--stride", required=True, help="recomputed rating record JSON")
    delta.add_argument("--annotations", help="analyst annotations JSON")
    delta.add_argument("--format", choices=("json", "markdown"), default="json", help="output format")
    delta.set_defaults(handler=_cmd_delta)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, output = args.handler(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ComputationError, StoreError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if not output:
        return code
    if sys.stdout is None:  # the process was started with stdout closed
        print("error: cannot write output: stdout is closed", file=sys.stderr)
        return 3
    try:
        sys.stdout.write(output)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader stopped reading, as `head` does: nothing is wrong here.
        _discard_stdout()
    except OSError as exc:  # such as a full disk
        _discard_stdout()
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 3
    return code


def _discard_stdout() -> None:
    """Send what stdout still buffers to the null device.

    The interpreter flushes stdout once more at exit; that flush would
    fail again and print a traceback.
    """
    try:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
    except (OSError, ValueError):  # no file descriptor behind stdout
        pass


if __name__ == "__main__":
    raise SystemExit(main())
