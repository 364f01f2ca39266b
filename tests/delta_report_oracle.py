"""Frozen reference for SR-Delta classification and emission.

A copy of :func:`stride.delta.attach_classification`, ``_item_dict``,
the JSON branch of :func:`stride.delta.emit_delta_report` and the
Markdown writer with its number formatters, as they were when an
unannotated difference built its item on a path of its own and the JSON
document listed every field by hand.  The engine must build the same
items, write the same bytes in both formats, and refuse the same
annotations with the same message.  Only the record and report types
and ``SPEC_VERSION`` come from the engine.
"""

from __future__ import annotations

import json
from typing import Mapping, Sequence

from stride.delta import Annotation, DeltaReport, DiscrepancyCategory, DiscrepancyItem, Interval, RatingDiff
from stride.errors import SchemaError
from stride.model import SPEC_VERSION


def validate_interval(interval: Interval, path: str = "interval") -> Interval:
    if interval.lower > interval.upper:
        raise SchemaError(f"{path}: lower bound {interval.lower!r} exceeds upper bound {interval.upper!r}")
    return interval


def attach_classification(
    diffs: Sequence[RatingDiff],
    annotations: Mapping[str, Annotation],
) -> tuple[DiscrepancyItem, ...]:
    keys = {diff.issue_key for diff in diffs}
    for key in annotations:
        if key not in keys:
            raise SchemaError(f"annotation for unknown issue key {key!r}")

    items = []
    for diff in diffs:
        annotation = annotations.get(diff.issue_key)
        if annotation is not None:
            validate_interval(annotation.adjustment, f"annotations[{diff.issue_key!r}].adjustment")
            if annotation.stride_assessment is not None:
                assessment = validate_interval(
                    annotation.stride_assessment,
                    f"annotations[{diff.issue_key!r}].stride_assessment",
                )
            elif diff.stride_score is not None:
                assessment = Interval(diff.stride_score, diff.stride_score)
            else:
                assessment = None
            items.append(
                DiscrepancyItem(
                    issue_key=diff.issue_key,
                    baseline_score=diff.baseline_score,
                    stride_assessment=assessment,
                    category=annotation.category,
                    adjustment=annotation.adjustment,
                    evidence_refs=annotation.evidence_refs,
                    narrative=annotation.narrative,
                )
            )
        elif diff.delta is not None and diff.delta != 0:
            items.append(
                DiscrepancyItem(
                    issue_key=diff.issue_key,
                    baseline_score=diff.baseline_score,
                    stride_assessment=Interval(diff.stride_score, diff.stride_score),
                    category=DiscrepancyCategory.OTHER_SCORING_ERROR,
                    adjustment=Interval(diff.delta, diff.delta),
                    evidence_refs=(),
                    narrative="",
                )
            )
    return tuple(items)


def format_signed(value: float) -> str:
    return f"{value:+.4g}"


def format_interval(interval: Interval) -> str:
    if interval.lower == interval.upper:
        return format_signed(interval.lower)
    return f"{format_signed(interval.lower)} to {format_signed(interval.upper)}"


def _item_dict(item: DiscrepancyItem) -> dict:
    return {
        "issue_key": item.issue_key,
        "baseline_score": item.baseline_score,
        "stride_assessment": None
        if item.stride_assessment is None
        else {"lower": item.stride_assessment.lower, "upper": item.stride_assessment.upper},
        "category": item.category.value,
        "adjustment": {"lower": item.adjustment.lower, "upper": item.adjustment.upper},
        "evidence_refs": list(item.evidence_refs),
        "narrative": item.narrative,
    }


def emit_json(report: DeltaReport) -> str:
    net = report.net_adjustment
    document = {
        "spec_version": SPEC_VERSION,
        "baseline_overall": report.baseline_overall,
        "items": [_item_dict(item) for item in report.items],
        "net_adjustment": {"lower": net.lower, "upper": net.upper},
        "notes": report.notes,
    }
    return json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"


def emit_markdown(report: DeltaReport) -> str:
    lines = ["# Rating discrepancy report", ""]
    if report.baseline_overall:
        lines += [f"Baseline overall rating: {report.baseline_overall}", ""]
    for item in report.items:
        baseline_text = "not scored" if item.baseline_score is None else f"{item.baseline_score:g}"
        if item.stride_assessment is None:
            ours_text = "not scored"
        elif item.stride_assessment.lower == item.stride_assessment.upper:
            ours_text = f"{item.stride_assessment.lower:g}"
        else:
            ours_text = f"{item.stride_assessment.lower:g} to {item.stride_assessment.upper:g}"
        lines += [
            f"## {item.issue_key}",
            "",
            f"**Finding:** baseline score {baseline_text}; recomputed assessment {ours_text}.",
            "",
            "**Reference definition:** " + ("; ".join(item.evidence_refs) if item.evidence_refs else "none cited"),
            "",
            "**Analysis:** " + (item.narrative or "no analyst narrative"),
            "",
            f"**Conclusion:** {item.category.value}; adjustment {format_interval(item.adjustment)}.",
            "",
        ]
    if not report.items:
        lines += ["No discrepancies.", ""]
    lines += [f"**Net adjustment: {format_interval(report.net_adjustment)}**"]
    if report.notes:
        lines += ["", f"Notes: {report.notes}"]
    return "\n".join(lines) + "\n"
