"""Rating discrepancy analysis between a baseline rater and a recomputation.

Given two issue-level rating records, the pipeline is: diff the shared
issue keys, attach human-supplied classifications with interval-valued
adjustments, and fold the item adjustments into a net interval.  The
tool never invents a classification beyond the fallback bucket for
unannotated non-zero differences, and it never rescales scores; scale
mismatches are reported as found.  The JSON document is the report's
dataclass fields plus ``spec_version``.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from datetime import date
from enum import Enum
from typing import Callable, Iterator, Mapping, Sequence

from .errors import ComputationError, SchemaError, _is_finite
from .model import SPEC_VERSION


class DiscrepancyCategory(str, Enum):
    """Buckets an analyst can assign to one rating difference."""

    DEFINITION_AMBIGUITY = "definition_ambiguity"
    OVER_PENALIZATION = "over_penalization"
    UNDER_PENALIZATION = "under_penalization"
    OTHER_SCORING_ERROR = "other_scoring_error"


@dataclass(frozen=True)
class Interval:
    """A closed real interval; degenerate intervals carry a point value."""

    lower: float
    upper: float

    def __add__(self, other: Interval) -> Interval:
        return Interval(self.lower + other.lower, self.upper + other.upper)

    @property
    def width(self) -> float:
        return self.upper - self.lower


ZERO_INTERVAL = Interval(0.0, 0.0)


def validate_interval(interval: Interval, path: str = "interval") -> Interval:
    if not (_is_finite(interval.lower) and _is_finite(interval.upper)):
        raise SchemaError(f"{path}: bounds must be finite numbers within float range")
    if interval.lower > interval.upper:
        raise SchemaError(f"{path}: lower bound {interval.lower!r} exceeds upper bound {interval.upper!r}")
    return interval


@dataclass(frozen=True)
class IssueScore:
    """One issue-level score with the scale it was assigned on."""

    score: float
    scale_min: float
    scale_max: float
    methodology_citation: str = field(default="", metadata={"omittable": True})


@dataclass(frozen=True)
class RatingRecord:
    """A dated, per-issue rating from one source."""

    source_label: str
    period_start: date
    period_end: date
    overall_rating: str
    issue_scores: Mapping[str, IssueScore]


@dataclass(frozen=True)
class RatingDiff:
    """Per-issue difference between two rating records.

    ``delta`` is recomputed minus baseline and is absent when either
    side is missing the issue.  ``scale_mismatch`` marks issues the two
    records scored on different scales; their deltas are still reported
    without any rescaling.
    """

    issue_key: str
    baseline_score: float | None
    stride_score: float | None
    delta: float | None
    scale_mismatch: bool


@dataclass(frozen=True)
class Annotation:
    """Analyst-supplied classification for one diffed issue."""

    category: DiscrepancyCategory
    adjustment: Interval
    evidence_refs: tuple[str, ...] = field(default=(), metadata={"key": "evidence", "omittable": True})
    narrative: str = field(default="", metadata={"omittable": True})
    stride_assessment: Interval | None = None  # overrides the point score on display


@dataclass(frozen=True)
class DiscrepancyItem:
    """One classified discrepancy with its score adjustment interval."""

    issue_key: str
    baseline_score: float | None
    stride_assessment: Interval | None
    category: DiscrepancyCategory
    adjustment: Interval
    evidence_refs: tuple[str, ...]
    narrative: str


@dataclass(frozen=True)
class DeltaReport:
    """Classified discrepancy items plus their net adjustment."""

    items: tuple[DiscrepancyItem, ...]
    net_adjustment: Interval
    baseline_overall: str = ""
    notes: str = ""


def _validate_record(record: RatingRecord, label: str) -> None:
    for key, issue in record.issue_scores.items():
        path = f"{label}.issue_scores[{key!r}]"
        for name in ("score", "scale_min", "scale_max"):
            if not _is_finite(getattr(issue, name)):
                raise SchemaError(f"{path}.{name}: expected a finite number within float range")
        if issue.scale_min >= issue.scale_max:
            raise SchemaError(f"{path}: scale_min must be below scale_max")
        if not issue.scale_min <= issue.score <= issue.scale_max:
            raise SchemaError(
                f"{path}: score {issue.score!r} outside scale [{issue.scale_min!r}, {issue.scale_max!r}]"
            )


def diff_ratings(baseline: RatingRecord, stride: RatingRecord) -> tuple[RatingDiff, ...]:
    """One diff per issue key present in either record, ordered by key.

    Raises :class:`SchemaError` for a score or scale bound that is not a
    finite number within float range, and :class:`ComputationError` when
    a delta overflows float range.
    """
    _validate_record(baseline, "baseline")
    _validate_record(stride, "stride")
    diffs = []
    for key in sorted(set(baseline.issue_scores) | set(stride.issue_scores)):
        base = baseline.issue_scores.get(key)
        ours = stride.issue_scores.get(key)
        mismatch = (
            base is not None
            and ours is not None
            and (base.scale_min != ours.scale_min or base.scale_max != ours.scale_max)
        )
        delta = ours.score - base.score if base is not None and ours is not None else None
        if delta is not None and not _is_finite(delta):  # an int difference may be past float range too
            raise ComputationError(
                f"issue {key!r}: recomputed {ours.score!r} minus baseline {base.score!r} is beyond float range"
            )
        diffs.append(
            RatingDiff(
                issue_key=key,
                baseline_score=None if base is None else base.score,
                stride_score=None if ours is None else ours.score,
                delta=delta,
                scale_mismatch=mismatch,
            )
        )
    return tuple(diffs)


def attach_classification(
    diffs: Sequence[RatingDiff],
    annotations: Mapping[str, Annotation],
) -> tuple[DiscrepancyItem, ...]:
    """Turn diffs into classified items.

    Annotated diffs take the analyst's category and adjustment.
    Unannotated diffs with a non-zero delta are annotated with
    ``other_scoring_error`` and the degenerate interval [delta, delta].
    Zero or one-sided diffs without an annotation produce no item.
    """
    keys = {diff.issue_key for diff in diffs}
    for key in annotations:
        if key not in keys:
            raise SchemaError(f"annotation for unknown issue key {key!r}")

    items = []
    for diff in diffs:
        annotation = annotations.get(diff.issue_key)
        if annotation is None:
            if diff.delta is None or diff.delta == 0:
                continue
            annotation = Annotation(DiscrepancyCategory.OTHER_SCORING_ERROR, Interval(diff.delta, diff.delta))
        path = f"annotations[{diff.issue_key!r}]"
        validate_interval(annotation.adjustment, f"{path}.adjustment")
        if annotation.stride_assessment is not None:
            assessment = validate_interval(annotation.stride_assessment, f"{path}.stride_assessment")
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
    return tuple(items)


def net_adjustment(items: Sequence[DiscrepancyItem]) -> Interval:
    """Endpoint-wise sum of item adjustments; [0, 0] for no items.

    Raises :class:`ComputationError` when a bound or the sum is not a
    finite number within float range.
    """
    total = ZERO_INTERVAL
    for item in items:
        if not (_is_finite(item.adjustment.lower) and _is_finite(item.adjustment.upper)):
            raise ComputationError("net adjustment is beyond float range")
        total = total + item.adjustment
    if not (math.isfinite(total.lower) and math.isfinite(total.upper)):
        raise ComputationError("net adjustment is beyond float range")
    return total


def build_delta_report(
    baseline: RatingRecord,
    stride: RatingRecord,
    annotations: Mapping[str, Annotation],
) -> DeltaReport:
    """Run the full diff-classify-net pipeline and collect caveats."""
    diffs = diff_ratings(baseline, stride)
    items = attach_classification(diffs, annotations)
    notes = []
    mismatched = [d.issue_key for d in diffs if d.scale_mismatch]
    if mismatched:
        notes.append("scales differ on: " + ", ".join(mismatched))
    one_sided = [d.issue_key for d in diffs if d.delta is None]
    if one_sided:
        notes.append("scored on one side only: " + ", ".join(one_sided))
    return DeltaReport(
        items=items,
        net_adjustment=net_adjustment(items),
        baseline_overall=baseline.overall_rating,
        notes="; ".join(notes),
    )


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------


def format_signed(value: float) -> str:
    """Signed compact number, e.g. +1.2, -0.85, +0.1."""
    return f"{value:+.4g}"


def _point_or_range(interval: Interval, number: Callable[[float], str]) -> str:
    if interval.lower == interval.upper:
        return number(interval.lower)
    return f"{number(interval.lower)} to {number(interval.upper)}"


def format_interval(interval: Interval) -> str:
    return _point_or_range(interval, format_signed)


def emit_delta_report(report: DeltaReport, format: str = "json") -> str:
    """Render a delta report's items and net adjustment as JSON or markdown.

    The JSON document is ``spec_version`` plus the report's dataclass
    fields under their own names, with sorted keys; an interval is an
    object of ``lower`` and ``upper``.  Output is a pure function of the
    report: same report, same bytes.

    Raises :class:`ComputationError` for a report holding NaN, an
    infinity or an integer beyond float range, which neither format shows.
    """
    for path, number in _report_numbers(report):
        if number is not None and not _is_finite(number):
            raise ComputationError(f"delta report has no finite {path}")
    if format == "json":
        document = {"spec_version": SPEC_VERSION, **asdict(report)}
        return json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if format == "markdown":
        return _markdown_report(report)
    raise SchemaError(f"unknown report format {format!r}")


def _report_numbers(report: DeltaReport) -> Iterator[tuple[str, float | None]]:
    """Each number a report holds, with its path in the JSON document."""
    for index, item in enumerate(report.items):
        yield f"items[{index}].baseline_score", item.baseline_score
        for name in ("stride_assessment", "adjustment"):
            interval = getattr(item, name)
            if interval is not None:
                yield f"items[{index}].{name}.lower", interval.lower
                yield f"items[{index}].{name}.upper", interval.upper
    yield "net_adjustment.lower", report.net_adjustment.lower
    yield "net_adjustment.upper", report.net_adjustment.upper


def _markdown_report(report: DeltaReport) -> str:
    lines = ["# Rating discrepancy report", ""]
    if report.baseline_overall:
        lines += [f"Baseline overall rating: {report.baseline_overall}", ""]
    for item in report.items:
        baseline_text = "not scored" if item.baseline_score is None else f"{item.baseline_score:g}"
        ours = item.stride_assessment
        ours_text = "not scored" if ours is None else _point_or_range(ours, "{:g}".format)
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
