"""SR-Delta classification and emission against their frozen reference.

``delta_report_oracle`` keeps ``attach_classification``, the hand-listed
JSON document and the Markdown writer as they were when an unannotated
difference built its item on a path of its own.  For seeded rating
records and annotations the engine must build equal items, write the
same JSON and Markdown bytes, and refuse the same annotations with the
same exception type and message.

The records draw from keys and texts with non-ASCII characters, quotes
and backslashes.  They mix issues scored on both sides or on one, equal
scores (zero deltas), mismatched scales, and point and range intervals
with and without evidence.  Refusals cover an annotation for an unknown
issue and ``lower > upper`` in an adjustment or a ``stride_assessment``.
"""

from __future__ import annotations

import random
from datetime import date

import pytest

import delta_report_oracle as oracle
from stride.delta import (
    Annotation,
    DeltaReport,
    DiscrepancyCategory,
    Interval,
    IssueScore,
    RatingRecord,
    attach_classification,
    build_delta_report,
    diff_ratings,
    emit_delta_report,
    net_adjustment,
)
from stride.errors import SchemaError

SEEDS = range(300)
KEYS = ("pay", "hours", "safety", "émissions", "水资源", "quote \"q\"", "it's", "back\\slash", "🌍 climate", "")
TEXTS = ("", "ISO 45001", "« citée » \"quoted\"", "line\nbreak", "tab\tand \\", "日本語の説明", "it's ok")
OVERALL = ("", "BB", "A+", "« AA » \"top\"")
SCALES = ((0.0, 10.0), (0.0, 5.0), (-3.0, 3.0), (0.0, 100.0))
_PERIOD = (date(2023, 1, 1), date(2023, 12, 31))


def _record(label: str, scores: dict[str, IssueScore], overall: str) -> RatingRecord:
    return RatingRecord(label, _PERIOD[0], _PERIOD[1], overall, scores)


def _score(rng: random.Random, scale: tuple[float, float]) -> float:
    low, high = scale
    return rng.choice((low, high, round(rng.uniform(low, high), rng.randint(0, 6)), rng.uniform(low, high)))


def _interval(rng: random.Random) -> Interval:
    lower = rng.choice((0.0, -0.5, 1.25, round(rng.uniform(-5, 5), 3), rng.uniform(-1e-3, 1e-3)))
    return Interval(lower, lower if rng.random() < 0.5 else lower + rng.choice((0.1, 2.0, rng.random())))


def _annotation(rng: random.Random) -> Annotation:
    return Annotation(
        category=rng.choice(list(DiscrepancyCategory)),
        adjustment=_interval(rng),
        evidence_refs=tuple(rng.choice(TEXTS[1:]) for _ in range(rng.randint(0, 3))),
        narrative=rng.choice(TEXTS),
        stride_assessment=_interval(rng) if rng.random() < 0.3 else None,
    )


def _case(seed: int) -> tuple[RatingRecord, RatingRecord, dict[str, Annotation]]:
    rng = random.Random(seed)
    keys = rng.sample(KEYS, rng.randint(0, len(KEYS)))
    baseline, stride = {}, {}
    for key in keys:
        scale = rng.choice(SCALES)
        side = rng.random()
        if side < 0.8:
            baseline[key] = IssueScore(_score(rng, scale), *scale)
        if side > 0.2:
            ours_scale = rng.choice(SCALES) if rng.random() < 0.15 else scale
            if key in baseline and ours_scale == scale and rng.random() < 0.3:
                stride[key] = baseline[key]  # an equal score: a zero delta
            else:
                stride[key] = IssueScore(_score(rng, ours_scale), *ours_scale)
    annotated = [key for key in keys if rng.random() < 0.5]
    annotations = {key: _annotation(rng) for key in annotated}
    return _record("baseline", baseline, rng.choice(OVERALL)), _record("stride", stride, ""), annotations


def _check_same(baseline: RatingRecord, stride: RatingRecord, annotations: dict[str, Annotation]) -> DeltaReport:
    expected_items = oracle.attach_classification(diff_ratings(baseline, stride), annotations)
    report = build_delta_report(baseline, stride, annotations)
    assert report.items == expected_items
    assert repr(report.items) == repr(expected_items)
    expected = DeltaReport(expected_items, net_adjustment(expected_items), baseline.overall_rating, report.notes)
    assert emit_delta_report(report, "json") == oracle.emit_json(expected)
    assert emit_delta_report(report, "markdown") == oracle.emit_markdown(expected)
    return report


def _refusal(classify, diffs, annotations) -> tuple[type, str]:
    with pytest.raises(SchemaError) as caught:
        classify(diffs, annotations)
    return type(caught.value), str(caught.value)


def _check_refused_alike(baseline: RatingRecord, stride: RatingRecord, annotations: dict[str, Annotation]) -> None:
    diffs = diff_ratings(baseline, stride)
    assert _refusal(attach_classification, diffs, annotations) == _refusal(
        oracle.attach_classification, diffs, annotations
    )


def _inverted(interval: Interval) -> Interval:
    return Interval(interval.upper + 1.0, interval.lower)


@pytest.mark.parametrize("seed", SEEDS)
def test_items_and_bytes_match_the_reference(seed):
    _check_same(*_case(seed))


@pytest.mark.parametrize("seed", SEEDS[:100])
def test_refusals_match_the_reference(seed):
    baseline, stride, annotations = _case(seed)
    rng = random.Random(seed)
    unknown = rng.choice(("ghost", "fantôme \"x\"", "")) + "?"
    _check_refused_alike(baseline, stride, {**annotations, unknown: _annotation(rng)})
    if not annotations:
        return
    key = rng.choice(sorted(annotations))
    annotation = annotations[key]
    assessment = annotation.stride_assessment or Interval(0.0, 0.0)
    for bad in (
        Annotation(annotation.category, _inverted(annotation.adjustment), annotation.evidence_refs),
        Annotation(annotation.category, annotation.adjustment, stride_assessment=_inverted(assessment)),
        Annotation(annotation.category, _inverted(annotation.adjustment), stride_assessment=_inverted(assessment)),
    ):
        _check_refused_alike(baseline, stride, {**annotations, key: bad})


def test_the_cases_cover_every_shape():
    """The seeded cases reach every branch the differential is meant to cover."""
    seen = set()
    for seed in SEEDS:
        baseline, stride, annotations = _case(seed)
        report = build_delta_report(baseline, stride, annotations)
        seen.add("empty" if not report.items else "items")
        for item in report.items:
            annotation = annotations.get(item.issue_key)
            seen.add("fallback" if annotation is None else "annotated")
            if item.stride_assessment is None:
                seen.add("no assessment")
            elif item.stride_assessment.lower != item.stride_assessment.upper:
                seen.add("range assessment")
            seen.add("range adjustment" if item.adjustment.width else "point adjustment")
            if item.evidence_refs:
                seen.add("evidence")
        for diff in diff_ratings(baseline, stride):
            seen.add("one-sided" if diff.delta is None else "zero delta" if diff.delta == 0 else "non-zero delta")
            if diff.scale_mismatch:
                seen.add("scale mismatch")
    assert seen == {
        "empty",
        "items",
        "fallback",
        "annotated",
        "no assessment",
        "range assessment",
        "range adjustment",
        "point adjustment",
        "evidence",
        "one-sided",
        "zero delta",
        "non-zero delta",
        "scale mismatch",
    }


@pytest.mark.parametrize(
    "baseline, stride",
    [
        ({}, {}),
        ({"pay": 3.0}, {"pay": 3.0}),
        ({"pay": 3.0}, {}),
        ({}, {"水": 1.5}),
        ({"it's": 0.0, "\"q\"": 10.0}, {"it's": 10.0, "\"q\"": 0.0}),
    ],
    ids=["no-issues", "zero-delta", "baseline-only", "stride-only", "quoted-keys"],
)
@pytest.mark.parametrize("annotate", [False, True], ids=["bare", "annotated"])
def test_hand_written_cases_match_the_reference(baseline, stride, annotate):
    def record(label, scores):
        return _record(label, {key: IssueScore(value, 0.0, 10.0) for key, value in scores.items()}, "B « b »")

    keys = sorted(set(baseline) | set(stride))
    annotations = {
        key: Annotation(DiscrepancyCategory.DEFINITION_AMBIGUITY, Interval(-0.5, 0.25), ("réf « 1 »",), "n\"a\"")
        for key in keys
        if annotate
    }
    _check_same(record("baseline", baseline), record("stride", stride), annotations)
