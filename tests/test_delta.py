"""Rating diffs, discrepancy classification, and report emission."""

from __future__ import annotations

import json
import math
from datetime import date

import pytest

from stride.delta import (
    ZERO_INTERVAL,
    Annotation,
    DeltaReport,
    DiscrepancyCategory,
    DiscrepancyItem,
    Interval,
    IssueScore,
    RatingDiff,
    RatingRecord,
    attach_classification,
    build_delta_report,
    diff_ratings,
    emit_delta_report,
    format_interval,
    format_signed,
    net_adjustment,
    validate_interval,
)
from stride.errors import ComputationError, SchemaError

_PERIOD = (date(2023, 1, 1), date(2023, 12, 31))


def _record(label: str, scores: dict[str, float], scale=(0.0, 10.0), overall="BB") -> RatingRecord:
    return RatingRecord(
        source_label=label,
        period_start=_PERIOD[0],
        period_end=_PERIOD[1],
        overall_rating=overall,
        issue_scores={key: IssueScore(value, scale[0], scale[1]) for key, value in scores.items()},
    )


class TestIntervals:
    def test_addition_is_endpoint_wise(self):
        assert Interval(0.1, 0.4) + Interval(-0.2, 0.3) == Interval(0.1 - 0.2, 0.4 + 0.3)

    def test_width(self):
        assert Interval(-1.0, 2.5).width == 3.5
        assert Interval(0.7, 0.7).width == 0.0

    def test_inverted_bounds_are_rejected(self):
        with pytest.raises(SchemaError, match="exceeds upper bound"):
            validate_interval(Interval(1.0, 0.5), "adjustment")

    def test_signed_formatting(self):
        assert format_signed(1.2) == "+1.2"
        assert format_signed(-0.85) == "-0.85"
        assert format_signed(0.0) == "+0"

    def test_interval_formatting(self):
        assert format_interval(Interval(0.1, 0.7)) == "+0.1 to +0.7"
        assert format_interval(Interval(-0.3, -0.3)) == "-0.3"


class TestDiffRatings:
    def test_diffs_cover_sorted_key_union(self):
        baseline = _record("baseline", {"water": 4.0, "labor": 6.0})
        ours = _record("ours", {"labor": 5.0, "emissions": 2.0})
        diffs = diff_ratings(baseline, ours)
        assert [d.issue_key for d in diffs] == ["emissions", "labor", "water"]

    def test_delta_is_recomputed_minus_baseline(self):
        baseline = _record("baseline", {"labor": 6.0})
        ours = _record("ours", {"labor": 4.5})
        (diff,) = diff_ratings(baseline, ours)
        assert diff.delta == pytest.approx(-1.5, abs=1e-12)
        assert not diff.scale_mismatch

    def test_one_sided_issues_have_no_delta(self):
        baseline = _record("baseline", {"water": 4.0})
        ours = _record("ours", {})
        (diff,) = diff_ratings(baseline, ours)
        assert diff.baseline_score == 4.0
        assert diff.stride_score is None
        assert diff.delta is None

    def test_scale_mismatch_is_flagged_not_rescaled(self):
        baseline = _record("baseline", {"labor": 6.0}, scale=(0.0, 10.0))
        ours = _record("ours", {"labor": 0.6}, scale=(0.0, 1.0))
        (diff,) = diff_ratings(baseline, ours)
        assert diff.scale_mismatch
        assert diff.delta == pytest.approx(0.6 - 6.0, abs=1e-12)

    def test_score_outside_scale_is_rejected(self):
        baseline = _record("baseline", {"labor": 12.0})
        ours = _record("ours", {"labor": 5.0})
        with pytest.raises(SchemaError, match="outside scale"):
            diff_ratings(baseline, ours)

    def test_inverted_scale_is_rejected(self):
        baseline = RatingRecord("baseline", *_PERIOD, "BB", {"labor": IssueScore(5.0, 10.0, 0.0)})
        ours = _record("ours", {"labor": 5.0})
        with pytest.raises(SchemaError, match="scale_min must be below"):
            diff_ratings(baseline, ours)


class TestClassification:
    def test_annotation_sets_category_and_adjustment(self):
        diffs = diff_ratings(_record("b", {"labor": 6.0}), _record("s", {"labor": 5.0}))
        annotation = Annotation(
            category=DiscrepancyCategory.OVER_PENALIZATION,
            adjustment=Interval(-1.1, -0.5),
            evidence_refs=("methodology page 4",),
            narrative="penalty double counted",
        )
        (item,) = attach_classification(diffs, {"labor": annotation})
        assert item.category is DiscrepancyCategory.OVER_PENALIZATION
        assert item.adjustment == Interval(-1.1, -0.5)
        assert item.stride_assessment == Interval(5.0, 5.0)
        assert item.evidence_refs == ("methodology page 4",)

    def test_analyst_assessment_interval_overrides_point_score(self):
        diffs = diff_ratings(_record("b", {"labor": 6.0}), _record("s", {"labor": 5.0}))
        annotation = Annotation(
            category=DiscrepancyCategory.OVER_PENALIZATION,
            adjustment=Interval(-1.0, -0.5),
            stride_assessment=Interval(4.8, 5.2),
        )
        (item,) = attach_classification(diffs, {"labor": annotation})
        assert item.stride_assessment == Interval(4.8, 5.2)

    def test_unannotated_nonzero_delta_falls_back(self):
        diffs = diff_ratings(_record("b", {"labor": 6.0}), _record("s", {"labor": 4.0}))
        (item,) = attach_classification(diffs, {})
        assert item.category is DiscrepancyCategory.OTHER_SCORING_ERROR
        assert item.adjustment == Interval(-2.0, -2.0)
        assert item.narrative == ""

    def test_fallback_without_a_recomputed_score_has_no_assessment(self):
        # Only a hand-built diff has a delta without a recomputed score.
        diff = RatingDiff("labor", 6.0, None, -2.0, False)
        (item,) = attach_classification([diff], {})
        assert item.stride_assessment is None
        assert item.adjustment == Interval(-2.0, -2.0)

    def test_zero_delta_without_annotation_produces_no_item(self):
        diffs = diff_ratings(_record("b", {"labor": 6.0}), _record("s", {"labor": 6.0}))
        assert attach_classification(diffs, {}) == ()

    def test_one_sided_issue_without_annotation_produces_no_item(self):
        diffs = diff_ratings(_record("b", {"labor": 6.0}), _record("s", {}))
        assert attach_classification(diffs, {}) == ()

    def test_annotation_for_unknown_key_is_rejected(self):
        diffs = diff_ratings(_record("b", {"labor": 6.0}), _record("s", {"labor": 5.0}))
        annotation = Annotation(DiscrepancyCategory.DEFINITION_AMBIGUITY, Interval(0.0, 0.5))
        with pytest.raises(SchemaError, match="unknown issue key"):
            attach_classification(diffs, {"water": annotation})

    def test_inverted_adjustment_interval_is_rejected(self):
        diffs = diff_ratings(_record("b", {"labor": 6.0}), _record("s", {"labor": 5.0}))
        annotation = Annotation(DiscrepancyCategory.DEFINITION_AMBIGUITY, Interval(0.5, 0.0))
        with pytest.raises(SchemaError, match="exceeds upper bound"):
            attach_classification(diffs, {"labor": annotation})


class TestNetAdjustment:
    def test_no_items_nets_to_zero(self):
        assert net_adjustment([]) == ZERO_INTERVAL

    def test_endpoints_add_independently(self):
        items = [
            DiscrepancyItem("a", 1.0, None, DiscrepancyCategory.DEFINITION_AMBIGUITY, Interval(0.2, 0.4), (), ""),
            DiscrepancyItem("b", 2.0, None, DiscrepancyCategory.OVER_PENALIZATION, Interval(-0.3, 0.1), (), ""),
        ]
        net = net_adjustment(items)
        assert net.lower == pytest.approx(-0.1, abs=1e-12)
        assert net.upper == pytest.approx(0.5, abs=1e-12)

    def test_fallback_classification_is_antisymmetric(self):
        baseline = _record("b", {"labor": 6.0, "water": 3.0})
        ours = _record("s", {"labor": 4.5, "water": 3.5})
        forward = net_adjustment(attach_classification(diff_ratings(baseline, ours), {}))
        backward = net_adjustment(attach_classification(diff_ratings(ours, baseline), {}))
        assert forward.lower == -backward.upper
        assert forward.upper == -backward.lower


class TestDeltaReport:
    def test_case_study_net_interval(self, luxshare_baseline, luxshare_recomputed, luxshare_annotations):
        report = build_delta_report(luxshare_baseline, luxshare_recomputed, luxshare_annotations)
        assert report.net_adjustment.lower == pytest.approx(0.1, abs=1e-12)
        assert report.net_adjustment.upper == pytest.approx(0.7, abs=1e-12)
        assert report.baseline_overall == "BB"
        assert report.notes == ""
        assert [item.issue_key for item in report.items] == ["chemical_safety", "executive_pay_disclosure"]

    def test_scale_mismatch_lands_in_notes(self):
        baseline = _record("b", {"labor": 6.0}, scale=(0.0, 10.0))
        ours = _record("s", {"labor": 0.6}, scale=(0.0, 1.0))
        report = build_delta_report(baseline, ours, {})
        assert "scales differ on: labor" in report.notes

    def test_one_sided_issues_land_in_notes(self):
        baseline = _record("b", {"labor": 6.0, "water": 3.0})
        ours = _record("s", {"labor": 6.0})
        report = build_delta_report(baseline, ours, {})
        assert "scored on one side only: water" in report.notes

    def test_json_emission_round_trips(self, luxshare_baseline, luxshare_recomputed, luxshare_annotations):
        report = build_delta_report(luxshare_baseline, luxshare_recomputed, luxshare_annotations)
        text = emit_delta_report(report, "json")
        assert text.endswith("\n")
        document = json.loads(text)
        assert document["baseline_overall"] == "BB"
        assert document["net_adjustment"]["lower"] == report.net_adjustment.lower
        assert document["net_adjustment"]["upper"] == report.net_adjustment.upper
        assert [item["issue_key"] for item in document["items"]] == ["chemical_safety", "executive_pay_disclosure"]
        again = emit_delta_report(report, "json")
        assert text == again

    def test_markdown_emission_structure(self, luxshare_baseline, luxshare_recomputed, luxshare_annotations):
        report = build_delta_report(luxshare_baseline, luxshare_recomputed, luxshare_annotations)
        text = emit_delta_report(report, "markdown")
        assert text.startswith("# Rating discrepancy report\n")
        assert "## chemical_safety" in text
        assert "## executive_pay_disclosure" in text
        for heading in ("**Finding:**", "**Reference definition:**", "**Analysis:**", "**Conclusion:**"):
            assert heading in text
        assert "**Net adjustment: +0.1 to +0.7**" in text

    def test_markdown_without_items(self):
        text = emit_delta_report(DeltaReport((), ZERO_INTERVAL), "markdown")
        assert "No discrepancies." in text
        assert "**Net adjustment: +0**" in text

    def test_json_writes_a_plain_string_category_as_given(self):
        item = DiscrepancyItem("labor", 6.0, None, "hand_built", Interval(0.0, 0.5), ("p. 4",), "")
        document = json.loads(emit_delta_report(DeltaReport((item,), item.adjustment), "json"))
        assert document["items"][0]["category"] == "hand_built"
        assert document["items"][0]["evidence_refs"] == ["p. 4"]

    def test_unknown_format_is_rejected(self):
        with pytest.raises(SchemaError, match="unknown report format"):
            emit_delta_report(DeltaReport((), ZERO_INTERVAL), "yaml")


class TestNonFiniteNumbers:
    """NaN, the infinities and integers beyond float range are refused where they enter, by path."""

    @pytest.mark.parametrize(
        "bounds", [(math.nan, 1.0), (0.0, math.inf), (-(10**400), 0.0)], ids=["nan", "inf", "huge-int"]
    )
    def test_validate_interval(self, bounds):
        with pytest.raises(SchemaError) as caught:
            validate_interval(Interval(*bounds), "annotations['labor'].adjustment")
        assert str(caught.value) == "annotations['labor'].adjustment: bounds must be finite numbers within float range"

    def test_attach_classification_refuses_a_nan_adjustment(self):
        # It returned an adjustment of Interval(nan, 1.0) before.
        diffs = diff_ratings(_record("b", {"labor": 6.0}), _record("s", {"labor": 5.0}))
        annotation = Annotation(DiscrepancyCategory.DEFINITION_AMBIGUITY, Interval(math.nan, 1.0))
        with pytest.raises(SchemaError, match=r"^annotations\['labor'\]\.adjustment: bounds must be finite"):
            attach_classification(diffs, {"labor": annotation})

    def test_net_adjustment_refuses_a_bound_beyond_float_range(self):
        item = DiscrepancyItem("a", 1.0, None, DiscrepancyCategory.DEFINITION_AMBIGUITY, Interval(0.0, 10**400), (), "")
        with pytest.raises(ComputationError) as caught:
            net_adjustment([item])
        assert str(caught.value) == "net adjustment is beyond float range"

    @pytest.mark.parametrize("format", ["json", "markdown"])
    def test_emit_delta_report_refuses_nan(self, format):
        # JSON raised the encoder's ValueError, and Markdown printed "+nan to +nan".
        item = DiscrepancyItem("a", 1.0, None, DiscrepancyCategory.DEFINITION_AMBIGUITY, Interval(0.0, 0.5), (), "")
        report = DeltaReport((item,), Interval(math.nan, math.nan))
        with pytest.raises(ComputationError) as caught:
            emit_delta_report(report, format)
        assert str(caught.value) == "delta report has no finite net_adjustment.lower"

    def test_diff_ratings_refuses_a_score_beyond_float_range(self):
        baseline = _record("b", {"labor": 10**400}, scale=(0, 10**401))
        with pytest.raises(SchemaError) as caught:
            diff_ratings(baseline, _record("s", {"labor": 5.0}))
        assert str(caught.value) == "baseline.issue_scores['labor'].score: expected a finite number within float range"

    def test_diff_ratings_refuses_an_integer_difference_beyond_float_range(self):
        # Each score is within float range; their exact int difference is not.
        largest = int(1.7e308)
        scale = (-largest, largest)
        baseline = _record("b", {"labor": -largest}, scale=scale)
        with pytest.raises(ComputationError, match=r"^issue 'labor': recomputed .* is beyond float range$"):
            diff_ratings(baseline, _record("s", {"labor": largest}, scale=scale))
