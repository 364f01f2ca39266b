"""Leaf metric formulas, component folding, and whole-manifest scoring."""

from __future__ import annotations

import dataclasses
import math
import random

import pytest

from manifest_factory import random_manifest
from stride.errors import ComputationError, SchemaError
from stride.model import (
    AgilityStats,
    AnnotationStats,
    ComponentId,
    CoverageProfile,
    EvidenceItem,
    GovernanceStats,
    MetricId,
    RecognitionProfile,
    SafetyAudit,
    SamplingInputs,
    SubScore,
    TemporalProfile,
    WeightConfig,
    equal_weight_config,
    validate_weight_config,
)
from stride.runstore import run_id_for
from stride.scoring import (
    agility,
    auditability_traceability,
    component_breakdowns,
    component_score,
    domain_expert,
    exemplary_reference,
    ground_truth,
    human_governed,
    inclusiveness_materiality,
    iterative_feedback,
    role_separation,
    score_dataset,
    security_safety,
    sigmoid,
    statistical_methodology,
    time_relevance,
    transparency,
    trust_score,
)


def _governance(**overrides) -> GovernanceStats:
    base = dict(
        interventions=56,
        governed_cases=527,
        experts_involved=1,
        experts_total=1,
        stages_with_experts=1,
        stages_total=15,
        accuracy_series=(),
        assumptions_disclosed=0,
        assumptions_required=0,
        role_relations_separated=12,
        role_relations_total=12,
    )
    base.update(overrides)
    return GovernanceStats(**base)


class TestSigmoid:
    def test_midpoint_is_exactly_half(self):
        assert sigmoid(0.0) == 0.5

    def test_stays_inside_open_unit_interval(self):
        assert 0.0 < sigmoid(-1000.0) < sigmoid(1000.0) < 1.0

    def test_complementary_symmetry(self):
        for z in (-3.0, -0.7, 0.2, 5.0):
            assert sigmoid(z) + sigmoid(-z) == pytest.approx(1.0, abs=1e-15)

    def test_known_value(self):
        assert sigmoid(0.5) == pytest.approx(1.0 / (1.0 + math.exp(-0.5)), abs=1e-15)

    def test_infinities_give_the_clamped_endpoints(self):
        assert sigmoid(math.inf) == math.nextafter(1.0, 0.0)
        assert sigmoid(-math.inf) == math.nextafter(0.0, 1.0)

    def test_nan_is_refused(self):
        with pytest.raises(ComputationError, match="NaN"):
            sigmoid(math.nan)

    def test_integer_beyond_float_range_is_refused(self):
        with pytest.raises(ComputationError, match="beyond float range"):
            sigmoid(10**400)

    @pytest.mark.parametrize("value, name", [("1", "str"), (None, "NoneType"), ([1], "list"), (1j, "complex")])
    def test_a_value_that_is_not_a_number_is_refused(self, value, name):
        with pytest.raises(SchemaError, match=f"^sigmoid input must be a number, got {name}$"):
            sigmoid(value)

    def test_a_bool_reads_as_its_int(self):
        assert sigmoid(True) == sigmoid(1) and sigmoid(False) == 0.5


class TestLeafMetrics:
    def test_inclusiveness_full_coverage_without_external_data(self):
        coverage = CoverageProfile(10, 10, 8, 8, frozenset({"global", "national", "local", "industry", "company"}))
        expected = (1.0 / (1.0 + math.exp(-0.5))) ** 0.25
        assert inclusiveness_materiality(coverage) == pytest.approx(expected, abs=1e-15)

    def test_inclusiveness_zero_coverage_scores_zero(self):
        coverage = CoverageProfile(0, 10, 5, 8, frozenset({"global"}))
        assert inclusiveness_materiality(coverage) == 0.0

    def test_external_data_lowers_inclusiveness(self):
        layers = frozenset({"global", "national"})
        internal = CoverageProfile(6, 10, 5, 8, layers, external_data_flag=0)
        external = CoverageProfile(6, 10, 5, 8, layers, external_data_flag=1)
        assert inclusiveness_materiality(external) < inclusiveness_materiality(internal)

    def test_inclusiveness_rejects_empty_totals(self):
        with pytest.raises(ComputationError, match="countries_total"):
            inclusiveness_materiality(CoverageProfile(0, 0, 5, 8, frozenset()))

    def test_auditability_means_item_pairs(self):
        evidence = (
            EvidenceItem("e1", "https://a.example", 1.0, 0.5),
            EvidenceItem("e2", "https://b.example", 0.0, 0.5),
        )
        assert auditability_traceability(evidence) == pytest.approx(0.5, abs=1e-15)

    def test_auditability_without_evidence_is_inapplicable(self):
        assert auditability_traceability(()) is None

    def test_exemplary_reference_zero_events(self):
        assert exemplary_reference(RecognitionProfile(0, 0.8)) == 0.0

    def test_exemplary_reference_grows_with_events(self):
        low = exemplary_reference(RecognitionProfile(1, 0.4))
        high = exemplary_reference(RecognitionProfile(5, 0.4))
        assert low == pytest.approx(0.4, abs=1e-15)
        assert high == pytest.approx(1.0 - 0.6**5, abs=1e-15)
        assert low < high < 1.0

    def test_exemplary_reference_rejects_unit_confidence(self):
        with pytest.raises(ComputationError, match="strictly between"):
            exemplary_reference(RecognitionProfile(3, 1.0))

    def test_time_relevance_of_fresh_data(self):
        assert time_relevance(TemporalProfile(0.0, 0.3)) == 1.0

    def test_time_relevance_decays_exponentially(self):
        assert time_relevance(TemporalProfile(2.0, 0.3)) == pytest.approx(math.exp(-0.6), abs=1e-15)

    def test_methodology_blends_saturation_and_spread(self):
        assert statistical_methodology(10, 20, 0.1) == pytest.approx(0.7, abs=1e-15)

    def test_methodology_saturates_at_threshold(self):
        assert statistical_methodology(40, 20, 0.0) == 1.0

    def test_methodology_goes_below_zero_past_unit_share_deviation(self):
        assert statistical_methodology(10, 10, 7.0) == -2.5

    @pytest.mark.parametrize(
        "args, name",
        [
            ((math.nan, 10, 0.1), "sample_size"),
            ((10, math.nan, 0.1), "saturation_threshold"),
            ((10, 10, math.nan), "share_deviation"),
            ((10, 10, math.inf), "share_deviation"),
        ],
        ids=["nan sample_size", "nan saturation_threshold", "nan share_deviation", "infinite share_deviation"],
    )
    def test_methodology_refuses_a_non_finite_argument(self, args, name):
        with pytest.raises(ComputationError, match=f"{name} must be finite"):
            statistical_methodology(*args)

    def test_ground_truth_equal_blend(self):
        stats = AnnotationStats(1.0, 5.0, 5.0, 1.43, 1.24)
        assert ground_truth(stats) == pytest.approx(1.1675, abs=1e-12)

    def test_ground_truth_may_exceed_one(self):
        stats = AnnotationStats(1.0, 10.0, 5.0, 2.0, 2.0)
        assert ground_truth(stats) > 1.0

    def test_ground_truth_caps_tenure(self):
        capped = ground_truth(AnnotationStats(0.0, 50.0, 5.0, 0.0, 0.0))
        assert capped == pytest.approx(0.25, abs=1e-15)

    def test_agility_ratio(self):
        stats = AgilityStats(accuracy_gain=0.032, change_proportion=0.1, epsilon=1e-6)
        assert agility(stats) == pytest.approx(0.032 / 0.100001, abs=1e-15)

    def test_agility_clamps_both_ends(self):
        assert agility(AgilityStats(5.0, 0.0)) == 1.0
        assert agility(AgilityStats(-0.5, 0.2)) == 0.0

    @pytest.mark.parametrize("field", ["accuracy_gain", "change_proportion", "epsilon"])
    def test_agility_refuses_a_nan_field(self, field):
        stats = dataclasses.replace(AgilityStats(0.032, 0.1), **{field: math.nan})
        with pytest.raises(ComputationError, match=f"agility.{field} must be finite"):
            agility(stats)

    @pytest.mark.parametrize("field", ["accuracy_gain", "change_proportion", "epsilon"])
    def test_agility_refuses_a_field_beyond_float_range(self, field):
        stats = dataclasses.replace(AgilityStats(0.032, 0.1), **{field: 10**400})
        with pytest.raises(ComputationError, match=f"^agility.{field} is beyond float range$"):
            agility(stats)

    def test_security_safety_share(self):
        assert security_safety(SafetyAudit(10, 100)) == pytest.approx(0.9, abs=1e-15)
        assert security_safety(SafetyAudit(0, 527)) == 1.0

    def test_human_governed_share(self):
        assert human_governed(_governance()) == pytest.approx(56 / 527, abs=1e-15)

    def test_human_governed_requires_cases(self):
        with pytest.raises(ComputationError, match="governed_cases"):
            human_governed(_governance(interventions=0, governed_cases=0))

    def test_domain_expert_means_two_shares(self):
        assert domain_expert(_governance()) == pytest.approx((1.0 + 1.0 / 15.0) / 2.0, abs=1e-15)

    def test_iterative_feedback_mean_step(self):
        assert iterative_feedback((0.5, 0.7, 0.6)) == pytest.approx(0.05, abs=1e-15)

    @pytest.mark.parametrize(
        "args, name", [((10**400, 10, 0.1), "sample_size"), ((10, 10, 10**400), "share_deviation")]
    )
    def test_methodology_refuses_an_argument_beyond_float_range(self, args, name):
        with pytest.raises(ComputationError, match=f"{name} is beyond float range"):
            statistical_methodology(*args)

    def test_iterative_feedback_refuses_a_step_beyond_float_range(self):
        # Intended divergence: the point itself is refused now, where the
        # step [0:2] was refused before, since every point goes through the
        # rule for finite numbers within float range.
        with pytest.raises(ComputationError) as caught:
            iterative_feedback([0.0, 10**400])
        assert str(caught.value) == "accuracy_series[1] is beyond float range"

    def test_iterative_feedback_refuses_a_nan_point(self):
        with pytest.raises(ComputationError, match=r"accuracy_series\[1\] must be finite"):
            iterative_feedback([0.0, math.nan])

    @pytest.mark.parametrize("series, steps", [([-1e308, 1e308], "0:2"), ([-1e308, 0.0, 1e308], "1:3")])
    def test_iterative_feedback_refuses_steps_that_overflow_a_float(self, series, steps):
        with pytest.raises(ComputationError, match=rf"accuracy_series\[{steps}\]: step is beyond float range"):
            iterative_feedback(series)

    def test_iterative_feedback_needs_two_points(self):
        assert iterative_feedback(()) is None
        assert iterative_feedback((0.9,)) is None

    def test_transparency_share_and_inapplicability(self):
        assert transparency(_governance(assumptions_disclosed=3, assumptions_required=4)) == 0.75
        assert transparency(_governance()) is None

    def test_role_separation_share(self):
        assert role_separation(_governance()) == 1.0
        assert role_separation(_governance(role_relations_separated=3, role_relations_total=4)) == 0.75


class TestAggregation:
    @staticmethod
    def _sub(metric: MetricId, value: float | None) -> SubScore:
        return SubScore(metric, value, value is not None, "digest")

    def test_component_renormalises_over_applicable(self, equal_config):
        sub_scores = [
            self._sub(MetricId.INCLUSIVENESS_MATERIALITY, 0.48),
            self._sub(MetricId.AUDITABILITY_TRACEABILITY, None),
            self._sub(MetricId.EXEMPLARY_REFERENCE, 1.0),
            self._sub(MetricId.TIME_RELEVANCE, 0.96),
        ]
        breakdown = component_score(ComponentId.CREDIBILITY, sub_scores, equal_config)
        assert [term.weight for term in breakdown.terms] == pytest.approx([1 / 3] * 3, abs=1e-15)
        assert breakdown.total == pytest.approx((0.48 + 1.0 + 0.96) / 3.0, abs=1e-15)

    def test_component_with_nothing_applicable_errors(self, equal_config):
        sub_scores = [self._sub(MetricId.TRANSPARENCY, None), self._sub(MetricId.ROLE_SEPARATION, None)]
        with pytest.raises(ComputationError, match="no applicable sub-score"):
            component_score(ComponentId.SELF_SERVING, sub_scores, equal_config)

    def test_component_weights_honour_configuration(self):
        config = validate_weight_config(
            WeightConfig(
                alpha=(0.25, 0.25, 0.25, 0.25),
                weights={metric: 1.0 for metric in MetricId} | {MetricId.TRANSPARENCY: 3.0},
                applicability={metric: True for metric in MetricId},
            )
        )
        sub_scores = [self._sub(MetricId.TRANSPARENCY, 1.0), self._sub(MetricId.ROLE_SEPARATION, 0.0)]
        breakdown = component_score(ComponentId.SELF_SERVING, sub_scores, config)
        assert breakdown.total == pytest.approx(0.75, abs=1e-15)

    def test_trust_score_squashes_weighted_sum(self):
        assert trust_score(1.0, 1.0, 1.0, 1.0, (0.25, 0.25, 0.25, 0.25)) == pytest.approx(
            sigmoid(0.5), abs=1e-15
        )

    def test_self_serving_component_counts_against_trust(self):
        alpha = (0.25, 0.25, 0.25, 0.25)
        high_self_serving = trust_score(0.8, 0.8, 0.4, 1.0, alpha)
        low_self_serving = trust_score(0.8, 0.8, 0.4, 0.2, alpha)
        assert high_self_serving < low_self_serving

    def test_trust_score_refuses_a_nan_component(self):
        with pytest.raises(ComputationError, match="NaN"):
            trust_score(math.nan, 0.5, 0.5, 0.5, (0.25,) * 4)

    def test_trust_score_refuses_infinity_minus_infinity(self):
        with pytest.raises(ComputationError, match="NaN"):
            trust_score(math.inf, 0.5, 0.5, math.inf, (0.25,) * 4)


class TestScoreDataset:
    def test_case_study_sub_scores(self, luxshare_manifest, equal_config):
        report = score_dataset(luxshare_manifest, equal_config)
        values = {sub.metric_id: sub.value for sub in report.sub_scores}
        assert values[MetricId.INCLUSIVENESS_MATERIALITY] == pytest.approx(0.476162, abs=1e-6)
        assert values[MetricId.EXEMPLARY_REFERENCE] == pytest.approx(1.0, abs=1e-6)
        assert values[MetricId.TIME_RELEVANCE] == pytest.approx(0.959189, abs=1e-6)
        assert values[MetricId.GROUND_TRUTH] == pytest.approx(1.1675, abs=1e-6)
        assert values[MetricId.AGILITY] == pytest.approx(0.319997, abs=1e-6)
        assert values[MetricId.SECURITY_SAFETY] == 1.0
        assert values[MetricId.HUMAN_GOVERNED] == pytest.approx(56 / 527, abs=1e-12)
        assert values[MetricId.DOMAIN_EXPERT] == pytest.approx(0.533333, abs=1e-6)
        assert values[MetricId.ROLE_SEPARATION] == 1.0

    def test_case_study_inapplicable_metrics(self, luxshare_manifest, equal_config):
        report = score_dataset(luxshare_manifest, equal_config)
        for metric in (
            MetricId.AUDITABILITY_TRACEABILITY,
            MetricId.STATISTICAL_METHODOLOGY,
            MetricId.ITERATIVE_FEEDBACK,
            MetricId.TRANSPARENCY,
        ):
            sub = report.sub_score(metric)
            assert not sub.applicable
            assert sub.value is None

    def test_case_study_components_and_trust(self, luxshare_manifest, equal_config):
        report = score_dataset(luxshare_manifest, equal_config)
        assert report.component_scores[ComponentId.CREDIBILITY] == pytest.approx(0.811784, abs=1e-6)
        assert report.component_scores[ComponentId.RELIABILITY] == pytest.approx(0.829166, abs=1e-6)
        assert report.component_scores[ComponentId.INTIMACY] == pytest.approx(0.319798, abs=1e-6)
        assert report.component_scores[ComponentId.SELF_SERVING] == 1.0
        assert report.trust == pytest.approx(0.559760, abs=1e-6)

    def test_scoring_is_deterministic(self, luxshare_manifest, equal_config):
        assert score_dataset(luxshare_manifest, equal_config) == score_dataset(luxshare_manifest, equal_config)

    def test_config_mask_overrides_available_data(self, luxshare_manifest):
        config = validate_weight_config(
            WeightConfig(
                alpha=(0.25, 0.25, 0.25, 0.25),
                weights={metric: 1.0 for metric in MetricId},
                applicability={metric: metric is not MetricId.EXEMPLARY_REFERENCE for metric in MetricId},
            )
        )
        report = score_dataset(luxshare_manifest, config)
        sub = report.sub_score(MetricId.EXEMPLARY_REFERENCE)
        assert not sub.applicable
        assert sub.value is None
        assert report.component_scores[ComponentId.CREDIBILITY] == pytest.approx(
            (0.476162 + 0.959189) / 2.0, abs=1e-6
        )

    def test_invalid_manifest_is_rejected_before_scoring(self, luxshare_manifest, equal_config):
        temporal = dataclasses.replace(luxshare_manifest.temporal, decay_rate=-0.5)
        manifest = dataclasses.replace(luxshare_manifest, temporal=temporal)
        with pytest.raises(SchemaError, match="temporal.decay_rate"):
            score_dataset(manifest, equal_config)

    def test_zero_governed_cases_is_a_schema_error(self, luxshare_manifest, equal_config):
        # The field rule refuses it, as validate does; the leaf metric keeps its own guard.
        governance = dataclasses.replace(luxshare_manifest.governance, interventions=0, governed_cases=0)
        manifest = dataclasses.replace(luxshare_manifest, governance=governance)
        with pytest.raises(SchemaError, match=r"^manifest validation failed: governance\.governed_cases: must be positive$"):
            score_dataset(manifest, equal_config)
        with pytest.raises(ComputationError, match="^governance.governed_cases must be positive$"):
            human_governed(governance)

    def test_sampling_inputs_activate_methodology(self, luxshare_manifest, equal_config):
        manifest = dataclasses.replace(
            luxshare_manifest,
            sampling_inputs=SamplingInputs(sample_size=150, saturation_threshold=100, share_deviation=0.2),
        )
        report = score_dataset(manifest, equal_config)
        sub = report.sub_score(MetricId.STATISTICAL_METHODOLOGY)
        assert sub.applicable
        assert sub.value == pytest.approx(0.9, abs=1e-15)

    def test_breakdowns_match_reported_components(self, luxshare_manifest, equal_config):
        report = score_dataset(luxshare_manifest, equal_config)
        breakdowns = component_breakdowns(report)
        for component, breakdown in breakdowns.items():
            assert breakdown.total == report.component_scores[component]
            assert sum(term.weight for term in breakdown.terms) == pytest.approx(1.0, abs=1e-12)

    def test_manifest_digest_tracks_content(self, luxshare_manifest, equal_config):
        report = score_dataset(luxshare_manifest, equal_config)
        recognition = dataclasses.replace(luxshare_manifest.recognition, recognitions_per_year=19)
        changed = dataclasses.replace(luxshare_manifest, recognition=recognition)
        other = score_dataset(changed, equal_config)
        assert report.manifest_digest != other.manifest_digest


class TestSumsDoNotDependOnThePythonVersion:
    """Float sums fold left to right from 0.0, as ``sum()`` did up to Python 3.11.

    From 3.12 ``sum()`` of floats is compensated, which moved this report's
    credibility score to 0.41009555564563854 and so gave it another run id.
    """

    def test_factory_report_component_score_and_run_id(self):
        report = score_dataset(random_manifest(random.Random(0)), equal_weight_config())
        assert repr(report.component_scores[ComponentId.CREDIBILITY]) == "0.4100955556456385"
        assert run_id_for(report) == "b3e8a78f0260eaf353b945c9d69d95838783bdc24908411d5e6b9c37b451cc59"


class TestSectionMetricsRefuseNaN:
    """Each section metric refuses a NaN field, naming it, as agility does; none returns NaN."""

    def test_time_relevance(self):
        with pytest.raises(ComputationError, match=r"^temporal.lag_years must be finite, got nan$"):
            time_relevance(TemporalProfile(math.nan, 0.3))

    def test_security_safety(self):
        with pytest.raises(ComputationError, match=r"^safety.harmful_rows must be finite, got nan$"):
            security_safety(SafetyAudit(math.nan, 10))

    def test_ground_truth(self):
        with pytest.raises(ComputationError, match=r"^annotation.human_fraction must be finite, got nan$"):
            ground_truth(AnnotationStats(math.nan, 1.0, 5.0, 0.1, 0.1))

    def test_auditability_traceability(self):
        evidence = [EvidenceItem("e1", "doc://a", 0.5, 0.5), EvidenceItem("e2", "doc://b", 0.5, math.nan)]
        with pytest.raises(ComputationError, match=r"^evidence\[1\].traceability must be finite, got nan$"):
            auditability_traceability(evidence)

    def test_inclusiveness_materiality(self):
        coverage = CoverageProfile(math.nan, 10, 3, 5, frozenset(), 4, 0)
        with pytest.raises(ComputationError, match=r"^coverage.countries_covered must be finite, got nan$"):
            inclusiveness_materiality(coverage)

    @pytest.mark.parametrize(
        ("call", "field"),
        [
            (lambda: time_relevance(TemporalProfile(1.0, math.inf)), "temporal.decay_rate"),
            (lambda: security_safety(SafetyAudit(-math.inf, 10)), "safety.harmful_rows"),
            (
                lambda: ground_truth(AnnotationStats(0.5, 1.0, 5.0, 0.1, math.inf)),
                "annotation.machine_machine_deviation",
            ),
            (
                lambda: inclusiveness_materiality(CoverageProfile(3, 10, 3, 5, frozenset(), 4, math.inf)),
                "coverage.external_data_flag",
            ),
        ],
        ids=["time_relevance", "security_safety", "ground_truth", "inclusiveness_materiality"],
    )
    def test_an_infinite_field_is_refused_too(self, call, field):
        with pytest.raises(ComputationError, match=f"^{field} must be finite, got -?inf$"):
            call()

    @pytest.mark.parametrize(
        ("call", "field"),
        [
            (lambda: time_relevance(TemporalProfile(10**400, 0.3)), "temporal.lag_years"),
            (lambda: ground_truth(AnnotationStats(0.5, 10**400, 5.0, 0.1, 0.1)), "annotation.mean_tenure_years"),
            (
                lambda: inclusiveness_materiality(CoverageProfile(3, 10, 3, 5, frozenset(), 4, 10**400)),
                "coverage.external_data_flag",
            ),
        ],
        ids=["time_relevance", "ground_truth", "inclusiveness_materiality"],
    )
    def test_an_integer_beyond_float_range_is_refused(self, call, field):
        with pytest.raises(ComputationError, match=f"^{field} is beyond float range$"):
            call()


class TestIntegersBeyondFloatRangeAndNaN:
    """Each function refuses NaN and integers beyond float range in what it reads, naming the field."""

    @pytest.mark.parametrize(
        ("args", "name"),
        [
            ((10**400, 0.5, 0.5, 0.5, (0.25,) * 4), "credibility"),
            ((0.5, 0.5, 0.5, 0.5, (0.25, 0.25, 0.25, -(10**400))), "alpha[3]"),
        ],
        ids=["component", "alpha"],
    )
    def test_trust_score(self, args, name):
        with pytest.raises(ComputationError) as caught:
            trust_score(*args)
        assert str(caught.value) == f"{name} is beyond float range"

    @pytest.mark.parametrize(
        ("value", "message"),
        [(math.nan, "IM sub-score must be finite, got nan"), (10**400, "IM sub-score is beyond float range")],
        ids=["nan", "huge-int"],
    )
    def test_component_score(self, value, message):
        subs = [SubScore(metric, 0.5, True, "digest") for metric in MetricId]
        subs[0] = SubScore(MetricId.INCLUSIVENESS_MATERIALITY, value, True, "digest")
        with pytest.raises(ComputationError) as caught:
            component_score(ComponentId.CREDIBILITY, subs, equal_weight_config())
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        ("value", "message"),
        [
            (math.nan, "recognition.recognitions_per_year must be finite, got nan"),
            (10**400, "recognition.recognitions_per_year is beyond float range"),
        ],
        ids=["nan", "huge-int"],
    )
    def test_exemplary_reference(self, value, message):
        with pytest.raises(ComputationError) as caught:
            exemplary_reference(RecognitionProfile(value, 0.5))
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        ("metric", "field"),
        [
            (human_governed, "interventions"),
            (human_governed, "governed_cases"),
            (domain_expert, "experts_involved"),
            (domain_expert, "experts_total"),
            (domain_expert, "stages_with_experts"),
            (domain_expert, "stages_total"),
            (transparency, "assumptions_disclosed"),
            (transparency, "assumptions_required"),
            (role_separation, "role_relations_separated"),
            (role_separation, "role_relations_total"),
        ],
        ids=lambda item: getattr(item, "__name__", item),
    )
    @pytest.mark.parametrize(
        ("value", "ending"),
        [(math.nan, "must be finite, got nan"), (10**400, "is beyond float range")],
        ids=["nan", "huge-int"],
    )
    def test_governance_metrics(self, metric, field, value, ending):
        stats = _governance(**{"assumptions_disclosed": 2, "assumptions_required": 3, field: value})
        with pytest.raises(ComputationError) as caught:
            metric(stats)
        assert str(caught.value) == f"governance.{field} {ending}"

    def test_statistical_methodology(self):
        # Intended divergence: this returned 0.45 before, the huge threshold
        # dividing 5 down to 0.0.
        with pytest.raises(ComputationError) as caught:
            statistical_methodology(5, 10**400, 0.1)
        assert str(caught.value) == "saturation_threshold is beyond float range"

    @pytest.mark.parametrize("flag", [1e308, -1e308, 0.5])
    def test_inclusiveness_materiality_refuses_a_flag_other_than_0_or_1(self, flag):
        # exp(1e308 - 0.5) overflowed before.
        with pytest.raises(ComputationError) as caught:
            inclusiveness_materiality(CoverageProfile(3, 10, 3, 5, frozenset(), 4, flag))
        assert str(caught.value) == f"coverage.external_data_flag must be 0 or 1, got {flag!r}"


class TestOverflowFromFiniteFields:
    """Finite fields whose arithmetic leaves float range, or the reals, are refused; none returns inf or a complex."""

    @pytest.mark.parametrize(
        ("call", "message"),
        [
            (
                lambda: inclusiveness_materiality(CoverageProfile(-1, 10, 3, 5, frozenset(), 4, 0)),
                "coverage.countries_covered must be non-negative",
            ),
            (
                lambda: inclusiveness_materiality(CoverageProfile(3, 10, -1e308, 5, frozenset(), 4, 0)),
                "coverage.industries_covered must be non-negative",
            ),
            (
                lambda: inclusiveness_materiality(CoverageProfile(1e308, 1, 1e308, 1, frozenset({"global"}), 1, 0)),
                "coverage: the ratios multiply past float range",
            ),
            (
                lambda: auditability_traceability([EvidenceItem("e1", "doc://a", 1e308, 1e308)]),
                "evidence: the item scores add up past float range",
            ),
            (
                lambda: agility(AgilityStats(0.5, -1e308, 1e308)),
                "agility.change_proportion + agility.epsilon must not be zero",
            ),
            (
                lambda: domain_expert(_governance(experts_involved=1e308, stages_with_experts=1e308, stages_total=1)),
                "governance: the expert shares add up past float range",
            ),
        ],
        ids=[
            "negative-countries",
            "negative-industries",
            "ratio-product",
            "evidence-sum",
            "zero-denominator",
            "expert-shares",
        ],
    )
    def test_refused(self, call, message):
        with pytest.raises(ComputationError) as caught:
            call()
        assert str(caught.value) == message


class TestTinyDivisors:
    """A subnormal divisor takes a finite ratio past float range; each metric refuses it, naming the ratio."""

    @pytest.mark.parametrize(
        ("call", "ratio"),
        [
            (lambda: statistical_methodology(-1e308, 1e-320, 0.1), "sample_size / saturation_threshold"),
            (
                lambda: ground_truth(AnnotationStats(0.5, -1e308, 1e-320, 0.1, 0.1)),
                "annotation.mean_tenure_years / annotation.tenure_cap_years",
            ),
            (lambda: security_safety(SafetyAudit(1e308, 1e-320)), "safety.harmful_rows / safety.total_rows"),
            (
                lambda: human_governed(_governance(interventions=1, governed_cases=1e-320)),
                "governance.interventions / governance.governed_cases",
            ),
            (
                lambda: transparency(_governance(assumptions_disclosed=-1e308, assumptions_required=1e-320)),
                "governance.assumptions_disclosed / governance.assumptions_required",
            ),
            (
                lambda: role_separation(_governance(role_relations_separated=1e10, role_relations_total=1e-320)),
                "governance.role_relations_separated / governance.role_relations_total",
            ),
        ],
        ids=[
            "statistical_methodology",
            "ground_truth",
            "security_safety",
            "human_governed",
            "transparency",
            "role_separation",
        ],
    )
    def test_ratio_beyond_float_range_is_refused(self, call, ratio):
        with pytest.raises(ComputationError) as caught:
            call()
        assert str(caught.value) == f"{ratio} is beyond float range"

    def test_a_ratio_past_one_still_saturates(self):
        assert statistical_methodology(1e308, 1e-320, 0.1) == 0.5 + 0.5 * 0.9
        assert ground_truth(AnnotationStats(0.0, 1e308, 1e-320, 0.0, 0.0)) == 0.25


class TestUnvalidatedWeights:
    """``component_score`` takes a config as built, so it refuses weights that make no finite total."""

    @staticmethod
    def _config(**weights: float) -> WeightConfig:
        return WeightConfig(
            alpha=(0.25,) * 4,
            weights={metric: weights.get(metric.name, 1.0) for metric in MetricId},
            applicability={metric: True for metric in MetricId},
        )

    @pytest.mark.parametrize(
        "weights",
        [
            {"INCLUSIVENESS_MATERIALITY": math.nan},
            {"EXEMPLARY_REFERENCE": math.inf},
            {"TIME_RELEVANCE": -(10**400)},
            {"INCLUSIVENESS_MATERIALITY": 1e308, "TIME_RELEVANCE": 1e308},
        ],
        ids=["nan", "inf", "huge-int", "overflowing-sum"],
    )
    def test_weights_without_a_finite_sum_are_refused(self, weights):
        subs = [SubScore(metric, 0.5, True, "digest") for metric in MetricId]
        with pytest.raises(ComputationError) as caught:
            component_score(ComponentId.CREDIBILITY, subs, self._config(**weights))
        assert str(caught.value) == "component C: applicable weights do not sum to a finite number"

    def test_weights_that_renormalise_past_float_range_are_refused(self):
        subs = [SubScore(metric, 0.5, True, "digest") for metric in MetricId]
        config = self._config(INCLUSIVENESS_MATERIALITY=1e308, EXEMPLARY_REFERENCE=-1e308, TIME_RELEVANCE=0.5)
        with pytest.raises(ComputationError) as caught:
            component_score(ComponentId.CREDIBILITY, subs, config)
        assert str(caught.value) == "component C: weighted sub-scores add up past float range"
