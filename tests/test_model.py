"""Weight-config normalisation and manifest invariant checks."""

from __future__ import annotations

import dataclasses
import random
import typing

import pytest

from manifest_factory import random_manifest
from stride.errors import SchemaError
from stride.model import (
    COMPONENT_METRICS,
    AgilityStats,
    ComponentId,
    DatasetManifest,
    MetricId,
    SamplingInputs,
    Violation,
    WeightConfig,
    equal_weight_config,
    validate_manifest,
    validate_weight_config,
)
from stride.scoring import score_dataset

IM = MetricId.INCLUSIVENESS_MATERIALITY
AT = MetricId.AUDITABILITY_TRACEABILITY
ER = MetricId.EXEMPLARY_REFERENCE
TR = MetricId.TIME_RELEVANCE
HG = MetricId.HUMAN_GOVERNED
DE = MetricId.DOMAIN_EXPERT
IF = MetricId.ITERATIVE_FEEDBACK
AG = MetricId.AGILITY


def _config(weights=None, applicability=None, alpha=(0.25, 0.25, 0.25, 0.25)) -> WeightConfig:
    base_weights = {metric: 1.0 for metric in MetricId}
    base_mask = {metric: True for metric in MetricId}
    if weights:
        base_weights.update(weights)
    if applicability:
        base_mask.update(applicability)
    return WeightConfig(alpha=alpha, weights=base_weights, applicability=base_mask)


class TestWeightConfigValidation:
    def test_equal_config_is_uniform_per_component(self):
        config = equal_weight_config()
        for component, members in COMPONENT_METRICS.items():
            for metric in members:
                assert config.weights[metric] == pytest.approx(1.0 / len(members), abs=1e-15)
        assert config.alpha == (0.25, 0.25, 0.25, 0.25)

    def test_masked_metric_redistributes_weight(self):
        config = validate_weight_config(
            _config(
                weights={IM: 0.25, AT: 0.25, ER: 0.25, TR: 0.25},
                applicability={AT: False},
            )
        )
        assert config.weights[AT] == 0.0
        for metric in (IM, ER, TR):
            assert config.weights[metric] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_intimacy_mask_drops_and_rescales(self):
        config = validate_weight_config(
            _config(weights={HG: 1.0, DE: 1.0, IF: 1.0}, applicability={IF: False})
        )
        assert config.weights[HG] == pytest.approx(0.5, abs=1e-15)
        assert config.weights[DE] == pytest.approx(0.5, abs=1e-15)
        assert config.weights[IF] == 0.0

    def test_alpha_is_not_renormalised(self):
        config = validate_weight_config(_config(alpha=(1.0, 1.0, 1.0, 1.0)))
        assert config.alpha == (1.0, 1.0, 1.0, 1.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(SchemaError, match="negative weight"):
            validate_weight_config(_config(weights={ER: -0.1}))

    def test_negative_alpha_rejected(self):
        with pytest.raises(SchemaError, match="negative coefficient"):
            validate_weight_config(_config(alpha=(0.25, -0.25, 0.25, 0.25)))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weight_or_alpha_rejected(self, value):
        with pytest.raises(SchemaError, match=rf"^weights\.ER: must be a finite number, got {value!r}$"):
            validate_weight_config(_config(weights={ER: value}))
        with pytest.raises(SchemaError, match=rf"^alpha\.R: must be a finite number, got {value!r}$"):
            validate_weight_config(_config(alpha=(0.25, value, 0.25, 0.25)))

    def test_weight_or_alpha_beyond_float_range_rejected(self):
        # Intended divergence: both raised a bare OverflowError before.
        message = "must be a finite number, got an integer beyond float range"
        cases = [
            (_config(weights={AG: 10**400}), "weights.AG"),
            (_config(alpha=(0.25, -(10**400), 0.25, 0.25)), "alpha.R"),
        ]
        for config, path in cases:
            with pytest.raises(SchemaError) as caught:
                validate_weight_config(config)
            assert str(caught.value) == f"{path}: {message}"

    def test_scoring_refuses_a_weight_beyond_float_range(self, luxshare_manifest):
        message = r"^weights\.AG: must be a finite number, got an integer beyond float range$"
        with pytest.raises(SchemaError, match=message):
            score_dataset(luxshare_manifest, _config(weights={AG: 10**400}))

    def test_component_with_no_applicable_metric_rejected(self):
        with pytest.raises(SchemaError, match="no applicable metric"):
            validate_weight_config(
                _config(applicability={MetricId.TRANSPARENCY: False, MetricId.ROLE_SEPARATION: False})
            )

    def test_all_zero_applicable_weights_rejected(self):
        with pytest.raises(SchemaError, match="sum to zero"):
            validate_weight_config(_config(weights={HG: 0.0, DE: 0.0, IF: 0.0}))

    def test_missing_metric_entry_rejected(self):
        weights = {metric: 1.0 for metric in MetricId}
        weights.pop(TR)
        config = WeightConfig(
            alpha=(0.25, 0.25, 0.25, 0.25),
            weights=weights,
            applicability={metric: True for metric in MetricId},
        )
        with pytest.raises(SchemaError, match="missing entry for TR"):
            validate_weight_config(config)

    def test_normalised_weights_sum_to_one_per_component(self):
        rng = random.Random(7)
        for _ in range(300):
            mask = {}
            for members in COMPONENT_METRICS.values():
                keep = rng.sample(members, rng.randint(1, len(members)))
                for metric in members:
                    mask[metric] = metric in keep
            weights = {metric: rng.uniform(0.0, 5.0) for metric in MetricId}
            for members in COMPONENT_METRICS.values():
                applicable = [m for m in members if mask[m]]
                if all(weights[m] == 0.0 for m in applicable):
                    weights[applicable[0]] = 1.0
            config = validate_weight_config(_config(weights=weights, applicability=mask))
            for members in COMPONENT_METRICS.values():
                total = sum(config.weights[m] for m in members)
                assert abs(total - 1.0) <= 1e-12

    def test_validation_is_idempotent(self):
        rng = random.Random(13)
        for _ in range(200):
            weights = {metric: rng.uniform(0.01, 5.0) for metric in MetricId}
            mask = {metric: rng.random() < 0.8 for metric in MetricId}
            for members in COMPONENT_METRICS.values():
                if not any(mask[m] for m in members):
                    mask[members[0]] = True
            once = validate_weight_config(_config(weights=weights, applicability=mask))
            twice = validate_weight_config(once)
            assert once == twice


class TestManifestValidation:
    @pytest.mark.parametrize("value, name", [("x", "str"), (None, "NoneType"), ({}, "dict")])
    def test_the_gates_refuse_what_is_not_their_type(self, luxshare_manifest, equal_config, value, name):
        with pytest.raises(SchemaError, match=f"^manifest: expected a DatasetManifest, got {name}$"):
            validate_manifest(value)
        with pytest.raises(SchemaError, match=f"^manifest: expected a DatasetManifest, got {name}$"):
            score_dataset(value, equal_config)
        with pytest.raises(SchemaError, match=f"^config: expected a WeightConfig, got {name}$"):
            validate_weight_config(value)
        with pytest.raises(SchemaError, match=f"^config: expected a WeightConfig, got {name}$"):
            score_dataset(luxshare_manifest, value)
        with pytest.raises(SchemaError, match="^manifest: expected a DatasetManifest, got CoverageProfile$"):
            validate_manifest(luxshare_manifest.coverage)

    def test_case_study_manifest_is_clean(self, luxshare_manifest):
        assert validate_manifest(luxshare_manifest) == []

    def test_random_manifests_are_clean(self):
        rng = random.Random(23)
        for _ in range(200):
            manifest = random_manifest(rng)
            assert validate_manifest(manifest) == []

    def test_bad_external_flag_reported_at_coverage(self, luxshare_manifest):
        coverage = dataclasses.replace(luxshare_manifest.coverage, external_data_flag=2)
        manifest = dataclasses.replace(luxshare_manifest, coverage=coverage)
        violations = validate_manifest(manifest)
        assert any(v.path == "coverage.external_data_flag" for v in violations)

    @pytest.mark.parametrize(
        ("flag", "shown"), [(2, "2"), (10**5000, "<an integer of more than 4300 digits>")], ids=["two", "5001-digits"]
    )
    def test_bad_external_flag_is_named_in_the_message(self, luxshare_manifest, flag, shown):
        # A flag too long for repr() raised ValueError while its message was written.
        coverage = dataclasses.replace(luxshare_manifest.coverage, external_data_flag=flag)
        manifest = dataclasses.replace(luxshare_manifest, coverage=coverage)
        assert [str(v) for v in validate_manifest(manifest)] == [
            f"coverage.external_data_flag: must be 0 or 1, got {shown}"
        ]

    def test_covered_beyond_total_reported(self, luxshare_manifest):
        coverage = dataclasses.replace(luxshare_manifest.coverage, countries_covered=500)
        manifest = dataclasses.replace(luxshare_manifest, coverage=coverage)
        violations = validate_manifest(manifest)
        assert any(v.path == "coverage.countries_covered" for v in violations)

    def test_unknown_layer_reported(self, luxshare_manifest):
        coverage = dataclasses.replace(
            luxshare_manifest.coverage, standard_layers_covered=frozenset({"global", "galactic"})
        )
        manifest = dataclasses.replace(luxshare_manifest, coverage=coverage)
        violations = validate_manifest(manifest)
        assert any("galactic" in v.message for v in violations)

    def test_harmful_rows_beyond_total_reported(self, luxshare_manifest):
        safety = dataclasses.replace(luxshare_manifest.safety, harmful_rows=600)
        manifest = dataclasses.replace(luxshare_manifest, safety=safety)
        violations = validate_manifest(manifest)
        assert any(v.path == "safety.harmful_rows" for v in violations)

    def test_confidence_bounds_reported(self, luxshare_manifest):
        recognition = dataclasses.replace(luxshare_manifest.recognition, single_event_confidence=1.0)
        manifest = dataclasses.replace(luxshare_manifest, recognition=recognition)
        violations = validate_manifest(manifest)
        assert any(v.path == "recognition.single_event_confidence" for v in violations)

    def test_disclosed_beyond_required_reported(self, luxshare_manifest):
        governance = dataclasses.replace(luxshare_manifest.governance, assumptions_disclosed=3)
        manifest = dataclasses.replace(luxshare_manifest, governance=governance)
        violations = validate_manifest(manifest)
        assert any(v.path == "governance.assumptions_disclosed" for v in violations)

    def test_accuracy_series_bounds_reported(self, luxshare_manifest):
        governance = dataclasses.replace(luxshare_manifest.governance, accuracy_series=(0.4, 1.3))
        manifest = dataclasses.replace(luxshare_manifest, governance=governance)
        violations = validate_manifest(manifest)
        assert any(v.path == "governance.accuracy_series[1]" for v in violations)

    def test_sampling_inputs_threshold_reported(self, luxshare_manifest):
        manifest = dataclasses.replace(
            luxshare_manifest, sampling_inputs=SamplingInputs(sample_size=10, saturation_threshold=0, share_deviation=0.1)
        )
        violations = validate_manifest(manifest)
        assert any(v.path == "sampling_inputs.saturation_threshold" for v in violations)

    def test_negative_decay_reported(self, luxshare_manifest):
        temporal = dataclasses.replace(luxshare_manifest.temporal, decay_rate=0.0)
        manifest = dataclasses.replace(luxshare_manifest, temporal=temporal)
        violations = validate_manifest(manifest)
        assert any(v.path == "temporal.decay_rate" for v in violations)

    def test_violations_render_with_path(self, luxshare_manifest):
        temporal = dataclasses.replace(luxshare_manifest.temporal, decay_rate=-1.0)
        manifest = dataclasses.replace(luxshare_manifest, temporal=temporal)
        rendered = [str(v) for v in validate_manifest(manifest)]
        assert "temporal.decay_rate: must be positive" in rendered


def _float_trails(node, trail=()):
    """The attribute trail to every float inside the dataclass ``node``."""
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        items = enumerate(value) if isinstance(value, tuple) else [(None, value)]
        for index, item in items:
            at = trail + ((field.name,) if index is None else (field.name, index))
            if isinstance(item, float):
                yield at
            elif dataclasses.is_dataclass(item):
                yield from _float_trails(item, at)


def _replaced(node, trail, value):
    name, rest = trail[0], trail[1:]
    current = getattr(node, name)
    if rest and isinstance(rest[0], int):
        items = list(current)
        items[rest[0]] = _replaced(items[rest[0]], rest[1:], value) if rest[1:] else value
        return dataclasses.replace(node, **{name: tuple(items)})
    return dataclasses.replace(node, **{name: _replaced(current, rest, value) if rest else value})


class TestNonFiniteManifestValues:
    # Seed 10 has every optional section, evidence and an accuracy series.
    MANIFEST = random_manifest(random.Random(10))

    def test_every_float_field_is_covered(self):
        paths = {tuple(key for key in trail if isinstance(key, str)) for trail in _float_trails(self.MANIFEST)}
        assert len(paths) == 15
        assert ("governance", "accuracy_series") in paths
        assert ("evidence", "traceability") in paths

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_each_is_reported_once_by_its_path(self, value):
        assert validate_manifest(self.MANIFEST) == []
        for trail in _float_trails(self.MANIFEST):
            path = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in trail).lstrip(".")
            violations = validate_manifest(_replaced(self.MANIFEST, trail, value))
            assert [str(v) for v in violations] == [f"{path}: must be a finite number, got {value!r}"]

    def test_scoring_refuses_a_non_finite_manifest(self):
        temporal = dataclasses.replace(self.MANIFEST.temporal, decay_rate=float("nan"))
        manifest = dataclasses.replace(self.MANIFEST, temporal=temporal)
        with pytest.raises(SchemaError, match="temporal.decay_rate: must be a finite number, got nan"):
            score_dataset(manifest, equal_weight_config())

    def test_each_integer_beyond_float_range_is_reported_by_its_path(self):
        for trail in _float_trails(self.MANIFEST):
            path = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in trail).lstrip(".")
            violations = validate_manifest(_replaced(self.MANIFEST, trail, 10**400))
            assert [str(v) for v in violations] == [
                f"{path}: must be a finite number, got an integer beyond float range"
            ]

    def test_agility_gain_beyond_float_range_is_a_violation(self, luxshare_manifest):
        manifest = dataclasses.replace(luxshare_manifest, agility=AgilityStats(10**400, 0.5))
        assert validate_manifest(manifest) == [
            Violation("agility.accuracy_gain", "must be a finite number, got an integer beyond float range")
        ]
        with pytest.raises(SchemaError, match="^manifest validation failed: agility.accuracy_gain: must be a finite"):
            score_dataset(manifest, equal_weight_config())

    def test_finite_values_keep_their_messages(self, luxshare_manifest):
        temporal = dataclasses.replace(luxshare_manifest.temporal, lag_years=-0.5, decay_rate=-1.0)
        rendered = [str(v) for v in validate_manifest(dataclasses.replace(luxshare_manifest, temporal=temporal))]
        assert rendered == ["temporal.lag_years: must be non-negative", "temporal.decay_rate: must be positive"]


# Number fields that only have to be finite.
UNCONSTRAINED = {"AgilityStats.accuracy_gain"}


def _section_classes(root):
    """``root`` and every dataclass reachable through its field types."""
    found = [root]
    for cls in found:  # grows while it is walked
        for hint in typing.get_type_hints(cls).values():
            for tp in (hint, *typing.get_args(hint)):
                if dataclasses.is_dataclass(tp) and tp not in found:
                    found.append(tp)
    return found


def test_every_number_field_declares_a_rule():
    classes = _section_classes(DatasetManifest)
    assert len(classes) == 10
    unruled = set()
    for cls in classes:
        hints = typing.get_type_hints(cls)
        for field in dataclasses.fields(cls):
            hint = hints[field.name]
            if {int, float} & {hint, *typing.get_args(hint)} and not field.metadata.get("rule"):
                unruled.add(f"{cls.__name__}.{field.name}")
    assert unruled == UNCONSTRAINED
