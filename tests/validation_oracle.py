"""Frozen reference for manifest validation, written out rule by rule.

A copy of :func:`stride.model.validate_manifest` and its helpers as they
were before the rules were declared on the ``stride.model`` dataclass
fields.  The engine must report the same violations for every manifest:
the same text in the same order for any single faulty field, and the
same set when two fields are faulty at once.
"""

from __future__ import annotations

import math

from stride.model import (
    STANDARD_LAYER_COUNT,
    STANDARD_LAYERS,
    AgilityStats,
    AnnotationStats,
    CoverageProfile,
    DatasetManifest,
    GovernanceStats,
    Violation,
)


def validate_manifest(manifest: DatasetManifest) -> list[Violation]:
    """Collect every invariant violation in ``manifest``.

    Returns an empty list for a well-formed manifest.  Violations are
    reported as data rather than raised, so callers can surface all of
    them at once.  A NaN or an infinity in a float field is reported as
    not finite in place of that field's range checks.  The integer
    fields' range predicates are written so that NaN fails them too.
    """
    found: list[Violation] = []

    def flag(path: str, message: str) -> None:
        found.append(Violation(path, message))

    if not manifest.dataset_id:
        flag("dataset_id", "must be non-empty")
    if not manifest.manifest_version:
        flag("manifest_version", "must be non-empty")

    _check_coverage(manifest.coverage, flag)

    for index, item in enumerate(manifest.evidence):
        prefix = f"evidence[{index}]"
        for name, value in (("auditability", item.auditability), ("traceability", item.traceability)):
            if _finite(f"{prefix}.{name}", value, flag) and not 0 <= value <= 1:
                flag(f"{prefix}.{name}", f"must be in [0, 1], got {value!r}")

    rec = manifest.recognition
    if not rec.recognitions_per_year >= 0:
        flag("recognition.recognitions_per_year", "must be non-negative")
    confidence_path = "recognition.single_event_confidence"
    if _finite(confidence_path, rec.single_event_confidence, flag) and not 0 < rec.single_event_confidence < 1:
        flag(confidence_path, f"must be strictly between 0 and 1, got {rec.single_event_confidence!r}")

    temporal = manifest.temporal
    if _finite("temporal.lag_years", temporal.lag_years, flag) and temporal.lag_years < 0:
        flag("temporal.lag_years", "must be non-negative")
    if _finite("temporal.decay_rate", temporal.decay_rate, flag) and temporal.decay_rate <= 0:
        flag("temporal.decay_rate", "must be positive")

    if manifest.annotation is not None:
        _check_annotation(manifest.annotation, flag)
    if manifest.agility is not None:
        _check_agility(manifest.agility, flag)

    safety = manifest.safety
    if not safety.total_rows > 0:
        flag("safety.total_rows", "must be positive")
    if not safety.harmful_rows >= 0:
        flag("safety.harmful_rows", "must be non-negative")
    elif safety.total_rows > 0 and safety.harmful_rows > safety.total_rows:
        flag("safety.harmful_rows", "cannot exceed total_rows")

    _check_governance(manifest.governance, flag)

    if manifest.sampling_inputs is not None:
        si = manifest.sampling_inputs
        if not si.sample_size >= 0:
            flag("sampling_inputs.sample_size", "must be non-negative")
        if not si.saturation_threshold >= 1:
            flag("sampling_inputs.saturation_threshold", "must be at least 1")
        if _finite("sampling_inputs.share_deviation", si.share_deviation, flag) and si.share_deviation < 0:
            flag("sampling_inputs.share_deviation", "must be non-negative")

    return found


def _finite(path: str, value: float, flag) -> bool:
    """Flag ``value`` at ``path`` unless it is a finite number; returns whether it is."""
    if math.isfinite(value):
        return True
    flag(path, f"must be a finite number, got {value!r}")
    return False


def _check_coverage(coverage: CoverageProfile, flag) -> None:
    pairs = (
        ("countries", coverage.countries_covered, coverage.countries_total),
        ("industries", coverage.industries_covered, coverage.industries_total),
    )
    for name, covered, total in pairs:
        if not total > 0:
            flag(f"coverage.{name}_total", "must be positive")
        if not covered >= 0:
            flag(f"coverage.{name}_covered", "must be non-negative")
        elif total > 0 and covered > total:
            flag(f"coverage.{name}_covered", f"cannot exceed {name}_total")
    if coverage.standard_layers_total != STANDARD_LAYER_COUNT:
        flag("coverage.standard_layers_total", f"must be {STANDARD_LAYER_COUNT}")
    unknown = set(coverage.standard_layers_covered) - STANDARD_LAYERS
    if unknown:
        flag("coverage.standard_layers_covered", f"unknown layers: {sorted(unknown)}")
    if len(coverage.standard_layers_covered) > coverage.standard_layers_total:
        flag("coverage.standard_layers_covered", "cannot exceed standard_layers_total")
    if coverage.external_data_flag not in (0, 1):
        flag("coverage.external_data_flag", f"must be 0 or 1, got {coverage.external_data_flag!r}")


def _check_annotation(stats: AnnotationStats, flag) -> None:
    if _finite("annotation.human_fraction", stats.human_fraction, flag) and not 0 <= stats.human_fraction <= 1:
        flag("annotation.human_fraction", f"must be in [0, 1], got {stats.human_fraction!r}")
    if _finite("annotation.mean_tenure_years", stats.mean_tenure_years, flag) and stats.mean_tenure_years < 0:
        flag("annotation.mean_tenure_years", "must be non-negative")
    if _finite("annotation.tenure_cap_years", stats.tenure_cap_years, flag) and stats.tenure_cap_years <= 0:
        flag("annotation.tenure_cap_years", "must be positive")
    for name in ("human_machine_deviation", "machine_machine_deviation"):
        value = getattr(stats, name)
        if _finite(f"annotation.{name}", value, flag) and value < 0:
            flag(f"annotation.{name}", "must be non-negative")


def _check_agility(stats: AgilityStats, flag) -> None:
    _finite("agility.accuracy_gain", stats.accuracy_gain, flag)
    if _finite("agility.change_proportion", stats.change_proportion, flag) and not 0 <= stats.change_proportion <= 1:
        flag("agility.change_proportion", f"must be in [0, 1], got {stats.change_proportion!r}")
    if _finite("agility.epsilon", stats.epsilon, flag) and stats.epsilon <= 0:
        flag("agility.epsilon", "must be positive")


def _check_governance(stats: GovernanceStats, flag) -> None:
    bounded = (
        ("interventions", stats.interventions, "governed_cases", stats.governed_cases),
        ("experts_involved", stats.experts_involved, "experts_total", stats.experts_total),
        ("stages_with_experts", stats.stages_with_experts, "stages_total", stats.stages_total),
        ("assumptions_disclosed", stats.assumptions_disclosed, "assumptions_required", stats.assumptions_required),
        ("role_relations_separated", stats.role_relations_separated, "role_relations_total", stats.role_relations_total),
    )
    for name, value, bound_name, bound in bounded:
        if not value >= 0:
            flag(f"governance.{name}", "must be non-negative")
        if not bound >= 0:
            flag(f"governance.{bound_name}", "must be non-negative")
        if value >= 0 and bound >= 0 and value > bound:
            flag(f"governance.{name}", f"cannot exceed {bound_name}")
    for index, accuracy in enumerate(stats.accuracy_series):
        path = f"governance.accuracy_series[{index}]"
        if _finite(path, accuracy, flag) and not 0 <= accuracy <= 1:
            flag(path, f"must be in [0, 1], got {accuracy!r}")
