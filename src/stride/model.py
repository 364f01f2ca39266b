"""Domain types for dataset trust scoring.

The scoring model reduces a dataset's documentation to thirteen leaf
metrics, groups them into four components (credibility, reliability,
intimacy, self-serving restraint), and collapses the components into a
single trust value.  This module holds the input profiles, the weight
configuration, the report types, and the validation routines; the
arithmetic itself lives in :mod:`stride.scoring`.

Types are plain frozen containers.  Nothing validates on construction,
so documents with out-of-range values can still be represented and then
reported field by field; :func:`validate_manifest` and
:func:`validate_weight_config` are the gatekeepers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from .errors import SchemaError

# Version stamp carried by every emitted JSON report.
SPEC_VERSION = "1.0"


class MetricId(str, Enum):
    """The thirteen leaf metrics, keyed by their short report codes."""

    INCLUSIVENESS_MATERIALITY = "IM"
    AUDITABILITY_TRACEABILITY = "AT"
    EXEMPLARY_REFERENCE = "ER"
    TIME_RELEVANCE = "TR"
    STATISTICAL_METHODOLOGY = "SM"
    GROUND_TRUTH = "GT"
    AGILITY = "AG"
    SECURITY_SAFETY = "SS"
    HUMAN_GOVERNED = "HG"
    DOMAIN_EXPERT = "DE"
    ITERATIVE_FEEDBACK = "IF"
    TRANSPARENCY = "T"
    ROLE_SEPARATION = "RS"


class ComponentId(str, Enum):
    """The four aggregate components of the trust equation."""

    CREDIBILITY = "C"
    RELIABILITY = "R"
    INTIMACY = "I"
    SELF_SERVING = "S"


# Fixed membership: which leaf metrics feed each component.
COMPONENT_METRICS: dict[ComponentId, tuple[MetricId, ...]] = {
    ComponentId.CREDIBILITY: (
        MetricId.INCLUSIVENESS_MATERIALITY,
        MetricId.AUDITABILITY_TRACEABILITY,
        MetricId.EXEMPLARY_REFERENCE,
        MetricId.TIME_RELEVANCE,
    ),
    ComponentId.RELIABILITY: (
        MetricId.STATISTICAL_METHODOLOGY,
        MetricId.GROUND_TRUTH,
        MetricId.AGILITY,
        MetricId.SECURITY_SAFETY,
    ),
    ComponentId.INTIMACY: (
        MetricId.HUMAN_GOVERNED,
        MetricId.DOMAIN_EXPERT,
        MetricId.ITERATIVE_FEEDBACK,
    ),
    ComponentId.SELF_SERVING: (
        MetricId.TRANSPARENCY,
        MetricId.ROLE_SEPARATION,
    ),
}

# The five recognised standardisation layers, all of which a manifest may claim.
STANDARD_LAYERS = frozenset({"global", "national", "local", "industry", "company"})
STANDARD_LAYER_COUNT = 5


# ---------------------------------------------------------------------------
# Manifest sections
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverageProfile:
    """Breadth of the dataset across countries, industries, and standard layers."""

    countries_covered: int
    countries_total: int
    industries_covered: int
    industries_total: int
    standard_layers_covered: frozenset[str]
    standard_layers_total: int = STANDARD_LAYER_COUNT
    external_data_flag: int = 0  # 1 when third-party data is mixed in


@dataclass(frozen=True)
class EvidenceItem:
    """A single provenance pointer with audit and trace quality in [0, 1]."""

    id: str
    source_uri: str
    auditability: float
    traceability: float


@dataclass(frozen=True)
class RecognitionProfile:
    """External recognition events per year and per-event confidence."""

    recognitions_per_year: int
    single_event_confidence: float  # strictly between 0 and 1


@dataclass(frozen=True)
class TemporalProfile:
    """Age of the underlying data and the decay rate applied to it."""

    lag_years: float
    decay_rate: float


@dataclass(frozen=True)
class AnnotationStats:
    """Who produced the labels and how consistent the producers were."""

    human_fraction: float
    mean_tenure_years: float
    tenure_cap_years: float
    human_machine_deviation: float
    machine_machine_deviation: float


@dataclass(frozen=True)
class AgilityStats:
    """Observed accuracy gain relative to the share of records changed."""

    accuracy_gain: float
    change_proportion: float
    epsilon: float = 1e-6  # guards the ratio when change_proportion is 0


@dataclass(frozen=True)
class SafetyAudit:
    """Harmful-content audit tallies."""

    harmful_rows: int
    total_rows: int


@dataclass(frozen=True)
class GovernanceStats:
    """Human oversight counts across the dataset's production pipeline."""

    interventions: int
    governed_cases: int
    experts_involved: int
    experts_total: int
    stages_with_experts: int
    stages_total: int
    accuracy_series: tuple[float, ...]
    assumptions_disclosed: int
    assumptions_required: int
    role_relations_separated: int
    role_relations_total: int


@dataclass(frozen=True)
class SamplingInputs:
    """Pre-computed sampling evidence: size, saturation threshold, share spread."""

    sample_size: int
    saturation_threshold: int
    share_deviation: float


@dataclass(frozen=True)
class DatasetManifest:
    """Everything the scoring engine needs to know about one dataset."""

    manifest_version: str
    dataset_id: str
    coverage: CoverageProfile
    evidence: tuple[EvidenceItem, ...]
    recognition: RecognitionProfile
    temporal: TemporalProfile
    safety: SafetyAudit
    governance: GovernanceStats
    annotation: AnnotationStats | None = None
    agility: AgilityStats | None = None
    sampling_inputs: SamplingInputs | None = None


# ---------------------------------------------------------------------------
# Weights and reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightConfig:
    """Component mixing coefficients plus per-metric weights and applicability.

    ``alpha`` is ordered (credibility, reliability, intimacy, self-serving).
    ``weights`` and ``applicability`` carry one entry per :class:`MetricId`.
    """

    alpha: tuple[float, float, float, float]
    weights: Mapping[MetricId, float]
    applicability: Mapping[MetricId, bool]


@dataclass(frozen=True)
class SubScore:
    """One evaluated leaf metric; ``value`` is absent when not applicable."""

    metric_id: MetricId
    value: float | None
    applicable: bool
    inputs_digest: str


@dataclass(frozen=True)
class StrideReport:
    """Full scoring result for one manifest under one weight configuration."""

    sub_scores: tuple[SubScore, ...]
    component_scores: Mapping[ComponentId, float]
    trust: float
    config_snapshot: WeightConfig
    manifest_digest: str

    def sub_score(self, metric_id: MetricId) -> SubScore:
        for sub in self.sub_scores:
            if sub.metric_id is metric_id:
                return sub
        raise KeyError(metric_id.value)


@dataclass(frozen=True)
class Violation:
    """A single validation finding, addressed by dotted field path."""

    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


# ---------------------------------------------------------------------------
# Weight configuration validation
# ---------------------------------------------------------------------------

_SUM_TOLERANCE = 1e-12


def equal_weight_config() -> WeightConfig:
    """Uniform configuration: alpha = 1/4 each, uniform weights per component."""
    raw = WeightConfig(
        alpha=(0.25, 0.25, 0.25, 0.25),
        weights={metric: 1.0 for metric in MetricId},
        applicability={metric: True for metric in MetricId},
    )
    return validate_weight_config(raw)


def validate_weight_config(config: WeightConfig) -> WeightConfig:
    """Check a weight configuration and renormalise it per component.

    Within each component the weights of applicable metrics are scaled to
    sum to one and inapplicable metrics are zeroed; ``alpha`` is accepted
    as given.  The operation is idempotent: configurations whose
    applicable weights already sum to one pass through unchanged.

    Raises :class:`SchemaError` on negative weights, a component with no
    applicable metric, or applicable weights summing to zero.
    """
    for metric in MetricId:
        if metric not in config.weights:
            raise SchemaError(f"weights: missing entry for {metric.value}")
        if metric not in config.applicability:
            raise SchemaError(f"applicability: missing entry for {metric.value}")
        if not math.isfinite(config.weights[metric]):
            raise SchemaError(f"weights.{metric.value}: must be a finite number, got {config.weights[metric]!r}")
        if config.weights[metric] < 0:
            raise SchemaError(f"weights.{metric.value}: negative weight {config.weights[metric]!r}")
    if len(config.alpha) != 4:
        raise SchemaError("alpha: expected exactly four coefficients")
    for component, coefficient in zip(ComponentId, config.alpha):
        if not math.isfinite(coefficient):
            raise SchemaError(f"alpha.{component.value}: must be a finite number, got {coefficient!r}")
        if coefficient < 0:
            raise SchemaError(f"alpha.{component.value}: negative coefficient {coefficient!r}")

    weights: dict[MetricId, float] = {}
    for component, members in COMPONENT_METRICS.items():
        applicable = [m for m in members if config.applicability[m]]
        if not applicable:
            raise SchemaError(f"component {component.value}: no applicable metric")
        total = sum(config.weights[m] for m in applicable)
        if total == 0:
            raise SchemaError(f"component {component.value}: applicable weights sum to zero")
        rescale = abs(total - 1.0) > _SUM_TOLERANCE
        for m in members:
            if not config.applicability[m]:
                weights[m] = 0.0
            elif rescale:
                weights[m] = config.weights[m] / total
            else:
                weights[m] = config.weights[m]

    return WeightConfig(
        alpha=tuple(config.alpha),
        weights={metric: weights[metric] for metric in MetricId},
        applicability={metric: bool(config.applicability[metric]) for metric in MetricId},
    )


# ---------------------------------------------------------------------------
# Manifest validation
# ---------------------------------------------------------------------------


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
