"""The trust equation: thirteen leaf metrics, four components, one score.

Each leaf metric is a small closed-form expression over one manifest
section.  Components are convex combinations of their applicable leaf
metrics, and the trust value is a logistic squash of the weighted
component sum, with the self-serving component entering negatively:

    trust = sigmoid(a_C * C + a_R * R + a_I * I - a_S * S)

Metrics that cannot be evaluated for a given manifest (no evidence
items, no annotation block, a too-short accuracy series, nothing to
disclose) return ``None`` instead of a number; the component step then
renormalises the remaining weights.  All arithmetic is plain double
precision, and rounding is left to presentation code.  Sums are folded
left to right from 0.0 rather than by ``sum()``, which compensates float
sums from Python 3.12 on, so scores and run ids are the same on every
supported version.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Mapping, Sequence

from ._records import record
from .digests import _splice, _text_digest, canonical_json, content_digest
from .errors import ComputationError, SchemaError, _is_finite
from .io import manifest_to_dict
from .model import (
    COMPONENT_CODES,
    COMPONENT_METRICS,
    AgilityStats,
    AnnotationStats,
    ComponentId,
    CoverageProfile,
    DatasetManifest,
    EvidenceItem,
    GovernanceStats,
    MetricId,
    RecognitionProfile,
    SafetyAudit,
    SamplingInputs,
    StrideReport,
    SubScore,
    TemporalProfile,
    WeightConfig,
    validate_manifest,
    validate_weight_config,
)

# The fixed blends of the two mixed metrics.  The methodology metric
# splits evenly between saturation and share spread; the ground-truth
# metric splits evenly across its four terms.
METHODOLOGY_WEIGHTS = (0.5, 0.5)
GROUND_TRUTH_WEIGHTS = (0.25, 0.25, 0.25, 0.25)


def sigmoid(z: float) -> float:
    """Logistic function, kept strictly inside (0, 1) even at extreme inputs.

    Raises :class:`ComputationError` for NaN and for an integer beyond
    float range, and :class:`SchemaError` for a value that is not a
    number; ``±inf`` give the clamped endpoints.
    """
    if z != z:
        raise ComputationError("sigmoid input is NaN")
    try:
        if z >= 0:
            value = 1.0 / (1.0 + math.exp(-z))
        else:
            # exp(z) underflows to 0 rather than overflowing for very negative z
            expz = math.exp(z)
            value = expz / (1.0 + expz)
    except OverflowError:  # an integer too large for a float
        raise ComputationError("sigmoid input is beyond float range") from None
    except TypeError:  # not ordered against 0, or not convertible to float
        raise SchemaError(f"sigmoid input must be a number, got {type(z).__name__}") from None
    if value == 1.0:
        return math.nextafter(1.0, 0.0)
    if value == 0.0:
        return math.nextafter(0.0, 1.0)
    return value


# ---------------------------------------------------------------------------
# Leaf metrics
# ---------------------------------------------------------------------------


def _require_finite(name: str, value: float) -> None:
    """Refuse NaN, the infinities and integers beyond float range."""
    if not _is_finite(value):
        if isinstance(value, int):  # too long to repeat
            raise ComputationError(f"{name} is beyond float range")
        raise ComputationError(f"{name} must be finite, got {value!r}")


def _finite_result(value: float, what: str) -> float:
    """``value``, refused when a tiny divisor has taken ``what`` past float range."""
    if not _is_finite(value):
        raise ComputationError(f"{what} is beyond float range")
    return value


def _require_finite_fields(section: str, stats: object) -> None:
    """:func:`_require_finite` on each number field of a manifest section."""
    for name, value in vars(stats).items():
        if isinstance(value, (int, float)) and not _is_finite(value):
            _require_finite(f"{section}.{name}", value)


def inclusiveness_materiality(coverage: CoverageProfile) -> float:
    """Geometric mean of coverage ratios and the external-data factor."""
    if coverage.countries_total <= 0:
        raise ComputationError("coverage.countries_total must be positive")
    if coverage.industries_total <= 0:
        raise ComputationError("coverage.industries_total must be positive")
    if coverage.standard_layers_total <= 0:
        raise ComputationError("coverage.standard_layers_total must be positive")
    if coverage.countries_covered < 0:  # a negative product has a complex fourth root
        raise ComputationError("coverage.countries_covered must be non-negative")
    if coverage.industries_covered < 0:
        raise ComputationError("coverage.industries_covered must be non-negative")
    _require_finite_fields("coverage", coverage)
    if coverage.external_data_flag not in (0, 1):  # exp() of a large flag overflows
        raise ComputationError(f"coverage.external_data_flag must be 0 or 1, got {coverage.external_data_flag!r}")
    geographic = coverage.countries_covered / coverage.countries_total
    industry = coverage.industries_covered / coverage.industries_total
    layers = len(coverage.standard_layers_covered) / coverage.standard_layers_total
    external = 1.0 / (1.0 + math.exp(coverage.external_data_flag - 0.5))
    product = geographic * industry * layers * external
    if not _is_finite(product):
        raise ComputationError("coverage: the ratios multiply past float range")
    return product ** 0.25


def auditability_traceability(evidence: Sequence[EvidenceItem]) -> float | None:
    """Mean of per-item audit/trace quality; ``None`` when there is no evidence."""
    if not evidence:
        return None
    total = 0.0
    for index, item in enumerate(evidence):
        _require_finite_fields(f"evidence[{index}]", item)
        total += (item.auditability + item.traceability) / 2.0
    if not _is_finite(total):
        raise ComputationError("evidence: the item scores add up past float range")
    return total / len(evidence)


def exemplary_reference(recognition: RecognitionProfile) -> float:
    """Probability that at least one of n recognition events holds up."""
    if recognition.recognitions_per_year < 0:
        raise ComputationError("recognition.recognitions_per_year must be non-negative")
    if not 0 < recognition.single_event_confidence < 1:
        raise ComputationError("recognition.single_event_confidence must be strictly between 0 and 1")
    _require_finite_fields("recognition", recognition)
    return 1.0 - (1.0 - recognition.single_event_confidence) ** recognition.recognitions_per_year


def time_relevance(temporal: TemporalProfile) -> float:
    """Exponential decay of relevance with data age."""
    if temporal.lag_years < 0:
        raise ComputationError("temporal.lag_years must be non-negative")
    if temporal.decay_rate <= 0:
        raise ComputationError("temporal.decay_rate must be positive")
    _require_finite_fields("temporal", temporal)
    return math.exp(-temporal.decay_rate * temporal.lag_years)


def statistical_methodology(sample_size: int, saturation_threshold: int, share_deviation: float) -> float:
    """Even blend (``METHODOLOGY_WEIGHTS``) of sample saturation and share-spread representativeness.

    The representativeness term is ``1 - share_deviation``, taken as given,
    so the result goes below 0 when ``share_deviation`` exceeds 1:
    ``statistical_methodology(10, 10, 7.0)`` is -2.5.
    """
    if saturation_threshold <= 0:
        raise ComputationError("saturation_threshold must be positive")
    _require_finite("sample_size", sample_size)
    _require_finite("saturation_threshold", saturation_threshold)
    _require_finite("share_deviation", share_deviation)
    saturation = min(1.0, sample_size / saturation_threshold)
    representativeness = 1.0 - share_deviation
    blend = METHODOLOGY_WEIGHTS[0] * saturation + METHODOLOGY_WEIGHTS[1] * representativeness
    return _finite_result(blend, "sample_size / saturation_threshold")


def ground_truth(stats: AnnotationStats) -> float:
    """Annotation quality: human share, tenure, and the two deviation terms, blended evenly.

    The deviation terms add as given, so the result can exceed 1.
    """
    if stats.tenure_cap_years <= 0:
        raise ComputationError("annotation.tenure_cap_years must be positive")
    _require_finite_fields("annotation", stats)
    tenure = min(1.0, stats.mean_tenure_years / stats.tenure_cap_years)
    human, tenured, human_machine, machine_machine = GROUND_TRUTH_WEIGHTS
    blend = (
        human * stats.human_fraction
        + tenured * tenure
        + human_machine * stats.human_machine_deviation
        + machine_machine * stats.machine_machine_deviation
    )
    return _finite_result(blend, "annotation.mean_tenure_years / annotation.tenure_cap_years")


def agility(stats: AgilityStats) -> float:
    """Accuracy gain per unit of change, clamped into [0, 1]."""
    if stats.epsilon <= 0:
        raise ComputationError("agility.epsilon must be positive")
    _require_finite_fields("agility", stats)
    if stats.change_proportion + stats.epsilon == 0:
        raise ComputationError("agility.change_proportion + agility.epsilon must not be zero")
    ratio = stats.accuracy_gain / (stats.change_proportion + stats.epsilon)
    return min(1.0, max(0.0, ratio))


def security_safety(audit: SafetyAudit) -> float:
    """Share of audited rows free of harmful content."""
    if audit.total_rows <= 0:
        raise ComputationError("safety.total_rows must be positive")
    _require_finite_fields("safety", audit)
    return _finite_result(1.0 - audit.harmful_rows / audit.total_rows, "safety.harmful_rows / safety.total_rows")


def human_governed(stats: GovernanceStats) -> float:
    """Share of governed cases that saw a human intervention."""
    if stats.governed_cases <= 0:
        raise ComputationError("governance.governed_cases must be positive")
    _require_finite("governance.interventions", stats.interventions)
    _require_finite("governance.governed_cases", stats.governed_cases)
    return _finite_result(
        stats.interventions / stats.governed_cases, "governance.interventions / governance.governed_cases"
    )


def domain_expert(stats: GovernanceStats) -> float:
    """Mean of expert-involvement share and expert-staffed stage share."""
    if stats.experts_total <= 0:
        raise ComputationError("governance.experts_total must be positive")
    if stats.stages_total <= 0:
        raise ComputationError("governance.stages_total must be positive")
    _require_finite("governance.experts_involved", stats.experts_involved)
    _require_finite("governance.experts_total", stats.experts_total)
    _require_finite("governance.stages_with_experts", stats.stages_with_experts)
    _require_finite("governance.stages_total", stats.stages_total)
    experts = stats.experts_involved / stats.experts_total
    stages = stats.stages_with_experts / stats.stages_total
    if not _is_finite(experts + stages):
        raise ComputationError("governance: the expert shares add up past float range")
    return (experts + stages) / 2.0


def iterative_feedback(accuracy_series: Sequence[float]) -> float | None:
    """Mean step-to-step accuracy change; ``None`` for fewer than two points."""
    if len(accuracy_series) < 2:
        return None
    for index, value in enumerate(accuracy_series):
        _require_finite(f"accuracy_series[{index}]", value)
    steps = len(accuracy_series) - 1
    total = 0.0
    try:
        for t in range(1, len(accuracy_series)):
            total += accuracy_series[t] - accuracy_series[t - 1]
            if total == math.inf or total == -math.inf:  # a float step, or the running sum, overflowed
                raise OverflowError
    except OverflowError:  # also an integer step too large for a float
        raise ComputationError(f"accuracy_series[{t - 1}:{t + 1}]: step is beyond float range") from None
    return total / steps


def transparency(stats: GovernanceStats) -> float | None:
    """Share of required assumptions disclosed; ``None`` when none are required."""
    if stats.assumptions_required < 0:
        raise ComputationError("governance.assumptions_required must be non-negative")
    if stats.assumptions_required == 0:
        return None
    _require_finite("governance.assumptions_disclosed", stats.assumptions_disclosed)
    _require_finite("governance.assumptions_required", stats.assumptions_required)
    return _finite_result(
        stats.assumptions_disclosed / stats.assumptions_required,
        "governance.assumptions_disclosed / governance.assumptions_required",
    )


def role_separation(stats: GovernanceStats) -> float:
    """Share of role relations kept separated."""
    if stats.role_relations_total <= 0:
        raise ComputationError("governance.role_relations_total must be positive")
    _require_finite("governance.role_relations_separated", stats.role_relations_separated)
    _require_finite("governance.role_relations_total", stats.role_relations_total)
    return _finite_result(
        stats.role_relations_separated / stats.role_relations_total,
        "governance.role_relations_separated / governance.role_relations_total",
    )


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------


@record
class ComponentTerm:
    """One applicable metric's share of a component score."""

    metric_id: MetricId
    weight: float
    value: float
    contribution: float


@record
class ComponentBreakdown:
    """A component score with its renormalised weighted terms."""

    component_id: ComponentId
    terms: tuple[ComponentTerm, ...]
    total: float


def _fold(
    component_id: ComponentId, by_id: Mapping[MetricId, SubScore], weights: Mapping[MetricId, float]
) -> tuple[list[tuple[MetricId, float, float, float]], float]:
    """A component's terms, as ``(metric, weight, value, contribution)``, and their total.

    The one copy of the component arithmetic: :func:`component_score`,
    :func:`score_dataset` and the run store's check of a stored report
    all fold through it, so they agree to the last bit.
    """
    applicable = [
        by_id[metric]
        for metric in COMPONENT_METRICS[component_id]
        if metric in by_id and by_id[metric].applicable
    ]
    if not applicable:
        raise ComputationError(f"component {component_id.value}: no applicable sub-score")
    raw_total = 0.0
    try:
        for sub in applicable:
            raw_total += weights[sub.metric_id]
    except OverflowError:  # an int weight too large for a float
        raw_total = math.inf
    if not _is_finite(raw_total):  # a config that validate_weight_config did not see
        raise ComputationError(f"component {component_id.value}: applicable weights do not sum to a finite number")
    if raw_total == 0:
        raise ComputationError(f"component {component_id.value}: applicable weights sum to zero")
    rescale = abs(raw_total - 1.0) > 1e-12

    terms = []
    total = 0.0
    for sub in applicable:
        if sub.value is None:
            raise ComputationError(f"{sub.metric_id.value}: applicable sub-score without a value")
        if not _is_finite(sub.value):
            _require_finite(f"{sub.metric_id.value} sub-score", sub.value)
        weight = weights[sub.metric_id] / raw_total if rescale else weights[sub.metric_id]
        contribution = weight * sub.value
        terms.append((sub.metric_id, weight, sub.value, contribution))
        total += contribution
    if not _is_finite(total):
        raise ComputationError(f"component {component_id.value}: weighted sub-scores add up past float range")
    return terms, total


def component_score(
    component_id: ComponentId,
    sub_scores: Iterable[SubScore],
    config: WeightConfig,
) -> ComponentBreakdown:
    """Convex combination of a component's applicable sub-scores.

    Weights are taken from ``config`` and renormalised over the
    sub-scores that are actually applicable, so listed term weights
    always sum to one.  ``config`` need not be validated: weights that
    do not sum to a finite number, or a total past float range, raise
    :class:`ComputationError`.
    """
    terms, total = _fold(component_id, {sub.metric_id: sub for sub in sub_scores}, config.weights)
    return ComponentBreakdown(component_id, tuple(ComponentTerm(*term) for term in terms), total)


def _components_and_trust(
    sub_scores: Iterable[SubScore], config: WeightConfig
) -> tuple[dict[ComponentId, float], float]:
    """The four component scores and the trust value that ``sub_scores`` give under ``config``."""
    by_id = {sub.metric_id: sub for sub in sub_scores}
    components = {component: _fold(component, by_id, config.weights)[1] for component, _ in COMPONENT_CODES}
    trust = trust_score(
        components[ComponentId.CREDIBILITY],
        components[ComponentId.RELIABILITY],
        components[ComponentId.INTIMACY],
        components[ComponentId.SELF_SERVING],
        config.alpha,
    )
    return components, trust


_TRUST_TERMS = (
    "credibility", "reliability", "intimacy", "self_serving", "alpha[0]", "alpha[1]", "alpha[2]", "alpha[3]"
)


def trust_score(
    credibility: float,
    reliability: float,
    intimacy: float,
    self_serving: float,
    alpha: tuple[float, float, float, float],
) -> float:
    """Squash the weighted component sum; self-serving counts against trust.

    Raises :class:`ComputationError` for a component or coefficient that
    is an integer beyond float range, and, as :func:`sigmoid` does, for a
    NaN sum.
    """
    a_c, a_r, a_i, a_s = alpha
    for name, value in zip(_TRUST_TERMS, (credibility, reliability, intimacy, self_serving, *alpha)):
        if isinstance(value, int) and not _is_finite(value):
            raise ComputationError(f"{name} is beyond float range")
    return sigmoid(a_c * credibility + a_r * reliability + a_i * intimacy - a_s * self_serving)


# ---------------------------------------------------------------------------
# Whole-manifest scoring
# ---------------------------------------------------------------------------


def _sampled_methodology(inputs: SamplingInputs) -> float:
    return statistical_methodology(inputs.sample_size, inputs.saturation_threshold, inputs.share_deviation)


def _accuracy_feedback(stats: GovernanceStats) -> float | None:
    return iterative_feedback(stats.accuracy_series)


# Each metric's inputs and formula, in ``MetricId`` order.  A section name
# passes that manifest section to the formula; a tuple of keys passes the
# governance section.  The inputs digest covers the same slice of
# ``io.manifest_to_dict``: the whole section, or those governance keys.  A
# section that is ``None`` leaves its metric inapplicable.
_METRICS: dict[MetricId, tuple[str | tuple[str, ...], Callable[..., float | None]]] = {
    MetricId.INCLUSIVENESS_MATERIALITY: ("coverage", inclusiveness_materiality),
    MetricId.AUDITABILITY_TRACEABILITY: ("evidence", auditability_traceability),
    MetricId.EXEMPLARY_REFERENCE: ("recognition", exemplary_reference),
    MetricId.TIME_RELEVANCE: ("temporal", time_relevance),
    MetricId.STATISTICAL_METHODOLOGY: ("sampling_inputs", _sampled_methodology),
    MetricId.GROUND_TRUTH: ("annotation", ground_truth),
    MetricId.AGILITY: ("agility", agility),
    MetricId.SECURITY_SAFETY: ("safety", security_safety),
    MetricId.HUMAN_GOVERNED: (("interventions", "governed_cases"), human_governed),
    MetricId.DOMAIN_EXPERT: (("experts_involved", "experts_total", "stages_with_experts", "stages_total"), domain_expert),
    MetricId.ITERATIVE_FEEDBACK: (("accuracy_series",), _accuracy_feedback),
    MetricId.TRANSPARENCY: (("assumptions_disclosed", "assumptions_required"), transparency),
    MetricId.ROLE_SEPARATION: (("role_relations_separated", "role_relations_total"), role_separation),
}


def score_dataset(manifest: DatasetManifest, config: WeightConfig) -> StrideReport:
    """Score one manifest under one weight configuration.

    Validates both inputs, evaluates every leaf metric (marking the ones
    the manifest cannot support as inapplicable), folds components, and
    squashes the trust value.  The returned report carries the
    normalised configuration and content digests for reproducibility.
    """
    violations = validate_manifest(manifest)
    if violations:
        details = "; ".join(str(v) for v in violations)
        raise SchemaError(f"manifest validation failed: {details}")
    normalised = validate_weight_config(config)
    document = manifest_to_dict(manifest)
    # Each top-level entry is encoded once: its text is hashed for the
    # section's inputs digest and spliced into the manifest's canonical text.
    texts = {key: canonical_json(value) for key, value in document.items()}

    sub_scores = []
    for metric, (inputs, formula) in _METRICS.items():
        if isinstance(inputs, str):
            section = getattr(manifest, inputs)
            digest = _text_digest(texts[inputs])
        else:
            section = manifest.governance
            digest = content_digest({key: document["governance"][key] for key in inputs})
        if not normalised.applicability[metric]:
            sub_scores.append(SubScore(metric, None, False, digest))
            continue
        value = None if section is None else formula(section)
        sub_scores.append(SubScore(metric, value, value is not None, digest))

    components, trust = _components_and_trust(sub_scores, normalised)

    return StrideReport(
        sub_scores=tuple(sub_scores),
        component_scores=components,
        trust=trust,
        config_snapshot=normalised,
        manifest_digest=_text_digest(_splice(texts)),
    )


def component_breakdowns(report: StrideReport) -> dict[ComponentId, ComponentBreakdown]:
    """Recompute per-component term breakdowns from a finished report."""
    return {
        component: component_score(component, report.sub_scores, report.config_snapshot)
        for component, _ in COMPONENT_CODES
    }
