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
:func:`validate_weight_config` are the gatekeepers.  Each manifest
field's admissible range is declared in that field's metadata, and
:func:`validate_manifest` walks the fields and checks what they declare.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
from functools import cache
from typing import Any, Mapping, get_args, get_origin, get_type_hints

from .errors import SchemaError, _is_finite, _shown

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

# (member, code) pairs in declaration order, for loops that need both: an
# Enum walk and a ``.value`` read cost far more than a tuple walk.
METRIC_CODES: tuple[tuple[MetricId, str], ...] = tuple((metric, metric.value) for metric in MetricId)
COMPONENT_CODES: tuple[tuple[ComponentId, str], ...] = tuple(
    (component, component.value) for component in ComponentId
)

# The five recognised standardisation layers, all of which a manifest may claim.
STANDARD_LAYERS = frozenset({"global", "national", "local", "industry", "company"})
STANDARD_LAYER_COUNT = 5


# ---------------------------------------------------------------------------
# Manifest sections
# ---------------------------------------------------------------------------
#
# Each single-field rule is declared on its field.  A rule is a pair
# (test, describe): the value passes when ``test(value)`` is true, and
# otherwise ``describe(value)`` is the violation message.  A float is
# first checked to be finite, and a tuple's rule applies to each item.
# ``at_most`` names a sibling field that the value may not exceed, checked
# once both have passed their own rules.


_NON_EMPTY = (bool, "must be non-empty".format)
# Written as ``value >= 0`` and the like, so that NaN fails them.
_NON_NEGATIVE = (lambda value: value >= 0, "must be non-negative".format)
_POSITIVE = (lambda value: value > 0, "must be positive".format)
_AT_LEAST_ONE = (lambda value: value >= 1, "must be at least 1".format)
_UNIT = (lambda value: 0 <= value <= 1, "must be in [0, 1], got {!r}".format)
_OPEN_UNIT = (lambda value: 0 < value < 1, "must be strictly between 0 and 1, got {!r}".format)
_FLAG = (lambda value: value in (0, 1), lambda value: f"must be 0 or 1, got {_shown(value)}")
_LAYER_COUNT = (lambda value: value == STANDARD_LAYER_COUNT, f"must be {STANDARD_LAYER_COUNT}".format)
_KNOWN_LAYERS = (
    STANDARD_LAYERS.issuperset,
    lambda layers: f"unknown layers: {sorted(set(layers) - STANDARD_LAYERS)}",
)


def _ruled(rule: tuple, default: Any = MISSING, *, at_most: str | None = None, omittable: bool = False) -> Any:
    """A field governed by ``rule``; an ``omittable`` field may be left out of a document."""
    return field(default=default, metadata={"rule": rule, "at_most": at_most, "omittable": omittable})


@dataclass(frozen=True)
class CoverageProfile:
    """Breadth of the dataset across countries, industries, and standard layers."""

    countries_covered: int = _ruled(_NON_NEGATIVE, at_most="countries_total")
    countries_total: int = _ruled(_POSITIVE)
    industries_covered: int = _ruled(_NON_NEGATIVE, at_most="industries_total")
    industries_total: int = _ruled(_POSITIVE)
    standard_layers_covered: frozenset[str] = _ruled(_KNOWN_LAYERS)
    standard_layers_total: int = _ruled(_LAYER_COUNT, STANDARD_LAYER_COUNT)
    external_data_flag: int = _ruled(_FLAG, 0)  # 1 when third-party data is mixed in


@dataclass(frozen=True)
class EvidenceItem:
    """A single provenance pointer with audit and trace quality in [0, 1]."""

    id: str
    source_uri: str
    auditability: float = _ruled(_UNIT)
    traceability: float = _ruled(_UNIT)


@dataclass(frozen=True)
class RecognitionProfile:
    """External recognition events per year and per-event confidence."""

    recognitions_per_year: int = _ruled(_NON_NEGATIVE)
    single_event_confidence: float = _ruled(_OPEN_UNIT)


@dataclass(frozen=True)
class TemporalProfile:
    """Age of the underlying data and the decay rate applied to it."""

    lag_years: float = _ruled(_NON_NEGATIVE)
    decay_rate: float = _ruled(_POSITIVE)


@dataclass(frozen=True)
class AnnotationStats:
    """Who produced the labels and how consistent the producers were."""

    human_fraction: float = _ruled(_UNIT)
    mean_tenure_years: float = _ruled(_NON_NEGATIVE)
    tenure_cap_years: float = _ruled(_POSITIVE)
    human_machine_deviation: float = _ruled(_NON_NEGATIVE)
    machine_machine_deviation: float = _ruled(_NON_NEGATIVE)


@dataclass(frozen=True)
class AgilityStats:
    """Observed accuracy gain relative to the share of records changed."""

    accuracy_gain: float  # any finite number
    change_proportion: float = _ruled(_UNIT)
    epsilon: float = _ruled(_POSITIVE, 1e-6, omittable=True)  # guards the ratio when change_proportion is 0


@dataclass(frozen=True)
class SafetyAudit:
    """Harmful-content audit tallies."""

    harmful_rows: int = _ruled(_NON_NEGATIVE, at_most="total_rows")
    total_rows: int = _ruled(_POSITIVE)


@dataclass(frozen=True)
class GovernanceStats:
    """Human oversight counts across the dataset's production pipeline."""

    interventions: int = _ruled(_NON_NEGATIVE, at_most="governed_cases")
    governed_cases: int = _ruled(_NON_NEGATIVE)
    experts_involved: int = _ruled(_NON_NEGATIVE, at_most="experts_total")
    experts_total: int = _ruled(_NON_NEGATIVE)
    stages_with_experts: int = _ruled(_NON_NEGATIVE, at_most="stages_total")
    stages_total: int = _ruled(_NON_NEGATIVE)
    accuracy_series: tuple[float, ...] = _ruled(_UNIT)
    assumptions_disclosed: int = _ruled(_NON_NEGATIVE, at_most="assumptions_required")
    assumptions_required: int = _ruled(_NON_NEGATIVE)
    role_relations_separated: int = _ruled(_NON_NEGATIVE, at_most="role_relations_total")
    role_relations_total: int = _ruled(_NON_NEGATIVE)


@dataclass(frozen=True)
class SamplingInputs:
    """Pre-computed sampling evidence: size, saturation threshold, share spread."""

    sample_size: int = _ruled(_NON_NEGATIVE)
    saturation_threshold: int = _ruled(_AT_LEAST_ONE)
    share_deviation: float = _ruled(_NON_NEGATIVE)


@dataclass(frozen=True)
class DatasetManifest:
    """Everything the scoring engine needs to know about one dataset."""

    manifest_version: str = _ruled(_NON_EMPTY)
    dataset_id: str = _ruled(_NON_EMPTY)
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
    config_snapshot: WeightConfig = field(metadata={"key": "config"})  # its document key
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
    for metric, code in METRIC_CODES:
        if metric not in config.weights:
            raise SchemaError(f"weights: missing entry for {code}")
        if metric not in config.applicability:
            raise SchemaError(f"applicability: missing entry for {code}")
        weight = config.weights[metric]
        if not _is_finite(weight):
            raise SchemaError(f"weights.{code}: {_not_finite(weight)}")
        if weight < 0:
            raise SchemaError(f"weights.{code}: negative weight {weight!r}")
    if len(config.alpha) != 4:
        raise SchemaError("alpha: expected exactly four coefficients")
    for (_, code), coefficient in zip(COMPONENT_CODES, config.alpha):
        if not _is_finite(coefficient):
            raise SchemaError(f"alpha.{code}: {_not_finite(coefficient)}")
        if coefficient < 0:
            raise SchemaError(f"alpha.{code}: negative coefficient {coefficient!r}")

    weights: dict[MetricId, float] = {}
    for component, members in COMPONENT_METRICS.items():
        applicable = [m for m in members if config.applicability[m]]
        if not applicable:
            raise SchemaError(f"component {component.value}: no applicable metric")
        total = 0.0  # a left-to-right fold: sum() of floats differs from Python 3.12 on
        for m in applicable:
            total += config.weights[m]
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
        weights={metric: weights[metric] for metric, _ in METRIC_CODES},
        applicability={metric: bool(config.applicability[metric]) for metric, _ in METRIC_CODES},
    )


# ---------------------------------------------------------------------------
# Manifest validation
# ---------------------------------------------------------------------------


def validate_manifest(manifest: DatasetManifest) -> list[Violation]:
    """Collect every invariant violation in ``manifest``.

    Returns an empty list for a well-formed manifest.  Violations are
    reported as data rather than raised, so callers can surface all of
    them at once.  The rules are the ones declared on the fields of the
    manifest's dataclasses, checked in field order, section by section;
    absent optional sections are skipped.  A NaN, an infinity or an
    integer beyond float range in a float field is reported as not finite
    in place of that field's rule.
    """
    found: list[Violation] = []
    _check(manifest, "", found)
    # Unlike the at_most pairs, the layer count is compared whatever the two fields hold.
    coverage = manifest.coverage
    if len(coverage.standard_layers_covered) > coverage.standard_layers_total:
        found.append(Violation("coverage.standard_layers_covered", "cannot exceed standard_layers_total"))
    return found


def _check(obj: object, prefix: str, found: list[Violation]) -> None:
    """Append to ``found`` each rule that ``obj`` or one of its sections breaks.

    ``prefix`` starts the paths of ``obj``'s fields.
    """
    _, values, sections, bounded = _field_plan(type(obj))
    failed: tuple[str, ...] = ()
    for name, finite, many, test, describe in values:
        value = getattr(obj, name)
        if many:
            for index, item in enumerate(value):
                message = _not_finite(item) if finite else None
                if message is None and not test(item):
                    message = describe(item)
                if message is not None:
                    found.append(Violation(f"{prefix}{name}[{index}]", message))
            continue
        message = _not_finite(value) if finite else None
        if message is None:
            if test(value):
                continue
            message = describe(value)
        found.append(Violation(prefix + name, message))
        failed += (name,)
    for name, many in sections:
        value = getattr(obj, name)
        if many:
            for index, item in enumerate(value):
                _check(item, f"{prefix}{name}[{index}].", found)
        elif value is not None:
            _check(value, f"{prefix}{name}.", found)
    for name, bound in bounded:
        if name not in failed and bound not in failed and getattr(obj, name) > getattr(obj, bound):
            found.append(Violation(prefix + name, f"cannot exceed {bound}"))


def _not_finite(value: float) -> str | None:
    """Why a float field's ``value`` is not a finite number, or None when it is one."""
    if _is_finite(value):
        return None
    if isinstance(value, int):  # too long to repeat
        return "must be a finite number, got an integer beyond float range"
    return f"must be a finite number, got {value!r}"


_ANY = (lambda value: True, None)


@cache
def _field_plan(cls: type) -> tuple[tuple, tuple, tuple, tuple]:
    """``cls``'s fields as the manifest codec and :func:`_check` read them, built once.

    Returns ``(fields, values, sections, bounded)``.  ``fields`` holds
    ``(field, type, nullable)`` for the codec in :mod:`stride.io`, where
    ``type`` leaves out the ``| None`` of a nullable field.  The rest is
    what :func:`_check` walks: the values it checks, the sections it
    descends into, and the at_most pairs.  Values are checked before
    sections, which keeps field order: no manifest class declares a value
    after a section.
    """
    hints = get_type_hints(cls)
    types, values, sections, bounded = [], [], [], []
    for spec in fields(cls):
        tp = hints[spec.name]
        nullable = type(None) in get_args(tp)
        if nullable:
            tp = get_args(tp)[0]
        types.append((spec, tp, nullable))
        many = get_origin(tp) is tuple
        item = get_args(tp)[0] if many else tp
        rule = spec.metadata.get("rule")
        if is_dataclass(item):
            sections.append((spec.name, many))
        elif rule or item is float:
            values.append((spec.name, item is float, many, *(rule or _ANY)))
        if spec.metadata.get("at_most"):
            bounded.append((spec.name, spec.metadata["at_most"]))
    return tuple(types), tuple(values), tuple(sections), tuple(bounded)
