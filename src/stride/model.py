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
:func:`validate_manifest` checks what they declare, through one check
per section class built from those declarations on first use.
"""

from __future__ import annotations

import sys
from enum import Enum
from functools import cache
from typing import Any, Callable, Mapping, get_args, get_origin, get_type_hints

from ._records import MISSING, Field, _compiled, record
from .errors import SchemaError, _is_finite, _shown

# Version stamp carried by every emitted JSON report.
SPEC_VERSION = "1.0"

# Finite floats are those within these bounds; NaN is within none.
_LO, _HI = -sys.float_info.max, sys.float_info.max


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
# (test, describe): the value passes when the expression ``test`` holds of
# it, as ``value``, and otherwise ``describe(value)`` is the violation
# message.  A float is first checked to be finite, and a tuple's rule
# applies to each item.  ``at_most`` names a sibling field that the value
# may not exceed, checked once both have passed their own rules.


_NON_EMPTY = ("value", "must be non-empty".format)
# Written as ``value >= 0`` and the like, so that NaN fails them.
_NON_NEGATIVE = ("value >= 0", "must be non-negative".format)
_POSITIVE = ("value > 0", "must be positive".format)
_AT_LEAST_ONE = ("value >= 1", "must be at least 1".format)
_UNIT = ("0 <= value <= 1", "must be in [0, 1], got {!r}".format)
_OPEN_UNIT = ("0 < value < 1", "must be strictly between 0 and 1, got {!r}".format)
_FLAG = ("value in (0, 1)", lambda value: f"must be 0 or 1, got {_shown(value)}")
_LAYER_COUNT = (f"value == {STANDARD_LAYER_COUNT}", f"must be {STANDARD_LAYER_COUNT}".format)
_KNOWN_LAYERS = (
    "STANDARD_LAYERS.issuperset(value)",
    lambda layers: f"unknown layers: {sorted(set(layers) - STANDARD_LAYERS)}",
)


def _ruled(rule: tuple, default: Any = MISSING, *, at_most: str | None = None, omittable: bool = False) -> Any:
    """A field governed by ``rule``; an ``omittable`` field may be left out of a document."""
    return Field(default, {"rule": rule, "at_most": at_most, "omittable": omittable})


@record
class CoverageProfile:
    """Breadth of the dataset across countries, industries, and standard layers."""

    countries_covered: int = _ruled(_NON_NEGATIVE, at_most="countries_total")
    countries_total: int = _ruled(_POSITIVE)
    industries_covered: int = _ruled(_NON_NEGATIVE, at_most="industries_total")
    industries_total: int = _ruled(_POSITIVE)
    standard_layers_covered: frozenset[str] = _ruled(_KNOWN_LAYERS)
    standard_layers_total: int = _ruled(_LAYER_COUNT, STANDARD_LAYER_COUNT)
    external_data_flag: int = _ruled(_FLAG, 0)  # 1 when third-party data is mixed in


@record
class EvidenceItem:
    """A single provenance pointer with audit and trace quality in [0, 1]."""

    id: str
    source_uri: str
    auditability: float = _ruled(_UNIT)
    traceability: float = _ruled(_UNIT)


@record
class RecognitionProfile:
    """External recognition events per year and per-event confidence."""

    recognitions_per_year: int = _ruled(_NON_NEGATIVE)
    single_event_confidence: float = _ruled(_OPEN_UNIT)


@record
class TemporalProfile:
    """Age of the underlying data and the decay rate applied to it."""

    lag_years: float = _ruled(_NON_NEGATIVE)
    decay_rate: float = _ruled(_POSITIVE)


@record
class AnnotationStats:
    """Who produced the labels and how consistent the producers were."""

    human_fraction: float = _ruled(_UNIT)
    mean_tenure_years: float = _ruled(_NON_NEGATIVE)
    tenure_cap_years: float = _ruled(_POSITIVE)
    human_machine_deviation: float = _ruled(_NON_NEGATIVE)
    machine_machine_deviation: float = _ruled(_NON_NEGATIVE)


@record
class AgilityStats:
    """Observed accuracy gain relative to the share of records changed."""

    accuracy_gain: float  # any finite number
    change_proportion: float = _ruled(_UNIT)
    epsilon: float = _ruled(_POSITIVE, 1e-6, omittable=True)  # guards the ratio when change_proportion is 0


@record
class SafetyAudit:
    """Harmful-content audit tallies."""

    harmful_rows: int = _ruled(_NON_NEGATIVE, at_most="total_rows")
    total_rows: int = _ruled(_POSITIVE)


@record
class GovernanceStats:
    """Human oversight counts across the dataset's production pipeline."""

    interventions: int = _ruled(_NON_NEGATIVE, at_most="governed_cases")
    governed_cases: int = _ruled(_POSITIVE)
    experts_involved: int = _ruled(_NON_NEGATIVE, at_most="experts_total")
    experts_total: int = _ruled(_POSITIVE)
    stages_with_experts: int = _ruled(_NON_NEGATIVE, at_most="stages_total")
    stages_total: int = _ruled(_POSITIVE)
    accuracy_series: tuple[float, ...] = _ruled(_UNIT)
    assumptions_disclosed: int = _ruled(_NON_NEGATIVE, at_most="assumptions_required")
    assumptions_required: int = _ruled(_NON_NEGATIVE)
    role_relations_separated: int = _ruled(_NON_NEGATIVE, at_most="role_relations_total")
    role_relations_total: int = _ruled(_POSITIVE)


@record
class SamplingInputs:
    """Pre-computed sampling evidence: size, saturation threshold, share spread."""

    sample_size: int = _ruled(_NON_NEGATIVE)
    saturation_threshold: int = _ruled(_AT_LEAST_ONE)
    share_deviation: float = _ruled(_NON_NEGATIVE)


@record
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


@record
class WeightConfig:
    """Component mixing coefficients plus per-metric weights and applicability.

    ``alpha`` is ordered (credibility, reliability, intimacy, self-serving).
    ``weights`` and ``applicability`` carry one entry per :class:`MetricId`.
    """

    alpha: tuple[float, float, float, float]
    weights: Mapping[MetricId, float]
    applicability: Mapping[MetricId, bool]


@record
class SubScore:
    """One evaluated leaf metric; ``value`` is absent when not applicable."""

    metric_id: MetricId
    value: float | None
    applicable: bool
    inputs_digest: str


@record
class StrideReport:
    """Full scoring result for one manifest under one weight configuration."""

    sub_scores: tuple[SubScore, ...]
    component_scores: Mapping[ComponentId, float]
    trust: float
    config_snapshot: WeightConfig = Field(metadata={"key": "config"})  # its document key
    manifest_digest: str

    def sub_score(self, metric_id: MetricId) -> SubScore:
        for sub in self.sub_scores:
            if sub.metric_id is metric_id:
                return sub
        raise KeyError(metric_id.value)


@record
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

    Raises :class:`SchemaError` on anything but a :class:`WeightConfig`, a
    weight or coefficient that is not a finite non-negative number, an
    ``alpha`` that is not a tuple or list of four, a component with no
    applicable metric, or applicable weights summing to zero.
    """
    if not isinstance(config, WeightConfig):
        raise SchemaError(f"config: expected a WeightConfig, got {type(config).__name__}")
    for metric, code in METRIC_CODES:
        if metric not in config.weights:
            raise SchemaError(f"weights: missing entry for {code}")
        if metric not in config.applicability:
            raise SchemaError(f"applicability: missing entry for {code}")
        weight = config.weights[metric]
        if not (type(weight) is float and 0 <= weight <= _HI):
            _check_number(f"weights.{code}", weight, "weight")
    if not isinstance(config.alpha, (tuple, list)) or len(config.alpha) != 4:
        raise SchemaError("alpha: expected exactly four coefficients")
    for (_, code), coefficient in zip(COMPONENT_CODES, config.alpha):
        if not (type(coefficient) is float and 0 <= coefficient <= _HI):
            _check_number(f"alpha.{code}", coefficient, "coefficient")

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


def _check_number(path: str, value: object, what: str) -> None:
    """Refuse a weight or coefficient ``value`` that is not a finite, non-negative int or float."""
    if not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number, got {type(value).__name__}")
    if not _is_finite(value) or value < 0:
        raise SchemaError(f"{path}: {_not_finite(value) or f'negative {what} {value!r}'}")


# ---------------------------------------------------------------------------
# Manifest validation
# ---------------------------------------------------------------------------


def validate_manifest(manifest: DatasetManifest) -> list[Violation]:
    """Collect every invariant violation in ``manifest``.

    Raises :class:`SchemaError` on anything but a :class:`DatasetManifest`.
    Returns an empty list for a well-formed manifest.  Violations are
    reported as data rather than raised, so callers can surface all of
    them at once.  The rules are the ones declared on the fields of the
    manifest's record classes, checked in field order, section by section,
    by a function built from those declarations on first use; absent
    optional sections are skipped.  A NaN, an infinity or an integer
    beyond float range in a float field is reported as not finite in
    place of that field's rule (the check's ``strict`` mode is off), and
    a value that is not an int or float in a number field as not a number.
    """
    if not isinstance(manifest, DatasetManifest):
        raise SchemaError(f"manifest: expected a DatasetManifest, got {type(manifest).__name__}")
    found: list[Violation] = []
    _rule_check(type(manifest))(manifest, "", None, found)
    # Unlike the at_most pairs, the layer count is compared whatever number the total holds.
    coverage = manifest.coverage
    total = coverage.standard_layers_total
    if isinstance(total, (int, float)) and len(coverage.standard_layers_covered) > total:
        found.append(Violation("coverage.standard_layers_covered", "cannot exceed standard_layers_total"))
    return found


def _not_finite(value: float) -> str | None:
    """Why a float field's ``value`` is not a finite number, or None when it is one."""
    if _is_finite(value):
        return None
    if isinstance(value, int):  # too long to repeat
        return "must be a finite number, got an integer beyond float range"
    return f"must be a finite number, got {value!r}"


def _prefix(where: str, index: int | None) -> str:
    """The start of the paths of an object's fields, from the object's place.

    ``where`` is the object's path, or ``""`` for a document root, whose
    fields are named without a prefix; ``index`` is its position when it
    is an item of the array at ``where``.  Built functions call this only
    to name a fault or a section, so a valid document builds no path.
    """
    if index is not None:
        return f"{where}[{index}]."
    return where + "." if where else ""


_CHECKS: dict[type, Callable] = {}  # rule checks by class, built on first use


@cache
def _rule_test(test: str) -> Callable:
    """A rule's test as a function, for a value that its inline form did not pass."""
    return eval(f"lambda value: {test}", {"STANDARD_LAYERS": STANDARD_LAYERS})


def _fault(name: str, test: str, describe: Callable, number: bool) -> Callable:
    """``fault(value, where, index, found, finite, position=None)``: record the violation ``value`` makes, if any.

    In a ``number`` field, a value that is not an int or a float breaks
    that first (a bool reads as its int); a value not ``finite`` comes
    next.  It returns ``(name,)`` when it records one for a field;
    ``position`` places an item of a tuple.
    """

    def fault(value: object, where: str, index: int | None, found: list, finite: bool, position: int | None = None):
        if number and not isinstance(value, (int, float)):
            message = f"must be a number, got {type(value).__name__}"
        else:
            message = _not_finite(value) if finite else None
            if message is None and not _rule_test(test)(value):
                message = describe(value)
        if message is None:
            return ()
        place = _prefix(where, index) + name
        found.append(Violation(place if position is None else f"{place}[{position}]", message))
        return () if position is not None else (name,)

    return fault


def _rule_check(cls: type) -> Callable:
    """``cls``'s rule check, ``check(obj, where, index, found, strict=False)``, built on first use.

    It appends to ``found`` each rule that ``obj`` or one of its sections
    breaks, in the order of the fields: the values ``cls`` declares rules
    on (and its floats), then its sections, then its at_most pairs; no
    manifest class declares a value after a section.  A float, and in
    ``strict`` mode an int, must be finite.  It is compiled from one inline
    test per value, which passes a value that keeps its rule, a number
    being of its field's type and within float range in the same test;
    only a value that fails it is judged again by its fault.  The source
    is kept short, since compiling it is most of the cost of a first use:
    ``o`` is the object, ``w`` and ``i`` its place, ``s`` the mode, ``L``
    and ``H`` the bounds of float range, ``f<n>`` the faults and ``c<n>``
    the sections' checks.
    """
    if cls in _CHECKS:
        return _CHECKS[cls]
    namespace = {"Violation": Violation, "_prefix": _prefix, "L": _LO, "H": _HI, "STANDARD_LAYERS": STANDARD_LAYERS}
    lines = ["def check(o, w, i, found, s=False):", "    failed = ()"]
    sections = []
    for n, (spec, tp, _) in enumerate(_field_plan(cls)):
        many = get_origin(tp) is tuple
        item = get_args(tp)[0] if many else tp
        if hasattr(item, "__record_fields__"):
            namespace[f"c{n}"] = _rule_check(item)
            sections.append((spec.name, n, many))
            continue
        test, describe = spec.metadata.get("rule") or ("True", None)
        if test == "True" and item is not float:
            continue
        namespace[f"f{n}"] = _fault(spec.name, test, describe, item in (int, float))
        fast = f"type(value) is {item.__name__} and L <= value <= H and {test}" if item in (int, float) else test
        finite = {float: "True", int: "s"}.get(item, "False")
        if many:
            lines.append(f"    for p, value in enumerate(o.{spec.name}):")
            lines.append(f"        if not ({fast}): f{n}(value, w, i, found, {finite}, p)")
        else:
            lines.append(f"    value = o.{spec.name}")
            lines.append(f"    if not ({fast}): failed += f{n}(value, w, i, found, {finite})")
    if sections:
        lines.append("    prefix = _prefix(w, i)")
    for field, n, many in sections:
        if many:
            lines.append(f"    for p, item in enumerate(o.{field}): c{n}(item, prefix + {field!r}, p, found, s)")
        else:
            lines.append(f"    if o.{field} is not None: c{n}(o.{field}, prefix + {field!r}, None, found, s)")
    for spec, _, _ in _field_plan(cls):
        if spec.metadata.get("at_most"):
            field, bound = spec.name, spec.metadata["at_most"]
            lines.append(f"    if {field!r} not in failed and {bound!r} not in failed and o.{field} > o.{bound}:")
            lines.append(f"        found.append(Violation(_prefix(w, i) + {field!r}, {f'cannot exceed {bound}'!r}))")
    check = _CHECKS[cls] = _compiled("check", lines, namespace)
    return check


@cache
def _field_plan(cls: type) -> tuple[tuple, ...]:
    """``(field, type, nullable)`` for each of ``cls``'s fields, in order, built once.

    ``type`` leaves out the ``| None`` of a nullable field.  The codecs of
    :mod:`stride.io` and :func:`_rule_check` are built from it.
    """
    hints = get_type_hints(cls)
    plan = []
    for spec in cls.__record_fields__:
        tp = hints[spec.name]
        nullable = type(None) in get_args(tp)
        plan.append((spec, get_args(tp)[0] if nullable else tp, nullable))
    return tuple(plan)
