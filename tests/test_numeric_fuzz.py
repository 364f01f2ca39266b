"""A seeded fuzzer over the numbers the library functions take.

Each case starts from a valid argument set and puts hostile numbers into
one or two of its number fields: NaN, the infinities, the ints
``±10**400`` (beyond float range), ``±1e308``, the subnormal divisors
``±1e-320``, ``0`` and ``-0.0``.
Every field is tried alone with every value, then pairs of fields:
every pair with every pair of values where that makes at most ``PAIRS``
cases, and fixed-seed samples of pairs where it makes more.  Whatever a
function makes of its input, only a :class:`~stride.errors.StrideError`
may escape, no number it returns may be non-finite or beyond float
range, and any trust it returns lies strictly inside (0, 1).

``component_score`` takes an unvalidated config, so its weights are
fuzzed raw, beside its sub-score values.  Left out, for a later fuzzer:
numeric strings and other wrong types.
"""

from __future__ import annotations

import math
import random
from dataclasses import fields, is_dataclass, replace
from datetime import date
from itertools import combinations, product
from typing import Callable, Iterator, Mapping

import pytest

from stride.delta import (
    Annotation,
    DeltaReport,
    DiscrepancyCategory,
    DiscrepancyItem,
    Interval,
    IssueScore,
    RatingRecord,
    attach_classification,
    diff_ratings,
    emit_delta_report,
    net_adjustment,
)
from stride.errors import SchemaError, StrideError
from stride.model import (
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
    validate_weight_config,
)
from stride.sampling import (
    Distribution,
    PopulationRecord,
    aggregate_divergence,
    categorical_distribution,
    js_divergence,
    representativeness_sigma,
    saturation_curve,
    select_representative_sample,
)
from stride.scoring import (
    agility,
    auditability_traceability,
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

HOSTILE = (math.nan, math.inf, -math.inf, 10**400, -(10**400), 1e308, -1e308, 1e-320, -1e-320, 0, -0.0)
PAIRS = 2000  # seeded pairs of fields per function, after every field alone

COVERAGE = CoverageProfile(3, 10, 2, 8, frozenset({"global", "local"}), 5, 1)
EVIDENCE = (EvidenceItem("e0", "u0", 0.5, 0.7), EvidenceItem("e1", "u1", 0.9, 0.2))
RECOGNITION = RecognitionProfile(4, 0.3)
TEMPORAL = TemporalProfile(2.0, 0.5)
ANNOTATION = AnnotationStats(0.6, 3.0, 5.0, 0.1, 0.2)
AGILITY = AgilityStats(0.05, 0.2)
SAFETY = SafetyAudit(3, 100)
GOVERNANCE = GovernanceStats(4, 10, 2, 5, 3, 6, (0.7, 0.75, 0.8), 3, 4, 5, 6)
SAMPLING = SamplingInputs(120, 100, 0.05)
MANIFEST = DatasetManifest(
    "1.0", "fuzz", COVERAGE, EVIDENCE, RECOGNITION, TEMPORAL, SAFETY, GOVERNANCE, ANNOTATION, AGILITY, SAMPLING
)


def _finite(number: object) -> bool:
    """Whether ``number`` is a real number, finite and within float range."""
    if isinstance(number, complex):
        return False
    try:
        return math.isfinite(number)
    except OverflowError:
        return False


def _show(value: object) -> str:
    """``repr(value)``, with an int beyond float range shortened to its power of ten."""
    if isinstance(value, int) and not _finite(value):
        return f"{'-' if value < 0 else ''}10**{len(str(abs(value))) - 1}"
    return repr(value)


def _numbers(value: object) -> Iterator[object]:
    """Every int, float and complex inside ``value``, through dataclasses, sequences and mappings."""
    if isinstance(value, (int, float, complex)) and not isinstance(value, bool):
        yield value
    elif is_dataclass(value):
        for item in fields(value):
            yield from _numbers(getattr(value, item.name))
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, Mapping):
        for item in value.values():
            yield from _numbers(item)


def _fault(call: Callable[[], object], trust: bool = False) -> str | None:
    """What is wrong with ``call()``'s outcome, or None when it keeps the contract."""
    try:
        result = call()
    except StrideError:
        return None
    except Exception as exc:  # the fault this fuzzer looks for
        return f"{type(exc).__name__}: {exc}"
    bad = [number for number in _numbers(result) if not _finite(number)]
    if bad:
        return f"returned {_show(bad[0])}"
    if isinstance(result, StrideReport):
        result = result.trust
    if trust and not 0 < result < 1:
        return f"returned trust {result!r}"
    return None


def _cases(slots: int, rng: random.Random) -> Iterator[dict[int, object]]:
    """Each slot alone with each hostile value, then pairs of slots.

    Where every pair of slots with every pair of values fits within
    ``PAIRS`` cases, that whole cross product is tried; otherwise
    ``PAIRS`` seeded pairs.
    """
    for slot in range(slots):
        for value in HOSTILE:
            yield {slot: value}
    pairs = list(combinations(range(slots), 2))
    if len(pairs) * len(HOSTILE) ** 2 <= PAIRS:
        for (first, second), (one, other) in product(pairs, product(HOSTILE, repeat=2)):
            yield {first: one, second: other}
    else:
        for _ in range(PAIRS):
            first, second = rng.sample(range(slots), 2)
            yield {first: rng.choice(HOSTILE), second: rng.choice(HOSTILE)}


def _sweep(base: tuple, build: Callable[[list], Callable[[], object]], seed: int, trust: bool = False) -> None:
    """Run ``build(args)`` on ``base`` with hostile numbers in its slots; fail with every fault met."""
    faults = []
    for case in _cases(len(base), random.Random(seed)):
        args = list(base)
        for slot, value in case.items():
            args[slot] = value
        fault = _fault(build(args), trust)
        if fault is not None:
            faults.append(f"{ {slot: _show(value) for slot, value in case.items()} }: {fault}")
    assert not faults, f"{len(faults)} faults, first: " + "; ".join(faults[:3])


def _number_fields(section: object) -> list[str]:
    return [item.name for item in fields(section) if type(getattr(section, item.name)) in (int, float)]


def _section_sweep(section: object, metric: Callable[[object], object], seed: int, wrap=lambda s: s) -> None:
    names = _number_fields(section)
    base = tuple(getattr(section, name) for name in names)
    _sweep(base, lambda args: lambda: metric(wrap(replace(section, **dict(zip(names, args))))), seed)


# ---------------------------------------------------------------------------
# Scoring
# ---------------------------------------------------------------------------

SECTION_METRICS = {
    "inclusiveness_materiality": (COVERAGE, inclusiveness_materiality),
    "exemplary_reference": (RECOGNITION, exemplary_reference),
    "time_relevance": (TEMPORAL, time_relevance),
    "ground_truth": (ANNOTATION, ground_truth),
    "agility": (AGILITY, agility),
    "security_safety": (SAFETY, security_safety),
    "human_governed": (GOVERNANCE, human_governed),
    "domain_expert": (GOVERNANCE, domain_expert),
    "transparency": (GOVERNANCE, transparency),
    "role_separation": (GOVERNANCE, role_separation),
}


@pytest.mark.parametrize("name", SECTION_METRICS)
def test_section_metrics(name):
    section, metric = SECTION_METRICS[name]
    _section_sweep(section, metric, seed=len(name))


def test_auditability_traceability():
    _section_sweep(EVIDENCE[1], auditability_traceability, seed=1, wrap=lambda item: (EVIDENCE[0], item))


def test_statistical_methodology():
    _sweep(tuple(vars(SAMPLING).values()), lambda args: lambda: statistical_methodology(*args), seed=2)


@pytest.mark.parametrize("series", [(0.7,), (0.7, 0.75, 0.8)], ids=["one-point", "three-points"])
def test_iterative_feedback(series):
    _sweep(series, lambda args: lambda: iterative_feedback(args), seed=3)


def test_sigmoid():
    _sweep((0.5,), lambda args: lambda: sigmoid(*args), seed=4, trust=True)


def test_trust_score():
    base = (0.6, 0.5, 0.4, 0.3, 0.25, 0.25, 0.25, 0.25)
    _sweep(base, lambda args: lambda: trust_score(*args[:4], tuple(args[4:])), seed=5, trust=True)


def _config(args: list) -> WeightConfig:
    """A raw config: the first four slots are ``alpha``, the rest the weights in ``MetricId`` order."""
    return WeightConfig(
        alpha=tuple(args[:4]),
        weights=dict(zip(MetricId, args[4:])),
        applicability={metric: True for metric in MetricId},
    )


CONFIG_BASE = (0.25,) * 4 + (1.0,) * len(MetricId)


def test_validate_weight_config():
    _sweep(CONFIG_BASE, lambda args: lambda: validate_weight_config(_config(args)), seed=6)


def test_score_dataset_config_fields():
    _sweep(CONFIG_BASE, lambda args: lambda: score_dataset(MANIFEST, _config(args)), seed=7, trust=True)


@pytest.mark.parametrize("component", list(ComponentId), ids=lambda component: component.value)
def test_component_score(component):
    # The first slots are the sub-score values in ``MetricId`` order, the rest a raw config's weights.
    def build(args: list) -> Callable[[], object]:
        subs = [SubScore(metric, value, True, "digest") for metric, value in zip(MetricId, args)]
        config = _config(list(CONFIG_BASE[:4]) + args[len(MetricId) :])
        return lambda: component_score(component, subs, config)

    _sweep((0.5,) * len(MetricId) + CONFIG_BASE[4:], build, seed=8)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

POPULATION = [
    PopulationRecord(f"r{i:02d}", {"size": i * 1.5, "region": ("apac", "emea", "amer")[i % 3]}) for i in range(30)
]


def test_representativeness_sigma():
    _sweep((0.2, 0.3, 0.5), lambda args: lambda: representativeness_sigma(args), seed=9)


def test_js_divergence():
    def build(args: list) -> Callable[[], object]:
        p = Distribution("c", ("a", "b", "d"), tuple(args[:3]))
        q = Distribution("c", ("a", "b"), tuple(args[3:]))
        return lambda: js_divergence(p, q)

    _sweep((0.2, 0.5, 0.3, 0.4, 0.6), build, seed=10)


SAMPLING_CALLS = {
    "categorical_distribution": lambda criterion, bins, seed: categorical_distribution(POPULATION, criterion, bins),
    "saturation_curve": lambda criterion, bins, seed: saturation_curve(POPULATION, criterion, [5, 10], seed, bins),
    "aggregate_divergence": lambda criterion, bins, seed: aggregate_divergence(
        POPULATION, POPULATION[:5], [criterion], bins
    ),
    "select_representative_sample": lambda criterion, bins, seed: select_representative_sample(
        POPULATION, 5, [criterion], seed, bins
    ),
}


@pytest.mark.parametrize("name", SAMPLING_CALLS)
@pytest.mark.parametrize("criterion", ["size", "region"])
def test_sampling_bins_and_seed(name, criterion):
    # Without the cap, a huge int ``bins`` makes the quantiles loop that many
    # times; where there is no cap, the import or the check below fails first.
    from stride.sampling import _MAX_BINS

    with pytest.raises(SchemaError):
        categorical_distribution(POPULATION, "size", _MAX_BINS + 1)
    call = SAMPLING_CALLS[name]
    _sweep((10, 7), lambda args: lambda: call(criterion, *args), seed=11)


# ---------------------------------------------------------------------------
# SR-Delta
# ---------------------------------------------------------------------------


def _record(label: str, score: float, scale_min: float, scale_max: float) -> RatingRecord:
    issues = {"pay": IssueScore(score, scale_min, scale_max), "water": IssueScore(4.0, 0.0, 10.0)}
    return RatingRecord(label, date(2023, 1, 1), date(2023, 12, 31), "BB", issues)


def test_diff_ratings():
    def build(args: list) -> Callable[[], object]:
        return lambda: diff_ratings(_record("baseline", *args[:3]), _record("stride", *args[3:]))

    _sweep((3.0, 0.0, 10.0, 5.5, 0.0, 10.0), build, seed=12)


def _interval_annotation(args: list) -> Annotation:
    return Annotation(DiscrepancyCategory.OVER_PENALIZATION, Interval(*args[:2]), stride_assessment=Interval(*args[2:]))


def test_attach_classification():
    diffs = diff_ratings(_record("baseline", 3.0, 0.0, 10.0), _record("stride", 5.5, 0.0, 10.0))

    def build(args: list) -> Callable[[], object]:
        return lambda: attach_classification(diffs, {"pay": _interval_annotation(args)})

    _sweep((0.1, 0.7, 5.0, 6.0), build, seed=13)


def _item(lower: float, upper: float, baseline: float = 3.0, assessed: Interval | None = None) -> DiscrepancyItem:
    return DiscrepancyItem(
        "pay", baseline, assessed, DiscrepancyCategory.OVER_PENALIZATION, Interval(lower, upper), (), ""
    )


def test_net_adjustment():
    _sweep((0.1, 0.7, -0.2, 0.3), lambda args: lambda: net_adjustment([_item(*args[:2]), _item(*args[2:])]), seed=14)


@pytest.mark.parametrize("format", ["json", "markdown"])
def test_emit_delta_report(format):
    def build(args: list) -> Callable[[], object]:
        item = _item(args[0], args[1], args[2], Interval(args[3], args[4]))
        report = DeltaReport((item,), Interval(args[5], args[6]), "BB", "")
        return lambda: emit_delta_report(report, format)

    _sweep((0.1, 0.7, 3.0, 5.0, 6.0, 0.1, 0.7), build, seed=15)
