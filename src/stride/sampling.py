"""Representativeness machinery: distributions, divergence, sample selection.

Records carry a flat map of criterion values.  Categorical criteria
(strings and booleans) are counted directly; numeric criteria are
quantile-binned against population-wide breakpoints; list-valued
criteria are counted per mention.  Distributions over the same category
list are compared with the Jensen-Shannon divergence in base 2, which
lives in [0, 1].

Everything here is a pure function of its inputs plus, where sampling
is involved, a caller-supplied seed.  Two calls with the same arguments
return the same result.
"""

from __future__ import annotations

import bisect
import math
import random
import statistics
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Sequence

from .errors import ComputationError, SchemaError

DEFAULT_BINS = 10

# Swap-search improvements smaller than this are treated as float noise.
_IMPROVEMENT_EPS = 1e-12


@dataclass(frozen=True)
class PopulationRecord:
    """One population member and its criterion values."""

    record_id: str
    criteria: Mapping[str, object]


@dataclass(frozen=True)
class Distribution:
    """Relative frequencies of one criterion over an ordered category list."""

    criterion: str
    categories: tuple[str, ...]
    probabilities: tuple[float, ...]


@dataclass(frozen=True)
class SaturationPoint:
    """Sample-size-to-divergence observation on a saturation curve."""

    sample_size: int
    divergence: float


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of greedy representative-sample selection."""

    record_ids: tuple[str, ...]
    deviation: float
    initial_deviation: float
    swaps_applied: int
    criteria: tuple[str, ...]


# ---------------------------------------------------------------------------
# Binning
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Binning:
    kind: str  # "categorical" | "numeric" | "multilabel"
    categories: tuple[str, ...]
    breakpoints: tuple[float, ...] = ()

    @cached_property
    def positions(self) -> dict[str, int]:
        """Label -> category index, for the categorical and multilabel lookups."""
        return {label: i for i, label in enumerate(self.categories)}


def _bool_label(value: bool) -> str:
    return "true" if value else "false"


def _criterion_values(records: Sequence[PopulationRecord], criterion: str) -> list[object]:
    values = []
    for record in records:
        if criterion not in record.criteria:
            raise SchemaError(f"record {record.record_id!r}: missing criterion {criterion!r}")
        values.append(record.criteria[criterion])
    return values


def _build_binning(records: Sequence[PopulationRecord], criterion: str, bins: int) -> _Binning:
    if not records:
        raise SchemaError("population is empty")
    values = _criterion_values(records, criterion)

    kinds = set()
    for value in values:
        if isinstance(value, bool) or isinstance(value, str):
            kinds.add("categorical")
        elif isinstance(value, (int, float)):
            kinds.add("numeric")
        elif isinstance(value, (list, tuple, set, frozenset)):
            kinds.add("multilabel")
        else:
            raise SchemaError(f"criterion {criterion!r}: unsupported value type {type(value).__name__}")
    if len(kinds) != 1:
        raise SchemaError(f"criterion {criterion!r}: mixed value types {sorted(kinds)}")
    kind = kinds.pop()

    if kind == "categorical":
        labels = {_bool_label(v) if isinstance(v, bool) else v for v in values}
        return _Binning("categorical", tuple(sorted(labels)))

    if kind == "multilabel":
        labels = set()
        for value in values:
            for element in value:
                if not isinstance(element, str):
                    raise SchemaError(f"criterion {criterion!r}: list values must contain strings")
                labels.add(element)
        if not labels:
            raise SchemaError(f"criterion {criterion!r}: no labels to count")
        return _Binning("multilabel", tuple(sorted(labels)))

    if bins < 2:
        raise SchemaError(f"criterion {criterion!r}: numeric binning needs at least 2 bins")
    try:
        numbers = [float(v) for v in values]
    except OverflowError:  # an integer too large for a float
        numbers = [math.inf]
    if not all(map(math.isfinite, numbers)):
        raise SchemaError(f"criterion {criterion!r}: numeric values must be finite (no NaN or infinity)")
    if len(numbers) >= 2:
        breakpoints = tuple(statistics.quantiles(numbers, n=bins, method="inclusive"))
    else:
        breakpoints = ()
    width = len(str(len(breakpoints) + 1))
    categories = tuple(f"bin{i + 1:0{width}d}" for i in range(len(breakpoints) + 1))
    return _Binning("numeric", categories, breakpoints)


def _category_indices(record: PopulationRecord, criterion: str, binning: _Binning) -> tuple[int, ...]:
    value = record.criteria[criterion]
    if binning.kind == "numeric":
        return (bisect.bisect_right(binning.breakpoints, float(value)),)
    if binning.kind == "multilabel":
        labels = tuple(value)
    else:
        labels = (_bool_label(value) if isinstance(value, bool) else value,)
    indices = []
    for label in labels:
        try:
            indices.append(binning.positions[label])
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise SchemaError(f"criterion {criterion!r}: label {label!r} outside the population") from None
    return tuple(indices)


def _distribution_of(
    record_cats: Iterable[tuple[int, ...]], criterion: str, binning: _Binning
) -> Distribution:
    # ``record_cats`` holds one ``_category_indices`` tuple per record.
    tally = Counter(chain.from_iterable(record_cats))
    counts = [tally[index] for index in range(len(binning.categories))]
    total = sum(counts)
    if total == 0:
        raise SchemaError(f"criterion {criterion!r}: no values to count")
    return Distribution(criterion, binning.categories, tuple(c / total for c in counts))


def _distribution_under(
    records: Sequence[PopulationRecord], criterion: str, binning: _Binning
) -> Distribution:
    return _distribution_of((_category_indices(r, criterion, binning) for r in records), criterion, binning)


def categorical_distribution(
    records: Sequence[PopulationRecord], criterion: str, bins: int = DEFAULT_BINS
) -> Distribution:
    """Distribution of ``criterion`` over ``records``.

    Numeric criteria are quantile-binned into ``bins`` categories using
    breakpoints computed from ``records`` themselves.
    """
    binning = _build_binning(records, criterion, bins)
    return _distribution_under(records, criterion, binning)


# ---------------------------------------------------------------------------
# Divergence
# ---------------------------------------------------------------------------


def _label_map(dist: Distribution) -> dict[str, float]:
    if len(set(dist.categories)) != len(dist.categories):
        raise SchemaError(f"criterion {dist.criterion!r}: duplicate category labels")
    return dict(zip(dist.categories, dist.probabilities))


def _jsd_terms(p_i: float, q_i: float) -> float:
    # Accumulate the smaller term first so the addition sequence does not
    # depend on argument order; swapping P and Q then yields the same bits.
    mid = 0.5 * (p_i + q_i)
    low, high = (p_i, q_i) if p_i <= q_i else (q_i, p_i)
    value = 0.0
    if low > 0:
        value += 0.5 * low * math.log2(low / mid)
    if high > 0:
        value += 0.5 * high * math.log2(high / mid)
    return value


def js_divergence(p: Distribution, q: Distribution) -> float:
    """Jensen-Shannon divergence in base 2, clamped to [0, 1].

    Categories are aligned by label; labels missing from one side count
    as probability zero there.  Zero-probability terms contribute zero.
    Symmetric down to the last bit: js_divergence(p, q) == js_divergence(q, p).
    """
    p_map = _label_map(p)
    q_map = _label_map(q)
    total = 0.0
    for label in sorted(set(p_map) | set(q_map)):
        total += _jsd_terms(p_map.get(label, 0.0), q_map.get(label, 0.0))
    return min(1.0, max(0.0, total))


def _jsd_from_counts(counts: Sequence[int], total: int, q_probs: Sequence[float]) -> float:
    # Index-aligned fast path used by the swap search.
    value = 0.0
    for count, q_i in zip(counts, q_probs):
        value += _jsd_terms(count / total, q_i)
    return min(1.0, max(0.0, value))


def representativeness_sigma(shares: Sequence[float]) -> float:
    """Population standard deviation of stratum shares around their mean."""
    if not shares:
        raise SchemaError("shares must be non-empty")
    if max(shares) == min(shares):
        return 0.0  # uniform shares have zero spread, exactly
    mean = sum(shares) / len(shares)
    return math.sqrt(sum((s - mean) ** 2 for s in shares) / len(shares))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def saturation_curve(
    population: Sequence[PopulationRecord],
    criterion: str,
    sizes: Sequence[int],
    seed: int,
    bins: int = DEFAULT_BINS,
) -> tuple[SaturationPoint, ...]:
    """Divergence between seeded uniform samples and the full population.

    One point per requested size, drawn sequentially from a single seeded
    generator, so the whole curve is deterministic for a fixed seed.
    """
    binning = _build_binning(population, criterion, bins)
    record_cats = [_category_indices(record, criterion, binning) for record in population]
    population_dist = _distribution_of(record_cats, criterion, binning)
    rng = random.Random(seed)
    points = []
    for size in sizes:
        if not 0 < size <= len(population):
            raise ComputationError(f"sample size {size} outside [1, {len(population)}]")
        # random.sample picks by position only, so drawing from the binned
        # records uses the generator exactly as drawing the records would.
        sample_dist = _distribution_of(rng.sample(record_cats, size), criterion, binning)
        points.append(SaturationPoint(size, js_divergence(sample_dist, population_dist)))
    return tuple(points)


def aggregate_divergence(
    population: Sequence[PopulationRecord],
    sample: Sequence[PopulationRecord],
    criteria: Sequence[str],
    bins: int = DEFAULT_BINS,
) -> float:
    """Sum over ``criteria`` of JSD(sample, population) under population binning."""
    if not criteria:
        raise SchemaError("at least one criterion is required")
    if not sample:
        raise SchemaError("sample is empty")
    total = 0.0
    for criterion in criteria:
        binning = _build_binning(population, criterion, bins)
        population_dist = _distribution_under(population, criterion, binning)
        sample_dist = _distribution_under(sample, criterion, binning)
        total += js_divergence(sample_dist, population_dist)
    return total


def select_representative_sample(
    population: Sequence[PopulationRecord],
    k: int,
    criteria: Sequence[str],
    seed: int,
    bins: int = DEFAULT_BINS,
    max_swaps: int | None = None,
) -> SelectionResult:
    """Greedy swap search for a k-subset matching the population profile.

    Starts from a seeded uniform k-subset, then repeatedly swaps one
    member for one non-member whenever that strictly lowers the summed
    per-criterion divergence, scanning members and then candidates in
    index order and taking the first improving swap.  Stops at a local
    minimum or after ``max_swaps`` swaps (default ``10 * k``; must be
    >= 0).  The result never has a higher deviation than the starting
    subset.

    A record's signature is its tuple of category indices over
    ``criteria``; a trial's deviation depends only on the member's and
    the candidate's signatures.  So within one scan, records with equal
    signatures are tried once, by lowest index, and a candidate with the
    member's own signature is not tried.  This does not change the
    result: the skipped trials could not have been the first to improve.
    """
    n = len(population)
    if not criteria:
        raise SchemaError("at least one criterion is required")
    if not 0 < k <= n:
        raise ComputationError(f"k must be in [1, {n}], got {k}")
    if max_swaps is not None and max_swaps < 0:
        raise SchemaError(f"max_swaps must be >= 0, got {max_swaps}")

    binnings = [_build_binning(population, criterion, bins) for criterion in criteria]
    signatures = [
        tuple(_category_indices(record, criterion, binning) for criterion, binning in zip(criteria, binnings))
        for record in population
    ]
    population_probs = [
        _distribution_of((signature[c] for signature in signatures), criterion, binning).probabilities
        for c, (criterion, binning) in enumerate(zip(criteria, binnings))
    ]

    slices = range(len(criteria))
    counts = [[0] * len(binning.categories) for binning in binnings]
    totals = [0] * len(criteria)

    def move(signature: tuple[tuple[int, ...], ...], sign: int) -> None:
        for c in slices:
            for index in signature[c]:
                counts[c][index] += sign
            totals[c] += sign * len(signature[c])

    def term(c: int, removed: tuple[int, ...], added: tuple[int, ...]) -> float:
        # JSD of criterion ``c`` once ``removed`` leaves the subset and ``added`` joins it.
        trial_counts = counts[c][:]
        for index in removed:
            trial_counts[index] -= 1
        for index in added:
            trial_counts[index] += 1
        total = totals[c] - len(removed) + len(added)
        if total == 0:
            return 1.0  # nothing to count on this slice: maximally divergent
        return _jsd_from_counts(trial_counts, total, population_probs[c])

    rng = random.Random(seed)
    chosen = set(rng.sample(range(n), k))
    for index in chosen:
        move(signatures[index], +1)

    # Per-criterion terms of the current subset, summed in criterion order.
    terms = [term(c, (), ()) for c in slices]
    current = 0.0
    for value in terms:
        current += value
    initial = current
    swap_budget = 10 * k if max_swaps is None else max_swaps
    swaps = 0
    improved = True
    while swaps < swap_budget and improved:
        improved = False
        threshold = current - _IMPROVEMENT_EPS
        # Counts stay fixed until a swap, so for this whole scan a term
        # depends only on (criterion, member cats, candidate cats):
        # memo[c][member cats][candidate cats].
        memo: list[dict[tuple[int, ...], dict[tuple[int, ...], float]]] = [{} for _ in slices]
        candidates: dict[tuple[tuple[int, ...], ...], int] = {}
        for index in range(n):
            if index not in chosen:
                candidates.setdefault(signatures[index], index)
        tried = set()
        for member in sorted(chosen):
            member_sig = signatures[member]
            if member_sig in tried:
                continue
            tried.add(member_sig)
            # A criterion on which member and candidate agree keeps its term.
            rows = [memo[c].setdefault(member_sig[c], {member_sig[c]: terms[c]}) for c in slices]
            for candidate_sig, candidate in candidates.items():
                if candidate_sig == member_sig:
                    continue  # counts unchanged: the trial equals current
                trial = 0.0
                for c in slices:
                    added = candidate_sig[c]
                    value = rows[c].get(added)
                    if value is None:
                        value = rows[c][added] = term(c, member_sig[c], added)
                    trial += value
                if trial < threshold:
                    terms = [rows[c][candidate_sig[c]] for c in slices]
                    move(member_sig, -1)
                    move(candidate_sig, +1)
                    chosen.remove(member)
                    chosen.add(candidate)
                    current = trial
                    swaps += 1
                    improved = True
                    break
            if improved:
                break

    return SelectionResult(
        record_ids=tuple(sorted(population[i].record_id for i in chosen)),
        deviation=current,
        initial_deviation=initial,
        swaps_applied=swaps,
        criteria=tuple(criteria),
    )
