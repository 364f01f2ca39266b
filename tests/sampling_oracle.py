"""Straight-line reference for the saturation curve and the swap search.

A frozen copy of the plain implementations of
:func:`stride.sampling.saturation_curve` and
:func:`stride.sampling.select_representative_sample`, with the binning
and divergence helpers they use.  Every record is binned wherever it is
counted and every trial recomputes the divergence of every criterion.
The engine skips work that cannot change the result, so its output must
equal this one bit for bit.  Only the result types come from the engine.
Input checks are left out: the tests feed it valid populations only.
"""

from __future__ import annotations

import bisect
import math
import random
import statistics
from dataclasses import dataclass
from typing import Sequence

from stride.sampling import Distribution, PopulationRecord, SaturationPoint, SelectionResult

_IMPROVEMENT_EPS = 1e-12


@dataclass(frozen=True)
class _Binning:
    kind: str
    categories: tuple[str, ...]
    breakpoints: tuple[float, ...] = ()


def _bool_label(value: bool) -> str:
    return "true" if value else "false"


def _build_binning(records: Sequence[PopulationRecord], criterion: str, bins: int) -> _Binning:
    values = [record.criteria[criterion] for record in records]
    first = values[0]
    if isinstance(first, (bool, str)):
        labels = {_bool_label(v) if isinstance(v, bool) else v for v in values}
        return _Binning("categorical", tuple(sorted(labels)))
    if isinstance(first, (list, tuple, set, frozenset)):
        return _Binning("multilabel", tuple(sorted({element for value in values for element in value})))
    numbers = [float(v) for v in values]
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
        return tuple(binning.categories.index(element) for element in value)
    label = _bool_label(value) if isinstance(value, bool) else value
    return (binning.categories.index(label),)


def _distribution_under(
    records: Sequence[PopulationRecord], criterion: str, binning: _Binning
) -> Distribution:
    counts = [0] * len(binning.categories)
    for record in records:
        for index in _category_indices(record, criterion, binning):
            counts[index] += 1
    total = sum(counts)
    return Distribution(criterion, binning.categories, tuple(c / total for c in counts))


def _jsd_terms(p_i: float, q_i: float) -> float:
    mid = 0.5 * (p_i + q_i)
    low, high = (p_i, q_i) if p_i <= q_i else (q_i, p_i)
    value = 0.0
    if low > 0:
        value += 0.5 * low * math.log2(low / mid)
    if high > 0:
        value += 0.5 * high * math.log2(high / mid)
    return value


def js_divergence(p: Distribution, q: Distribution) -> float:
    p_map = dict(zip(p.categories, p.probabilities))
    q_map = dict(zip(q.categories, q.probabilities))
    total = 0.0
    for label in sorted(set(p_map) | set(q_map)):
        total += _jsd_terms(p_map.get(label, 0.0), q_map.get(label, 0.0))
    return min(1.0, max(0.0, total))


def _jsd_from_counts(counts: Sequence[int], total: int, q_probs: Sequence[float]) -> float:
    value = 0.0
    for count, q_i in zip(counts, q_probs):
        value += _jsd_terms(count / total, q_i)
    return min(1.0, max(0.0, value))


def saturation_curve(
    population: Sequence[PopulationRecord],
    criterion: str,
    sizes: Sequence[int],
    seed: int,
    bins: int = 10,
) -> tuple[SaturationPoint, ...]:
    binning = _build_binning(population, criterion, bins)
    population_dist = _distribution_under(population, criterion, binning)
    rng = random.Random(seed)
    points = []
    for size in sizes:
        sample = rng.sample(population, size)
        sample_dist = _distribution_under(sample, criterion, binning)
        points.append(SaturationPoint(size, js_divergence(sample_dist, population_dist)))
    return tuple(points)


def select_representative_sample(
    population: Sequence[PopulationRecord],
    k: int,
    criteria: Sequence[str],
    seed: int,
    bins: int = 10,
    max_swaps: int | None = None,
) -> SelectionResult:
    n = len(population)
    binnings = [_build_binning(population, criterion, bins) for criterion in criteria]
    population_probs = [
        _distribution_under(population, criterion, binning).probabilities
        for criterion, binning in zip(criteria, binnings)
    ]
    record_cats = [
        tuple(_category_indices(record, criterion, binning) for criterion, binning in zip(criteria, binnings))
        for record in population
    ]

    counts = [[0] * len(binning.categories) for binning in binnings]
    totals = [0] * len(criteria)

    def apply(record_index: int, sign: int) -> None:
        cats = record_cats[record_index]
        for c in range(len(criteria)):
            for index in cats[c]:
                counts[c][index] += sign
                totals[c] += sign

    def deviation() -> float:
        value = 0.0
        for c in range(len(criteria)):
            if totals[c] == 0:
                value += 1.0
                continue
            value += _jsd_from_counts(counts[c], totals[c], population_probs[c])
        return value

    rng = random.Random(seed)
    chosen = set(rng.sample(range(n), k))
    for index in chosen:
        apply(index, +1)

    current = deviation()
    initial = current
    swap_budget = 10 * k if max_swaps is None else max_swaps
    swaps = 0
    improved = True
    while swaps < swap_budget and improved:
        improved = False
        outside = sorted(set(range(n)) - chosen)
        for member in sorted(chosen):
            for candidate in outside:
                apply(member, -1)
                apply(candidate, +1)
                trial = deviation()
                if trial < current - _IMPROVEMENT_EPS:
                    chosen.remove(member)
                    chosen.add(candidate)
                    current = trial
                    swaps += 1
                    improved = True
                    break
                apply(candidate, -1)
                apply(member, +1)
            if improved:
                break

    return SelectionResult(
        record_ids=tuple(sorted(population[i].record_id for i in chosen)),
        deviation=current,
        initial_deviation=initial,
        swaps_applied=swaps,
        criteria=tuple(criteria),
    )
