"""The swap search and the saturation curve against the plain reference.

``sampling_oracle`` keeps the straight-line versions that re-bin every
sampled record and recompute every criterion on every trial.  The engine
must return the same fields, with floats equal down to their ``repr``.
"""

from __future__ import annotations

import random

import pytest

import sampling_oracle as oracle
from stride.sampling import PopulationRecord, saturation_curve, select_representative_sample

ALL_CRITERIA = ("kind", "flag", "size", "tags")


def _population(seed: int, n: int, shared: bool, empty_tags: bool = True) -> list[PopulationRecord]:
    """Records over a categorical, a boolean, a numeric and a multilabel criterion.

    With ``shared`` every criterion has two values, so many records carry
    the same signature.  Tags come in random order, so the same label set
    is listed both ways; with ``empty_tags`` some records have none.
    """
    rng = random.Random(seed)
    kinds = ("alpha", "beta") if shared else ("alpha", "beta", "gamma", "delta", "eps")
    tags = ("x", "y") if shared else ("w", "x", "y", "z")
    records = []
    for index in range(n):
        size = rng.choice((1, 2)) if shared else round(rng.lognormvariate(2.0, 0.9), 3)
        records.append(
            PopulationRecord(
                f"r{index:03d}",
                {
                    "kind": rng.choices(kinds, weights=range(len(kinds), 0, -1))[0],
                    "flag": rng.random() < 0.7,
                    "size": size,
                    "tags": tuple(rng.sample(tags, rng.choice((0, 1, 1, 2) if empty_tags else (1, 1, 2)))),
                },
            )
        )
    return records


def _signature_count(population, criteria) -> int:
    return len({tuple(record.criteria[c] for c in criteria) for record in population})


def _assert_same_selection(result, expected) -> None:
    assert result.record_ids == expected.record_ids
    assert repr(result.deviation) == repr(expected.deviation)
    assert repr(result.initial_deviation) == repr(expected.initial_deviation)
    assert result.swaps_applied == expected.swaps_applied
    assert result.criteria == expected.criteria


def _assert_same_curve(points, expected) -> None:
    assert [p.sample_size for p in points] == [p.sample_size for p in expected]
    assert [repr(p.divergence) for p in points] == [repr(p.divergence) for p in expected]


class TestSelectionMatchesOracle:
    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    def test_all_criteria(self, seed, shared):
        population = _population(seed, 48, shared)
        for k in (3, 9):
            args = (population, k, ALL_CRITERIA, seed * 10 + k)
            _assert_same_selection(select_representative_sample(*args), oracle.select_representative_sample(*args))

    @pytest.mark.parametrize("criterion", ALL_CRITERIA)
    @pytest.mark.parametrize("shared", [False, True])
    def test_each_criterion_kind(self, criterion, shared):
        for seed in range(3):
            population = _population(100 + seed, 40, shared)
            args = (population, 7, (criterion,), seed)
            _assert_same_selection(select_representative_sample(*args), oracle.select_representative_sample(*args))

    def test_criteria_in_another_order_and_fewer_bins(self):
        population = _population(7, 45, False)
        criteria = ("tags", "size", "kind")
        for seed in range(3):
            args = (population, 6, criteria, seed, 4)
            _assert_same_selection(select_representative_sample(*args), oracle.select_representative_sample(*args))

    @pytest.mark.parametrize("shared", [False, True])
    def test_k_of_one_and_k_of_n(self, shared):
        population = _population(21, 30, shared)
        for k in (1, len(population)):
            for seed in range(3):
                args = (population, k, ALL_CRITERIA, seed)
                _assert_same_selection(select_representative_sample(*args), oracle.select_representative_sample(*args))

    def test_zero_budget(self):
        population = _population(3, 40, False)
        args = (population, 8, ALL_CRITERIA, 5)
        result = select_representative_sample(*args, max_swaps=0)
        _assert_same_selection(result, oracle.select_representative_sample(*args, max_swaps=0))
        assert result.swaps_applied == 0

    @pytest.mark.parametrize("shared", [False, True])
    def test_budgets_that_stop_mid_search(self, shared):
        population = _population(11, 48, shared)
        args = (population, 8, ALL_CRITERIA, 2)
        unbounded = oracle.select_representative_sample(*args)
        assert unbounded.swaps_applied >= 3
        for budget in (1, 2, unbounded.swaps_applied - 1, unbounded.swaps_applied):
            expected = oracle.select_representative_sample(*args, max_swaps=budget)
            assert expected.swaps_applied == budget
            _assert_same_selection(select_representative_sample(*args, max_swaps=budget), expected)

    def test_random_configurations(self):
        rng = random.Random(2024)
        for _ in range(100):
            n = rng.randint(2, 50)
            population = _population(rng.randrange(10**6), n, rng.random() < 0.5)
            criteria = tuple(rng.sample(ALL_CRITERIA, rng.randint(1, len(ALL_CRITERIA))))
            args = (population, rng.randint(1, n), criteria, rng.randrange(100), rng.choice((2, 3, 10)))
            max_swaps = rng.choice((None, None, 0, 1, 4))
            _assert_same_selection(
                select_representative_sample(*args, max_swaps=max_swaps),
                oracle.select_representative_sample(*args, max_swaps=max_swaps),
            )

    def test_populations_cover_shared_signatures_and_label_order(self):
        population = _population(0, 48, True)
        assert _signature_count(population, ALL_CRITERIA) <= len(population) // 2
        tag_lists = {record.criteria["tags"] for record in population}
        assert ("x", "y") in tag_lists and ("y", "x") in tag_lists
        assert () in tag_lists


class TestCurveMatchesOracle:
    @pytest.mark.parametrize("criterion", ALL_CRITERIA)
    @pytest.mark.parametrize("shared", [False, True])
    def test_curve(self, criterion, shared):
        # Without empty tag lists, so that every sample has a label to count.
        population = _population(31, 120, shared, empty_tags=False)
        sizes = [1, 5, 20, 60, 119, 120, 7]
        for seed in range(3):
            _assert_same_curve(
                saturation_curve(population, criterion, sizes, seed),
                oracle.saturation_curve(population, criterion, sizes, seed),
            )

    def test_curve_with_fewer_bins(self):
        population = _population(32, 200, False)
        sizes = [10, 50, 100, 200]
        _assert_same_curve(
            saturation_curve(population, "size", sizes, 9, bins=3),
            oracle.saturation_curve(population, "size", sizes, 9, bins=3),
        )
