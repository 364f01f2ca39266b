"""The swap search and the saturation curve against the plain reference.

``sampling_oracle`` keeps the straight-line versions that re-bin every
sampled record and recompute every criterion on every trial.  The engine
must return the same fields, with floats equal down to their ``repr``.
"""

from __future__ import annotations

import random
from itertools import permutations

import pytest

import sampling_oracle as oracle
from stride import sampling
from stride.errors import ComputationError, SchemaError
from stride.sampling import (
    PopulationRecord,
    SaturationPoint,
    categorical_distribution,
    saturation_curve,
    select_representative_sample,
)

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

    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("k", [8, 40, 75])
    def test_larger_population(self, k, shared):
        population = _population(150 + k, 150, shared)
        for criteria in (ALL_CRITERIA, *((criterion,) for criterion in ALL_CRITERIA)):
            args = (population, k, criteria, k)
            _assert_same_selection(select_representative_sample(*args), oracle.select_representative_sample(*args))

    @pytest.mark.parametrize("criteria", [ALL_CRITERIA, ("size",), ("tags",)])
    def test_one_record_population(self, criteria):
        population = _population(5, 1, False, empty_tags=False)
        args = (population, 1, criteria, 3)
        _assert_same_selection(select_representative_sample(*args), oracle.select_representative_sample(*args))

    def test_boolean_criterion_with_string_labels(self):
        # A boolean counts under its label, so True and "true" fall in one category.
        population = [
            PopulationRecord(f"r{i:02d}", {"flag": value})
            for i, value in enumerate([True, False, "true", True, "maybe", False, True, True, "false", True] * 3)
        ]
        for seed in range(4):
            args = (population, 6, ("flag",), seed)
            _assert_same_selection(select_representative_sample(*args), oracle.select_representative_sample(*args))

    def test_populations_cover_shared_signatures_and_label_order(self):
        population = _population(0, 48, True)
        assert _signature_count(population, ALL_CRITERIA) <= len(population) // 2
        tag_lists = {record.criteria["tags"] for record in population}
        assert ("x", "y") in tag_lists and ("y", "x") in tag_lists
        assert () in tag_lists


@pytest.mark.parametrize("bins", [2, 3, 4, 7, 10, 99, 1000])
def test_breakpoints_are_the_stdlib_quantiles(bins):
    # The engine takes the inclusive quantiles itself; the oracle calls statistics.quantiles.
    rng = random.Random(bins)
    for n in (2, 3, 5, 11, 150):
        for values in (
            [round(rng.lognormvariate(2.0, 0.9), 3) for _ in range(n)],
            [rng.uniform(-1e300, 1e300) for _ in range(n)],
            [rng.choice((0, 1, 2**60, -7)) for _ in range(n)],
            [rng.choice((0.1, 0.2, 0.3)) for _ in range(n)],
        ):
            population = [PopulationRecord(f"r{i}", {"size": value}) for i, value in enumerate(values)]
            breakpoints = sampling._bin_column(population, "size", bins)[0].breakpoints
            expected = oracle._build_binning(population, "size", bins).breakpoints
            assert list(map(repr, breakpoints)) == list(map(repr, expected))


def _same_selection_as_oracle(population, k, criteria, seed, bins=10, max_swaps=None):
    args = (population, k, criteria, seed, bins)
    _assert_same_selection(
        select_representative_sample(*args, max_swaps=max_swaps),
        oracle.select_representative_sample(*args, max_swaps=max_swaps),
    )


class TestSearchShortcutsMatchOracle:
    """Cases aimed at what the search skips.

    A trial stops once its partial sum, taken in criterion order, can no
    longer improve; a criterion's terms are kept across a swap that leaves
    its counts alone; and a multilabel criterion codes each mention tuple.
    """

    @pytest.mark.parametrize("shared", [False, True])
    def test_every_criterion_order(self, shared):
        population = _population(31, 40, shared)
        for criteria in permutations(ALL_CRITERIA):
            _same_selection_as_oracle(population, 6, criteria, 7)

    @pytest.mark.parametrize("value", ["same", True, 3.5, ("only",)], ids=["label", "boolean", "number", "labels"])
    def test_a_criterion_with_one_category(self, value):
        # Every swap leaves this criterion's counts, and its term, as they were.
        population = [
            PopulationRecord(record.record_id, {**record.criteria, "const": value})
            for record in _population(32, 40, False)
        ]
        for criteria in (("const",), ("const", "kind"), ("size", "const", "tags"), (*ALL_CRITERIA, "const")):
            for seed in range(3):
                _same_selection_as_oracle(population, 6, criteria, seed)

    @pytest.mark.parametrize("shared", [False, True])
    def test_label_sets_listed_in_both_orders(self, shared):
        # ("x", "y") and ("y", "x") are coded apart but count the same.
        population = _population(33, 40, shared, empty_tags=False)
        tag_lists = {record.criteria["tags"] for record in population}
        assert any(tags[::-1] in tag_lists for tags in tag_lists if len(tags) == 2)
        for criteria in (("tags",), ("tags", "kind"), ("flag", "tags"), ("tags", "size", "flag")):
            for seed in range(4):
                _same_selection_as_oracle(population, 7, criteria, seed)

    @pytest.mark.parametrize("max_swaps", [0, 1, 2, None])
    @pytest.mark.parametrize("shared", [False, True])
    def test_short_budgets_and_extreme_sizes(self, max_swaps, shared):
        population = _population(34, 24, shared)
        n = len(population)
        for k in (1, n - 1, n):
            for seed in range(3):
                _same_selection_as_oracle(population, k, ALL_CRITERIA, seed, max_swaps=max_swaps)
                _same_selection_as_oracle(population, k, ("tags", "kind"), seed, 3, max_swaps)


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

    @pytest.mark.parametrize("bins", [2, 10, 50])
    def test_long_numeric_curve(self, bins):
        population = _population(33, 5000, False)
        ratio = (len(population) / 20) ** (1 / 39)
        sizes = [min(len(population), round(20 * ratio**step)) for step in range(40)]
        assert len(set(sizes)) == 40
        _assert_same_curve(
            saturation_curve(population, "size", sizes, 4, bins=bins),
            oracle.saturation_curve(population, "size", sizes, 4, bins=bins),
        )

    @pytest.mark.parametrize("criterion", ALL_CRITERIA)
    def test_one_record_population(self, criterion):
        population = _population(6, 1, False, empty_tags=False)
        _assert_same_curve(
            saturation_curve(population, criterion, [1, 1], 0),
            oracle.saturation_curve(population, criterion, [1, 1], 0),
        )

    @pytest.mark.parametrize("values", [[True] * 30, [True, False, False] * 10, [True, "true", "false", False, "x"] * 6])
    def test_boolean_criterion(self, values):
        population = [PopulationRecord(f"r{i:02d}", {"flag": value}) for i, value in enumerate(values)]
        sizes = [1, 2, 7, 29, 30, 12]
        for seed in range(3):
            _assert_same_curve(
                saturation_curve(population, "flag", sizes, seed),
                oracle.saturation_curve(population, "flag", sizes, seed),
            )

    def test_multilabel_draw_that_counts_no_label(self):
        # Only the first record has a tag; the curve's second draw is one untagged record.
        population = [PopulationRecord(f"r{i:02d}", {"tags": ("x",) if i == 0 else ()}) for i in range(40)]
        _assert_same_curve(
            saturation_curve(population, "tags", [40], 0), oracle.saturation_curve(population, "tags", [40], 0)
        )
        with pytest.raises(SchemaError) as caught:
            saturation_curve(population, "tags", [40, 1], 0)
        assert str(caught.value) == "criterion 'tags': no values to count"
        # The oracle has no input checks: it divides by the empty draw's zero total.
        with pytest.raises(ZeroDivisionError):
            oracle.saturation_curve(population, "tags", [40, 1], 0)

    @pytest.mark.parametrize("n", [15, 21, 60, 400])
    def test_multilabel_curve_with_empty_tag_lists(self, n):
        # Sizes reach both of random.sample's methods: a set of positions for
        # small draws, a pool shuffle for draws of a large share of n.
        population = _population(34, n, False)
        tags = [record.criteria["tags"] for record in population]
        assert () in tags and any(len(t) == 2 for t in tags)
        sizes = sorted({n, n - 1, (2 * n) // 3, n // 2, max(1, n // 8), 6}) + [n]
        for seed in range(10):
            try:
                expected = oracle.saturation_curve(population, "tags", sizes, seed)
            except ZeroDivisionError:  # a draw of untagged records only; see the test below
                continue
            _assert_same_curve(saturation_curve(population, "tags", sizes, seed), expected)

    def test_pool_draw_that_counts_no_label(self):
        # Ten records, one tagged: a draw of k <= 10 shuffles a pool, and some
        # seed's draw of 4 misses the tagged record, counted from what it left.
        population = [PopulationRecord(f"r{i:02d}", {"tags": ("x", "y") if i == 3 else ()}) for i in range(10)]
        refused = 0
        for seed in range(20):
            try:
                expected = oracle.saturation_curve(population, "tags", [10, 4], seed)
            except ZeroDivisionError:
                refused += 1
                with pytest.raises(SchemaError) as caught:
                    saturation_curve(population, "tags", [10, 4], seed)
                assert str(caught.value) == "criterion 'tags': no values to count"
                continue
            _assert_same_curve(saturation_curve(population, "tags", [10, 4], seed), expected)
        assert 0 < refused < 20

    @pytest.mark.parametrize("n", [18, 200, 3000])
    def test_numeric_curve_with_empty_bins(self, n):
        # Mostly one value, so the quantile breakpoints repeat and the bins between them stay empty.
        rng = random.Random(n)
        population = [
            PopulationRecord(f"r{i:04d}", {"size": 5.0 if rng.random() < 0.8 else rng.choice((1.0, 2.0, 9.0))})
            for i in range(n)
        ]
        sizes = [1, 3, n // 6, n // 3, (3 * n) // 4, n - 1, n, 2]
        for bins in (4, 10):
            for seed in range(4):
                expected = oracle.saturation_curve(population, "size", sizes, seed, bins=bins)
                _assert_same_curve(saturation_curve(population, "size", sizes, seed, bins=bins), expected)
        assert 0.0 in categorical_distribution(population, "size", 10).probabilities


class TestFinalFullPopulationPoint:
    """A last size equal to the population is not drawn: its point is the population's own, 0.0.

    Every other size is drawn as before, a whole-population size that is
    not last included, since the sizes after it must see the generator
    exactly where ``random.sample`` would leave it.
    """

    @pytest.fixture
    def draws(self, monkeypatch):
        """The sizes ``_draw`` is called with, and whether each drew its sample or what it left."""
        calls = []
        real = sampling._draw

        def spy(words, items, k):
            drawn, picked = real(words, items, k)
            calls.append((k, drawn))
            return drawn, picked

        monkeypatch.setattr(sampling, "_draw", spy)
        return calls

    def _assert_curve(self, population, criterion, sizes, seed, **kwargs):
        points = saturation_curve(population, criterion, sizes, seed, **kwargs)
        _assert_same_curve(points, oracle.saturation_curve(population, criterion, sizes, seed, **kwargs))
        return points

    @pytest.mark.parametrize("criterion", ALL_CRITERIA)
    def test_sizes_that_end_at_the_population(self, criterion, draws):
        # At n = 400 a draw of up to 20 picks a set of positions and one of 300 or more shuffles a pool.
        population = _population(35, 400, False, empty_tags=False)
        sizes = [3, 20, 300, 399, 400]
        for seed in range(8):
            draws.clear()
            points = self._assert_curve(population, criterion, sizes, seed)
            assert points[-1] == SaturationPoint(400, 0.0)
            assert draws == [(3, True), (20, True), (300, False), (399, False)]

    @pytest.mark.parametrize("criterion", ALL_CRITERIA)
    def test_population_size_in_the_middle_is_drawn(self, criterion, draws):
        population = _population(36, 90, True, empty_tags=False)
        for sizes in ([5, 90, 7, 89, 90], [90, 3], [90, 90, 90], [2, 90, 90, 60]):
            for seed in range(4):
                draws.clear()
                points = self._assert_curve(population, criterion, sizes, seed)
                assert [p.divergence for p in points if p.sample_size == 90] == [0.0] * sizes.count(90)
                drawn_sizes = sizes[:-1] if sizes[-1] == 90 else sizes
                assert [k for k, _ in draws] == drawn_sizes

    @pytest.mark.parametrize("bins", [2, 10])
    @pytest.mark.parametrize("criterion", ALL_CRITERIA)
    def test_population_size_alone(self, criterion, bins, draws):
        population = _population(37, 150, False, empty_tags=False)
        assert self._assert_curve(population, criterion, [150], 11, bins=bins) == (SaturationPoint(150, 0.0),)
        assert draws == []

    @pytest.mark.parametrize("criterion", ALL_CRITERIA)
    def test_one_record(self, criterion, draws):
        population = _population(38, 1, False, empty_tags=False)
        for sizes in ([1], [1, 1], [1, 1, 1]):
            points = self._assert_curve(population, criterion, sizes, 0)
            assert points == tuple(SaturationPoint(1, 0.0) for _ in sizes)
        assert [k for k, _ in draws] == [1, 1, 1]  # all but the last of each curve

    def test_multilabel_population_with_empty_tag_lists(self, draws):
        population = _population(39, 60, False)
        assert () in {record.criteria["tags"] for record in population}
        for seed in range(10):
            try:
                expected = oracle.saturation_curve(population, "tags", [6, 45, 60], seed)
            except ZeroDivisionError:  # a draw of untagged records only
                continue
            _assert_same_curve(saturation_curve(population, "tags", [6, 45, 60], seed), expected)
            assert expected[-1].divergence == 0.0

    def test_sizes_are_still_checked_in_order(self):
        population = _population(40, 30, False)
        with pytest.raises(ComputationError, match=r"^sample size 31 outside \[1, 30\]$"):
            saturation_curve(population, "kind", [30, 31], 0)
        with pytest.raises(ComputationError, match=r"^sample size 0 outside \[1, 30\]$"):
            saturation_curve(population, "kind", [0, 30], 0)
        with pytest.raises(SchemaError, match=r"^sizes must hold integers, got 30\.0$"):
            saturation_curve(population, "kind", [5, 30.0], 0)
        with pytest.raises(SchemaError, match=r"^sizes must hold integers, got True$"):
            saturation_curve(population[:1], "kind", [True], 0)
