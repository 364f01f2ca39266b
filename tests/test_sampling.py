"""Distributions, Jensen-Shannon divergence, and sample selection."""

from __future__ import annotations

import math
import random

import pytest

from stride.errors import ComputationError, SchemaError
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


def _records(values, criterion="c"):
    return [PopulationRecord(f"r{i:03d}", {criterion: value}) for i, value in enumerate(values)]


@pytest.fixture(scope="module")
def region_population():
    rng = random.Random(99)
    regions = ["amer", "apac", "emea"]
    return [
        PopulationRecord(f"r{i:04d}", {"region": rng.choices(regions, weights=[5, 3, 2])[0]})
        for i in range(400)
    ]


@pytest.fixture(scope="module")
def industry_population():
    rng = random.Random(41)
    industries = ["energy", "finance", "health", "retail", "tech"]
    return [
        PopulationRecord(
            f"r{i:04d}",
            {
                "industry": rng.choices(industries, weights=[5, 4, 3, 2, 1])[0],
                "revenue": rng.lognormvariate(1.0, 0.75),
            },
        )
        for i in range(120)
    ]


class TestDistributions:
    def test_categorical_counts_with_sorted_labels(self):
        dist = categorical_distribution(_records(["b", "a", "b", "b"]), "c")
        assert dist.categories == ("a", "b")
        assert dist.probabilities == (0.25, 0.75)

    def test_booleans_become_categorical_labels(self):
        dist = categorical_distribution(_records([True, False, True]), "c")
        assert dist.categories == ("false", "true")
        assert dist.probabilities == pytest.approx((1 / 3, 2 / 3), abs=1e-15)

    def test_numeric_values_are_quantile_binned(self):
        dist = categorical_distribution(_records(list(range(1, 101))), "c", bins=4)
        assert dist.categories == ("bin1", "bin2", "bin3", "bin4")
        assert dist.probabilities == (0.25, 0.25, 0.25, 0.25)

    def test_default_numeric_binning_pads_labels(self):
        dist = categorical_distribution(_records([float(i) for i in range(50)]), "c")
        assert dist.categories[0] == "bin01"
        assert dist.categories[-1] == "bin10"
        assert len(dist.categories) == 10

    def test_list_values_are_counted_per_mention(self):
        dist = categorical_distribution(_records([("a", "b"), ("a",)]), "c")
        assert dist.categories == ("a", "b")
        assert dist.probabilities == pytest.approx((2 / 3, 1 / 3), abs=1e-15)

    def test_missing_criterion_is_rejected(self):
        records = [PopulationRecord("r0", {"region": "apac"}), PopulationRecord("r1", {})]
        with pytest.raises(SchemaError, match="missing criterion"):
            categorical_distribution(records, "region")

    def test_mixed_value_types_are_rejected(self):
        with pytest.raises(SchemaError, match="mixed value types"):
            categorical_distribution(_records(["a", 3.0]), "c")

    def test_unsupported_value_type_is_rejected(self):
        with pytest.raises(SchemaError, match="unsupported value type"):
            categorical_distribution(_records([{"nested": 1}]), "c")

    def test_empty_population_is_rejected(self):
        with pytest.raises(SchemaError, match="population is empty"):
            categorical_distribution([], "c")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400], ids=["nan", "inf", "-inf", "huge-int"])
    def test_non_finite_numbers_are_rejected(self, bad):
        with pytest.raises(SchemaError, match="criterion 'c': numeric values must be finite"):
            categorical_distribution(_records([1.0, bad, 3.0]), "c")


class TestDivergence:
    def test_identical_distributions_diverge_zero(self):
        dist = Distribution("c", ("a", "b", "d"), (0.2, 0.5, 0.3))
        assert js_divergence(dist, dist) == 0.0

    def test_symmetry_is_bit_exact(self):
        rng = random.Random(5)
        for _ in range(200):
            size = rng.randint(1, 6)
            raw_p = [rng.random() for _ in range(size)]
            raw_q = [rng.random() for _ in range(size)]
            labels = tuple(f"l{i}" for i in range(size))
            p = Distribution("c", labels, tuple(v / sum(raw_p) for v in raw_p))
            q = Distribution("c", labels, tuple(v / sum(raw_q) for v in raw_q))
            assert js_divergence(p, q) == js_divergence(q, p)

    def test_disjoint_supports_hit_the_upper_bound(self):
        p = Distribution("c", ("a",), (1.0,))
        q = Distribution("c", ("b",), (1.0,))
        assert js_divergence(p, q) == pytest.approx(1.0, abs=1e-12)

    def test_known_value_against_uniform(self):
        p = Distribution("c", ("a", "b"), (1.0, 0.0))
        q = Distribution("c", ("a", "b"), (0.5, 0.5))
        expected = 0.5 * math.log2(4 / 3) + 0.25 * math.log2(2 / 3) + 0.25
        assert js_divergence(p, q) == pytest.approx(expected, abs=1e-15)
        assert js_divergence(p, q) == pytest.approx(0.3113, abs=1e-4)

    def test_labels_align_by_name_not_position(self):
        p = Distribution("c", ("a", "b"), (0.5, 0.5))
        q = Distribution("c", ("b", "a"), (0.5, 0.5))
        assert js_divergence(p, q) == 0.0

    def test_missing_labels_count_as_zero(self):
        p = Distribution("c", ("a", "b"), (0.5, 0.5))
        q = Distribution("c", ("b", "d"), (0.5, 0.5))
        assert 0.0 < js_divergence(p, q) < 1.0

    def test_duplicate_labels_are_rejected(self):
        p = Distribution("c", ("a", "a"), (0.5, 0.5))
        q = Distribution("c", ("a", "b"), (0.5, 0.5))
        with pytest.raises(SchemaError, match="duplicate category labels"):
            js_divergence(p, q)

    def test_sigma_of_equal_shares_is_zero(self):
        assert representativeness_sigma([0.2, 0.2, 0.2]) == 0.0

    def test_sigma_of_split_shares(self):
        assert representativeness_sigma([0.0, 1.0]) == pytest.approx(0.5, abs=1e-15)

    def test_sigma_requires_values(self):
        with pytest.raises(SchemaError, match="non-empty"):
            representativeness_sigma([])


class TestSaturationCurve:
    def test_curve_is_deterministic(self, region_population):
        first = saturation_curve(region_population, "region", [20, 50, 100], seed=7)
        second = saturation_curve(region_population, "region", [20, 50, 100], seed=7)
        assert first == second

    def test_full_population_sample_diverges_zero(self, region_population):
        (point,) = saturation_curve(region_population, "region", [len(region_population)], seed=3)
        assert point.divergence == 0.0

    def test_curve_reports_requested_sizes_in_order(self, region_population):
        points = saturation_curve(region_population, "region", [100, 20, 50], seed=1)
        assert [p.sample_size for p in points] == [100, 20, 50]

    def test_out_of_range_size_is_rejected(self, region_population):
        with pytest.raises(ComputationError, match="outside"):
            saturation_curve(region_population, "region", [0], seed=1)
        with pytest.raises(ComputationError, match="outside"):
            saturation_curve(region_population, "region", [len(region_population) + 1], seed=1)


class TestAggregateDivergence:
    def test_population_against_itself_is_zero(self):
        records = _records(["a", "a", "b", "c"])
        assert aggregate_divergence(records, records, ["c"]) == 0.0

    def test_sums_over_criteria(self):
        records = [
            PopulationRecord("r0", {"x": "a", "y": "p"}),
            PopulationRecord("r1", {"x": "b", "y": "q"}),
        ]
        sample = [records[0]]
        combined = aggregate_divergence(records, sample, ["x", "y"])
        single = aggregate_divergence(records, sample, ["x"])
        assert combined == pytest.approx(2 * single, abs=1e-12)

    def test_sample_labels_outside_the_population_are_rejected(self):
        records = [PopulationRecord("r0", {"x": "a", "t": ("p",)}), PopulationRecord("r1", {"x": "b", "t": ("q",)})]
        for criterion, value, label in [("x", "z", "'z'"), ("t", ("p", "z"), "'z'"), ("x", ["a"], r"\['a'\]")]:
            sample = [PopulationRecord("s0", {criterion: value})]
            with pytest.raises(SchemaError, match=f"criterion '{criterion}': label {label} outside the population"):
                aggregate_divergence(records, sample, [criterion])

    def test_requires_criteria_and_sample(self):
        records = _records(["a", "b"])
        with pytest.raises(SchemaError, match="at least one criterion"):
            aggregate_divergence(records, records, [])
        with pytest.raises(SchemaError, match="sample is empty"):
            aggregate_divergence(records, [], ["c"])


class TestSelection:
    def test_selection_is_deterministic(self, industry_population):
        first = select_representative_sample(
            industry_population, 24, ["industry", "revenue"], seed=11, max_swaps=8
        )
        second = select_representative_sample(
            industry_population, 24, ["industry", "revenue"], seed=11, max_swaps=8
        )
        assert first == second

    def test_selection_never_regresses(self, industry_population):
        for seed in range(6):
            result = select_representative_sample(industry_population, 20, ["industry"], seed=seed)
            assert result.deviation <= result.initial_deviation

    def test_selection_returns_sorted_unique_ids(self, industry_population):
        result = select_representative_sample(industry_population, 15, ["industry"], seed=2)
        assert len(result.record_ids) == 15
        assert len(set(result.record_ids)) == 15
        assert list(result.record_ids) == sorted(result.record_ids)

    def test_reported_deviation_matches_recomputation(self, industry_population):
        result = select_representative_sample(
            industry_population, 30, ["industry", "revenue"], seed=8, max_swaps=8
        )
        by_id = {record.record_id: record for record in industry_population}
        sample = [by_id[record_id] for record_id in result.record_ids]
        recomputed = aggregate_divergence(industry_population, sample, ["industry", "revenue"])
        assert result.deviation == pytest.approx(recomputed, abs=1e-12)

    def test_zero_swap_budget_keeps_the_seeded_subset(self, industry_population):
        result = select_representative_sample(industry_population, 20, ["industry"], seed=4, max_swaps=0)
        assert result.swaps_applied == 0
        assert result.deviation == result.initial_deviation

    def test_negative_swap_budget_is_rejected(self, industry_population):
        with pytest.raises(SchemaError, match="max_swaps must be >= 0, got -5"):
            select_representative_sample(industry_population, 20, ["industry"], seed=4, max_swaps=-5)

    def test_whole_population_selection_is_exact(self, industry_population):
        result = select_representative_sample(
            industry_population, len(industry_population), ["industry"], seed=0
        )
        assert result.deviation == 0.0

    def test_k_out_of_range_is_rejected(self, industry_population):
        with pytest.raises(ComputationError, match="k must be in"):
            select_representative_sample(industry_population, 0, ["industry"], seed=0)
        with pytest.raises(ComputationError, match="k must be in"):
            select_representative_sample(industry_population, len(industry_population) + 1, ["industry"], seed=0)

    def test_criteria_are_required(self, industry_population):
        with pytest.raises(SchemaError, match="at least one criterion"):
            select_representative_sample(industry_population, 5, [], seed=0)
