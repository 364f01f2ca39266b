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


# A value that leaves the criterion out of its record.
ABSENT = object()

# Every entry point bins its population the same way, so each refuses alike.
BINNING_CALLERS = {
    "distribution": lambda records: categorical_distribution(records, "c"),
    "curve": lambda records: saturation_curve(records, "c", [1], seed=0),
    "selection": lambda records: select_representative_sample(records, 1, ["c"], seed=0),
    "aggregate": lambda records: aggregate_divergence(records, records[:1], ["c"]),
}


class TestRefusalOrder:
    """Of several faults in one column, which one the binning reports.

    First a record without the criterion, then the first unsupported
    value in record order, then mixed kinds, and only then the checks of
    one kind: non-string labels, nothing to count, non-finite numbers.
    """

    @pytest.mark.parametrize("caller", BINNING_CALLERS)
    @pytest.mark.parametrize(
        ("values", "message"),
        [
            ([{"x": 1}, ABSENT], "record 'r001': missing criterion 'c'"),
            ([None, ("a", 1), 2.0, ABSENT], "record 'r003': missing criterion 'c'"),
            (["a", {"x": 1}, None], "criterion 'c': unsupported value type dict"),
            (["a", b"x", {"x": 1}], "criterion 'c': unsupported value type bytes"),
            (["a", 1.0, None], "criterion 'c': unsupported value type NoneType"),
            ([("a", 1), None], "criterion 'c': unsupported value type NoneType"),
            ([("a", 1), 2.0], "criterion 'c': mixed value types ['multilabel', 'numeric']"),
            ([math.nan, "a"], "criterion 'c': mixed value types ['categorical', 'numeric']"),
            ([True, 1], "criterion 'c': mixed value types ['categorical', 'numeric']"),
            ([(), ("a", ["b"])], "criterion 'c': list values must contain strings"),
            ([(), []], "criterion 'c': no labels to count"),
            ([1.0, math.inf, math.nan], "criterion 'c': numeric values must be finite (no NaN or infinity)"),
        ],
        ids=[
            "missing-after-unsupported",
            "missing-after-every-other-fault",
            "dict-before-none",
            "first-unsupported-in-record-order",
            "unsupported-with-mixed-kinds",
            "unsupported-before-non-string-label",
            "mixed-before-non-string-label",
            "mixed-before-non-finite",
            "bool-is-not-numeric",
            "non-string-label",
            "no-labels",
            "non-finite",
        ],
    )
    def test_first_fault_is_reported(self, caller, values, message):
        records = [
            PopulationRecord(f"r{i:03d}", {} if value is ABSENT else {"c": value}) for i, value in enumerate(values)
        ]
        with pytest.raises(SchemaError) as caught:
            BINNING_CALLERS[caller](records)
        assert str(caught.value) == message


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

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, -0.25, 10**400], ids=["nan", "inf", "-inf", "negative", "huge-int"]
    )
    @pytest.mark.parametrize("side", ["p", "q"])
    def test_non_finite_or_negative_probability_is_rejected(self, bad, side):
        good = Distribution("c", ("a", "b"), (0.5, 0.5))
        bad_dist = Distribution("c", ("a", "b"), (bad, 0.5))
        p, q = (bad_dist, good) if side == "p" else (good, bad_dist)
        with pytest.raises(SchemaError) as caught:
            js_divergence(p, q)
        assert str(caught.value) == f"criterion 'c': probabilities must be finite and >= 0, got {bad!r}"

    @pytest.mark.parametrize(
        "probabilities, message",
        [
            ((1.0,), "1 probabilities for 2 categories"),
            ((0.5, 0.25, 0.25), "3 probabilities for 2 categories"),
            ((0.9, 0.9), "probabilities must sum to 1, got 1.8"),
            ((0.5, 0.25), "probabilities must sum to 1, got 0.75"),
            ((0.0, 0.0), "probabilities must sum to 1, got 0.0"),
            ((0.5, 0.5 + 2e-9), f"probabilities must sum to 1, got {0.5 + (0.5 + 2e-9)!r}"),
            (("0.5", 0.5), "probabilities must be real numbers, got '0.5'"),
            ((None, 1.0), "probabilities must be real numbers, got None"),
            ((True, False), "probabilities must be real numbers, got True"),
            ((1.0, False), "probabilities must be real numbers, got False"),
        ],
        ids=["too-few", "too-many", "sum-1.8", "sum-0.75", "sum-0", "sum-past-tolerance", "str", "none", "bools", "bool"],
    )
    @pytest.mark.parametrize("side", ["p", "q"])
    def test_malformed_distribution_is_rejected(self, probabilities, message, side):
        good = Distribution("c", ("a", "b"), (0.5, 0.5))
        bad_dist = Distribution("c", ("a", "b"), probabilities)
        p, q = (bad_dist, good) if side == "p" else (good, bad_dist)
        with pytest.raises(SchemaError) as caught:
            js_divergence(p, q)
        assert str(caught.value) == f"criterion 'c': {message}"

    def test_probabilities_within_the_sum_tolerance_are_accepted(self):
        uniform = Distribution("c", ("a", "b"), (0.5, 0.5))
        assert js_divergence(Distribution("c", ("a", "b"), (1, 0)), uniform) == js_divergence(
            Distribution("c", ("a", "b"), (1.0, 0.0)), uniform
        )
        thirds = Distribution("c", ("a", "b", "d"), (0.1 + 0.2, 0.3, 0.4 - 5e-10))
        assert 0.0 < js_divergence(thirds, uniform) < 1.0
        tenths = Distribution("c", tuple("abcdefghij"), (0.1,) * 10)  # sums to 0.9999999999999999
        assert js_divergence(tenths, tenths) == 0.0

    def test_sigma_of_equal_shares_is_zero(self):
        assert representativeness_sigma([0.2, 0.2, 0.2]) == 0.0

    def test_sigma_of_split_shares(self):
        assert representativeness_sigma([0.0, 1.0]) == pytest.approx(0.5, abs=1e-15)

    def test_sigma_requires_values(self):
        with pytest.raises(SchemaError, match="non-empty"):
            representativeness_sigma([])

    @pytest.mark.parametrize("shares", [[math.nan], [math.inf, 1.0], [0.5, -math.inf], [0.2, math.nan, 0.2]])
    def test_sigma_refuses_non_finite_shares(self, shares):
        with pytest.raises(SchemaError, match=r"^shares must be finite \(no NaN or infinity\)$"):
            representativeness_sigma(shares)

    def test_sigma_refuses_non_numbers(self):
        with pytest.raises(SchemaError, match="real numbers"):
            representativeness_sigma(["a"])


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

    @pytest.mark.parametrize("size", [2.5, 2.0, True, False, "3", None])
    def test_non_integer_size_is_rejected(self, region_population, size):
        with pytest.raises(SchemaError) as caught:
            saturation_curve(region_population, "region", [5, size], seed=1)
        assert str(caught.value) == f"sizes must hold integers, got {size!r}"


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

    @pytest.mark.parametrize(
        ("value", "shown", "kind"),
        [
            ("x", "'x'", "numeric"),
            ("1.5", "'1.5'", "numeric"),
            ([1], r"\[1\]", "numeric"),
            (True, "True", "numeric"),
            (None, "None", "numeric"),
            ("p", "'p'", "multilabel"),
        ],
    )
    def test_sample_value_of_another_kind_is_rejected(self, value, shown, kind):
        criterion = "n" if kind == "numeric" else "t"
        records = [PopulationRecord("r0", {"n": 1.0, "t": ("p",)}), PopulationRecord("r1", {"n": 2, "t": ("q",)})]
        sample = [records[0], PopulationRecord("s0", {criterion: value})]
        with pytest.raises(SchemaError, match=f"^criterion '{criterion}': sample value {shown} is not {kind}$"):
            aggregate_divergence(records, sample, [criterion])

    @pytest.mark.parametrize("value", [3, 2.5, float("nan")], ids=["int", "float", "nan"])
    def test_number_under_a_categorical_criterion_is_rejected(self, value):
        records = _records(["a", "b"])
        with pytest.raises(SchemaError, match=f"^criterion 'c': label {value!r} outside the population$"):
            aggregate_divergence(records, [PopulationRecord("s0", {"c": value})], ["c"])

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400], ids=["nan", "inf", "-inf", "huge"])
    def test_non_finite_sample_number_is_rejected(self, value):
        records = _records([1.0, 2.0, 3.0])
        shown = "1" + "0" * 400 if isinstance(value, int) else repr(value)
        with pytest.raises(SchemaError, match=f"^criterion 'c': sample value {shown} is not finite$"):
            aggregate_divergence(records, [PopulationRecord("s0", {"c": value})], ["c"])

    def test_finite_sample_numbers_are_binned(self):
        records = _records([1.0, 2.0, 3.0, 4.0])
        assert aggregate_divergence(records, _records([1, 2.0, 3, 4.0]), ["c"]) == 0.0

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

    @pytest.mark.parametrize("k", [2.5, 20.0, True, "20", None])
    def test_non_integer_k_is_rejected(self, industry_population, k):
        with pytest.raises(SchemaError) as caught:
            select_representative_sample(industry_population, k, ["industry"], seed=4)
        assert str(caught.value) == f"k must be an integer, got {k!r}"

    @pytest.mark.parametrize("max_swaps", [math.nan, 2.5, 3.0, True, False, "3"])
    def test_non_integer_swap_budget_is_rejected(self, industry_population, max_swaps):
        with pytest.raises(SchemaError) as caught:
            select_representative_sample(industry_population, 20, ["industry"], seed=4, max_swaps=max_swaps)
        assert str(caught.value) == f"max_swaps must be an integer, got {max_swaps!r}"

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


# The four entry points, each on one criterion, with ``bins`` and ``seed`` given.
HUGE = 10**5000  # past the interpreter's int-to-string limit of 4300 digits
TOO_LONG = "<an integer of more than 4300 digits>"

SEEDED_OR_BINNED = {
    "distribution": lambda records, criterion, bins, seed: categorical_distribution(records, criterion, bins),
    "curve": lambda records, criterion, bins, seed: saturation_curve(records, criterion, [5], seed, bins),
    "selection": lambda records, criterion, bins, seed: select_representative_sample(
        records, 5, [criterion], seed, bins
    ),
    "aggregate": lambda records, criterion, bins, seed: aggregate_divergence(records, records[:5], [criterion], bins),
}


class TestNumericArguments:
    """``bins`` and ``seed`` are ints, ``bins`` is capped, and a spread past float range is refused."""

    @pytest.mark.parametrize("caller", ["curve", "selection"])
    def test_a_nan_seed_is_refused(self, industry_population, caller):
        # random.Random hashes a float seed, and a NaN hashes by identity, so
        # equal calls drew different samples.
        with pytest.raises(SchemaError) as caught:
            SEEDED_OR_BINNED[caller](industry_population, "industry", 10, math.nan)
        assert str(caught.value) == "seed must be an integer, got nan"

    @pytest.mark.parametrize("caller", SEEDED_OR_BINNED)
    def test_a_float_bins_is_refused(self, industry_population, caller):
        with pytest.raises(SchemaError) as caught:
            SEEDED_OR_BINNED[caller](industry_population, "revenue", 2.5, 0)
        assert str(caught.value) == "bins must be an integer, got 2.5"

    @pytest.mark.parametrize("caller", SEEDED_OR_BINNED)
    def test_bins_above_the_cap_are_refused(self, industry_population, caller):
        with pytest.raises(SchemaError) as caught:
            SEEDED_OR_BINNED[caller](industry_population, "revenue", 1001, 0)
        assert str(caught.value) == "bins must be at most 1000"

    @pytest.mark.parametrize("caller", SEEDED_OR_BINNED)
    def test_bins_beyond_float_range_are_refused_for_any_criterion(self, industry_population, caller):
        # A categorical criterion, which needs no quantiles, so an uncapped call returns at once.
        with pytest.raises(SchemaError) as caught:
            SEEDED_OR_BINNED[caller](industry_population, "industry", 10**400, 0)
        assert str(caught.value) == "bins must be at most 1000"

    @pytest.mark.parametrize(
        ("call", "error", "message"),
        [
            (
                lambda records: saturation_curve(records, "industry", [5, 121], 0),
                ComputationError,
                "sample size 121 outside [1, 120]",
            ),
            (
                lambda records: saturation_curve(records, "industry", [5, HUGE], 0),
                ComputationError,
                f"sample size {TOO_LONG} outside [1, 120]",
            ),
            (
                lambda records: select_representative_sample(records, 121, ["industry"], 0),
                ComputationError,
                "k must be in [1, 120], got 121",
            ),
            (
                lambda records: select_representative_sample(records, HUGE, ["industry"], 0),
                ComputationError,
                f"k must be in [1, 120], got {TOO_LONG}",
            ),
            (
                lambda records: select_representative_sample(records, 5, ["industry"], 0, max_swaps=-1),
                SchemaError,
                "max_swaps must be >= 0, got -1",
            ),
            (
                lambda records: select_representative_sample(records, 5, ["industry"], 0, max_swaps=-HUGE),
                SchemaError,
                f"max_swaps must be >= 0, got {TOO_LONG}",
            ),
        ],
        ids=["size", "huge-size", "k", "huge-k", "max-swaps", "huge-max-swaps"],
    )
    def test_an_out_of_range_int_is_named_in_the_message(self, industry_population, call, error, message):
        # An int too long for str() raised ValueError while its message was written.
        with pytest.raises(error) as caught:
            call(industry_population)
        assert type(caught.value) is error
        assert str(caught.value) == message

    @pytest.mark.parametrize("shares", [[1e308, -1e308], [1e308, 1e308, -1e308]], ids=["square", "sum"])
    def test_a_spread_beyond_float_range_is_refused(self, shares):
        # The square raised OverflowError before, and the overflowed sum returned inf.
        with pytest.raises(ComputationError) as caught:
            representativeness_sigma(shares)
        assert str(caught.value) == "shares spread beyond float range"
