"""Acceptance gate: seven criteria, one pass/fail line each.

Each test covers one shipping criterion end to end and prints a single
``[criterion N] PASS/FAIL`` line.  Failures carry the full list of
mismatches in the assertion message.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import replace

from manifest_factory import random_manifest
from formula_oracle import oracle_equal_components, oracle_equal_trust, oracle_sub_metrics
from stride.delta import (
    DiscrepancyCategory,
    DiscrepancyItem,
    Interval,
    build_delta_report,
    emit_delta_report,
    net_adjustment,
)
from stride.io import manifest_to_json, parse_manifest
from stride.model import (
    COMPONENT_METRICS,
    ComponentId,
    MetricId,
    RecognitionProfile,
    TemporalProfile,
    WeightConfig,
    validate_weight_config,
)
from stride.runstore import save_run
from stride.sampling import (
    Distribution,
    PopulationRecord,
    categorical_distribution,
    js_divergence,
    saturation_curve,
    select_representative_sample,
)
from stride.scoring import (
    exemplary_reference,
    score_dataset,
    sigmoid,
    time_relevance,
    trust_score,
)


def _verdict(number: int, name: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    print(f"[criterion {number}] {status} {name}")
    assert not failures, f"{len(failures)} mismatch(es):\n" + "\n".join(failures[:20])


def test_criterion_1_golden_run(luxshare_manifest, equal_config):
    report = score_dataset(luxshare_manifest, equal_config)
    values = {sub.metric_id: sub.value for sub in report.sub_scores}
    expected_metrics = {
        MetricId.INCLUSIVENESS_MATERIALITY: (0.48, 0.01),
        MetricId.EXEMPLARY_REFERENCE: (1.00, 0.01),
        MetricId.TIME_RELEVANCE: (0.96, 0.01),
        MetricId.GROUND_TRUTH: (1.17, 0.01),
        MetricId.AGILITY: (0.32, 0.01),
        MetricId.SECURITY_SAFETY: (1.00, 0.01),
        MetricId.HUMAN_GOVERNED: (0.106, 0.001),
        MetricId.DOMAIN_EXPERT: (0.53, 0.01),
        MetricId.ROLE_SEPARATION: (1.00, 0.01),
    }
    failures = []
    for metric, (expected, tolerance) in expected_metrics.items():
        value = values[metric]
        if value is None or abs(value - expected) > tolerance:
            failures.append(f"{metric.value}: expected {expected} +/- {tolerance}, got {value}")
    expected_components = {
        ComponentId.CREDIBILITY: 0.81,
        ComponentId.RELIABILITY: 0.83,
        ComponentId.INTIMACY: 0.32,
        ComponentId.SELF_SERVING: 1.00,
    }
    for component, expected in expected_components.items():
        value = report.component_scores[component]
        if abs(value - expected) > 0.01:
            failures.append(f"component {component.value}: expected {expected} +/- 0.01, got {value}")
    if abs(report.trust - 0.56) > 0.01:
        failures.append(f"trust: expected 0.56 +/- 0.01, got {report.trust}")
    for metric in (
        MetricId.AUDITABILITY_TRACEABILITY,
        MetricId.STATISTICAL_METHODOLOGY,
        MetricId.ITERATIVE_FEEDBACK,
        MetricId.TRANSPARENCY,
    ):
        if report.sub_score(metric).applicable:
            failures.append(f"{metric.value}: expected inapplicable on the golden manifest")
    _verdict(1, "golden run reproduces the case-study values", failures)


def test_criterion_2_formula_oracle_equivalence(equal_config):
    rng = random.Random(2024)
    failures = []
    for case in range(1000):
        manifest = random_manifest(rng)
        report = score_dataset(manifest, equal_config)
        oracle = oracle_sub_metrics(manifest)
        for sub in report.sub_scores:
            expected = oracle[sub.metric_id.value]
            if (sub.value is None) != (expected is None):
                failures.append(
                    f"case {case} {sub.metric_id.value}: applicability mismatch"
                    f" (engine {sub.value}, oracle {expected})"
                )
            elif sub.value is not None and abs(sub.value - expected) > 1e-9:
                failures.append(
                    f"case {case} {sub.metric_id.value}: engine {sub.value!r} vs oracle {expected!r}"
                )
        components = oracle_equal_components(oracle)
        for component in ComponentId:
            if abs(report.component_scores[component] - components[component.value]) > 1e-9:
                failures.append(f"case {case} component {component.value}: disagreement beyond 1e-9")
        if abs(report.trust - oracle_equal_trust(components)) > 1e-9:
            failures.append(f"case {case} trust: disagreement beyond 1e-9")
        if failures and len(failures) >= 20:
            break
    _verdict(2, "engine matches the straight-line formula oracle on 1000 manifests", failures)


def test_criterion_3_net_adjustment(luxshare_baseline, luxshare_recomputed, luxshare_annotations):
    failures = []
    report = build_delta_report(luxshare_baseline, luxshare_recomputed, luxshare_annotations)
    if abs(report.net_adjustment.lower - 0.1) > 1e-12:
        failures.append(f"net lower: expected +0.1, got {report.net_adjustment.lower!r}")
    if abs(report.net_adjustment.upper - 0.7) > 1e-12:
        failures.append(f"net upper: expected +0.7, got {report.net_adjustment.upper!r}")
    rendered = emit_delta_report(report, "markdown")
    if "**Net adjustment: +0.1 to +0.7**" not in rendered:
        failures.append("markdown report does not state the net interval +0.1 to +0.7")

    rng = random.Random(31337)
    for case in range(1000):
        items = []
        for index in range(rng.randint(0, 8)):
            lower, upper = sorted((rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)))
            items.append(
                DiscrepancyItem(
                    issue_key=f"issue-{index}",
                    baseline_score=rng.uniform(-3.0, 10.0),
                    stride_assessment=None,
                    category=rng.choice(list(DiscrepancyCategory)),
                    adjustment=Interval(lower, upper),
                    evidence_refs=(),
                    narrative="",
                )
            )
        net = net_adjustment(items)
        expected_lower = 0.0
        expected_upper = 0.0
        for item in items:
            expected_lower += item.adjustment.lower
            expected_upper += item.adjustment.upper
        if net.lower != expected_lower or net.upper != expected_upper:
            failures.append(f"case {case}: interval fold differs from the endpoint-sum oracle")
    _verdict(3, "net adjustment is [+0.1, +0.7] and interval addition matches its oracle", failures)


def test_criterion_4_jsd_properties():
    failures = []
    rng = random.Random(9001)

    def random_distribution(labels: tuple[str, ...]) -> Distribution:
        raw = [rng.random() + 1e-9 for _ in labels]
        total = sum(raw)
        return Distribution("c", labels, tuple(v / total for v in raw))

    for case in range(10_000):
        size = rng.randint(1, 8)
        labels = tuple(f"l{i}" for i in range(size))
        p = random_distribution(labels)
        if rng.random() < 0.25:
            shifted = tuple(f"l{i}" for i in range(rng.randint(0, 3), rng.randint(4, 9)))
            q = random_distribution(shifted)
        else:
            q = random_distribution(labels)
        forward = js_divergence(p, q)
        backward = js_divergence(q, p)
        if forward != backward:
            failures.append(f"case {case}: asymmetric ({forward!r} vs {backward!r})")
        if not 0.0 <= forward <= 1.0:
            failures.append(f"case {case}: out of [0, 1] ({forward!r})")
        if js_divergence(p, p) != 0.0:
            failures.append(f"case {case}: JSD(p, p) is not exactly zero")
        materially_different = p.categories != q.categories or any(
            abs(a - b) > 1e-6 for a, b in zip(p.probabilities, q.probabilities)
        )
        if materially_different and forward <= 0.0:
            failures.append(f"case {case}: distinct distributions scored zero divergence")
        if failures and len(failures) >= 20:
            break

    p = Distribution("c", ("a", "b"), (1.0, 0.0))
    q = Distribution("c", ("a", "b"), (0.5, 0.5))
    value = js_divergence(p, q)
    if abs(value - 0.3113) > 1e-4:
        failures.append(f"hand-derived check: expected 0.3113 +/- 1e-4, got {value!r}")
    _verdict(4, "JSD is symmetric, bounded, zero only at identity, and hits 0.3113", failures)


def test_criterion_5_saturation_behaviour():
    failures = []
    rng = random.Random(1717)
    industries = ["energy", "finance", "health", "materials", "retail", "tech"]
    population = [
        PopulationRecord(
            f"r{i:05d}",
            {"industry": rng.choices(industries, weights=[6, 4, 3, 2, 1, 1])[0]},
        )
        for i in range(2000)
    ]

    small_total = 0.0
    large_total = 0.0
    for seed in range(20):
        small, large = saturation_curve(population, "industry", [50, 500], seed=seed)
        small_total += small.divergence
        large_total += large.divergence
    mean_small = small_total / 20
    mean_large = large_total / 20
    if not mean_large < mean_small:
        failures.append(
            f"mean divergence did not shrink: size 50 -> {mean_small!r}, size 500 -> {mean_large!r}"
        )

    (full,) = saturation_curve(population, "industry", [len(population)], seed=0)
    if full.divergence != 0.0:
        failures.append(f"size = population should diverge exactly 0.0, got {full.divergence!r}")
    _verdict(5, "saturation curve falls with sample size and bottoms out at zero", failures)


def test_criterion_6_selection_quality():
    failures = []

    population = [
        PopulationRecord(f"r{i:02d}", {"cat": "a" if i < 13 else "b"}) for i in range(20)
    ]
    population_dist = categorical_distribution(population, "cat")
    k = 10
    jsd_by_count = {
        count: js_divergence(
            Distribution("cat", ("a", "b"), (count / k, (k - count) / k)), population_dist
        )
        for count in range(k + 1)
    }
    flags = tuple(1 if record.criteria["cat"] == "a" else 0 for record in population)
    optimum = min(
        jsd_by_count[sum(flags[i] for i in combo)]
        for combo in itertools.combinations(range(len(population)), k)
    )
    for seed in range(3):
        result = select_representative_sample(population, k, ["cat"], seed=seed)
        if abs(result.deviation - optimum) > 1e-12:
            failures.append(
                f"seed {seed}: greedy deviation {result.deviation!r}"
                f" missed the brute-force optimum {optimum!r}"
            )

    rng = random.Random(77)
    regions = ["amer", "apac", "emea"]
    synthetic = [
        PopulationRecord(
            f"s{i:04d}",
            {
                "region": rng.choices(regions, weights=[5, 3, 2])[0],
                "revenue": rng.lognormvariate(1.0, 0.8),
            },
        )
        for i in range(150)
    ]
    for seed in range(5):
        result = select_representative_sample(
            synthetic, 15, ["region", "revenue"], seed=seed, max_swaps=12
        )
        if result.deviation > result.initial_deviation:
            failures.append(
                f"synthetic seed {seed}: deviation {result.deviation!r}"
                f" exceeds the starting {result.initial_deviation!r}"
            )
    _verdict(6, "greedy selection is brute-force optimal at small scale and never regresses", failures)


def test_criterion_7_invariant_suite(tmp_path, luxshare_manifest, equal_config):
    failures = []
    rng = random.Random(4242)

    for z in [rng.uniform(-60.0, 60.0) for _ in range(500)] + [-1000.0, 0.0, 1000.0]:
        value = sigmoid(z)
        if not 0.0 < value < 1.0:
            failures.append(f"sigmoid({z!r}) escaped (0, 1): {value!r}")
    if sigmoid(0.0) != 0.5:
        failures.append("sigmoid(0) is not exactly 0.5")

    alpha = (0.25, 0.25, 0.25, 0.25)
    for _ in range(300):
        c, r, i, s = (rng.random() for _ in range(4))
        bump = rng.uniform(0.01, 0.5)
        base = trust_score(c, r, i, s, alpha)
        if trust_score(c + bump, r, i, s, alpha) < base:
            failures.append("trust decreased when credibility rose")
        if trust_score(c, r + bump, i, s, alpha) < base:
            failures.append("trust decreased when reliability rose")
        if trust_score(c, r, i + bump, s, alpha) < base:
            failures.append("trust decreased when intimacy rose")
        if trust_score(c, r, i, s + bump, alpha) > base:
            failures.append("trust increased when self-serving rose")

    for _ in range(200):
        confidence = rng.uniform(0.05, 0.95)
        n = rng.randint(0, 40)
        base = exemplary_reference(RecognitionProfile(n, confidence))
        if exemplary_reference(RecognitionProfile(n + 1, confidence)) < base:
            failures.append("recognition score fell as event count rose")
        raised = min(0.99, confidence + rng.uniform(0.001, 0.04))
        if exemplary_reference(RecognitionProfile(n, raised)) < base:
            failures.append("recognition score fell as event confidence rose")
        decay = rng.uniform(0.05, 1.5)
        lag = rng.uniform(0.0, 8.0)
        if not time_relevance(TemporalProfile(lag + rng.uniform(0.1, 3.0), decay)) < time_relevance(
            TemporalProfile(lag, decay)
        ):
            failures.append("time relevance is not strictly decreasing in lag")

    for _ in range(200):
        mask = {}
        for members in COMPONENT_METRICS.values():
            keep = rng.sample(members, rng.randint(1, len(members)))
            for metric in members:
                mask[metric] = metric in keep
        weights = {metric: rng.uniform(0.05, 4.0) for metric in MetricId}
        config = validate_weight_config(WeightConfig(alpha=alpha, weights=weights, applicability=mask))
        for members in COMPONENT_METRICS.values():
            total = sum(config.weights[m] for m in members)
            if abs(total - 1.0) > 1e-12:
                failures.append(f"renormalised weights sum to {total!r}, not 1")

    factory_rng = random.Random(55)
    for _ in range(100):
        manifest = random_manifest(factory_rng)
        if parse_manifest(manifest_to_json(manifest)) != manifest:
            failures.append(f"manifest round trip changed {manifest.dataset_id}")

    report = score_dataset(luxshare_manifest, equal_config)
    store = tmp_path / "runs"
    first = save_run(report, store)
    second = save_run(replace(report), store)
    if first != second:
        failures.append("identical reports produced different run ids")
    if len(list(store.glob("*.json"))) != 1:
        failures.append("resaving an identical report created a second record")
    _verdict(7, "sigmoid, monotonicity, renormalisation, round-trip, and store invariants hold", failures)
