"""Seeded random generators for valid manifests, and a skewed weight config, used across the tests."""

from __future__ import annotations

import random

from stride.model import (
    STANDARD_LAYERS,
    AgilityStats,
    AnnotationStats,
    CoverageProfile,
    DatasetManifest,
    EvidenceItem,
    GovernanceStats,
    MetricId,
    RecognitionProfile,
    SafetyAudit,
    SamplingInputs,
    TemporalProfile,
    WeightConfig,
    validate_weight_config,
)


def random_manifest(rng: random.Random) -> DatasetManifest:
    """A structurally valid manifest with randomised values.

    Optional sections (annotation, agility, sampling inputs) and
    data-dependent applicability (evidence, accuracy series, required
    assumptions) are randomised too, so consumers see both sides of
    every applicability decision.
    """
    countries_total = rng.randint(1, 250)
    industries_total = rng.randint(1, 200)
    coverage = CoverageProfile(
        countries_covered=rng.randint(0, countries_total),
        countries_total=countries_total,
        industries_covered=rng.randint(0, industries_total),
        industries_total=industries_total,
        standard_layers_covered=frozenset(rng.sample(sorted(STANDARD_LAYERS), rng.randint(0, 5))),
        standard_layers_total=5,
        external_data_flag=rng.choice((0, 1)),
    )
    evidence = tuple(
        EvidenceItem(
            id=f"ev-{index}",
            source_uri=f"https://example.org/evidence/{index}",
            auditability=rng.random(),
            traceability=rng.random(),
        )
        for index in range(rng.randint(0, 4))
    )
    recognition = RecognitionProfile(
        recognitions_per_year=rng.randint(0, 30),
        single_event_confidence=rng.uniform(0.01, 0.99),
    )
    temporal = TemporalProfile(lag_years=rng.uniform(0.0, 10.0), decay_rate=rng.uniform(0.01, 2.0))

    annotation = None
    if rng.random() < 0.8:
        annotation = AnnotationStats(
            human_fraction=rng.random(),
            mean_tenure_years=rng.uniform(0.0, 12.0),
            tenure_cap_years=rng.uniform(0.5, 10.0),
            human_machine_deviation=rng.uniform(0.0, 2.0),
            machine_machine_deviation=rng.uniform(0.0, 2.0),
        )
    agility = None
    if rng.random() < 0.8:
        agility = AgilityStats(
            accuracy_gain=rng.uniform(-0.2, 0.6),
            change_proportion=rng.random(),
            epsilon=1e-6,
        )

    total_rows = rng.randint(1, 2000)
    safety = SafetyAudit(harmful_rows=rng.randint(0, total_rows), total_rows=total_rows)

    governed_cases = rng.randint(1, 1000)
    experts_total = rng.randint(1, 12)
    stages_total = rng.randint(1, 20)
    assumptions_required = rng.randint(0, 8)
    role_relations_total = rng.randint(1, 20)
    governance = GovernanceStats(
        interventions=rng.randint(0, governed_cases),
        governed_cases=governed_cases,
        experts_involved=rng.randint(0, experts_total),
        experts_total=experts_total,
        stages_with_experts=rng.randint(0, stages_total),
        stages_total=stages_total,
        accuracy_series=tuple(rng.random() for _ in range(rng.choice((0, 1, 2, 3, 4, 6)))),
        assumptions_disclosed=rng.randint(0, assumptions_required) if assumptions_required else 0,
        assumptions_required=assumptions_required,
        role_relations_separated=rng.randint(0, role_relations_total),
        role_relations_total=role_relations_total,
    )

    sampling_inputs = None
    if rng.random() < 0.7:
        sampling_inputs = SamplingInputs(
            sample_size=rng.randint(0, 1000),
            saturation_threshold=rng.randint(1, 500),
            share_deviation=rng.uniform(0.0, 0.5),
        )

    return DatasetManifest(
        manifest_version="1",
        dataset_id=f"dataset-{rng.randrange(1_000_000)}",
        coverage=coverage,
        evidence=evidence,
        recognition=recognition,
        temporal=temporal,
        safety=safety,
        governance=governance,
        annotation=annotation,
        agility=agility,
        sampling_inputs=sampling_inputs,
    )


def skewed_config() -> WeightConfig:
    """Uneven alpha and weights, with one metric of three components inapplicable."""
    return validate_weight_config(
        WeightConfig(
            alpha=(0.4, 0.3, 0.2, 0.1),
            weights={metric: float(index + 1) for index, metric in enumerate(MetricId)},
            applicability={
                metric: metric not in (MetricId.AUDITABILITY_TRACEABILITY, MetricId.AGILITY, MetricId.TRANSPARENCY)
                for metric in MetricId
            },
        )
    )
