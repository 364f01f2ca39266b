"""Report digests against the frozen ``asdict`` reference.

``score_dataset`` takes every inputs digest and the manifest digest from
one ``io.manifest_to_dict`` pass.  Run ids hash the report, so each of
these digests must equal what ``digest_oracle`` derives from
``dataclasses.asdict`` copies of the same manifest.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from digest_oracle import oracle_inputs_digests, oracle_manifest_digest
from manifest_factory import random_manifest
from stride.model import STANDARD_LAYERS, MetricId, equal_weight_config, validate_weight_config
from stride.scoring import score_dataset


def _assert_digests_match(manifest, config=None) -> None:
    report = score_dataset(manifest, config or equal_weight_config())
    expected = oracle_inputs_digests(manifest)
    assert {sub.metric_id: sub.inputs_digest for sub in report.sub_scores} == expected
    assert report.manifest_digest == oracle_manifest_digest(manifest)


def _manifest(seed: int):
    return random_manifest(random.Random(seed))


@pytest.mark.parametrize("seed", range(60))
def test_random_manifests_match_the_oracle(seed):
    _assert_digests_match(_manifest(seed))


def test_inapplicable_metrics_keep_their_digests():
    switched_off = (MetricId.EXEMPLARY_REFERENCE, MetricId.DOMAIN_EXPERT)
    applicability = {metric: metric not in switched_off for metric in MetricId}
    config = validate_weight_config(dataclasses.replace(equal_weight_config(), applicability=applicability))
    for seed in range(10):
        _assert_digests_match(_manifest(seed), config)


def test_optional_sections_set_to_none():
    for seed in range(10):
        manifest = dataclasses.replace(_manifest(seed), annotation=None, agility=None, sampling_inputs=None)
        _assert_digests_match(manifest)


def test_empty_evidence_and_accuracy_series():
    for seed in range(10):
        manifest = _manifest(seed)
        governance = dataclasses.replace(manifest.governance, accuracy_series=())
        _assert_digests_match(dataclasses.replace(manifest, evidence=(), governance=governance))


def test_non_ascii_dataset_and_evidence_ids():
    for seed in range(10):
        manifest = _manifest(seed)
        evidence = tuple(
            dataclasses.replace(item, id=f"preuve-{index}-é—立讯", source_uri=f"https://exemple.fr/é/{index}")
            for index, item in enumerate(manifest.evidence)
        )
        _assert_digests_match(
            dataclasses.replace(manifest, dataset_id="立讯精密-données-🌏", evidence=evidence)
        )


@pytest.mark.parametrize("size", range(6))
def test_standard_layers_in_different_orders(size):
    rng = random.Random(size)
    chosen = rng.sample(sorted(STANDARD_LAYERS), size)
    manifest = _manifest(size)
    reports = []
    for _ in range(8):
        order = rng.sample(chosen, size)
        coverage = dataclasses.replace(manifest.coverage, standard_layers_covered=frozenset(order))
        shuffled = dataclasses.replace(manifest, coverage=coverage)
        _assert_digests_match(shuffled)
        reports.append(score_dataset(shuffled, equal_weight_config()))
    assert len({report.manifest_digest for report in reports}) == 1
    assert len({report.sub_scores for report in reports}) == 1
