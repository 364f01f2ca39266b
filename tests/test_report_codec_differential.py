"""The report and weight-configuration codecs against their frozen reference.

``report_codec_oracle`` keeps ``report_to_dict``, ``report_from_dict``,
``weight_config_from_obj`` and ``weight_config_to_dict`` as they were when
they walked the ``MetricId`` and ``ComponentId`` enums.  The engine walks
``(member, code)`` tuples, so it must encode every report to the same
dict, and decode every document to the same report or refuse it with the
same message.

The documents are saved reports of the bundled fixture and of seeded
factory manifests, under equal weights and under a skewed configuration
with inapplicable metrics.  Each one takes every single-fault mutation: a
key dropped at any depth, a value at any depth retyped, an unknown key
added to any object, an unknown or duplicate metric code, and an
applicable sub-score marked not applicable while keeping its value.
"""

from __future__ import annotations

import copy
import json
import random

import pytest

import report_codec_oracle as oracle
from manifest_factory import random_manifest, skewed_config
from mutants import drop, mutant, set_to, trails
from stride.errors import SchemaError
from stride.fixtures import fixture_text
from stride.io import parse_manifest, report_from_dict, report_to_dict, weight_config_from_obj, weight_config_to_dict
from stride.model import equal_weight_config
from stride.scoring import score_dataset

CONFIGS = {"equal": equal_weight_config, "skewed": skewed_config}
DOCUMENTS = [(config, name) for config in CONFIGS for name in ["fixture", "seed-0", "seed-1", "seed-2"]]
RETYPED = ("text", True, 0, -1.0, [], {}, None)
# Mutants per document, as many as when each differential wrote out its own helpers.
MUTANT_COUNTS = dict(zip(DOCUMENTS, [946, 947, 948, 949, 945, 945, 945, 946]))
CONFIG_MUTANT_COUNT = 296


def _report(config: str, name: str):
    if name == "fixture":
        manifest = parse_manifest(fixture_text("luxshare_manifest.json"))
    else:
        manifest = random_manifest(random.Random(int(name.removeprefix("seed-"))))
    return score_dataset(manifest, CONFIGS[config]())


def _mutants(document: dict):
    """Every single-fault mutation of a report document."""
    yield mutant(document, ("unknown",), set_to(1))
    for trail, value in trails(document):
        if isinstance(trail[-1], str):
            yield mutant(document, trail, drop)
        for retyped in RETYPED:
            yield mutant(document, trail, set_to(retyped))
        if isinstance(value, dict):
            yield mutant(document, trail + ("unknown",), set_to(1))
    subs = document["sub_scores"]
    for index, entry in enumerate(subs):
        yield mutant(document, ("sub_scores", index, "metric_id"), set_to("XX"))
        yield mutant(document, ("sub_scores", index, "metric_id"), set_to(subs[index - 1]["metric_id"]))
        yield mutant(document, ("sub_scores",), lambda parent, key, entry=entry: parent[key].append(copy.deepcopy(entry)))
        if entry["applicable"]:
            yield mutant(document, ("sub_scores", index, "applicable"), set_to(False))
    yield mutant(document, ("config", "applicability", "XX"), set_to(True))


def _in_report(message: str) -> str:
    """The oracle's message for a fault inside a report's config, as the engine words it.

    The oracle words it as for a config document on its own.  The engine
    puts ``report.config.`` in front, and names the root that the oracle
    calls ``weights`` (a missing group, an unknown key) ``report.config``.
    """
    root, _, rest = message.partition(": ")
    if root == "weights" or root.startswith("weights.") and rest == "missing required field":
        return "report.config" + message.removeprefix("weights")
    return "report.config." + message


def _decode_like_the_oracle(document: dict, under_config: bool = False) -> None:
    try:
        expected = oracle.report_from_dict(copy.deepcopy(document))
    except SchemaError as exc:
        with pytest.raises(SchemaError) as caught:
            report_from_dict(copy.deepcopy(document))
        assert str(caught.value) == (_in_report(str(exc)) if under_config else str(exc))
        return
    report = report_from_dict(copy.deepcopy(document))
    assert report == expected
    assert json.dumps(report_to_dict(report), sort_keys=True) == json.dumps(
        oracle.report_to_dict(expected), sort_keys=True
    )


@pytest.mark.parametrize(("config", "name"), DOCUMENTS)
def test_report_codec_matches_the_oracle(config, name):
    report = _report(config, name)
    # Compared as JSON text, which tells 1 from 1.0.
    document = report_to_dict(report)
    assert json.dumps(document, sort_keys=True) == json.dumps(oracle.report_to_dict(report), sort_keys=True)
    assert report_from_dict(document) == oracle.report_from_dict(document) == report


@pytest.mark.parametrize(("config", "name"), DOCUMENTS)
def test_single_fault_report_mutants_decode_like_the_oracle(config, name):
    document = oracle.report_to_dict(_report(config, name))
    config_text = json.dumps(document["config"], sort_keys=True)
    count = 0
    for mutated in _mutants(document):
        # Compared as JSON text, which tells True from 1.0.
        embedded = mutated.get("config")
        _decode_like_the_oracle(
            mutated, isinstance(embedded, dict) and json.dumps(embedded, sort_keys=True) != config_text
        )
        count += 1
    assert count > 100
    assert count == MUTANT_COUNTS[config, name]


@pytest.mark.parametrize("config", CONFIGS)
def test_weight_config_codec_matches_the_oracle(config):
    normalised = CONFIGS[config]()
    document = weight_config_to_dict(normalised)
    assert json.dumps(document, sort_keys=True) == json.dumps(oracle.weight_config_to_dict(normalised), sort_keys=True)
    assert weight_config_from_obj("equal") == oracle.weight_config_from_obj("equal")
    mutated_documents = list(_config_mutants(document))
    assert len(mutated_documents) == CONFIG_MUTANT_COUNT
    for mutated in [document, *mutated_documents]:
        try:
            expected = oracle.weight_config_from_obj(copy.deepcopy(mutated))
        except SchemaError as exc:
            with pytest.raises(SchemaError) as caught:
                weight_config_from_obj(copy.deepcopy(mutated))
            assert str(caught.value) == str(exc)
            continue
        assert weight_config_from_obj(copy.deepcopy(mutated)) == expected


def _config_mutants(document: dict):
    """Single faults of a config document, plus every component made inapplicable or weightless."""
    yield from (mutant(document, trail, set_to(retyped)) for trail, _ in trails(document) for retyped in RETYPED)
    yield from (mutant(document, trail, drop) for trail, _ in trails(document))
    for group, members in document.items():
        if group in ("alpha", "applicability"):
            continue
        yield mutant(document, (group,), set_to({code: 0.0 for code in members}))
        yield mutant(
            document, ("applicability",), lambda parent, key, members=members: parent[key].update(dict.fromkeys(members, False))
        )
