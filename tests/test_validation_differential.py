"""Manifest validation against its frozen rule-by-rule reference.

``validation_oracle`` keeps ``validate_manifest`` as it was written out
rule by rule.  The engine derives its checks from the rules declared on
the ``stride.model`` fields, so it must report the same violations.

The manifests are the bundled fixture and seeded factory manifests.  A
single-fault mutant puts one value in one field: every number field at
any depth (``evidence[i]`` and ``accuracy_series[i]`` included) takes
each of ``NUMBERS``, the two non-empty strings are emptied, and the
covered layers take an unknown or an extra layer.  A single-fault mutant
must give the same violations, text and order.  A two-fault mutant puts
seeded values from the same lists in every pair of those fields; it must
give the same violations in any order.

One divergence is intended (``_expected``): the four governance totals
that the leaf metrics divide by must be positive, where the oracle has
them non-negative, so that ``validate`` refuses what ``score`` cannot rate.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from collections import Counter

import pytest

import validation_oracle as oracle
from manifest_factory import random_manifest
from stride.fixtures import fixture_text
from stride.io import decode_manifest
from stride.model import STANDARD_LAYERS, DatasetManifest, Violation, validate_manifest
from test_model import _replaced

DOCUMENTS = ["fixture"] + [f"seed-{seed}" for seed in range(60)]
NUMBERS = (-1, 0, 0.5, 1, 5, 7.0, 1e6, float("nan"), float("inf"), float("-inf"))
LAYERS = (
    frozenset({"global", "galactic"}),  # unknown
    STANDARD_LAYERS | {"galactic"},  # unknown and one more than the five
    STANDARD_LAYERS | {"galactic", "orbital", "lunar"},
)
STRINGS = ("",)


def _manifest(name: str) -> DatasetManifest:
    if name == "fixture":
        return decode_manifest(fixture_text("luxshare_manifest.json"))
    return random_manifest(random.Random(int(name.removeprefix("seed-"))))


def _sites(node: object, trail: tuple = ()):
    """(trail, values to try) for every mutated field inside the dataclass ``node``."""
    for field in dataclasses.fields(node):
        value = getattr(node, field.name)
        items = enumerate(value) if isinstance(value, tuple) else [(None, value)]
        for index, item in items:
            at = trail + ((field.name,) if index is None else (field.name, index))
            if dataclasses.is_dataclass(item):
                yield from _sites(item, at)
            elif isinstance(item, (int, float)) and not isinstance(item, bool):
                yield at, NUMBERS
            elif isinstance(item, frozenset):
                yield at, LAYERS
            elif isinstance(item, str) and field.name in ("dataset_id", "manifest_version"):
                yield at, STRINGS


# The governance totals that are positive here and non-negative in the
# oracle, each with the count held to at most it.
POSITIVE_TOTALS = {
    "governed_cases": "interventions",
    "experts_total": "experts_involved",
    "stages_total": "stages_with_experts",
    "role_relations_total": "role_relations_separated",
}


def _expected(manifest: DatasetManifest) -> list[Violation]:
    """The oracle's violations, with the four totals positive.

    A total that breaks its rule must be positive, and a total of 0 is
    such a total, which its partner is then not compared with.
    """
    found = oracle.validate_manifest(manifest)
    for total, part in POSITIVE_TOTALS.items():
        refusal = Violation(f"governance.{total}", "must be positive")
        found = [refusal if v == Violation(refusal.path, "must be non-negative") else v for v in found]
        if getattr(manifest.governance, total) == 0:
            exceeds = Violation(f"governance.{part}", f"cannot exceed {total}")
            found = [refusal if v == exceeds else v for v in found]
            if refusal not in found:
                found.append(refusal)
    return found


@pytest.mark.parametrize("name", DOCUMENTS)
def test_single_fault_mutants_match_the_oracle(name):
    manifest = _manifest(name)
    assert validate_manifest(manifest) == oracle.validate_manifest(manifest) == []
    faulty = 0
    for trail, values in _sites(manifest):
        for value in values:
            mutant = _replaced(manifest, trail, value)
            expected = _expected(mutant)
            assert validate_manifest(mutant) == expected, (trail, value)
            faulty += bool(expected)
    assert faulty > 0


@pytest.mark.parametrize("name", DOCUMENTS)
def test_two_fault_mutants_match_the_oracle_as_a_multiset(name):
    manifest = _manifest(name)
    rng = random.Random(name)
    for (first, first_values), (second, second_values) in itertools.combinations(list(_sites(manifest)), 2):
        mutant = _replaced(manifest, first, rng.choice(first_values))
        mutant = _replaced(mutant, second, rng.choice(second_values))
        assert Counter(map(str, validate_manifest(mutant))) == Counter(map(str, _expected(mutant)))


# Faults in many fields at once.  In each at_most pair below one side breaks
# its own rule, so the pair is not compared, though the covered count
# exceeds the total; safety's pair keeps both rules and is compared.
MANY_FAULTS = [
    (("dataset_id",), ""),
    (("coverage", "countries_covered"), 10**9),
    (("coverage", "countries_total"), -5),
    (("coverage", "industries_covered"), -1),
    (("coverage", "external_data_flag"), 2),
    (("coverage", "standard_layers_total"), 4),
    (("recognition", "single_event_confidence"), 1.5),
    (("temporal", "lag_years"), float("nan")),
    (("temporal", "decay_rate"), 0.0),
    (("safety", "harmful_rows"), 10),
    (("safety", "total_rows"), 5),
    (("governance", "interventions"), 50),
    (("governance", "governed_cases"), -1),
    (("governance", "experts_involved"), float("inf")),
    (("governance", "accuracy_series", 0), 2.0),
    (("evidence", 0, "auditability"), float("-inf")),
    (("annotation", "human_fraction"), -0.5),
    (("agility", "epsilon"), 0.0),
    (("sampling_inputs", "saturation_threshold"), 0),
]


@pytest.mark.parametrize("name", ["fixture", "seed-10"])
def test_many_faults_at_once_match_the_oracle_as_a_multiset(name):
    manifest = _manifest(name)
    applied = 0
    for trail, value in MANY_FAULTS:
        try:
            manifest = _replaced(manifest, trail, value)
        except (AttributeError, IndexError, TypeError):  # a section or item this manifest does not have
            continue
        applied += 1
    found = validate_manifest(manifest)
    assert Counter(map(str, found)) == Counter(map(str, _expected(manifest)))
    assert "coverage.countries_covered: cannot exceed countries_total" not in map(str, found)
    assert "safety.harmful_rows: cannot exceed total_rows" in map(str, found)
    assert applied >= 14 and len(found) >= 12


def test_mutants_reach_every_manifest_field():
    # Seed 10 has every optional section, evidence and an accuracy series.
    fields = {tuple(key for key in trail if isinstance(key, str)) for trail, _ in _sites(_manifest("seed-10"))}
    assert len(fields) == 39
