"""The manifest codec against its frozen field-by-field reference.

``codec_oracle`` keeps ``decode_manifest`` and ``manifest_to_dict`` as
they were written out field by field.  The engine derives both from the
``stride.model`` dataclasses, so it must encode every manifest to the
same dict, and decode every document to the same manifest or refuse it
with the same message.

The documents are the bundled fixture and seeded factory manifests, each
with every single-fault mutation: a field dropped at any depth, a value
at any depth retyped, an unknown key added to any object, any array
emptied.  Dropping and nulling cover absent and null optional sections,
and a left-out ``agility.epsilon``.  Every mutant that decodes is scored,
saved and loaded again; only ``SchemaError``, ``ComputationError`` and
``StoreError`` may escape, and a saved run must load back equal.

Every number field also takes each extreme finite value (``±1e308``,
``10**308``, ``5e-324``); a mutant that decodes and scores must give
finite trust, component and sub-score values and reload equal.
"""

from __future__ import annotations

import copy
import json
import math
import random
import re

import pytest

import codec_oracle as oracle
from manifest_factory import random_manifest
from mutants import at, drop, mutant, trails
from stride.errors import ComputationError, SchemaError, StoreError
from stride.fixtures import fixture_text
from stride.io import decode_manifest, manifest_to_dict
from stride.model import equal_weight_config
from stride.runstore import load_run, save_run
from stride.scoring import score_dataset

DOCUMENTS = ["fixture"] + [f"seed-{seed}" for seed in range(60)]
# About 350 mutants each; twenty seeds see every optional section both present and absent.
MUTATED = DOCUMENTS[:21]
# Mutants per document, as many as when each differential wrote out its own helpers.
MUTANT_COUNTS = dict(
    zip(MUTATED, [292, 358, 363, 414, 417, 342, 337, 379, 321, 322, 314, 343, 453, 403, 413, 321, 369, 378, 307, 372, 439])
)
RETYPED = ("text", True, [], {}, None)


def _manifest(name: str):
    if name == "fixture":
        return oracle.decode_manifest(fixture_text("luxshare_manifest.json"))
    return random_manifest(random.Random(int(name.removeprefix("seed-"))))


def _document(name: str) -> dict:
    return oracle.manifest_to_dict(_manifest(name))


def _mutants(document: dict):
    """Every single-fault mutation of ``document``."""
    yield mutant(document, ("unknown",), lambda root, key: root.__setitem__(key, 1))
    for trail, value in trails(document):
        if isinstance(trail[-1], str):
            yield mutant(document, trail, drop)
        for retyped in RETYPED:
            yield mutant(document, trail, lambda parent, key: parent.__setitem__(key, copy.copy(retyped)))
        if isinstance(value, dict):
            yield mutant(document, trail + ("unknown",), lambda parent, key: parent.__setitem__(key, 1))
        if isinstance(value, list) and value:
            yield mutant(document, trail, lambda parent, key: parent.__setitem__(key, []))


def _decode_like_the_oracle(text: str):
    """The engine's manifest for ``text``, or ``None`` when both refuse it alike."""
    try:
        expected = oracle.decode_manifest(text)
    except SchemaError as exc:
        with pytest.raises(SchemaError) as caught:
            decode_manifest(text)
        assert str(caught.value) == str(exc)
        return None
    manifest = decode_manifest(text)
    assert manifest == expected
    assert json.dumps(manifest_to_dict(manifest), sort_keys=True) == json.dumps(
        oracle.manifest_to_dict(expected), sort_keys=True
    )
    return manifest


def _score_save_load(manifest, store) -> None:
    try:
        report = score_dataset(manifest, equal_weight_config())
        run_id = save_run(report, store)
        record = load_run(run_id, store)
    except (SchemaError, ComputationError, StoreError):
        return
    assert record.report == report


@pytest.mark.parametrize("name", DOCUMENTS)
def test_codec_matches_the_oracle(name):
    manifest = _manifest(name)
    # Compared as JSON text, which tells 1 from 1.0.
    assert json.dumps(manifest_to_dict(manifest), sort_keys=True) == json.dumps(
        oracle.manifest_to_dict(manifest), sort_keys=True
    )
    assert _decode_like_the_oracle(json.dumps(manifest_to_dict(manifest))) == manifest


@pytest.mark.parametrize("name", MUTATED)
def test_single_fault_mutants_decode_like_the_oracle(name, tmp_path):
    document = _document(name)
    accepted = count = 0
    for mutated in _mutants(document):
        count += 1
        manifest = _decode_like_the_oracle(json.dumps(mutated))
        if manifest is not None:
            accepted += 1
            _score_save_load(manifest, tmp_path)
    assert accepted > 0
    assert count == MUTANT_COUNTS[name]


def _dotted(trail: tuple) -> str:
    """A trail as the decoder names it: ``governance.accuracy_series[1]``."""
    return "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in trail).lstrip(".")


def _numeric_trails(document: dict):
    for trail, value in trails(document):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            yield trail


# seed-10 has every optional section, evidence and an accuracy series, so
# every number field of the manifest occurs in it.
POISON_DOCUMENTS = ["fixture", "seed-10"]


def _poisoned(document: dict, trail: tuple, literal: str) -> tuple[str, int]:
    """The document text with ``literal`` at ``trail``, and the column it starts at."""
    text = json.dumps(mutant(document, trail, lambda parent, key: parent.__setitem__(key, "__poison__")))
    return text.replace('"__poison__"', literal), text.index('"__poison__"') + 1


@pytest.mark.parametrize("name", POISON_DOCUMENTS)
@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_literals_are_refused_where_they_stand(name, literal):
    document = _document(name)
    for trail in _numeric_trails(document):
        text, column = _poisoned(document, trail, literal)
        # Refused while parsing, so placed the way JSON syntax errors are.
        with pytest.raises(SchemaError) as caught:
            decode_manifest(text)
        assert str(caught.value) == f"invalid JSON at line 1, column {column}: {literal} is not a finite number"


@pytest.mark.parametrize("name", POISON_DOCUMENTS)
@pytest.mark.parametrize(
    "number", ["1e400", "-1e400", str(10**400), str(-(10**400))], ids=["1e400", "-1e400", "10**400", "-10**400"]
)
def test_numbers_beyond_float_range_name_the_field(name, number):
    document = _document(name)
    for trail in _numeric_trails(document):
        if isinstance(at(document, trail), int) and "e" in number:
            reason = "expected an integer, got float"
        else:
            reason = "expected a finite number within float range"
        with pytest.raises(SchemaError, match=f"^{re.escape(_dotted(trail))}: {reason}$"):
            decode_manifest(_poisoned(document, trail, number)[0])


@pytest.mark.parametrize("name", POISON_DOCUMENTS)
@pytest.mark.parametrize(
    "number", ["1e308", "-1e308", str(10**308), "5e-324"], ids=["1e308", "-1e308", "10**308", "5e-324"]
)
def test_extreme_finite_numbers_score_finite_and_reload(name, number, tmp_path):
    document = _document(name)
    scored = 0
    for trail in _numeric_trails(document):
        manifest = _decode_like_the_oracle(_poisoned(document, trail, number)[0])
        if manifest is None:
            continue
        try:
            report = score_dataset(manifest, equal_weight_config())
        except (SchemaError, ComputationError):
            continue
        scored += 1
        values = [report.trust, *report.component_scores.values()]
        values += [sub.value for sub in report.sub_scores if sub.value is not None]
        assert all(math.isfinite(value) for value in values), _dotted(trail)
        assert load_run(save_run(report, tmp_path), tmp_path).report == report
    assert scored > 0


def test_poison_documents_hold_every_number_field():
    def fields(name):
        return {tuple(key for key in trail if isinstance(key, str)) for trail in _numeric_trails(_document(name))}

    everywhere = set().union(*(fields(name) for name in DOCUMENTS))
    assert fields("seed-10") == everywhere
