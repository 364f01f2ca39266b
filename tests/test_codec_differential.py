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
import dataclasses
import itertools
import json
import math
import random
import re
import typing

import pytest

import codec_oracle as oracle
from manifest_factory import random_manifest
from mutants import at, drop, mutant, trails
from stride.errors import ComputationError, SchemaError, StoreError
from stride.fixtures import fixture_text
from stride.io import decode_manifest, manifest_to_dict
from stride.model import DatasetManifest, equal_weight_config
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


# Values aimed at the decoder's inline tests, which take only an exact int,
# float, str or bool: a bool in a number field, an int in a float field, a
# float in an int field, and ints at and beyond the edge of float range.
INLINE_EDGES = ["true", "false", "1", "0", "-1", "1.0", "-0.0", str(2**1024 - 2**970 - 1), str(10**400)]


@pytest.mark.parametrize("name", POISON_DOCUMENTS)
@pytest.mark.parametrize("literal", INLINE_EDGES, ids=lambda literal: literal[:12])
def test_values_at_the_inline_tests_decode_like_the_oracle(name, literal):
    document = _document(name)
    for trail in _numeric_trails(document):
        text = _poisoned(document, trail, literal)[0]
        if literal == str(10**400):  # beyond float range: refused by the engine, which the oracle does not check
            reason = "expected a finite number within float range"
            with pytest.raises(SchemaError, match=f"^{re.escape(_dotted(trail))}: {reason}$"):
                decode_manifest(text)
            continue
        _decode_like_the_oracle(text)


def _objects(document: dict):
    """The trail to every object in ``document``, the root's first."""
    yield ()
    for trail, value in trails(document):
        if isinstance(value, dict):
            yield trail


def _without(document: dict, drops: list) -> dict:
    """``document`` with each (object trail, key) of ``drops`` removed."""
    mutated = copy.deepcopy(document)
    for trail, key in sorted(drops, key=lambda drop: -len(drop[0])):  # inner objects first
        at(mutated, trail).pop(key)
    return mutated


def _bare(tp: object) -> object:
    """``tp`` without the ``| None`` of a nullable field."""
    args = [arg for arg in typing.get_args(tp) if arg is not type(None)]
    return args[0] if type(None) in typing.get_args(tp) else tp


def _reading_order(cls: type, document: object, trail: tuple = ()):
    """(object trail, key) of each required field under ``document``, in the order the decoder reads them.

    An object's arrays and maps come first, then its other fields, each in
    declaration order; a section is read through where it stands.
    """
    hints = {name: _bare(tp) for name, tp in typing.get_type_hints(cls).items()}
    specs = sorted(dataclasses.fields(cls), key=lambda spec: not typing.get_origin(hints[spec.name]))
    for spec in specs:
        key, tp = spec.metadata.get("key", spec.name), hints[spec.name]
        if not (spec.metadata.get("omittable") or type(None) in typing.get_args(typing.get_type_hints(cls)[spec.name])):
            yield trail, key
        value = document.get(key) if isinstance(document, dict) else None
        if dataclasses.is_dataclass(tp) and isinstance(value, dict):
            yield from _reading_order(tp, value, trail + (key,))
        elif typing.get_origin(tp) is tuple and isinstance(value, list):
            item_type = typing.get_args(tp)[0]
            for index, item in enumerate(value if dataclasses.is_dataclass(item_type) else ()):
                yield from _reading_order(item_type, item, trail + (key, index))


@pytest.mark.parametrize("name", ["fixture", "seed-10"])
def test_several_missing_fields_name_the_first_one_read(name):
    # With one field missing the engine words it as the oracle does (above); with several, it names
    # the first that it reads, in the oracle's words for that field alone.
    document = _document(name)
    objects = list(_objects(document))
    cases = [
        [(trail, first), (trail, second)]
        for trail in objects
        for first, second in itertools.combinations(at(document, trail), 2)
    ]
    cases += [[(trail, key) for key in at(document, trail)] for trail in objects]  # every field of one object
    cases.append([(trail, next(iter(at(document, trail)))) for trail in objects])  # the first field of every object
    cases.append([(trail, list(at(document, trail))[-1]) for trail in objects])  # and the last
    refused = 0
    for drops in cases:
        first = next((place for place in _reading_order(DatasetManifest, document) if place in drops), None)
        if first is None:  # only optional fields are missing
            assert decode_manifest(json.dumps(_without(document, drops))) is not None
            continue
        with pytest.raises(SchemaError) as alone:
            oracle.decode_manifest(json.dumps(_without(document, [first])))
        with pytest.raises(SchemaError) as caught:
            decode_manifest(json.dumps(_without(document, drops)))
        assert str(caught.value) == str(alone.value), drops
        refused += 1
    assert refused > 100


OPTIONAL_SECTIONS = ("annotation", "agility", "sampling_inputs")


@pytest.mark.parametrize("name", ["fixture", "seed-10"])
def test_optional_sections_null_absent_and_omitted_decode_like_the_oracle(name, tmp_path):
    document = _document(name)
    for states in itertools.product(("kept", "null", "absent", "omitted"), repeat=len(OPTIONAL_SECTIONS)):
        mutated = copy.deepcopy(document)
        for section, state in zip(OPTIONAL_SECTIONS, states):
            if state == "null":
                mutated[section] = None
            elif state == "absent":
                mutated.pop(section, None)
            elif state == "omitted" and section == "agility" and isinstance(mutated.get(section), dict):
                mutated[section].pop("epsilon", None)  # the one omittable field, which takes its default
        manifest = _decode_like_the_oracle(json.dumps(mutated))
        assert manifest is not None
        _score_save_load(manifest, tmp_path)


def test_poison_documents_hold_every_number_field():
    def fields(name):
        return {tuple(key for key in trail if isinstance(key, str)) for trail in _numeric_trails(_document(name))}

    everywhere = set().union(*(fields(name) for name in DOCUMENTS))
    assert fields("seed-10") == everywhere
