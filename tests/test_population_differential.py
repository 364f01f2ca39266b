"""The JSON population reader against its frozen reference, ``population_oracle``.

The engine reads each decoded record in one pass and keeps the decoder's
own dict as the record's criteria.  That may not change what it reads or
refuses: for every document below, ``parse_population`` and the oracle
must return equal records, with values of the same types in the same key
order, or raise the same exception type with the same message.

Documents are written out as text, so that an object can repeat a key and
a number can lie beyond float range.  Seeded populations are read whole,
then again with one or more fields or entries replaced by a mutant; with
several mutants the first one met must be the one reported.
"""

from __future__ import annotations

import itertools
import json
import random

import pytest

import population_oracle as oracle
from stride.io import parse_population

LIMIT = 2**1024 - 2**970
KEYS = ("region", "year", "size", "verified", "tags", "note", "é", "a.b", "")
STRINGS = ("apac", "emea", "", " ", "x y", "é✓", 'quote " and \\', "\x01", "日本")

# Texts that replace one criterion value.
BAD_VALUES = (
    "null",
    "{}",
    '{"a": 1}',
    "[[]]",
    '[["a"]]',
    "[1]",
    '[null, "a"]',
    '["a", "b", 3]',
    '["a", "b", null]',
    '["a", "b", ["c"]]',
    '["a", "b", {"c": 1}]',
    '["a", "b", true]',
    str(LIMIT),
    str(-LIMIT),
    str(LIMIT + 1),
    str(-LIMIT - 1),
    str(10**400),
    "1e400",
    "-1e400",
)
GOOD_VALUES = (
    "true",
    "false",
    "[]",
    '["a"]',
    '["b", "a", "b"]',
    "0",
    "-0.0",
    str(LIMIT - 1),
    str(-LIMIT + 1),
    "1.7976931348623157e308",
    "-1.7976931348623157e308",
    "5e-324",
    '"1e400"',
)
# Texts that replace one record's id; ``None`` leaves it out.
RECORD_IDS = (None, "1", "1.5", "null", "true", '["r"]', '{"r": 1}', '""', '" "', '"\\t\\n"', '"\\u00a0"', '"\\u2003"')
# Texts that replace one whole entry.
ENTRIES = ("1", '"r"', "null", "true", "[]", '[{"record_id": "r"}]', "{}")
ROOTS = ("{}", '{"record_id": "r"}', '"population"', "1", "null", "[]", " [ ] ", "[[]]")


def _value(rng: random.Random) -> str:
    kind = rng.randrange(6)
    if kind == 0:
        return json.dumps(rng.choice(STRINGS))
    if kind == 1:
        return rng.choice(("true", "false"))
    if kind == 2:
        return str(rng.choice((0, 1, -7, 2024, 10**20, LIMIT - 1, -LIMIT + 1)))
    if kind == 3:
        return repr(rng.choice((0.5, -2.25, 1e-300, 1e300, rng.lognormvariate(3.0, 0.8))))
    return json.dumps([rng.choice(STRINGS) for _ in range(rng.randrange(4))])


def _population(rng: random.Random) -> list[list[tuple[str, str]]]:
    """Records as (key text, value text) pairs; ``record_id`` sits at any position."""
    records = []
    for index in range(rng.randint(1, 12)):
        fields = [(json.dumps(key), _value(rng)) for key in rng.sample(KEYS, rng.randint(0, 5))]
        fields.insert(rng.randint(0, len(fields)), ('"record_id"', json.dumps(f"r{index}")))
        records.append(fields)
    return records


def _text(records: list) -> str:
    """``records`` as a JSON array; an entry that is a string is written as it stands."""
    entries = [
        entry if isinstance(entry, str) else "{" + ", ".join(f"{key}: {value}" for key, value in entry) + "}"
        for entry in records
    ]
    return "[" + ", ".join(entries) + "]"


def _mutate(rng: random.Random, records: list) -> None:
    """Put one fault, or a value that must still be read, into a random record."""
    index = rng.randrange(len(records))
    fields = records[index]
    if isinstance(fields, str):
        return
    action = rng.randrange(6)
    if action == 0:
        records[index] = rng.choice(ENTRIES)
    elif action == 1:
        id_fields = [i for i, (key, _) in enumerate(fields) if key == '"record_id"']
        if not id_fields:
            return
        id_field = id_fields[0]
        replacement = rng.choice(RECORD_IDS)
        if replacement is None:
            del fields[id_field]
        else:
            fields[id_field] = ('"record_id"', replacement)
    elif action == 2:  # a repeated id
        other = rng.randrange(len(records))
        fields.append(('"record_id"', json.dumps(f"r{other}")))
    elif action == 3:  # a repeated key: the last value is kept at the first key's position
        for _ in range(2):
            fields.insert(rng.randint(0, len(fields)), ('"tags"', rng.choice(BAD_VALUES + GOOD_VALUES)))
    else:
        value = rng.choice(BAD_VALUES + GOOD_VALUES)
        fields.insert(rng.randint(0, len(fields)), (json.dumps(rng.choice(KEYS)), value))


def _outcome(read, text: str):
    try:
        records = read(text)
    except Exception as exc:  # the refusal is what is compared
        return "raised", type(exc), str(exc)
    assert all(type(record.criteria) is dict for record in records)
    return "read", repr([(record.record_id, list(record.criteria.items())) for record in records])


def _assert_same(text: str) -> tuple:
    engine = _outcome(lambda document: parse_population(document, "population.json"), text)
    assert engine == _outcome(oracle.parse_population, text), text
    return engine


@pytest.mark.parametrize("seed", range(200))
def test_generated_population(seed):
    assert _assert_same(_text(_population(random.Random(seed))))[0] == "read"


@pytest.mark.parametrize("seed", range(300))
def test_mutated_population(seed):
    rng = random.Random(f"mutant:{seed}")
    records = _population(rng)
    for _ in range(rng.choice((1, 1, 2, 3))):
        _mutate(rng, records)
    _assert_same(_text(records))


@pytest.mark.parametrize("root", ROOTS)
def test_root(root):
    assert _assert_same(root)[0] == "raised"


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("position", [0, 2])
def test_entry_that_is_not_a_record(entry, position):
    records = _population(random.Random(position))[:3]
    records.insert(position, entry)
    assert _assert_same(_text(records))[0] == "raised"


@pytest.mark.parametrize("record_id", RECORD_IDS)
def test_record_id(record_id):
    # The id is checked before the values, so the refused value ahead of it is not reported.
    fields = [('"x"', "null"), ('"region"', '"apac"')] + ([] if record_id is None else [('"record_id"', record_id)])
    assert _assert_same(_text([[('"record_id"', '"r0"')], fields]))[0] == "raised"


@pytest.mark.parametrize("value", BAD_VALUES)
def test_value_that_is_refused(value):
    fields = [('"record_id"', '"r1"'), ('"region"', '"apac"'), ('"x"', value), ('"y"', "null")]
    assert _assert_same(_text([[('"record_id"', '"r0"'), ('"x"', "1")], fields]))[0] == "raised"


@pytest.mark.parametrize("value", GOOD_VALUES)
def test_value_that_is_read(value):
    fields = [('"x"', value), ('"record_id"', '"r1"'), ('"y"', '"b"')]
    assert _assert_same(_text([[('"record_id"', '"r0"'), ('"x"', "1")], fields]))[0] == "read"


@pytest.mark.parametrize(
    "fields",
    [
        [('"record_id"', '"r0"'), ('"record_id"', '"r1"')],  # the last id is kept
        [('"record_id"', '"r1"'), ('"record_id"', "null")],
        [('"record_id"', '"r1"'), ('"x"', "[1]"), ('"x"', '["a"]')],  # only the kept value is checked
        [('"record_id"', '"r1"'), ('"x"', '["a"]'), ('"y"', "1"), ('"x"', "null")],
        [('"x"', "1"), ('"record_id"', '"r1"'), ('"x"', '"a"'), ('"record_id"', '"r2"')],
    ],
)
def test_repeated_keys(fields):
    _assert_same(_text([[('"record_id"', '"r0"')], fields]))


@pytest.mark.parametrize("ids", [("a", "a"), ("a", "b", "a"), ("b", "a", "b", "a"), (" a", "a"), ("a", "A")])
def test_duplicate_ids(ids):
    _assert_same(_text([[('"record_id"', json.dumps(record_id))] for record_id in ids]))


VALUE_FAULTS = ("null", "[1]", '["a", "b", 3]', "1e400", str(LIMIT))
ENTRY_FAULTS = ("1", '{"v": 1}', '{"record_id": 1}')


def test_faults_in_two_records_are_met_in_record_order():
    faults = [("entry", text) for text in ENTRY_FAULTS] + [("value", text) for text in VALUE_FAULTS]
    for first, second in itertools.permutations(faults, 2):
        records: list = [[('"record_id"', f'"r{i}"'), ('"v"', "1")] for i in range(4)]
        for index, (kind, text) in zip((1, 2), (first, second)):
            if kind == "entry":
                records[index] = text
            else:
                records[index].append(('"w"', text))
        assert _assert_same(_text(records))[0] == "raised"


@pytest.mark.parametrize("first", VALUE_FAULTS)
@pytest.mark.parametrize("second", VALUE_FAULTS)
def test_faults_in_one_record_are_met_in_key_order(first, second):
    fields = [('"record_id"', '"r1"'), ('"w"', first), ('"v"', "1"), ('"z"', second)]
    assert _assert_same(_text([[('"record_id"', '"r0"')], fields]))[0] == "raised"
