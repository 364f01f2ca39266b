"""``canonical_json`` against ``json.dumps`` with the same settings.

``canonical_json`` calls a C encoder built once at import, without
circular-reference markers, and hands a value that overflows the
recursion limit to the stdlib encoder.  For every value below it must
return the text ``json.dumps`` returns, or raise the same exception type
with the same message; the splice of encoded entries must equal the
encoding of the whole object.
"""

from __future__ import annotations

import json
import random
from datetime import date, datetime, timezone

import pytest

from stride.digests import _default, _splice, canonical_json


def _reference(value: object) -> str:
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False, default=_default
    )


def _outcome(function, value):
    try:
        return "ok", function(value)
    except (ValueError, TypeError, RecursionError) as exc:
        return type(exc).__name__, str(exc)


def _assert_same(value) -> None:
    assert _outcome(canonical_json, value) == _outcome(_reference, value)


KEYS = ["a", "b", "Z", "é", "立讯", "🌏", "", " ", '"', "\\", "\x00", "\x7f", " ", "\ud800", "key"]
FLOATS = [0.0, -0.0, 1.5, 1e-300, 5e-324, 1.7976931348623157e308, 0.1 + 0.2, 1e16, 123456789.0, -2.5e-7]
STRINGS = ["", "plain", "quote \" backslash \\", "tab\tnewline\n", "\x01\x1f", "é✓", "\ud83c", " ", "🌏" * 3]


def _value(rng: random.Random, depth: int) -> object:
    choice = rng.randrange(12 if depth < 5 else 7)
    if choice == 0:
        return rng.choice(FLOATS) * rng.choice([1, -1])
    if choice == 1:
        return rng.choice([0, 1, -1, 2**63, -(2**64), 10**30])
    if choice == 2:
        return rng.choice(STRINGS)
    if choice == 3:
        return rng.choice([True, False, None])
    if choice == 4:
        return rng.choice([date(2026, 1, 2), datetime(2026, 3, 4, 5, 6, 7, tzinfo=timezone.utc)])
    if choice == 5:
        return rng.random()
    if choice == 6:
        return rng.choice(KEYS)
    if choice == 7:
        return [_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    if choice == 8:
        return tuple(_value(rng, depth + 1) for _ in range(rng.randrange(3)))
    if choice == 9:
        return rng.choice([set(), {"b", "a", "é"}, frozenset({3, 1, 2}), {1.5, -0.0}])
    return {rng.choice(KEYS): _value(rng, depth + 1) for _ in range(rng.randrange(5))}


@pytest.mark.parametrize("seed", range(40))
def test_fuzzed_values_match_json_dumps(seed):
    rng = random.Random(seed)
    for _ in range(50):
        _assert_same(_value(rng, 0))


@pytest.mark.parametrize("seed", range(20))
def test_splice_of_entries_matches_the_whole_object(seed):
    rng = random.Random(1000 + seed)
    for _ in range(50):
        obj = {rng.choice(KEYS): _value(rng, 1) for _ in range(rng.randrange(8))}
        assert _splice({key: canonical_json(value) for key, value in obj.items()}) == canonical_json(obj)


@pytest.mark.parametrize(
    "value",
    [
        float("nan"),
        float("inf"),
        -float("inf"),
        [1.0, {"x": float("nan")}],
        {"b": float("inf"), "a": float("nan")},
        {"a": object()},
        [1, 2, 3j],
        {1: "int key", 2.5: "float key", True: "bool key", None: "null key"},
        {"a": 1, 2: "mixed keys"},
        {(1, 2): "tuple key"},
        {"set": {1, "a"}},
        "",
        "a bare string",
        0,
        None,
        {},
        [],
    ],
    ids=lambda value: type(value).__name__,
)
def test_edge_values_match_json_dumps(value):
    _assert_same(value)


def test_circular_values_match_json_dumps():
    loop: list = [1]
    loop.append(loop)
    cycle: dict = {"a": 1}
    cycle["self"] = {"inner": cycle}
    for value in (loop, cycle, [[loop]]):
        assert _outcome(canonical_json, value) == ("ValueError", "Circular reference detected")
        _assert_same(value)


@pytest.mark.parametrize("depth", [10, 200, 800, 100000])
def test_deep_nesting_matches_json_dumps(depth):
    nested: object = 0
    for index in range(depth):
        nested = [nested] if index % 2 else {"k": nested}
    _assert_same(nested)
