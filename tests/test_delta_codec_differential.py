"""The rating-record and annotation readers against their frozen reference.

``delta_codec_oracle`` keeps ``parse_rating_record``, ``_as_interval`` and
``parse_annotations`` as they were when each walked its keys by hand.
The engine reads both kinds through the table codec, so it must decode
every document to the same value, or refuse it with the same message.

The documents are the bundled baseline and recomputed rating records and
the annotation fixture.  Each takes every single-fault mutation: a key
dropped at any depth, a value at any depth retyped, an unknown key added
to any object, an unknown category, an inverted, one-element or
out-of-range interval, and a bad date.  The one intended difference: an
unknown key in an issue score, which the reference let through, is
refused.
"""

from __future__ import annotations

import json

import pytest

import delta_codec_oracle as oracle
from mutants import drop, mutant, set_to, trails
from stride.errors import SchemaError
from stride.fixtures import fixture_text
from stride.io import parse_annotations, parse_rating_record

RETYPED = ("text", True, 0, -1.0, [], {}, None)
RATINGS = {"baseline": "luxshare_baseline_rating.json", "stride": "luxshare_recomputed_rating.json"}
POISON = "__poison__"


def _mutants(document: dict):
    """(mutated document text, trail of the fault) for every single fault of ``document``."""
    yield json.dumps(mutant(document, ("unknown",), set_to(1))), ("unknown",)
    for trail, value in trails(document):
        if isinstance(trail[-1], str):
            yield json.dumps(mutant(document, trail, drop)), trail
        for retyped in RETYPED:
            yield json.dumps(mutant(document, trail, set_to(retyped))), trail
        if isinstance(value, dict):
            yield json.dumps(mutant(document, trail + ("unknown",), set_to(1))), trail + ("unknown",)
        if trail[-1] in ("adjustment", "stride_assessment"):
            yield from _interval_mutants(document, trail, value)
        if trail[-1] == "category":
            yield json.dumps(mutant(document, trail, set_to("made_up"))), trail
        if trail[-1] in ("period_start", "period_end"):
            for bad in ("2024-02-30", "2024/05/31", ""):
                yield json.dumps(mutant(document, trail, set_to(bad))), trail


def _interval_mutants(document: dict, trail: tuple, interval: list):
    lower, upper = interval
    for bad in ([upper + 1, lower], [lower], [lower, upper, upper], lower, [str(lower), upper]):
        yield json.dumps(mutant(document, trail, set_to(bad))), trail
    for bad in ([POISON, upper], [lower, POISON], POISON):
        for number in ("1e400", "-1e400", str(10**400)):
            yield json.dumps(mutant(document, trail, set_to(bad))).replace(f'"{POISON}"', number), trail


def _issue_score_extra(label: str, trail: tuple) -> str | None:
    """The refusal of an unknown key in an issue score, the one intended difference."""
    if len(trail) == 3 and trail[0] == "issue_scores" and trail[2] == "unknown":
        return f"{label}.issue_scores[{trail[1]!r}]: unknown field(s) unknown"
    return None


def _decode_like_the_oracle(parse, parse_oracle, text: str, refusal: str | None) -> None:
    try:
        expected = parse_oracle(text)
    except SchemaError as exc:
        with pytest.raises(SchemaError) as caught:
            parse(text)
        assert str(caught.value) == str(exc)
        return
    if refusal is not None:
        with pytest.raises(SchemaError) as caught:
            parse(text)
        assert str(caught.value) == refusal
        return
    assert parse(text) == expected


@pytest.mark.parametrize("label", RATINGS)
def test_rating_records_decode_like_the_oracle(label):
    text = fixture_text(RATINGS[label])
    assert parse_rating_record(text, label) == oracle.parse_rating_record(text, label)
    refused = count = 0
    for mutated, trail in _mutants(json.loads(text)):
        refusal = _issue_score_extra(label, trail)
        refused += refusal is not None
        _decode_like_the_oracle(
            lambda t: parse_rating_record(t, label), lambda t: oracle.parse_rating_record(t, label), mutated, refusal
        )
        count += 1
    assert count > 100
    assert refused == 2  # one per issue score


def test_annotations_decode_like_the_oracle():
    text = fixture_text("luxshare_annotations.json")
    assert parse_annotations(text) == oracle.parse_annotations(text)
    count = 0
    for mutated, _ in _mutants(json.loads(text)):
        _decode_like_the_oracle(parse_annotations, oracle.parse_annotations, mutated, None)
        count += 1
    assert count > 100


def test_unknown_issue_score_key_was_accepted_and_is_now_refused():
    document = json.loads(fixture_text("luxshare_baseline_rating.json"))
    document["issue_scores"]["chemical_safety"]["scroe"] = 99
    text = json.dumps(document)
    assert oracle.parse_rating_record(text, "baseline").issue_scores["chemical_safety"].score == 6.1
    with pytest.raises(SchemaError, match=r"^baseline\.issue_scores\['chemical_safety'\]: unknown field\(s\) scroe$"):
        parse_rating_record(text, "baseline")
