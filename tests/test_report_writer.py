"""Differential test of the report writer against the stdlib's encoders.

The writer fills layouts that the stdlib's indented and canonical
encoders rendered once, on first use, for the one report shape that
scoring makes; any other report goes through those encoders themselves.
Every case here must match ``json.dumps(report_to_dict(r), indent=2,
sort_keys=True, allow_nan=False)`` plus a newline byte for byte, or fail
with the stdlib's own exception; and the run store's canonical texts and
run id must be ``canonical_json`` of the same document, or fail with the
store's own refusal of it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from manifest_factory import random_manifest, skewed_config
from stride import io
from stride.digests import canonical_json, content_digest
from stride.errors import StoreError
from stride.io import report_from_dict, report_to_dict, report_to_json
from stride.model import ComponentId, MetricId, equal_weight_config
from stride.runstore import _saved_form, run_id_for, save_run
from stride.scoring import score_dataset

SEEDS = range(100)


def stdlib_json(report) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True, allow_nan=False) + "\n"


def stdlib_error(report) -> tuple[type, str]:
    try:
        stdlib_json(report)
    except Exception as exc:  # whatever the stdlib raises is the reference
        return type(exc), str(exc)
    raise AssertionError("the stdlib encoder accepted the report")


@pytest.fixture(scope="module")
def seeded_reports():
    """200 reports of seeded factory manifests under equal and skewed weights."""
    return [
        score_dataset(random_manifest(random.Random(seed)), config)
        for config in (equal_weight_config(), skewed_config())
        for seed in SEEDS
    ]


@pytest.fixture
def fresh_layout(monkeypatch):
    """No layouts yet, so a test renders its own."""
    monkeypatch.setattr(io, "_report_layouts", [None, None])


def test_seeded_reports_match_the_stdlib(seeded_reports):
    assert len(seeded_reports) >= 200
    for report in seeded_reports:
        assert report_to_json(report) == stdlib_json(report)


def _reloaded_with_shuffled_sub_scores(reports: list) -> list:
    rng = random.Random(8)
    reloaded = []
    for report in reports:
        document = report_to_dict(report)
        rng.shuffle(document["sub_scores"])
        reloaded.append(report_from_dict(document))
        assert [sub["metric_id"] for sub in report_to_dict(reloaded[-1])["sub_scores"]] == [
            sub["metric_id"] for sub in document["sub_scores"]
        ]
    return reloaded


def test_reloaded_reports_with_shuffled_sub_scores_match_the_stdlib(seeded_reports):
    for reloaded in _reloaded_with_shuffled_sub_scores(seeded_reports):
        assert report_to_json(reloaded) == stdlib_json(reloaded)


def test_scored_and_reloaded_reports_take_the_layout(seeded_reports, monkeypatch):
    # A change that sent every report to the stdlib encoder would still match
    # it byte for byte; with that path raising, only the layout can render.
    reports = [*seeded_reports, *_reloaded_with_shuffled_sub_scores(seeded_reports)]
    expected = [stdlib_json(report) for report in reports]
    report_to_json(reports[0])  # renders the layout, through the stdlib encoder, if no test has yet

    def refuse(document):
        raise AssertionError("report went to the stdlib encoder")

    monkeypatch.setattr(io, "_indented_json", refuse)
    assert [report_to_json(report) for report in reports] == expected


@pytest.mark.parametrize(
    "digest",
    [
        'quote " backslash \\ percent % slot %s %(trust)s %% nul \x00 control \x1f non-ASCII é ✓ 𝄞',
        "%",
        "%s%s%s",
        "\x000",
        '"\\u00000"',
        "",
    ],
    ids=["mixed", "percent", "slots", "placeholder", "escaped-placeholder", "empty"],
)
def test_escaped_manifest_digest_matches_the_stdlib(seeded_reports, fresh_layout, digest):
    for report in seeded_reports[:3]:
        escaped = dataclasses.replace(report, manifest_digest=digest)
        assert report_to_json(escaped) == stdlib_json(escaped)
        assert report_to_json(report) == stdlib_json(report)


@pytest.mark.parametrize("count", [13, 12, 1, 0])
def test_only_thirteen_sub_scores_render_the_layout(seeded_reports, fresh_layout, count):
    for report in seeded_reports[:4]:
        cut = dataclasses.replace(report, sub_scores=report.sub_scores[:count])
        assert report_to_json(cut) == stdlib_json(cut)
    assert (io._report_layouts[0] is not None) == (count == 13)


@pytest.mark.parametrize("alpha", [(0.5, 0.5, 0.0), (0.25,) * 5], ids=["three", "five"])
def test_alpha_of_another_length_goes_to_the_stdlib(seeded_reports, fresh_layout, alpha):
    for report in seeded_reports[:2]:
        odd = dataclasses.replace(report, config_snapshot=dataclasses.replace(report.config_snapshot, alpha=alpha))
        assert report_to_json(odd) == stdlib_json(odd)
        assert report_to_json(report) == stdlib_json(report)


def test_counts_interleaved_match_the_stdlib(seeded_reports, fresh_layout):
    rng = random.Random(3)
    for report in seeded_reports[:40]:
        cut = dataclasses.replace(report, sub_scores=report.sub_scores[: rng.choice([0, 12, 13])])
        assert report_to_json(cut) == stdlib_json(cut)


def test_int_bool_and_str_subclass_leaves_match_the_stdlib(seeded_reports, fresh_layout):
    report = seeded_reports[0]
    first = report.sub_scores[0]
    unusual = dataclasses.replace(
        report,
        trust=1,
        manifest_digest=MetricId.AGILITY,
        component_scores={**report.component_scores, ComponentId.CREDIBILITY: True, ComponentId.RELIABILITY: 10**30},
        sub_scores=(
            dataclasses.replace(first, value=False, inputs_digest=ComponentId.INTIMACY),
            *report.sub_scores[1:],
        ),
    )
    config = unusual.config_snapshot
    unusual = dataclasses.replace(
        unusual,
        config_snapshot=dataclasses.replace(config, weights={**config.weights, MetricId.GROUND_TRUTH: 3}),
    )
    assert report_to_json(unusual) == stdlib_json(unusual)
    # The same layout still serves plain reports afterwards.
    assert report_to_json(report) == stdlib_json(report)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", ["trust", "component", "sub_score", "weight"])
def test_non_finite_floats_raise_the_stdlib_error(seeded_reports, value, where):
    report = seeded_reports[1]
    if where == "trust":
        bad = dataclasses.replace(report, trust=value)
    elif where == "component":
        bad = dataclasses.replace(report, component_scores={**report.component_scores, ComponentId.INTIMACY: value})
    elif where == "sub_score":
        subs = report.sub_scores
        bad = dataclasses.replace(report, sub_scores=(*subs[:-1], dataclasses.replace(subs[-1], value=value)))
    else:
        config = report.config_snapshot
        weights = {**config.weights, MetricId.SECURITY_SAFETY: value}
        bad = dataclasses.replace(report, config_snapshot=dataclasses.replace(config, weights=weights))
    kind, message = stdlib_error(bad)
    with pytest.raises(kind) as raised:
        report_to_json(bad)
    assert type(raised.value) is kind
    assert str(raised.value) == message
    assert report_to_json(report) == stdlib_json(report)


@pytest.mark.parametrize(
    "leaf",
    [("a", "b"), ["a", "b"], {"k": 1}, object(), b"bytes"],
    ids=["tuple", "list", "dict", "object", "bytes"],
)
def test_leaf_that_is_not_a_json_scalar_goes_to_the_stdlib(seeded_reports, leaf):
    report = seeded_reports[2]
    odd = dataclasses.replace(report, manifest_digest=leaf)
    try:
        expected = stdlib_json(odd)
    except Exception:
        kind, message = stdlib_error(odd)
        with pytest.raises(kind) as raised:
            report_to_json(odd)
        assert type(raised.value) is kind and str(raised.value) == message
    else:
        assert report_to_json(odd) == expected
    assert report_to_json(report) == stdlib_json(report)


def test_layout_compiled_from_an_odd_report_still_renders_plain_ones(seeded_reports, fresh_layout):
    report = seeded_reports[3]
    for leaf in (["a", "b"], {"k": "v"}, ("t",)):
        io._report_layouts[:] = [None, None]
        odd = dataclasses.replace(report, manifest_digest=leaf)
        assert report_to_json(odd) == stdlib_json(odd)
        assert report_to_json(report) == stdlib_json(report)


def test_each_layout_is_built_on_its_first_use():
    probe = (
        "import stride.io as io, stride.runstore as rs; from stride.fixtures import fixture_text; "
        "from stride.scoring import score_dataset; "
        "counts = lambda: [None if layout is None else layout.count('%s') for layout in io._report_layouts]; "
        "seen = [counts()]; "
        "report = score_dataset(io.parse_manifest(fixture_text('luxshare_manifest.json')), io.parse_weight_config('equal')); "
        "io.report_to_json(report); seen.append(counts()); rs.run_id_for(report); seen.append(counts()); "
        "print(*seen)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(io.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, encoding="utf-8", env=env, check=True
    )
    assert result.stdout == "[None, None] [89, None] [89, 89]\n"


# -- canonical texts and run ids ------------------------------------------------


@pytest.fixture(scope="module")
def factory_reports():
    """300 reports of seeded factory manifests under equal and skewed weights."""
    return [
        score_dataset(random_manifest(random.Random(seed)), config)
        for config in (equal_weight_config(), skewed_config())
        for seed in range(150)
    ]


def assert_written_like_the_stdlib(report, taken: bool | None = None) -> None:
    """Indented JSON, canonical texts, run id and saved record head as the stdlib encoders give them."""
    document = report_to_dict(report)
    run_id, config_digest = content_digest(document), content_digest(document["config"])
    head = (
        f'{{"config_digest":"{config_digest}","manifest_digest":{canonical_json(document["manifest_digest"])},'
        f'"report":{canonical_json(document)},"run_id":"{run_id}","timestamp":"'
    )
    assert report_to_json(report) == stdlib_json(report)
    assert _saved_form(report) == (run_id, config_digest, head)
    assert run_id_for(report) == run_id
    texts = io._canonical_report(report)
    if texts is not None:
        assert texts == tuple(canonical_json(part) for part in (document, document["config"], document["manifest_digest"]))
    if taken is not None:
        assert (texts is not None) == taken


def _with_leaf(report, where: str, value):
    """``report`` with one leaf of the kind ``where`` names set to ``value``."""
    config = report.config_snapshot
    subs = report.sub_scores
    if where == "trust":
        return dataclasses.replace(report, trust=value)
    if where == "component":
        return dataclasses.replace(report, component_scores={**report.component_scores, ComponentId.INTIMACY: value})
    if where == "value":
        return dataclasses.replace(report, sub_scores=(*subs[:-1], dataclasses.replace(subs[-1], value=value)))
    if where == "weight":
        weights = {**config.weights, MetricId.SECURITY_SAFETY: value}
        return dataclasses.replace(report, config_snapshot=dataclasses.replace(config, weights=weights))
    if where == "alpha":
        return dataclasses.replace(report, config_snapshot=dataclasses.replace(config, alpha=(*config.alpha[:3], value)))
    if where == "flag":
        flags = {**config.applicability, MetricId.AGILITY: value}
        return dataclasses.replace(report, config_snapshot=dataclasses.replace(config, applicability=flags))
    if where == "applicable":
        return dataclasses.replace(report, sub_scores=(dataclasses.replace(subs[0], applicable=value), *subs[1:]))
    if where == "manifest_digest":
        return dataclasses.replace(report, manifest_digest=value)
    assert where == "inputs_digest"
    return dataclasses.replace(report, sub_scores=(*subs[:5], dataclasses.replace(subs[5], inputs_digest=value), *subs[6:]))


NUMBER_SLOTS = ["trust", "component", "value", "weight", "alpha"]
STRING_SLOTS = ["manifest_digest", "inputs_digest"]


def test_factory_reports_are_written_like_the_stdlib(factory_reports):
    assert len(factory_reports) == 300
    for report in factory_reports:
        assert_written_like_the_stdlib(report, taken=True)


@pytest.mark.parametrize("value", [-0.0, 5e-324, 1e308, -1e308], ids=["-0.0", "5e-324", "1e308", "-1e308"])
@pytest.mark.parametrize("where", NUMBER_SLOTS)
def test_edge_floats_are_written_like_the_stdlib(factory_reports, where, value):
    assert_written_like_the_stdlib(_with_leaf(factory_reports[7], where, value), taken=True)


def test_floats_whose_sum_overflows_are_written_like_the_stdlib(factory_reports):
    report = _with_leaf(_with_leaf(factory_reports[8], "trust", 1e308), "weight", 1e308)
    assert_written_like_the_stdlib(report)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("where", NUMBER_SLOTS)
def test_non_finite_floats_give_the_stores_refusal(factory_reports, where, value, tmp_path):
    bad = _with_leaf(factory_reports[9], where, value)
    with pytest.raises(ValueError) as reference:
        canonical_json(report_to_dict(bad))
    message = f"report has no run id: {reference.value}"
    for act in (run_id_for, _saved_form, lambda report: save_run(report, tmp_path)):
        with pytest.raises(StoreError) as raised:
            act(bad)
        assert str(raised.value) == message
    assert list(tmp_path.iterdir()) == []


class _Float(float):
    def __repr__(self):
        return "not-a-float"

    __str__ = __repr__


class _Int(int):
    def __repr__(self):
        return "not-an-int"

    __str__ = __repr__


class _Str(str):
    def __str__(self):
        return "not-a-string"


@pytest.mark.parametrize(
    ("where", "value"),
    [
        *[(where, _Float(0.25)) for where in NUMBER_SLOTS],
        *[(where, kind) for where in NUMBER_SLOTS for kind in (1, 0, _Int(1), True)],
        *[(where, _Int(1)) for where in ("flag", "applicable")],
        *[(where, 1) for where in ("flag", "applicable")],
        *[(where, _Str("ab")) for where in STRING_SLOTS],
    ],
)
def test_subclass_and_int_leaves_are_declined_and_written_like_the_stdlib(factory_reports, where, value):
    assert_written_like_the_stdlib(_with_leaf(factory_reports[10], where, value), taken=False)


@pytest.mark.parametrize(
    ("text", "taken"),
    [
        ("%", True), ("%s%d%%", True), ("{", True), ("}", True), ("{0}{}", True), ("", True), ("a b~", True),
        ("é", False), ("✓𝄞", False), ("\x00", False), ("\x01", False), ("\x1f", False), ("\x7f", False),
        ("\n", False), ('"', False), ("\\", False), ("\u2028", False),
    ],
)
@pytest.mark.parametrize("where", STRING_SLOTS)
def test_unusual_digest_characters_are_written_like_the_stdlib(factory_reports, where, text, taken):
    assert_written_like_the_stdlib(_with_leaf(factory_reports[11], where, f"0f{text}9"), taken=taken)


@pytest.mark.parametrize("count", [12, 14])
def test_another_sub_score_count_is_written_like_the_stdlib(factory_reports, fresh_layout, count):
    report = factory_reports[12]
    subs = (report.sub_scores + report.sub_scores[:1])[:count]
    assert_written_like_the_stdlib(dataclasses.replace(report, sub_scores=subs), taken=False)
    assert io._report_layouts == [None, None]
    assert_written_like_the_stdlib(report, taken=True)


@pytest.mark.parametrize("alpha", [(0.5, 0.5, 0.0), (0.25,) * 5], ids=["three", "five"])
def test_another_alpha_count_is_written_like_the_stdlib(factory_reports, fresh_layout, alpha):
    report = factory_reports[13]
    odd = dataclasses.replace(report, config_snapshot=dataclasses.replace(report.config_snapshot, alpha=alpha))
    assert_written_like_the_stdlib(odd, taken=False)
    assert io._report_layouts == [None, None]
    assert_written_like_the_stdlib(report, taken=True)
