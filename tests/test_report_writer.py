"""Differential test of ``report_to_json`` against the stdlib's indented encoder.

``report_to_json`` fills a layout that the stdlib encoder rendered once,
on first use, for the one report shape that scoring makes; any other
report goes through the stdlib encoder itself.  Every case here must
match ``json.dumps(report_to_dict(r), indent=2, sort_keys=True,
allow_nan=False)`` plus a newline byte for byte, or fail with the
stdlib's own exception.
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
from stride.io import report_from_dict, report_to_dict, report_to_json
from stride.model import ComponentId, MetricId, equal_weight_config
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
    """No layout yet, so a test renders its own."""
    monkeypatch.setattr(io, "_report_layout", "")


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
    assert bool(io._report_layout) == (count == 13)


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
        io._report_layout = ""
        odd = dataclasses.replace(report, manifest_digest=leaf)
        assert report_to_json(odd) == stdlib_json(odd)
        assert report_to_json(report) == stdlib_json(report)


def test_layout_is_built_on_first_use():
    probe = (
        "import stride.io as io; from stride.fixtures import fixture_text; from stride.scoring import score_dataset; "
        "empty = io._report_layout == ''; "
        "io.report_to_json(score_dataset(io.parse_manifest(fixture_text('luxshare_manifest.json')), "
        "io.parse_weight_config('equal'))); "
        "print(empty, io._report_layout.count('%s'))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(io.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, encoding="utf-8", env=env, check=True
    )
    assert result.stdout == "True 89\n"
