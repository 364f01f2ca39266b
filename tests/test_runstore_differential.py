"""The run store against its frozen reference, ``runstore_oracle``.

Saving splices the report's canonical text from its entries and opens
the store's files directly; loading re-encodes the parsed report once.
None of that may change what the store does: for every input below, the
engine and the oracle must return equal values (or raise the same
exception type with the same message), and leave the same bytes on disk.
Each side runs on the same paths, rebuilt from scratch, with a fixed clock.
The intended divergences are listed where they are tested: records that
save refuses to keep (``REFUSED_ON_SAVE``), records whose component
scores or trust do not follow from their sub-scores, which the engine
refuses to load (``REFUSED_AS_INCONSISTENT``), and records holding an
integer too long for ``int()``, whose refusal the engine places at the
literal (``PLACED_ON_READ``).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import random
import shutil
from datetime import datetime, timezone

import pytest

import runstore_oracle as oracle
import stride.runstore as engine
from manifest_factory import random_manifest, skewed_config
from stride.digests import canonical_json, content_digest
from stride.fixtures import fixture_text
from stride.io import parse_manifest, report_to_dict
from stride.model import equal_weight_config
from stride.scoring import score_dataset


class _Clock(datetime):
    @classmethod
    def now(cls, tz=None):
        return datetime(2026, 3, 4, 5, 6, 7, 890123, tzinfo=tz)


@pytest.fixture(autouse=True)
def _fixed_clock(monkeypatch):
    monkeypatch.setattr(engine, "datetime", _Clock)
    monkeypatch.setattr(oracle, "datetime", _Clock)


def _reports() -> list:
    fixture = score_dataset(parse_manifest(fixture_text("luxshare_manifest.json")), equal_weight_config())
    seeded = [
        score_dataset(random_manifest(random.Random(seed)), config)
        for config in (equal_weight_config(), skewed_config())
        for seed in range(15)
    ]
    escaped = dataclasses.replace(fixture, manifest_digest='quote " backslash \\ control \x01 non-ASCII é ✓')
    return [fixture, escaped, *seeded]


REPORTS = _reports()
FIXTURE = REPORTS[0]


def _outcome(function, *args):
    try:
        return "ok", function(*args)
    except Exception as exc:  # the type and message are what is compared
        return type(exc).__name__, str(exc)


def _snapshot(root) -> dict:
    """Every file under ``root``, by relative path, with its bytes and mode."""
    files = {}
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, "rb") as handle:
                files[os.path.relpath(path, root)] = (handle.read(), oct(os.stat(path).st_mode & 0o777))
    return files


def _both(root, build, act):
    """Run ``act`` once per side on a tree ``build`` makes afresh; return each side's outcome and files."""
    results = []
    for side in (oracle, engine):
        if root.exists():
            shutil.rmtree(root)
        root.mkdir()
        build(root)
        results.append((_outcome(act, side, root), _snapshot(root)))
    return results


def _assert_same(root, build, act):
    expected, actual = _both(root, build, act)
    assert actual == expected


def _record_text(report) -> str:
    """The record the oracle writes for ``report``, with the fixed clock."""
    report_dict = report_to_dict(report)
    record = {
        "config_digest": content_digest(report_dict["config"]),
        "manifest_digest": report.manifest_digest,
        "report": report_dict,
        "run_id": content_digest(report_dict),
        "timestamp": _Clock.now(timezone.utc).isoformat(),
    }
    return canonical_json(record) + "\n"


# -- saving ------------------------------------------------------------------


@pytest.mark.parametrize("index", range(len(REPORTS)))
def test_save_twice_and_load_match_the_oracle(tmp_path, index):
    report = REPORTS[index]

    def act(side, root):
        store = root / "runs"
        first = side.save_run(report, store)
        second = side.save_run(report, store)
        return first, second, side.load_run(first, store), side.load_run(first[:9], store)

    _assert_same(tmp_path / "t", lambda root: None, act)


def test_saved_record_is_the_oracle_record(tmp_path):
    for report in REPORTS:
        run_id = engine.save_run(report, tmp_path)
        assert (tmp_path / f"{run_id}.json").read_text(encoding="utf-8") == _record_text(report)


def _hostile_records() -> dict[str, str]:
    """Record texts to find under the fixture report's id, by name."""
    base = _record_text(FIXTURE)
    raw = json.loads(base)
    run_id = raw["run_id"]
    other = report_to_dict(dataclasses.replace(FIXTURE, trust=0.5))
    records = {
        "saved": base,
        "indented": json.dumps(raw, indent=2, sort_keys=True) + "\n",
        "indented crlf": (json.dumps(raw, indent=2, sort_keys=True) + "\n").replace("\n", "\r\n"),
        "lone cr": base.replace(",", ",\r", 3),
        "cr before a fault": base.replace(",", ",\r", 3)[:-30],
        "second report after the timestamp": base[:-2] + ',"report":' + canonical_json(other) + "}\n",
        "second report inside the timestamp": base[:-3] + '","report":' + canonical_json(other) + ',"zzz":"x"}\n',
        "second report before the first": '{"report":' + canonical_json(other) + "," + base[1:],
        "space in the report": base.replace('"trust":', '"trust": '),
        "extra report key": base.replace('},"run_id":"', ',"zzz":1},"run_id":"', 1),
        "reordered keys": json.dumps({key: raw[key] for key in reversed(sorted(raw))}) + "\n",
        "reordered report keys": json.dumps(
            dict(raw, report=dict(reversed(list(raw["report"].items())))), ensure_ascii=False, separators=(",", ":")
        )
        + "\n",
        "escaped timestamp": base.replace('"timestamp":"', '"timestamp":"a\\"b'),
        "control character in the timestamp": base.replace('"timestamp":"', '"timestamp":"\x01'),
        "tab in the timestamp": base.replace('"timestamp":"', '"timestamp":"\t'),
        "backslash timestamp": base.replace('"timestamp":"', '"timestamp":"\\u0041'),
        "key after the timestamp": base[:-2] + ',"zzz":1}\n',
        "no trailing newline": base[:-1],
        "two trailing newlines": base + "\n",
        "trailing text": base + "x",
        "bom": "﻿" + base,
        "empty": "",
        "not json": "{not json",
        "array": "[]",
        "number": "5",
        "string": '"text"',
        "null": "null",
        "empty object": "{}",
        "NaN": base.replace('"trust":', '"trust":NaN,"was":'),
        "Infinity": base.replace('"trust":', '"trust":Infinity,"was":'),
        "1e400": base.replace('"trust":', '"trust":1e400,"was":'),
        "-1e999": base.replace('"trust":', '"trust":-1e999,"was":'),
        "huge integer": base.replace('"trust":', '"trust":' + "9" * 5000 + ',"was":'),
        "report as a list": base.replace('"report":{', '"report":[{', 1).replace(',"run_id"', '],"run_id"', 1),
        "wrong config digest": base.replace(raw["config_digest"], "0" * 64, 1),
        "wrong manifest digest": base.replace('"manifest_digest":"', '"manifest_digest":"x', 1),
        "mismatched id": base.replace(f'"run_id":"{run_id}"', f'"run_id":"{"0" * 64}"'),
        "deep nesting": base[:-2] + ',"zzz":' + "[" * 100000 + "]" * 100000 + "}\n",
    }
    for key in ("run_id", "timestamp", "manifest_digest", "config_digest", "report"):
        records[f"missing {key}"] = canonical_json({k: v for k, v in raw.items() if k != key}) + "\n"
        for kind, value in (("list", ["x"]), ("object", {"sha256": "00"}), ("int", 7), ("null", None)):
            records[f"{key} as {kind}"] = canonical_json(dict(raw, **{key: value})) + "\n"
    for cut in (1, 40, 100, len(base) // 2, len(base) - 3, len(base) - 2):
        records[f"truncated at {cut}"] = base[:cut]
    return records


HOSTILE = _hostile_records()
FIXTURE_ID = json.loads(HOSTILE["saved"])["run_id"]


def _write(path, text_or_bytes) -> None:
    data = text_or_bytes if isinstance(text_or_bytes, bytes) else text_or_bytes.encode("utf-8")
    path.write_bytes(data)


# Records whose report hashes to the id but whose envelope load_run refuses.
# The oracle's save keeps them; the engine's keeps a record only when it
# would load, so it refuses these with load_run's reason.
ENVELOPE = ("run_id", "timestamp", "manifest_digest", "config_digest")
REFUSED_ON_SAVE = (
    {"wrong config digest", "wrong manifest digest", "mismatched id"}
    | {f"missing {key}" for key in ENVELOPE}
    | {f"{key} as {kind}" for key in ENVELOPE for kind in ("list", "object", "int", "null")}
)


# Records holding an integer literal longer than int() converts.  The
# oracle passes on the interpreter's message; the engine names the literal
# and its place, as the document readers do.
PLACED_ON_READ = {"huge integer"}


def _reworded(value, old: str, new: str):
    """``value`` with ``old`` replaced by ``new`` in every string inside its tuples and dicts."""
    if isinstance(value, str):
        return value.replace(old, new)
    if isinstance(value, tuple):
        return tuple(_reworded(item, old, new) for item in value)
    if isinstance(value, dict):
        return {key: _reworded(item, old, new) for key, item in value.items()}
    return value


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_existing_record_matches_the_oracle(tmp_path, name):
    """Saving onto a record already under the id, then loading it by full id and by prefix."""

    def build(root):
        (root / "runs").mkdir()
        _write(root / "runs" / f"{FIXTURE_ID}.json", HOSTILE[name])

    def act(side, root):
        store = root / "runs"
        return (
            _outcome(side.load_run, FIXTURE_ID, store),
            _outcome(side.load_run, FIXTURE_ID[:7], store),
            _outcome(side.save_run, FIXTURE, store),
            _outcome(side.load_run, FIXTURE_ID, store),
        )

    expected, actual = _both(tmp_path / "t", build, act)
    if name in REFUSED_ON_SAVE:
        (kind, (load, prefix, saved, reload)), files = expected
        assert saved == ("ok", FIXTURE_ID) and load[0] == "StoreError"
        reason = load[1].removeprefix(f"run {FIXTURE_ID}: ")
        refusal = ("StoreError", f"run {FIXTURE_ID}: stored content does not match its id: {reason}")
        expected = (kind, (load, prefix, refusal, reload)), files
    if name in PLACED_ON_READ:
        digits = "9" * 5000
        try:
            int(digits)
        except ValueError as exc:  # the interpreter's message, which the oracle passes on
            start = HOSTILE[name].index(digits)
            placed = f"integer of 5000 digits is out of float range: line 1 column {start + 1} (char {start})"
            assert str(exc) in str(expected)
            expected = _reworded(expected, str(exc), placed)
    assert actual == expected


def test_records_refused_on_save_are_hostile_records():
    assert len(REFUSED_ON_SAVE) == 23 and REFUSED_ON_SAVE <= set(HOSTILE)


def _rehashed(edit) -> tuple[str, str]:
    """The fixture report edited in place by ``edit``, as a saved record named by its new hash."""
    document = report_to_dict(FIXTURE)
    edit(document)
    run_id = content_digest(document)
    record = {
        "config_digest": content_digest(document["config"]),
        "manifest_digest": document["manifest_digest"],
        "report": document,
        "run_id": run_id,
        "timestamp": _Clock.now(timezone.utc).isoformat(),
    }
    return run_id, canonical_json(record) + "\n"


def _edit(*path_and_value):
    *path, key, value = path_and_value

    def edit(document):
        for step in path:
            document = document[step]
        document[key] = value if not callable(value) else value(document[key])

    return edit


# The hostile records whose outcome differs from the oracle's.  Each is
# edited and renamed to its new hash, so its id and envelope verify and
# the oracle serves it.  The engine recomputes the component scores and
# the trust from the stored sub-scores and config, and refuses each.
# Every record of _hostile_records() keeps the oracle's outcome.
REFUSED_AS_INCONSISTENT = {
    "C zeroed and trust raised": (
        lambda d: (_edit("component_scores", "C", 0.0)(d), _edit("trust", 0.9)(d)),
        "stored component_scores.C does not match its sub-scores",
    ),
    "trust raised": (_edit("trust", 0.9), "stored trust does not match its component scores"),
    "I one ulp down": (
        _edit("component_scores", "I", lambda value: math.nextafter(value, 0.0)),
        "stored component_scores.I does not match its sub-scores",
    ),
    "sub-score raised": (
        _edit("sub_scores", 2, "value", lambda value: value / 2),
        "stored component_scores.C does not match its sub-scores",
    ),
    "alpha raised": (_edit("config", "alpha", "R", 0.5), "stored trust does not match its component scores"),
}


@pytest.mark.parametrize("name", sorted(REFUSED_AS_INCONSISTENT))
def test_record_that_does_not_add_up_is_refused_where_the_oracle_serves_it(tmp_path, name):
    edit, reason = REFUSED_AS_INCONSISTENT[name]
    run_id, text = _rehashed(edit)

    def build(root):
        _write(root / f"{run_id}.json", text)

    def act(side, root):
        return _outcome(side.load_run, run_id, root), _outcome(side.load_run, run_id[:9], root)

    (expected, expected_files), (actual, actual_files) = _both(tmp_path / "t", build, act)
    assert expected[0] == "ok" and expected[1][0][0] == "ok" == expected[1][1][0]
    refusal = ("StoreError", f"run {run_id}: {reason}")
    assert actual == ("ok", (refusal, refusal))
    assert actual_files == expected_files


def _named_by_own_hash(text: str) -> tuple[str, str]:
    """A record whose run id is the SHA-256 of its report slice's bytes, as written."""
    start = text.index('"report":') + len('"report":')
    end = text.index(',"run_id":"')
    slice_id = oracle._text_digest(text[start:end])
    return slice_id, text.replace(f'"run_id":"{FIXTURE_ID}"', f'"run_id":"{slice_id}"')


@pytest.mark.parametrize(
    "name",
    ["saved", "space in the report", "extra report key", "reordered report keys", "second report after the timestamp"],
)
def test_record_named_by_the_hash_of_its_report_bytes_matches_the_oracle(tmp_path, name):
    slice_id, text = _named_by_own_hash(HOSTILE[name])

    def build(root):
        _write(root / f"{slice_id}.json", text)

    _assert_same(tmp_path / "t", build, lambda side, root: side.load_run(slice_id, root))


@pytest.mark.parametrize(
    "data",
    [b'{"run_id": "\xff"}', b"\xff\xfe{}", None],
    ids=["non-utf8", "utf16 bom", "valid with a bad byte"],
)
def test_undecodable_record_matches_the_oracle(tmp_path, data):
    if data is None:
        data = HOSTILE["saved"].encode("utf-8").replace(b'"trust":', b'"trust\xc3":', 1)

    def build(root):
        _write(root / f"{FIXTURE_ID}.json", data)

    def act(side, root):
        return _outcome(side.load_run, FIXTURE_ID, root), _outcome(side.save_run, FIXTURE, root)

    _assert_same(tmp_path / "t", build, act)


def test_report_that_is_not_an_object_under_its_own_id_matches_the_oracle(tmp_path):
    for stored in (["x"], "text", 7, None, {}):
        run_id = content_digest(stored)
        text = canonical_json(
            {"config_digest": "c", "manifest_digest": "m", "report": stored, "run_id": run_id, "timestamp": "t"}
        )

        def build(root, run_id=run_id, text=text):
            _write(root / f"{run_id}.json", text)

        _assert_same(tmp_path / "t", build, lambda side, root, run_id=run_id: side.load_run(run_id, root))


def test_record_path_that_is_a_directory_matches_the_oracle(tmp_path):
    def build(root):
        (root / f"{FIXTURE_ID}.json").mkdir()

    def act(side, root):
        return _outcome(side.load_run, FIXTURE_ID, root), _outcome(side.save_run, FIXTURE, root)

    _assert_same(tmp_path / "t", build, act)


def test_symlink_loop_at_the_record_path_matches_the_oracle(tmp_path):
    def build(root):
        os.symlink(f"{FIXTURE_ID}.json", root / f"{FIXTURE_ID}.json")

    def act(side, root):
        return _outcome(side.load_run, FIXTURE_ID, root), _outcome(side.save_run, FIXTURE, root)

    _assert_same(tmp_path / "t", build, act)


# -- the saved-form shortcut ------------------------------------------------------
#
# load_run serves a record that is, byte for byte, what save_run writes for
# its decoded report without the checked path's hooked parse and re-encoding.
# It must return the same run, or raise the same message, as that path alone.


def _loaded(store, run_id):
    outcome = _outcome(engine.load_run, run_id, store)
    return outcome if outcome[0] != "ok" else ("ok", outcome[1], repr(outcome[1]))


def _checked_path_alone(monkeypatch):
    monkeypatch.setattr(engine, "_saved_record", lambda text, full_id: None)


def _assert_load_matches_the_checked_path(monkeypatch, store, run_id) -> tuple:
    both = []
    with monkeypatch.context() as patch:
        for alone in (False, True):
            if alone:
                _checked_path_alone(patch)
            both.append((_loaded(store, run_id), _loaded(store, run_id[:9])))
    assert both[0] == both[1]
    return both[0][0]


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_record_loads_as_on_the_checked_path(tmp_path, monkeypatch, name):
    _write(tmp_path / f"{FIXTURE_ID}.json", HOSTILE[name])
    _assert_load_matches_the_checked_path(monkeypatch, tmp_path, FIXTURE_ID)


def test_seeded_records_load_as_on_the_checked_path(tmp_path, monkeypatch):
    for report in REPORTS:
        outcome = _assert_load_matches_the_checked_path(monkeypatch, tmp_path, engine.save_run(report, tmp_path))
        assert outcome[0] == "ok" and outcome[1].report == report


def _scale(*path_and_factor):
    *path, factor = path_and_factor

    def edit(document):
        for step in path[:-1]:
            document = document[step]
        document[path[-1]] = {key: value * factor for key, value in document[path[-1]].items()}

    return edit


EDITED = {
    **{name: (edit, reason) for name, (edit, reason) in REFUSED_AS_INCONSISTENT.items()},
    "credibility doubled": (_scale("config", "credibility", 2.0), "stored config.credibility.IM is not a normalised weight"),
    "components doubled": (_scale("component_scores", 2.0), "stored component_scores.C does not match its sub-scores"),
    "S as an integer": (_edit("component_scores", "S", 1), "stored report loads as a report of another id"),
    "a value as an integer": (_edit("sub_scores", 12, "value", int), "stored report loads as a report of another id"),
}


@pytest.mark.parametrize("name", sorted(EDITED))
def test_edited_saved_form_record_keeps_its_refusal(tmp_path, monkeypatch, name):
    edit, reason = EDITED[name]
    run_id, text = _rehashed(edit)
    _write(tmp_path / f"{run_id}.json", text)
    assert _assert_load_matches_the_checked_path(monkeypatch, tmp_path, run_id) == ("StoreError", f"run {run_id}: {reason}")


def test_saved_record_under_another_id_loads_as_on_the_checked_path(tmp_path, monkeypatch):
    other = engine.save_run(REPORTS[2], tmp_path)
    (tmp_path / f"{other}.json").rename(tmp_path / f"{FIXTURE_ID}.json")
    refusal = ("StoreError", f"run {FIXTURE_ID}: record carries mismatched id {other!r}")
    assert _assert_load_matches_the_checked_path(monkeypatch, tmp_path, FIXTURE_ID) == refusal


def test_saved_records_take_the_shortcut(tmp_path, monkeypatch):
    # A change that sent every record down the checked path would load them alike.
    run_ids = [engine.save_run(report, tmp_path) for report in REPORTS if report.manifest_digest.isascii()]

    def refuse(raw, full_id):
        raise AssertionError("record went down the checked path")

    monkeypatch.setattr(engine, "_verified_record", refuse)
    monkeypatch.setattr(engine, "_parsed_record", refuse)
    for run_id, report in zip(run_ids, [report for report in REPORTS if report.manifest_digest.isascii()]):
        assert engine.load_run(run_id, tmp_path).report == report
        assert engine.save_run(report, tmp_path) == run_id


# -- ids and stores ------------------------------------------------------------


IDS = [
    FIXTURE_ID,
    FIXTURE_ID[:1],
    FIXTURE_ID[:10],
    FIXTURE_ID[:63],
    FIXTURE_ID + "0",
    FIXTURE_ID.upper(),
    "g" * 64,
    "../" + FIXTURE_ID[3:],
    "",
    ("0" if FIXTURE_ID[0] != "0" else "1") * 64,
    ("0" if FIXTURE_ID[0] != "0" else "1") * 5,
]


@pytest.mark.parametrize("run_id", IDS, ids=[f"id{i}" for i in range(len(IDS))])
@pytest.mark.parametrize("layout", ["store", "ambiguous", "missing store", "store under a file", "store is a file"])
def test_ids_and_stores_match_the_oracle(tmp_path, run_id, layout):
    def build(root):
        if layout in ("store", "ambiguous"):
            (root / "runs").mkdir()
            _write(root / "runs" / f"{FIXTURE_ID}.json", HOSTILE["saved"])
        if layout == "ambiguous":
            forged = FIXTURE_ID[:12] + ("0" if FIXTURE_ID[12] != "0" else "1") + FIXTURE_ID[13:]
            _write(root / "runs" / f"{forged}.json", HOSTILE["saved"])
            _write(root / "runs" / f".{FIXTURE_ID[:12]}-hidden.json", HOSTILE["saved"])
        if layout == "store under a file":
            _write(root / "file", "not a directory")
        if layout == "store is a file":
            _write(root / "runs", "not a directory")

    def store(root):
        return root / "file" / "runs" if layout == "store under a file" else root / "runs"

    def act(side, root):
        return _outcome(side.load_run, run_id, store(root)), _outcome(side.resolve_run_id, run_id, store(root))

    _assert_same(tmp_path / "t", build, act)


@pytest.mark.parametrize("layout", ["missing store", "nested missing store", "store under a file", "store is a file"])
def test_saving_into_a_store_matches_the_oracle(tmp_path, layout):
    def build(root):
        if layout == "store under a file":
            _write(root / "file", "not a directory")
        if layout == "store is a file":
            _write(root / "runs", "not a directory")

    def store(root):
        return {
            "missing store": root / "runs",
            "nested missing store": root / "a" / "b" / "runs",
            "store under a file": root / "file" / "runs",
            "store is a file": root / "runs",
        }[layout]

    def act(side, root):
        saved = _outcome(side.save_run, FIXTURE, store(root))
        return saved, _outcome(side.load_run, FIXTURE_ID, store(root))

    _assert_same(tmp_path / "t", build, act)


def test_relative_stores_match_the_oracle(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for store in (".", "", "runs/", "./runs//x"):
        for side in (oracle, engine):
            assert side.save_run(FIXTURE, store) == FIXTURE_ID
        assert _outcome(engine.load_run, FIXTURE_ID, store) == _outcome(oracle.load_run, FIXTURE_ID, store)
    (tmp_path / f"{FIXTURE_ID}.json").unlink()
    (tmp_path / f"{FIXTURE_ID}.json").mkdir()
    for run_id in (FIXTURE_ID, FIXTURE_ID[:5]):
        assert _outcome(engine.load_run, run_id, ".") == _outcome(oracle.load_run, run_id, ".")
        assert _outcome(engine.load_run, run_id, "") == _outcome(oracle.load_run, run_id, "")


def test_non_finite_report_matches_the_oracle(tmp_path):
    # The last one fails in two entries: config (TypeError) sorts before trust (ValueError).
    unencodable = dataclasses.replace(FIXTURE.config_snapshot, alpha=(object(), *FIXTURE.config_snapshot.alpha[1:]))
    for fields in (
        {"trust": float("nan")},
        {"trust": float("-inf")},
        {"trust": float("nan"), "manifest_digest": -1e999},
        {"trust": float("nan"), "config_snapshot": unencodable},
    ):
        report = dataclasses.replace(FIXTURE, **fields)
        _assert_same(tmp_path / "t", lambda root: None, lambda side, root: side.save_run(report, root / "runs"))


def test_non_string_run_ids_match_the_oracle(tmp_path):
    engine.save_run(FIXTURE, tmp_path)
    for run_id in (None, 7, ["a"]):
        assert _outcome(engine.load_run, run_id, tmp_path) == _outcome(oracle.load_run, run_id, tmp_path)


# -- descriptors -----------------------------------------------------------------


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_saves_and_loads_leave_no_descriptor_open(tmp_path, monkeypatch):
    def refuse(src, dst):
        raise PermissionError(13, "Permission denied")

    def count() -> int:
        return len(os.listdir("/proc/self/fd"))

    store = tmp_path / "runs"
    blocker = tmp_path / "file"
    blocker.write_text("not a directory", encoding="utf-8")
    reports = REPORTS[:5]
    ids = [engine.save_run(report, store) for report in reports]
    record = store / f"{ids[0]}.json"
    before = count()
    for i in range(200):
        report, run_id = reports[i % 5], ids[i % 5]
        step = i % 10
        if step == 0:
            engine.save_run(report, store)
        elif step == 1:
            engine.load_run(run_id, store)
        elif step == 2:
            engine.load_run(run_id[:8], store)
        elif step == 3:
            _outcome(engine.save_run, report, blocker / "runs")
            _outcome(engine.load_run, run_id, blocker / "runs")
        elif step == 4:
            _outcome(engine.load_run, "0" * 64, tmp_path / "never")
            _outcome(engine.load_run, "zz", store)
        elif step == 5:
            good = record.read_bytes()
            for text in (b"\xff", b"{", b"[]", HOSTILE["1e400"].encode(), HOSTILE["space in the report"].encode()):
                record.write_bytes(text)
                _outcome(engine.load_run, ids[0], store)
                _outcome(engine.save_run, reports[0], store)
            record.write_bytes(good)
        elif step == 6:
            with monkeypatch.context() as patch:
                patch.setattr("stride.runstore.os.replace", refuse)
                _outcome(engine.save_run, dataclasses.replace(report, trust=i / 1000), store)
        elif step == 7:
            _outcome(engine.save_run, dataclasses.replace(report, trust=float("nan")), store)
        elif step == 8:
            directory = store / f"{'0' * 64}.json"
            directory.mkdir(exist_ok=True)
            _outcome(engine.load_run, "0" * 64, store)
        else:
            engine.save_run(dataclasses.replace(report, trust=i / 1000), tmp_path / f"fresh{i}")
    assert count() == before
    assert not [name for name in os.listdir(store) if name.endswith(".tmp")]
