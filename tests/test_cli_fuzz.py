"""A seeded fuzzer over every subcommand, run in-process through ``main``.

Each document kind the CLI reads is mutated from a valid document with a
fixed seed: a manifest, a weight config, both rating records, the
annotations, a population in JSON and in CSV, and a stored run record.
A mutant carries one to three structural faults (a key dropped, a value
retyped, a number swapped for another or a numeric extreme, an unknown
key, an emptied or grown array), and some also a textual one (a
non-finite or out-of-range number literal, a cut, a stray character,
invalid UTF-8).

Whatever the input, the exit contract must hold: the exit code is 0, 2
or 3, no exception escapes ``main``, and a failing call's stderr starts
with ``error: `` (``validate`` lists its violations on stdout instead).
Every run that ``score`` saves must load again through ``explain``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import re

import pytest

from mutants import drop, mutant, set_to, trails
from stride.cli import main
from stride.fixtures import fixture_text

NUMBERS = (0, 1, -1, 0.5, 2, 7.0, 1000, 1e-9, 1e308, -1e308, 5e-324, 10**308)
VALUES = ("text", "", "equal", True, False, *NUMBERS, [], ["a"], {}, None)
LITERALS = ("NaN", "Infinity", "-Infinity", "1e400", "-1e400", str(10**400), "1e308", "-0.0", "0")
CSV_CELLS = ("", "nan", "inf", "-Infinity", "1e400", str(10**400), "true", "x|y", "|", "a,b", '"', "0", "-1e308", "r1")
MUTANTS_PER_KIND = 150


def _run(argv: list[str], context: str, *, listing: bool = False) -> tuple[int, str]:
    """Run ``main`` on ``argv``, check the exit contract, and return the exit code and stderr."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except BaseException as exc:  # noqa: BLE001 - anything escaping main breaks the contract
        pytest.fail(f"{argv[0]} raised {exc!r} on {context}")
    assert code in (0, 2, 3), (code, context)
    if code and not (listing and code == 2 and out.getvalue() and not err.getvalue()):
        assert err.getvalue().startswith("error: "), (code, err.getvalue(), context)
    return code, err.getvalue()


def _fault(rng: random.Random, document: object) -> object:
    """``document`` with one structural fault at a random place."""
    places = list(trails(document))
    if not places:
        return rng.choice(VALUES)
    trail, value = rng.choice(places)
    kind = rng.randrange(6)
    if kind == 5 and isinstance(value, (int, float)) and not isinstance(value, bool):
        return mutant(document, trail, set_to(rng.choice(NUMBERS)))
    if kind == 0 and isinstance(trail[-1], str):
        return mutant(document, trail, drop)
    if kind == 1 and isinstance(value, dict):
        return mutant(document, trail + (rng.choice(("unknown", "C", "IM", "")),), set_to(rng.choice(VALUES)))
    if kind == 2 and isinstance(value, list):
        grown = value + value[:1] if value and rng.random() < 0.5 else []
        return mutant(document, trail, set_to(grown))
    return mutant(document, trail, set_to(rng.choice(VALUES)))


def _textual(rng: random.Random, text: str) -> bytes:
    """``text`` with one textual fault, as bytes."""
    kind = rng.randrange(4)
    numbers = list(re.finditer(r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?", text))
    if kind == 0 and numbers:
        number = rng.choice(numbers)
        text = text[: number.start()] + rng.choice(LITERALS) + text[number.end() :]
    elif kind == 1:
        text = text[: rng.randrange(len(text) + 1)]
    elif kind == 2:
        at = rng.randrange(len(text) + 1)
        text = text[:at] + rng.choice('{}[]",:\\ ') + text[at:]
    else:
        at = rng.randrange(len(text) + 1)
        return text[:at].encode() + b"\xff\xfe" + text[at:].encode()
    return text.encode()


def _mutant_bytes(seed: int, document: object, count: int = MUTANTS_PER_KIND):
    """``count`` fixed-seed mutants of ``document`` as file contents."""
    rng = random.Random(seed)
    for _ in range(count):
        mutated = document
        for _ in range(rng.choice((1, 1, 2, 3))):
            mutated = _fault(rng, mutated)
        text = json.dumps(mutated)
        yield _textual(rng, text) if rng.random() < 0.25 else text.encode()


def _context(data: bytes) -> str:
    return repr(data[:400])


@pytest.fixture()
def files(tmp_path, monkeypatch):
    monkeypatch.setenv("STRIDE_STORE", str(tmp_path / "runs"))
    names = ("luxshare_manifest", "luxshare_baseline_rating", "luxshare_recomputed_rating", "luxshare_annotations")
    for name in names:
        (tmp_path / f"{name}.json").write_text(fixture_text(f"{name}.json"), encoding="utf-8")
    return tmp_path


def _score_and_explain(argv: list[str], context: str) -> None:
    code, err = _run(argv, context)
    if code == 0:
        run_id = err.split()[-1]
        assert _run(["explain", "--run", run_id], context)[0] == 0, context


def test_manifest_mutants(files):
    target = files / "manifest.json"
    for data in _mutant_bytes(1, json.loads(fixture_text("luxshare_manifest.json"))):
        target.write_bytes(data)
        _score_and_explain(["score", "--manifest", str(target), "--weights", "equal"], _context(data))
        _run(["validate", "--manifest", str(target)], _context(data), listing=True)


def test_weight_config_mutants(files):
    target = files / "weights.json"
    manifest = str(files / "luxshare_manifest.json")
    for data in _mutant_bytes(2, json.loads(fixture_text("equal_weights.json"))):
        target.write_bytes(data)
        _score_and_explain(["score", "--manifest", manifest, "--weights", str(target)], _context(data))


@pytest.mark.parametrize("side", ["baseline", "stride", "annotations"])
def test_rating_and_annotation_mutants(files, side):
    paths = {
        "baseline": files / "luxshare_baseline_rating.json",
        "stride": files / "luxshare_recomputed_rating.json",
        "annotations": files / "luxshare_annotations.json",
    }
    original = json.loads(paths[side].read_text(encoding="utf-8"))
    target = files / f"mutated_{side}.json"
    paths[side] = target
    argv = ["delta", "--baseline", str(paths["baseline"]), "--stride", str(paths["stride"])]
    argv += ["--annotations", str(paths["annotations"])]
    for index, data in enumerate(_mutant_bytes(3, original)):
        target.write_bytes(data)
        _run(argv + ["--format", ("json", "markdown")[index % 2]], _context(data))


def _population() -> list[dict]:
    rng = random.Random(4)
    return [
        {
            "record_id": f"r{i}",
            "region": rng.choice(["apac", "emea", "amer"]),
            "size": rng.randint(1, 500),
            "score": round(rng.uniform(0, 1), 3),
            "listed": rng.random() < 0.5,
            "tags": rng.sample(["a", "b", "c"], rng.randint(1, 2)),
        }
        for i in range(12)
    ]


def _sample_commands(target) -> list[list[str]]:
    return [
        ["sample", "select", "--population", str(target), "--k", "3", "--seed", "0"],
        ["sample", "curve", "--population", str(target), "--criterion", "region", "--sizes", "2,5", "--seed", "1"],
        ["sample", "curve", "--population", str(target), "--criterion", "size", "--sizes", "4", "--seed", "2"],
    ]


def test_population_json_mutants(files):
    target = files / "population.json"
    for data in _mutant_bytes(5, _population()):
        target.write_bytes(data)
        for argv in _sample_commands(target):
            _run(argv, _context(data))


def _csv_mutant_bytes(seed: int, count: int = MUTANTS_PER_KIND):
    """Mutants of a CSV population: header or row cells replaced, dropped or added, rows dropped or repeated."""
    rng = random.Random(seed)
    columns = ["record_id", "region", "size", "score", "listed", "tags"]
    rows = [[str(record[c]) if c != "tags" else "|".join(record[c]) for c in columns] for record in _population()]
    for _ in range(count):
        table = [list(columns)] + [list(row) for row in rows]
        for _ in range(rng.randint(1, 3)):
            row = rng.choice(table)
            kind = rng.randrange(5)
            if kind == 0 and row:
                row[rng.randrange(len(row))] = rng.choice(CSV_CELLS + tuple(columns))
            elif kind == 1 and row:
                del row[rng.randrange(len(row))]
            elif kind == 2:
                row.append(rng.choice(CSV_CELLS))
            elif kind == 3 and len(table) > 1:
                table.remove(row)
            else:
                table.append(list(rng.choice(table)))
        text = "".join(",".join(row) + "\n" for row in table)
        yield _textual(rng, text) if rng.random() < 0.25 else text.encode()


def test_population_csv_mutants(files):
    target = files / "population.csv"
    for data in _csv_mutant_bytes(6):
        target.write_bytes(data)
        for argv in _sample_commands(target):
            _run(argv, _context(data))


def test_run_record_mutants(files):
    code, err = _run(["score", "--manifest", str(files / "luxshare_manifest.json"), "--weights", "equal"], "fixture")
    assert code == 0
    run_id = err.split()[-1]
    record = files / "runs" / f"{run_id}.json"
    original = json.loads(record.read_text(encoding="utf-8"))
    for data in _mutant_bytes(7, original):
        record.write_bytes(data)
        _run(["explain", "--run", run_id], _context(data))
