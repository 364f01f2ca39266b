"""The CSV population reader against its frozen reference, ``population_csv_oracle``.

CSV rows are read through the same record loop as JSON objects, so the
rules for a record, its id, its numbers and its label lists, are written
once.  That may not change what a CSV file reads as or how it is
refused: for every text below, ``parse_population`` and the oracle must
return equal records, with values of the same types in the same key
order, or raise the same exception type with the same message.

Texts are written by :mod:`csv` itself, row by row, so that a cell can
hold a comma, a quote or a line break, a row can be short or long, and
lines can end in ``\\r\\n`` or ``\\n``.  Seeded populations are read
whole, then again with one or more cells, ids, rows or header columns
replaced; with several faults the first one met must be the one reported.
"""

from __future__ import annotations

import csv
import io
import random

import pytest

import population_csv_oracle as oracle
from stride.io import parse_population

KEYS = ("region", "year", "size", "verified", "tags", "note", "é", "a.b", "")
WORDS = ("apac", "emea", "x y", "é✓", "日本", 'quote " and \\', "a,b", "line\r\nbreak", "\x01")

# Cells that must be read, each as the type the oracle gives it.
GOOD_CELLS = (
    "",
    " ",
    "0",
    "-7",
    " 2024 ",
    "1_000",
    "1.5",
    "-0.0",
    "5e-324",
    "1.7976931348623157e308",
    "9" * 300,
    "true",
    "FALSE",
    " True ",
    "a|b",
    "a|",
    "|",
    " x | y |",
    "a||b",
    "1|2",
    "a,b",
    '"quoted"',
    "line\nbreak",
    "0x10",
    "١٢",
)
# Cells that must be refused as numbers that are not finite.
BAD_CELLS = ("nan", "NaN", "-nan", "inf", "-Infinity", " INF ", "1e400", "-1e400", "9" * 400, "-" + "9" * 400)
# Ids that replace one record's id; the blank ones must be refused, the others kept as strings.
RECORD_IDS = ("1", "-7", "1.5", "1e400", "9" * 400, "nan", "true", "False", "a|b", "|", "a,b", " r ", "\tr\t", "", " ", "\t", "\u00a0", "\u2003")
HEADERS = (
    [],
    [""],
    ["region"],
    ["Record_ID", "region"],
    [" record_id", "region"],
    ["\ufeffrecord_id", "region"],
    ["record_id", "region", "region"],
    ["region", "record_id", "record_id"],
    ["record_id", "", ""],
    ["record_id"],
)


def _cell(rng: random.Random) -> str:
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice(WORDS)
    if kind == 1:
        return rng.choice(("true", "false", "True"))
    if kind == 2:
        return str(rng.choice((0, 1, -7, 2024, 10**20, 10**300)))
    if kind == 3:
        return repr(rng.choice((0.5, -2.25, 1e-300, 1e300, rng.lognormvariate(3.0, 0.8))))
    return "|".join(rng.choice(WORDS[:5]) for _ in range(rng.randrange(4))) + rng.choice(("", "|"))


def _population(rng: random.Random) -> list[list[str]]:
    """A header row and its records; ``record_id`` sits in any column."""
    header = rng.sample(KEYS, rng.randint(0, 5))
    id_column = rng.randint(0, len(header))
    header.insert(id_column, "record_id")
    rows = [header]
    for index in range(rng.randint(1, 12)):
        row = [_cell(rng) for _ in header]
        row[id_column] = f"r{index}"
        rows.append(row)
    return rows


def _text(rows: list[list[str]], newline: str = "\r\n") -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator=newline)
    writer.writerows(rows)
    return buffer.getvalue()


def _mutate(rng: random.Random, rows: list[list[str]]) -> None:
    """Put one fault, or a cell that must still be read, into a random place."""
    header = rows[0]
    index = rng.randrange(1, len(rows))
    row = rows[index]
    action = rng.randrange(6)
    if action == 0 and "record_id" in header[: len(row)]:
        row[header.index("record_id")] = rng.choice(RECORD_IDS + (f"r{rng.randrange(len(rows))}",))
    elif action == 1:  # a short row
        del row[rng.randrange(len(row) + 1) :]
    elif action == 2:  # a row with surplus cells
        row.extend(rng.choice(GOOD_CELLS + BAD_CELLS) for _ in range(rng.randint(1, 3)))
    elif action == 3:  # a repeated or a missing column
        if rng.randrange(2):
            header.append(rng.choice(header))
        else:
            header[rng.randrange(len(header))] = rng.choice(KEYS)
    elif row:
        row[rng.randrange(len(row))] = rng.choice(GOOD_CELLS + BAD_CELLS)


def _outcome(read, text: str):
    try:
        records = read(text)
    except Exception as exc:  # the refusal is what is compared
        return "raised", type(exc), str(exc)
    assert all(type(record.criteria) is dict for record in records)
    return "read", repr([(record.record_id, list(record.criteria.items())) for record in records])


def _assert_same(text: str) -> tuple:
    engine = _outcome(lambda document: parse_population(document, "population.csv"), text)
    assert engine == _outcome(oracle.parse_population, text), text
    return engine


@pytest.mark.parametrize("seed", range(200))
def test_generated_population(seed):
    rng = random.Random(f"csv:{seed}")
    assert _assert_same(_text(_population(rng), rng.choice(("\r\n", "\n"))))[0] == "read"


@pytest.mark.parametrize("seed", range(300))
def test_mutated_population(seed):
    rng = random.Random(f"csv mutant:{seed}")
    rows = _population(rng)
    for _ in range(rng.choice((1, 1, 2, 3))):
        _mutate(rng, rows)
    _assert_same(_text(rows, rng.choice(("\r\n", "\n"))))


@pytest.mark.parametrize("record_id", RECORD_IDS)
@pytest.mark.parametrize("surplus", [0, 2])
def test_record_id(record_id, surplus):
    rows = [["record_id", "region", "x"], ["r0", "apac", "1"], [record_id, "emea", "2"] + ["z"] * surplus]
    assert _assert_same(_text(rows))[0] == ("raised" if surplus or not record_id.strip() else "read")
    # A blank id is reported before the row's surplus cells, and any id before a refused value.
    rows[2][2] = "nan"
    assert _assert_same(_text(rows))[0] == "raised"


@pytest.mark.parametrize("cell", GOOD_CELLS)
def test_cell_that_is_read(cell):
    rows = [["x", "record_id", "y"], ["1", "r0", "b"], [cell, "r1", cell]]
    assert _assert_same(_text(rows))[0] == "read"


@pytest.mark.parametrize("cell", BAD_CELLS)
def test_cell_that_is_refused(cell):
    rows = [["record_id", "region", "x", "y"], ["r0", "apac", "1", "2"], ["r1", "emea", cell, "nan"]]
    assert _assert_same(_text(rows))[0] == "raised"


@pytest.mark.parametrize(
    "row",
    [
        [],
        ["r1"],
        ["r1", "apac"],
        ["", "apac"],
        ["r1", "apac", "1", "2"],
        ["r1", "apac", "1", "2", "3"],
        ["", "apac", "1", "2"],
        [" ", "apac", "1e400", "2"],
        ["r1", "apac", "1e400", "2"],
        ["r1", "inf"],
    ],
)
def test_row_shape(row):
    rows = [["record_id", "region", "x"], ["r0", "apac", "1"], row]
    _assert_same(_text(rows))


@pytest.mark.parametrize("header", HEADERS)
def test_header(header):
    _assert_same(_text([header, ["r0", "apac", "1"], ["r1", "emea", "2"]]))


@pytest.mark.parametrize(
    "text",
    ["", "\n", "record_id\n", "record_id\r\n\r\n", "record_id,x\r\nr0,1\r\n\r\nr1,2", "record_id,x\rr0,1\r"],
)
def test_text(text):
    _assert_same(text)


@pytest.mark.parametrize("ids", [("a", "a"), ("a", "b", "a"), (" a", "a"), ("a", "A"), ("1", "01")])
def test_duplicate_ids(ids):
    _assert_same(_text([["record_id"]] + [[record_id] for record_id in ids]))
