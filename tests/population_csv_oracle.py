"""Frozen reference for the CSV population reader.

This is :mod:`stride.io`'s ``_population_from_csv``, with the cell
coercion and the value check it reads each cell through and the CSV
branch of ``parse_population`` (its duplicate-id check), as they were
before CSV rows were sent through the JSON reader's record loop.  It is
kept unchanged so that the engine's records and every refusal, its type,
message and the order in which it is met, can be checked against it.
Only the record type comes from the engine.
"""

from __future__ import annotations

import csv
import io

from stride.errors import SchemaError
from stride.sampling import PopulationRecord

_FLOAT_INT_LIMIT = 2**1024 - 2**970


def _coerce_csv_cell(text: str) -> object:
    cell = text.strip()
    if "|" in cell:
        return tuple(part for part in (piece.strip() for piece in cell.split("|")) if part)
    lowered = cell.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        pass
    return cell


def _criterion_cell(value: object, path: str, key: str) -> object:
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if number and not -_FLOAT_INT_LIMIT < value < _FLOAT_INT_LIMIT:
        raise SchemaError(f"{path}.{key}: criterion {key!r}: numeric values must be finite")
    return value


def _population_from_csv(text: str) -> list[PopulationRecord]:
    reader = csv.DictReader(io.StringIO(text))
    columns = reader.fieldnames
    if columns is None or "record_id" not in columns:
        raise SchemaError("population: CSV must have a record_id column")
    repeated = [column for index, column in enumerate(columns) if column in columns[:index]]
    if repeated:
        raise SchemaError(f"population: CSV header repeats column {repeated[0]!r}")
    records = []
    for index, row in enumerate(reader):
        path = f"population[{index}]"
        record_id = (row.get("record_id") or "").strip()
        if not record_id:
            raise SchemaError(f"{path}.record_id: missing value")
        if None in row:
            raise SchemaError(f"{path}: {len(row[None])} more cell(s) than header columns")
        criteria = {
            key: _criterion_cell(_coerce_csv_cell(value if value is not None else ""), path, key)
            for key, value in row.items()
            if key != "record_id"
        }
        records.append(PopulationRecord(record_id=record_id, criteria=criteria))
    if not records:
        raise SchemaError("population: no records")
    return records


def parse_population(text: str) -> list[PopulationRecord]:
    """``stride.io.parse_population`` on CSV text."""
    records = _population_from_csv(text)
    ids = sorted(record.record_id for record in records)
    if any(ids[i] == ids[i - 1] for i in range(1, len(ids))):
        seen: set[str] = set()
        for index, record in enumerate(records):
            if record.record_id in seen:
                raise SchemaError(f"population[{index}].record_id: duplicate id {record.record_id!r}")
            seen.add(record.record_id)
    return records
