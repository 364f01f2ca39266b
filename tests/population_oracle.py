"""Frozen reference for the JSON population reader.

This is :mod:`stride.io`'s ``_population_from_json``, with the helpers
it checks values through and the JSON branch of ``parse_population``
(its duplicate-id check), as they were before the reader became one
pass over the decoded records.  It is kept unchanged so that the
engine's records and every refusal, its type, message and the order in
which it is met, can be checked against it.  Only JSON decoding and the
record type come from the engine.
"""

from __future__ import annotations

from stride.errors import SchemaError
from stride.io import _load_json
from stride.sampling import PopulationRecord

_FLOAT_INT_LIMIT = 2**1024 - 2**970


def _obj(value: object, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _take(obj: dict, key: str, path: str) -> object:
    if key not in obj:
        raise SchemaError(f"{path}.{key}: missing required field")
    return obj.pop(key)


def _as_str(value: object, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{path}: expected a string, got {type(value).__name__}")
    return value


def _as_list(value: object, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{path}: expected an array, got {type(value).__name__}")
    return value


def _criterion_cell(value: object, path: str, key: str) -> object:
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if number and not -_FLOAT_INT_LIMIT < value < _FLOAT_INT_LIMIT:
        raise SchemaError(f"{path}.{key}: criterion {key!r}: numeric values must be finite")
    return value


def _population_from_json(text: str) -> list[PopulationRecord]:
    loaded = _load_json(text)
    entries = _as_list(loaded, "population")
    records = []
    for index, entry in enumerate(entries):
        path = f"population[{index}]"
        record_obj = dict(_obj(entry, path))
        record_id = _as_str(_take(record_obj, "record_id", path), f"{path}.record_id")
        if not record_id.strip():
            raise SchemaError(f"{path}.record_id: missing value")
        criteria: dict[str, object] = {}
        for key, value in record_obj.items():
            value_path = f"{path}.{key}"
            if isinstance(value, list):
                criteria[key] = tuple(_as_str(v, f"{value_path}[{i}]") for i, v in enumerate(value))
            elif isinstance(value, (bool, int, float, str)):
                criteria[key] = _criterion_cell(value, path, key)
            else:
                raise SchemaError(f"{value_path}: unsupported value type {type(value).__name__}")
        records.append(PopulationRecord(record_id=record_id, criteria=criteria))
    if not records:
        raise SchemaError("population: no records")
    return records


def parse_population(text: str) -> list[PopulationRecord]:
    """``stride.io.parse_population`` on JSON text."""
    records = _population_from_json(text)
    ids = sorted(record.record_id for record in records)
    if any(ids[i] == ids[i - 1] for i in range(1, len(ids))):
        seen: set[str] = set()
        for index, record in enumerate(records):
            if record.record_id in seen:
                raise SchemaError(f"population[{index}].record_id: duplicate id {record.record_id!r}")
            seen.add(record.record_id)
    return records
