"""Frozen reference for the rating-record and annotation readers.

A copy of :func:`stride.io.parse_rating_record`, :func:`stride.io._as_interval`
and :func:`stride.io.parse_annotations` as they were when each walked its
document's keys by hand, with the decoding primitives and the
:func:`stride.delta.validate_interval` check they used.  The engine must
decode every document to the same value or fail with the same
:class:`SchemaError` message.  One difference is intended: this reader
accepts unknown keys in an issue score, and the engine refuses them.
"""

from __future__ import annotations

import json
import math
import re
from datetime import date

from stride.delta import Annotation, DiscrepancyCategory, Interval, IssueScore, RatingRecord
from stride.errors import SchemaError

_FLOAT_INT_LIMIT = 2**1024 - 2**970


class _NonFiniteLiteral(ValueError):
    pass


def _refuse_constant(name: str) -> float:
    raise _NonFiniteLiteral(f"{name} is not a finite number")


def _load_json(text: str) -> object:
    try:
        return json.loads(text, parse_constant=_refuse_constant)
    except json.JSONDecodeError as exc:
        error = exc
    except _NonFiniteLiteral as exc:
        tokens = re.finditer(r'"(?:[^"\\]|\\.)*"|(NaN|-?Infinity)', text)
        literal = next(m for m in tokens if m.group(1))
        error = json.JSONDecodeError(str(exc), text, literal.start())
    except RecursionError:
        raise SchemaError("invalid JSON: arrays or objects nested too deeply") from None
    raise SchemaError(f"invalid JSON at line {error.lineno}, column {error.colno}: {error.msg}")


def _obj(value: object, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _take(obj: dict, key: str, path: str) -> object:
    if key not in obj:
        raise SchemaError(f"{path}.{key}: missing required field")
    return obj.pop(key)


def _no_extras(obj: dict, path: str) -> None:
    if obj:
        extras = ", ".join(sorted(obj))
        raise SchemaError(f"{path}: unknown field(s) {extras}")


def _as_str(value: object, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{path}: expected a string, got {type(value).__name__}")
    return value


def _as_int(value: object, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{path}: expected an integer, got {type(value).__name__}")
    if not -_FLOAT_INT_LIMIT < value < _FLOAT_INT_LIMIT:
        raise SchemaError(f"{path}: expected a finite number within float range")
    return value


def _as_float(value: object, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number, got {type(value).__name__}")
    number = float(_as_int(value, path) if isinstance(value, int) else value)
    if not math.isfinite(number):
        raise SchemaError(f"{path}: expected a finite number within float range")
    return number


def _as_list(value: object, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{path}: expected an array, got {type(value).__name__}")
    return value


def _as_date(value: object, path: str) -> date:
    text = _as_str(value, path)
    try:
        return date.fromisoformat(text)
    except ValueError:
        raise SchemaError(f"{path}: expected an ISO date (YYYY-MM-DD), got {text!r}") from None


def validate_interval(interval: Interval, path: str = "interval") -> Interval:
    if interval.lower > interval.upper:
        raise SchemaError(f"{path}: lower bound {interval.lower!r} exceeds upper bound {interval.upper!r}")
    return interval


def parse_rating_record(text: str, label: str = "rating") -> RatingRecord:
    root = dict(_obj(_load_json(text), label))
    issues_obj = dict(_obj(_take(root, "issue_scores", label), f"{label}.issue_scores"))
    issue_scores = {}
    for key in sorted(issues_obj):
        path = f"{label}.issue_scores[{key!r}]"
        issue_obj = dict(_obj(issues_obj[key], path))
        citation = issue_obj.pop("methodology_citation", "")
        issue_scores[key] = IssueScore(
            score=_as_float(_take(issue_obj, "score", path), f"{path}.score"),
            scale_min=_as_float(_take(issue_obj, "scale_min", path), f"{path}.scale_min"),
            scale_max=_as_float(_take(issue_obj, "scale_max", path), f"{path}.scale_max"),
            methodology_citation=_as_str(citation, f"{path}.methodology_citation"),
        )
    record = RatingRecord(
        source_label=_as_str(_take(root, "source_label", label), f"{label}.source_label"),
        period_start=_as_date(_take(root, "period_start", label), f"{label}.period_start"),
        period_end=_as_date(_take(root, "period_end", label), f"{label}.period_end"),
        overall_rating=_as_str(_take(root, "overall_rating", label), f"{label}.overall_rating"),
        issue_scores=issue_scores,
    )
    _no_extras(root, label)
    return record


def _as_interval(value: object, path: str) -> Interval:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        point = _as_float(value, path)
        return Interval(point, point)
    entries = _as_list(value, path)
    if len(entries) != 2:
        raise SchemaError(f"{path}: expected [lower, upper]")
    interval = Interval(_as_float(entries[0], f"{path}[0]"), _as_float(entries[1], f"{path}[1]"))
    return validate_interval(interval, path)


def parse_annotations(text: str) -> dict[str, Annotation]:
    root = _obj(_load_json(text), "annotations")
    categories = {category.value: category for category in DiscrepancyCategory}
    annotations = {}
    for key in sorted(root):
        path = f"annotations[{key!r}]"
        entry = dict(_obj(root[key], path))
        category_code = _as_str(_take(entry, "category", path), f"{path}.category")
        if category_code not in categories:
            raise SchemaError(f"{path}.category: unknown category {category_code!r}")
        adjustment = _as_interval(_take(entry, "adjustment", path), f"{path}.adjustment")
        evidence_value = entry.pop("evidence", [])
        evidence = tuple(
            _as_str(v, f"{path}.evidence[{i}]") for i, v in enumerate(_as_list(evidence_value, f"{path}.evidence"))
        )
        narrative = _as_str(entry.pop("narrative", ""), f"{path}.narrative")
        assessment = None
        if entry.get("stride_assessment") is not None:
            assessment = _as_interval(entry["stride_assessment"], f"{path}.stride_assessment")
        entry.pop("stride_assessment", None)
        _no_extras(entry, path)
        annotations[key] = Annotation(
            category=categories[category_code],
            adjustment=adjustment,
            evidence_refs=evidence,
            narrative=narrative,
            stride_assessment=assessment,
        )
    return annotations
