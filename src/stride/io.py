"""Parsing and serialisation for every document the tool reads or writes.

All readers take document text and fail with :class:`SchemaError`
messages that name the offending field path (JSON syntax errors carry
line and column instead).  Numbers must be finite: ``NaN`` and
``Infinity`` literals, integer literals too long to convert, and values
beyond float range, are refused.
Writers emit indented JSON whose floats round-trip exactly, so
``parse(emit(x))`` reproduces ``x``.  One function states the report
document, keys in sorted order: :func:`report_to_dict` keeps its values,
and :func:`report_to_json` fills them into a layout that the stdlib's
indented encoder rendered once, on first use, from the same function;
its bytes are those of that encoder.

One table codec reads manifests, weight configs, reports, rating records
and annotations: :func:`_walk` reads an object through a table of its
keys and their decoders, and refuses a missing field and an unknown key
alike.  A dataclass's table comes from its fields, once, so a field is
declared in one place only; an object keyed by an enum (``alpha``, a
weight group, ``component_scores``) has one entry per ``(member, code)``
pair.  The manifest's range rules are declared on the same fields and
checked by :func:`stride.model.validate_manifest`.  What stays
hand-written is what a table of keys and types cannot say: the
``spec_version`` value, a sub-score's ``value`` (null exactly when not
applicable), duplicate and missing sub-scores, the trust range, the
partial ``applicability`` map, and an interval's number-or-pair form.
The writers are written out by hand as well.

The population readers do not go through the tables, since a record is
a flat object of any keys.  JSON objects and CSV rows go through one
record loop, which holds every record rule (the id, finite numbers,
label lists, at least one record) and keeps each row's dict as its
record's criteria.  The CSV reader checks its header and row lengths,
strips each id, and coerces every other cell to the value it stands for.

The population, rating-record and annotation readers import
:mod:`stride.sampling`, :mod:`stride.delta` and :mod:`csv` when called,
so the manifest, weight and report codecs load none of them.
"""

from __future__ import annotations

import io as _stdio
import json
import math
import re
import sys
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import is_dataclass
from datetime import date
from functools import cache
from typing import TYPE_CHECKING, Callable, get_args, get_origin

from .errors import SchemaError, _is_finite
from .model import (
    COMPONENT_CODES,
    COMPONENT_METRICS,
    METRIC_CODES,
    SPEC_VERSION,
    DatasetManifest,
    MetricId,
    StrideReport,
    SubScore,
    Violation,
    WeightConfig,
    _field_plan,
    equal_weight_config,
    validate_manifest,
    validate_weight_config,
)

if TYPE_CHECKING:
    from .delta import Annotation, Interval, RatingRecord
    from .sampling import PopulationRecord

# Weight groups as they appear in configuration documents, each with its
# members' (metric, code) pairs, and metrics by their report codes.
_WEIGHT_GROUPS = {
    component.name.lower(): tuple((metric, metric.value) for metric in members)
    for component, members in COMPONENT_METRICS.items()
}
_METRICS_BY_CODE = {code: metric for metric, code in METRIC_CODES}
_METRIC_CODE = dict(METRIC_CODES)


# ---------------------------------------------------------------------------
# Decoding primitives
# ---------------------------------------------------------------------------


class _NonFiniteLiteral(ValueError):
    """A JSON number that does not decode to a finite float."""


def _refuse_constant(name: str) -> float:
    raise _NonFiniteLiteral(f"{name} is not a finite number")


def _finite_float(text: str) -> float:
    number = float(text)
    if not math.isfinite(number):
        raise _NonFiniteLiteral(f"{text} is out of float range")
    return number


def _literal_error(exc: ValueError, text: str) -> json.JSONDecodeError:
    """``exc`` from ``json.loads(text)``, placed at the literal it was raised for.

    That is a NaN or infinity literal, or an integer too long for ``int()``, and the parser does not say
    where.  Strings skipped, the first such literal is the one it met: a constant, or a number's integer
    part with nothing after it.
    """
    limit = sys.get_int_max_str_digits()
    for literal in re.finditer(r'"(?:[^"\\]|\\.)*"|(NaN|-?Infinity)|-?(\d+)([.eE][-+\d.eE]*)?', text):
        constant, digits, rest = literal.groups()
        if constant or digits and not rest and len(digits) > limit > 0:
            break
    message = str(exc) if constant else f"integer of {len(digits)} digits is out of float range"
    return json.JSONDecodeError(message, text, literal.start())


def _load_json(text: str) -> object:
    try:
        return json.loads(text, parse_constant=_refuse_constant)
    except json.JSONDecodeError as exc:
        error = exc
    except ValueError as exc:  # a NaN or infinity literal, or an integer too long for int()
        error = _literal_error(exc, text)
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


def _as_str(value: object, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{path}: expected a string, got {type(value).__name__}")
    return value


def _as_int(value: object, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{path}: expected an integer, got {type(value).__name__}")
    if not _is_finite(value):
        raise SchemaError(f"{path}: expected a finite number within float range")
    return value


def _as_float(value: object, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number, got {type(value).__name__}")
    if not _is_finite(value):
        raise SchemaError(f"{path}: expected a finite number within float range")
    return float(value)


def _as_bool(value: object, path: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(f"{path}: expected a boolean, got {type(value).__name__}")
    return value


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


# ---------------------------------------------------------------------------
# The table codec
# ---------------------------------------------------------------------------


# A table entry: (document key, field name, decoder, encoder, nullable, may
# be absent).  A dataclass field ``X | None`` is absent-or-null; one whose
# metadata marks it omittable may be left out and takes its default; its
# ``key`` metadata names it in documents; every other field is required.


def _walk(table: list, value: object, path: str, prefix: str) -> dict:
    """One object's fields by name; ``path`` names the object, ``prefix`` starts its fields' paths."""
    obj = _obj(value, path)
    fields = {}
    for key, name, decode, _, nullable, omittable in table:
        if key in obj:
            item = obj[key]
            fields[name] = None if nullable and item is None else decode(item, prefix + key)
        elif not omittable:
            raise SchemaError(f"{path}.{key}: missing required field")
    if len(obj) > len(fields):  # each field read is one key
        known = {entry[0] for entry in table}
        extras = ", ".join(sorted(key for key in obj if key not in known))
        raise SchemaError(f"{path}: unknown field(s) {extras}")
    return fields


def _keyed(pairs: tuple, decode_item: Callable) -> Callable:
    """Decoder of an object with one required entry per ``(member, code)`` pair, keyed by member."""
    table = [(code, member, decode_item, None, False, False) for member, code in pairs]
    return lambda value, path: _walk(table, value, path, path + ".")


def _enum_code(enum: type, noun: str) -> Callable:
    members = {member.value: member for member in enum}

    def decode(value: object, path: str) -> object:
        code = _as_str(value, path)
        if code not in members:
            raise SchemaError(f"{path}: unknown {noun} {code!r}")
        return members[code]

    return decode


# Decoders by type: the primitives, enum codes, and the types whose
# document form is not their fields (added where those decoders are).
_DECODERS: dict[object, Callable] = {str: _as_str, int: _as_int, float: _as_float, bool: _as_bool, date: _as_date}
_DECODERS[MetricId] = _enum_code(MetricId, "metric code")
_CODECS: dict[type, list] = {}  # dataclass tables; the manifest writer walks them too


@cache
def _field_codec(tp: object) -> tuple[Callable, Callable | None]:
    """(decoder, encoder) for one field type, built once; a ``None`` encoder keeps the value."""
    if tp in _DECODERS:
        return _DECODERS[tp], None
    if is_dataclass(tp):
        table = _CODECS[tp] = _build_codec(tp)
        return (lambda value, path: tp(**_walk(table, value, path, path + "."))), _encode_object
    container, args = get_origin(tp), get_args(tp)
    if container is Mapping:
        key_type, item_type = args
        decode_item = _field_codec(item_type)[0]
        if key_type is not str:  # an enum: one entry per member
            return _keyed(tuple((member, member.value) for member in key_type), decode_item), None

        def decode_map(value: object, path: str) -> dict:
            obj = _obj(value, path)
            return {key: decode_item(obj[key], f"{path}[{key!r}]") for key in sorted(obj)}

        return decode_map, None
    if container not in (frozenset, tuple):
        raise TypeError(f"no codec for {tp!r}")
    decode_item, encode_item = _field_codec(args[0])

    def decode(value: object, path: str) -> object:
        return container(decode_item(v, f"{path}[{i}]") for i, v in enumerate(_as_list(value, path)))

    if container is frozenset:
        return decode, sorted  # so that equal sets encode alike
    if encode_item is None:
        return decode, list
    return decode, lambda values: [encode_item(v) for v in values]


def _build_codec(cls: type, **decoders: Callable) -> list:
    """``cls``'s table; ``decoders`` replace those of the fields they name, which are then required and may be null."""
    table, arrays = [], []
    for field, tp, nullable in _field_plan(cls)[0]:
        decode, encode = _field_codec(tp)
        key, omittable = field.metadata.get("key", field.name), field.metadata.get("omittable", False)
        if field.name in decoders:
            decode, nullable, omittable = decoders[field.name], False, False
        entry = (key, field.name, decode, encode, nullable, nullable or omittable)
        (arrays if get_origin(tp) else table).append(entry)
    # Arrays and maps are read first: of several missing fields, the first of them is reported.
    return arrays + table


def _encode_object(obj: object) -> dict:
    result = {}
    for key, name, _, encode, _, _ in _CODECS[type(obj)]:
        value = getattr(obj, name)
        result[key] = value if encode is None or value is None else encode(value)
    return result


def _indented_json(document: object) -> str:
    """The writers' form: indented, keys sorted, non-finite floats refused, ending in a newline."""
    return json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# Dataset manifests
# ---------------------------------------------------------------------------


_field_codec(DatasetManifest)


def decode_manifest(text: str) -> DatasetManifest:
    """Structural decode only; invariants are left to :func:`validate_manifest`."""
    # Root fields are named without a prefix, but a missing one reads manifest.<name>.
    return DatasetManifest(**_walk(_CODECS[DatasetManifest], _load_json(text), "manifest", ""))


def parse_manifest(text: str) -> DatasetManifest:
    """Decode manifest text and enforce its invariants."""
    manifest = decode_manifest(text)
    violations = validate_manifest(manifest)
    if violations:
        details = "; ".join(str(v) for v in violations)
        raise SchemaError(f"manifest invariant violation: {details}")
    return manifest


def manifest_to_dict(manifest: DatasetManifest) -> dict:
    return _encode_object(manifest)


def manifest_to_json(manifest: DatasetManifest) -> str:
    return _indented_json(manifest_to_dict(manifest))


def manifest_violations(text: str) -> tuple[DatasetManifest, list[Violation]]:
    """Decode manifest text and list its invariant violations without raising."""
    manifest = decode_manifest(text)
    return manifest, validate_manifest(manifest)


# ---------------------------------------------------------------------------
# Weight configurations
# ---------------------------------------------------------------------------


def parse_weight_config(text: str) -> WeightConfig:
    """Parse and normalise a weight configuration document.

    The literal ``equal`` (bare or as a JSON string) expands to uniform
    weights with alpha = 1/4 each.
    """
    if text.strip() == "equal":
        return equal_weight_config()
    return weight_config_from_obj(_load_json(text))


def _applicability(value: object, path: str) -> dict:
    """A partial map of metric codes to flags; a metric it leaves out is applicable."""
    applicability = dict.fromkeys(_METRIC_CODE, True)
    for code, flag in sorted(_obj(value, path).items()):
        if code not in _METRICS_BY_CODE:
            raise SchemaError(f"{path}.{code}: unknown metric code")
        applicability[_METRICS_BY_CODE[code]] = _as_bool(flag, f"{path}.{code}")
    return applicability


# A config document's root: alpha by component code, one object of weights
# per component, and the optional applicability map.  Its fields' paths
# have no prefix (``alpha.C``), but a missing one reads ``weights.<key>``.
_WEIGHT_FIELDS = [
    ("alpha", "alpha", _keyed(COMPONENT_CODES, _as_float), None, False, False),
    *((group, group, _keyed(members, _as_float), None, False, False) for group, members in _WEIGHT_GROUPS.items()),
    ("applicability", "applicability", _applicability, None, True, True),
]


def weight_config_from_obj(obj: object, path: str = "") -> WeightConfig:
    """Decode and normalise an already-parsed weight configuration document.

    ``path`` locates a config inside another document (``report.config``);
    every message then starts with it.
    """
    if obj == "equal":
        return equal_weight_config()
    prefix = path + "." if path else ""
    fields = _walk(_WEIGHT_FIELDS, obj, path or "weights", prefix)
    weights = {metric: weight for group in _WEIGHT_GROUPS for metric, weight in fields[group].items()}
    applicability = fields.get("applicability") or dict.fromkeys(_METRIC_CODE, True)
    try:
        return validate_weight_config(
            WeightConfig(alpha=tuple(fields["alpha"].values()), weights=weights, applicability=applicability)
        )
    except SchemaError as exc:
        raise SchemaError(f"{prefix}{exc}") from None


# Inside a report, the config must be an object: ``equal`` is not expanded
# there.  Its messages name the report: ``report.config.alpha.C: ...``.
_DECODERS[WeightConfig] = lambda value, path: weight_config_from_obj(_obj(value, path), path)


def _by_code(pairs: Iterable[tuple]) -> list[tuple]:
    return sorted(pairs, key=lambda pair: pair[1])


# The writers' keys in sorted order, the order the encoder writes them in.
_COMPONENT_KEYS = tuple(code for _, code in COMPONENT_CODES)
_SORTED_COMPONENTS = _by_code(COMPONENT_CODES)
_SORTED_METRICS = _by_code(METRIC_CODES)
_SORTED_GROUPS = [(group, _by_code(members)) for group, members in sorted(_WEIGHT_GROUPS.items())]


def _config_document(config: WeightConfig, leaf: Callable) -> dict:
    """The config document, its keys in sorted order, holding ``leaf(x)`` for each number or flag ``x``."""
    document = {
        "alpha": {code: leaf(coefficient) for code, coefficient in sorted(zip(_COMPONENT_KEYS, config.alpha))},
        "applicability": {code: leaf(config.applicability[metric]) for metric, code in _SORTED_METRICS},
    }
    for group, members in _SORTED_GROUPS:
        document[group] = {code: leaf(config.weights[metric]) for metric, code in members}
    return document


def _same(value: object) -> object:
    return value


def weight_config_to_dict(config: WeightConfig) -> dict:
    return _config_document(config, _same)


def weight_config_to_json(config: WeightConfig) -> str:
    return _indented_json(weight_config_to_dict(config))


# ---------------------------------------------------------------------------
# Score reports
# ---------------------------------------------------------------------------


def _report_document(report: StrideReport, leaf: Callable) -> dict:
    """The one statement of the report document, as :func:`_config_document` is of the config's.

    Since keys come in sorted order, ``leaf`` meets the scalars in the
    order that an encoder with ``sort_keys`` writes them.
    """
    return {
        "component_scores": {code: leaf(report.component_scores[component]) for component, code in _SORTED_COMPONENTS},
        "config": _config_document(report.config_snapshot, leaf),
        "manifest_digest": leaf(report.manifest_digest),
        "spec_version": leaf(SPEC_VERSION),
        "sub_scores": [
            {
                "applicable": leaf(sub.applicable),
                "inputs_digest": leaf(sub.inputs_digest),
                "metric_id": leaf(_METRIC_CODE[sub.metric_id]),
                "value": leaf(sub.value),
            }
            for sub in report.sub_scores
        ],
        "trust": leaf(report.trust),
    }


def report_to_dict(report: StrideReport) -> dict:
    return _report_document(report, _same)


_encode_json_str = json.encoder.encode_basestring_ascii
_report_layout = ""  # the report text with a %s slot per leaf, rendered on first use


def report_to_json(report: StrideReport) -> str:
    """Indented report JSON, byte-identical to ``json.dumps(..., indent=2, sort_keys=True)``.

    A report of the one shape that scoring makes, 13 sub-scores and four
    alphas, whose leaves are plain finite floats, bools, strings and
    ``None``, fills a layout that the stdlib encoder rendered once from
    the same document with a placeholder at every leaf; each slot takes
    the leaf's text as that encoder writes it.  Any other report goes
    through the stdlib encoder itself, so its errors are the stdlib's own.
    """
    global _report_layout
    leaves: list = []
    _report_document(report, leaves.append)
    if len(report.sub_scores) == len(METRIC_CODES) and len(report.config_snapshot.alpha) == len(COMPONENT_CODES):
        for index, value in enumerate(leaves):
            kind = type(value)
            if kind is float:  # ``%s`` writes it with ``float.__repr__``, as the encoder does
                if not math.isfinite(value):
                    break
            elif kind is str:
                leaves[index] = _encode_json_str(value)
            elif kind is bool:
                leaves[index] = "true" if value else "false"
            elif value is None:
                leaves[index] = "null"
            else:
                break
        else:
            if not _report_layout:
                placeholders = _report_document(report, lambda value: "\x00")
                _report_layout = _indented_json(placeholders).replace('"\\u0000"', "%s")
            return _report_layout % tuple(leaves)
    return _indented_json(report_to_dict(report))


def _sub_score(value: object, path: str) -> SubScore:
    """One sub-score entry: its ``value`` is a number when applicable and null otherwise."""
    fields = _walk(_SUB_SCORE_FIELDS, value, path, path + ".")
    if fields["applicable"]:
        fields["value"] = _as_float(fields["value"], f"{path}.value")
    elif fields["value"] is not None:
        raise SchemaError(f"{path}.value: must be null when not applicable")
    return SubScore(**fields)


# ``value`` is taken as it stands by the walk and checked by _sub_score.
_SUB_SCORE_FIELDS = _build_codec(SubScore, value=lambda value, path: value)
_DECODERS[SubScore] = _sub_score


def report_from_dict(document: dict) -> StrideReport:
    root = dict(_obj(document, "report"))
    version = _as_str(_take(root, "spec_version", "report"), "report.spec_version")
    if version != SPEC_VERSION:
        raise SchemaError(f"report.spec_version: unsupported version {version!r}")
    report = _field_codec(StrideReport)[0](root, "report")
    seen: set[MetricId] = set()
    for index, sub in enumerate(report.sub_scores):
        if sub.metric_id in seen:
            raise SchemaError(f"report.sub_scores[{index}].metric_id: duplicate entry for {sub.metric_id.value}")
        seen.add(sub.metric_id)
    missing = [code for metric, code in METRIC_CODES if metric not in seen]
    if missing:
        raise SchemaError(f"report.sub_scores: missing entries for {', '.join(missing)}")
    if not 0 < report.trust < 1:
        raise SchemaError(f"report.trust: must lie strictly between 0 and 1, got {report.trust!r}")
    return report


# ---------------------------------------------------------------------------
# Population records
# ---------------------------------------------------------------------------


def _coerce_csv_cell(text: str) -> object:
    """A CSV cell as the JSON value it stands for; ``|`` joins the labels of a list."""
    cell = text.strip()
    if "|" in cell:
        return [part for part in (piece.strip() for piece in cell.split("|")) if part]
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


def _non_finite_cell(path: str, key: str) -> SchemaError:
    return SchemaError(f"{path}.{key}: criterion {key!r}: numeric values must be finite")


_ABSENT = object()


def _population_from_json(text: str) -> list[PopulationRecord]:
    """Records from a JSON array of flat objects, read in one pass."""
    return _population_records(_as_list(_load_json(text), "population"))


def _population_records(entries: Iterable[object]) -> list[PopulationRecord]:
    """Records from decoded rows, JSON objects or CSV rows alike.

    Each row becomes its record's ``criteria`` once its ``record_id`` is
    popped and its lists are turned into tuples in place.  Values are
    dispatched on their exact type, since ``json.loads`` makes only exact
    dicts, lists, strings, ints, floats, bools and ``None``, and a field's
    path is spelled out only when it is refused.
    """
    from .sampling import PopulationRecord

    records = []
    for index, criteria in enumerate(entries):
        if type(criteria) is not dict:
            raise SchemaError(f"population[{index}]: expected an object, got {type(criteria).__name__}")
        record_id = criteria.pop("record_id", _ABSENT)
        if record_id is _ABSENT:
            raise SchemaError(f"population[{index}].record_id: missing required field")
        if type(record_id) is not str:
            raise SchemaError(f"population[{index}].record_id: expected a string, got {type(record_id).__name__}")
        if not record_id.strip():  # as in CSV, where an id is stripped; a JSON id is kept as written
            raise SchemaError(f"population[{index}].record_id: missing value")
        for key, value in criteria.items():
            kind = type(value)
            if kind is str or kind is bool:
                continue
            if kind is int or kind is float:
                if not _is_finite(value):
                    raise _non_finite_cell(f"population[{index}]", key)
            elif kind is list:
                for position, item in enumerate(value):
                    if type(item) is not str:
                        raise SchemaError(
                            f"population[{index}].{key}[{position}]: expected a string, got {type(item).__name__}"
                        )
                criteria[key] = tuple(value)  # assigning to a present key during iteration is allowed
            else:
                raise SchemaError(f"population[{index}].{key}: unsupported value type {kind.__name__}")
        records.append(PopulationRecord(record_id, criteria))
    if not records:
        raise SchemaError("population: no records")
    return records


def _population_from_csv(text: str) -> list[PopulationRecord]:
    import csv

    reader = csv.DictReader(_stdio.StringIO(text))
    columns = reader.fieldnames
    if columns is None or "record_id" not in columns:
        raise SchemaError("population: CSV must have a record_id column")
    repeated = [column for index, column in enumerate(columns) if column in columns[:index]]
    if repeated:  # DictReader would keep only the last of them
        raise SchemaError(f"population: CSV header repeats column {repeated[0]!r}")

    def rows() -> Iterator[dict]:
        for index, row in enumerate(reader):
            record_id = (row.pop("record_id") or "").strip()  # an id is stripped, never coerced
            surplus = row.pop(None, None)  # DictReader files surplus cells under None
            if surplus is not None and record_id:  # a blank id is reported first
                raise SchemaError(f"population[{index}]: {len(surplus)} more cell(s) than header columns")
            row = {key: _coerce_csv_cell(value or "") for key, value in row.items()}
            row["record_id"] = record_id
            yield row

    return _population_records(rows())


def parse_population(text: str, source_name: str = "") -> list[PopulationRecord]:
    """Load population records from JSON (a list of flat objects) or CSV.

    The format is chosen by the ``source_name`` extension, falling back
    to content sniffing.  In CSV, list-valued cells join their labels
    with ``|`` (a single label keeps a trailing ``|``).  Record ids must
    be unique.
    """
    name = source_name.lower()
    if name.endswith(".csv") or not name.endswith(".json") and text.lstrip()[:1] not in ("[", "{"):
        records = _population_from_csv(text)
    else:
        records = _population_from_json(text)
    # Sorted first, since a set of every id costs about 2 MB more peak memory at 20000 records.
    ids = sorted(record.record_id for record in records)
    if any(ids[i] == ids[i - 1] for i in range(1, len(ids))):
        seen: set[str] = set()
        for index, record in enumerate(records):
            if record.record_id in seen:
                raise SchemaError(f"population[{index}].record_id: duplicate id {record.record_id!r}")
            seen.add(record.record_id)
    return records


# ---------------------------------------------------------------------------
# Rating records and annotations
# ---------------------------------------------------------------------------


def _delta_decoder(tp: object) -> Callable:
    """The decoder of a :mod:`stride.delta` document, adding delta's own decoders on first use."""
    from .delta import DiscrepancyCategory, Interval

    if Interval not in _DECODERS:
        _DECODERS[Interval] = _as_interval
        _DECODERS[DiscrepancyCategory] = _enum_code(DiscrepancyCategory, "category")
    return _field_codec(tp)[0]


def parse_rating_record(text: str, label: str = "rating") -> RatingRecord:
    from .delta import RatingRecord

    return _delta_decoder(RatingRecord)(_load_json(text), label)


def _as_interval(value: object, path: str) -> Interval:
    from .delta import Interval, validate_interval

    if isinstance(value, (int, float)) and not isinstance(value, bool):
        point = _as_float(value, path)
        return Interval(point, point)
    entries = _as_list(value, path)
    if len(entries) != 2:
        raise SchemaError(f"{path}: expected [lower, upper]")
    interval = Interval(_as_float(entries[0], f"{path}[0]"), _as_float(entries[1], f"{path}[1]"))
    return validate_interval(interval, path)


def parse_annotations(text: str) -> dict[str, Annotation]:
    """Parse an issue-key-to-annotation map."""
    from .delta import Annotation

    return _delta_decoder(Mapping[str, Annotation])(_load_json(text), "annotations")
