"""Parsing and serialisation for every document the tool reads or writes.

All readers take document text and fail with :class:`SchemaError`
messages that name the offending field path (JSON syntax errors carry
line and column instead).  Numbers must be finite: ``NaN`` and
``Infinity`` literals, integer literals too long to convert, and values
beyond float range, are refused.
Writers emit indented JSON whose floats round-trip exactly, so
``parse(emit(x))`` reproduces ``x``.  One function states the report
document, keys in sorted order: :func:`report_to_dict` keeps its values,
and the report writer reads them in one pass as the slots of two layouts
that the stdlib's indented and canonical encoders rendered once, on first
use, from the same function; its bytes are those of the encoders.

One table codec reads manifests, weight configs, reports, rating records
and annotations.  A record class's table comes from its fields, so a field
is declared in one place only; an object keyed by an enum (``alpha``, a
weight group, ``component_scores``) has one entry per ``(member, code)``
pair.  Each table is built on first use, never at import, into one
decoder (:func:`_table_decoder`), and each manifest section into one
encoder (:func:`_encoder`).  A decoder takes a field's common value
inline and hands any other to the field type's checks, which convert it
or refuse it with the message that names its path; it refuses a missing
field and an unknown key alike.  The manifest's range rules are declared
on the same fields and checked by
:func:`stride.model.validate_manifest`.  What stays hand-written is what
a table of keys and types cannot say: the
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
from datetime import date
from itertools import chain
from operator import attrgetter, itemgetter
from typing import TYPE_CHECKING, Callable, get_args, get_origin

from ._records import MISSING, _compiled
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
    _HI,
    _LO,
    _prefix,
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
#
# A table entry: (document key, field name, type, decoder, nullable, may be
# absent, default, position in the class).  A record field ``X | None``
# is absent-or-null; one whose metadata marks it omittable may be left out
# and takes its default; its ``key`` metadata names it in documents; every
# other field is required.
#
# Each table is built on first use into one decoder, compiled from source
# with a line per field, and each record class's fields into one encoder,
# compiled from an expression per field; a map keyed by an enum and an
# array are loops in closures.  A decoder takes the common value of a
# field of a plain type inline: a string, a bool, or an int or float within
# float range, of exactly that type.  Any other value goes to the field's
# reader, which takes an enum code, decodes a section, or hands the value
# to the type's decoder, which converts it or raises the message that
# names its path.  A table decoder is called as ``decode(value, where,
# index=None)`` with the object's place (see :func:`stride.model._prefix`),
# so that a valid object builds no path for its fields; every other
# decoder is called as ``decode(value, path)``.


# Types taken inline, each with whether it must also lie within float range.
_PLAIN = {str: False, bool: False, int: True, float: True}


def _unknown(obj: dict, known: frozenset, path: str) -> None:
    extras = ", ".join(sorted(key for key in obj if key not in known))
    raise SchemaError(f"{path}: unknown field(s) {extras}")


def _reader(entry: tuple, root: str) -> Callable:
    """``read(item, where, index)`` for a field's value that the inline test did not take.

    ``item`` is ``_ABSENT`` when the key is missing.  An omittable field
    then takes its default, and a nullable field takes a null as None;
    any other value goes to the field's decoder.
    """
    key, _, _, decode, nullable, omittable, default, _ = entry

    def read(item: object, where: str, index: int | None) -> object:
        if item is _ABSENT:
            if omittable:
                return default
            raise SchemaError(f"{_prefix(where, index)[:-1] or root}.{key}: missing required field")
        if nullable and item is None:
            return None
        return item if decode is None else decode(item, _prefix(where, index) + key)

    return read


def _table_decoder(table: list, make: Callable, root: str = "") -> Callable:
    """The decoder of an object with one field per entry of ``table``, read in table order.

    A missing field and a refused value raise as they are met, and an
    unknown key once every field is read.  The result is ``make(where,
    index, fields)``, ``fields`` holding the values by field name in
    declaration order.  ``root`` names the object in messages when it is
    a document root, which is called with ``where`` empty.

    The decoder is compiled from source with one line per field, which
    tests the field's common value inline.  The source is kept short,
    since compiling it is most of the cost of a first use: ``g`` gets a
    key's value or ``A`` (absent), ``w`` and ``i`` are the place, ``L``
    and ``H`` the bounds of float range, ``r<n>`` the readers and ``m<n>``
    enum members by code.
    """
    namespace = {"A": _ABSENT, "L": _LO, "H": _HI, "_obj": _obj, "_prefix": _prefix, "_unknown": _unknown}
    namespace.update(known=frozenset(entry[0] for entry in table), make=make)
    path = f"_prefix(w, i)[:-1] or {root!r}"
    lines = [
        "def decode(value, w, i=None):",
        f"    if type(value) is not dict: value = _obj(value, {path})",
        "    g = value.get",
    ]
    for n, entry in enumerate(table):
        key, _, tp, decode = entry[:4]
        namespace[f"r{n}"] = _reader(entry, root)
        if tp in _PLAIN and decode in (_PRIMITIVES[tp], None):  # where its decoder would keep it, or any value is kept
            bounded = " and L <= x <= H" if _PLAIN[tp] else ""
            lines.append(f"    v{n} = x if type(x := g({key!r}, A)) is {tp.__name__}{bounded} else r{n}(x, w, i)")
        elif tp in _ENUMS and decode is not None:  # a code that names a member
            namespace[f"m{n}"] = _ENUMS[tp][0]
            lines.append(f"    v{n} = m{n}[x] if type(x := g({key!r}, A)) is str and x in m{n} else r{n}(x, w, i)")
        else:
            lines.append(f"    v{n} = r{n}(g({key!r}, A), w, i)")
    required = sum(not entry[5] for entry in table)
    lines.append(f"    if len(value) > {required} and not known.issuperset(value): _unknown(value, known, {path})")
    declared = sorted(range(len(table)), key=lambda n: table[n][7])
    lines.append(f"    return make(w, i, {{{', '.join(f'{table[n][1]!r}: v{n}' for n in declared)}}})")
    return _compiled("decode", lines, namespace)


def _instance(cls: type) -> Callable:
    """``make`` for ``cls``'s table: a new instance whose fields hold what ``__init__`` would set.

    A record class's ``__init__`` (:func:`stride._records.record`) sets
    each field through ``object.__setattr__``; filling the instance's
    ``__dict__`` leaves the same state in a third of the time, and a
    decoded class never compiles its ``__init__``.
    """
    new = object.__new__

    def make(where: str, index: int | None, fields: dict) -> object:
        obj = new(cls)
        obj.__dict__.update(fields)
        return obj

    return make


def _keyed_decoder(pairs: tuple, tp: object) -> Callable:
    """Decoder of an object with one required entry of type ``tp`` per ``(member, code)`` pair, keyed by member.

    A loop over the pairs, which takes a plain value inline as a table decoder does.
    """
    decode_item = _decoder(tp)
    plain, bounded = (tp, _PLAIN[tp]) if tp in _PLAIN else (None, False)
    known = frozenset(code for _, code in pairs)

    def decode(value: object, path: str) -> dict:
        if type(value) is not dict:
            value = _obj(value, path)
        get = value.get
        result = {}
        for member, code in pairs:
            item = get(code, _ABSENT)
            if type(item) is not plain or bounded and not _LO <= item <= _HI:
                if item is _ABSENT:
                    raise SchemaError(f"{path}.{code}: missing required field")
                item = decode_item(item, f"{path}.{code}")
            result[member] = item
        if len(value) > len(pairs):
            _unknown(value, known, path)
        return result

    return decode


def _sequence_decoder(container: type, tp: object) -> Callable:
    """Decoder of an array into a ``container`` of items of type ``tp``; an item's path is built only for a fault."""
    decode_item = _decoder(tp)
    plain, bounded = (tp, _PLAIN[tp]) if tp in _PLAIN else (None, False)
    table = hasattr(tp, "__record_fields__") and tp not in _PRIMITIVES  # an item read by its table

    def decode(value: object, path: str) -> object:
        if type(value) is not list:
            value = _as_list(value, path)
        if table:
            return container([decode_item(item, path, index) for index, item in enumerate(value)])
        return container(
            [
                item
                if type(item) is plain and (not bounded or _LO <= item <= _HI)
                else decode_item(item, f"{path}[{index}]")
                for index, item in enumerate(value)
            ]
        )

    return decode


def _map_decoder(tp: object) -> Callable:
    """Decoder of an object of any string keys, each holding an item of type ``tp``, in key order."""
    decode_item = _decoder(tp)

    def decode(value: object, path: str) -> dict:
        obj = _obj(value, path)
        return {key: decode_item(obj[key], f"{path}[{key!r}]") for key in sorted(obj)}

    return decode


def _enum_code(enum: type) -> Callable:
    members, noun = _ENUMS[enum]

    def decode(value: object, path: str) -> object:
        code = _as_str(value, path)
        if code not in members:
            raise SchemaError(f"{path}: unknown {noun} {code!r}")
        return members[code]

    return decode


def _fields(cls: type) -> list[tuple]:
    """(document key, field, type, nullable) for each of ``cls``'s fields, in table order.

    Arrays and maps come first, and are read first: of several missing
    fields, the first of them is reported.
    """
    entries = [(field.metadata.get("key", field.name), field, tp, nullable) for field, tp, nullable in _field_plan(cls)]
    arrays = [entry for entry in entries if get_origin(entry[2])]
    return arrays + [entry for entry in entries if not get_origin(entry[2])]


def _table(cls: type, **decoders: Callable | None) -> list:
    """``cls``'s table; ``decoders`` replace those of the fields they name, which are then required and may be null.

    A replaced decoder of ``None`` takes the value as it stands.
    """
    position = {field.name: n for n, (field, _, _) in enumerate(_field_plan(cls))}
    table = []
    for key, field, tp, nullable in _fields(cls):
        if field.name in decoders:
            entry = (key, field.name, tp, decoders[field.name], False, False, MISSING)
        else:
            omittable = nullable or field.metadata.get("omittable", False)
            entry = (key, field.name, tp, _decoder(tp), nullable, omittable, field.default)
        table.append((*entry, position[field.name]))
    return table


# Decoders of primitive types; enum codes by enum, as (members by code, noun);
# and the names of document roots, which messages give for their fields.
_PRIMITIVES: dict[object, Callable] = {str: _as_str, int: _as_int, float: _as_float, bool: _as_bool, date: _as_date}
_ENUMS: dict[type, tuple[dict, str]] = {MetricId: ({member.value: member for member in MetricId}, "metric code")}
_ROOTS = {DatasetManifest: "manifest"}
# Decoders by type and encoders by record class, built on first use.
_DECODERS: dict[object, Callable] = {}
_ENCODERS: dict[type, Callable] = {}
# Types decoded otherwise than through their fields, by a builder added where the type is.
_BUILDERS: dict[type, Callable] = {}


def _decoder(tp: object) -> Callable:
    """The decoder of one type, built on first use."""
    if tp in _PRIMITIVES:
        return _PRIMITIVES[tp]
    if tp in _DECODERS:
        return _DECODERS[tp]
    container, args = get_origin(tp), get_args(tp)
    if tp in _BUILDERS:
        decode = _BUILDERS[tp]()
    elif tp in _ENUMS:
        decode = _enum_code(tp)
    elif hasattr(tp, "__record_fields__"):
        decode = _table_decoder(_table(tp), _instance(tp), _ROOTS.get(tp, ""))
    elif container is Mapping and args[0] is not str:  # keyed by an enum: one entry per member
        decode = _keyed_decoder(tuple((member, member.value) for member in args[0]), args[1])
    elif container is Mapping:
        decode = _map_decoder(args[1])
    elif container in (frozenset, tuple):
        decode = _sequence_decoder(container, args[0])
    else:
        raise TypeError(f"no codec for {tp!r}")
    _DECODERS[tp] = decode
    return decode


def _encoder(cls: type) -> Callable:
    """The encoder of a record class, built on first use: an instance's document, its keys in table order.

    It is compiled from one expression per field; ``e<n>`` are the
    sections' encoders.
    """
    if cls in _ENCODERS:
        return _ENCODERS[cls]
    namespace: dict = {}
    entries = []
    for n, (key, field, tp, nullable) in enumerate(_fields(cls)):
        value = f"obj.{field.name}"
        item = get_args(tp)[0] if get_origin(tp) is tuple else None
        if hasattr(item, "__record_fields__"):
            namespace[f"e{n}"] = _encoder(item)
            value = f"[e{n}(x) for x in {value}]"
        elif hasattr(tp, "__record_fields__"):
            namespace[f"e{n}"] = _encoder(tp)
            value = f"e{n}({value})"
        elif get_origin(tp) in (frozenset, tuple):  # a set sorted, so that equal sets encode alike
            value = f"{'sorted' if get_origin(tp) is frozenset else 'list'}({value})"
        if nullable and value != f"obj.{field.name}":
            value = f"None if obj.{field.name} is None else {value}"
        entries.append(f"{key!r}: {value}")
    lines = ["def encode(obj):", f"    return {{{', '.join(entries)}}}"]
    encode = _ENCODERS[cls] = _compiled("encode", lines, namespace)
    return encode


def _indented_json(document: object) -> str:
    """The writers' form: indented, keys sorted, non-finite floats refused, ending in a newline."""
    return json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# Dataset manifests
# ---------------------------------------------------------------------------


def decode_manifest(text: str) -> DatasetManifest:
    """Structural decode only; invariants are left to :func:`validate_manifest`."""
    # Root fields are named without a prefix, but a missing one reads manifest.<name>.
    return _decoder(DatasetManifest)(_load_json(text), "")


def parse_manifest(text: str) -> DatasetManifest:
    """Decode manifest text and enforce its invariants."""
    manifest = decode_manifest(text)
    violations = validate_manifest(manifest)
    if violations:
        details = "; ".join(str(v) for v in violations)
        raise SchemaError(f"manifest invariant violation: {details}")
    return manifest


def manifest_to_dict(manifest: DatasetManifest) -> dict:
    return _encoder(DatasetManifest)(manifest)


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
    obj = value if type(value) is dict else _obj(value, path)
    applicability = dict.fromkeys(_METRIC_CODE, True)
    for code, flag in obj.items():
        metric = _METRICS_BY_CODE.get(code)
        if metric is None or type(flag) is not bool:
            break
        applicability[metric] = flag
    else:
        return applicability
    for code, flag in sorted(obj.items()):  # the fault that comes first in key order
        if code not in _METRICS_BY_CODE:
            raise SchemaError(f"{path}.{code}: unknown metric code")
        applicability[_METRICS_BY_CODE[code]] = _as_bool(flag, f"{path}.{code}")
    return applicability


def _weight_config(where: str, index: None, fields: dict) -> WeightConfig:
    """``make`` for a config document: the config it states, normalised."""
    weights = {metric: weight for group in _WEIGHT_GROUPS for metric, weight in fields[group].items()}
    applicability = fields["applicability"] or dict.fromkeys(_METRIC_CODE, True)
    config = WeightConfig(alpha=tuple(fields["alpha"].values()), weights=weights, applicability=applicability)
    try:
        return validate_weight_config(config)
    except SchemaError as exc:
        raise SchemaError(f"{_prefix(where, index)}{exc}") from None


def _weight_config_decoder() -> Callable:
    """A config document's decoder: alpha by component code, one object of weights per component,
    and the optional applicability map.

    Its fields' paths have no prefix at the root (``alpha.C``), but a
    missing one reads ``weights.<key>``.  Inside a report the config must
    be an object: ``equal`` is not expanded there, and its messages name
    the report: ``report.config.alpha.C: ...``.
    """
    table = [("alpha", "alpha", None, _keyed_decoder(COMPONENT_CODES, float), False, False, MISSING)]
    for group, members in _WEIGHT_GROUPS.items():
        table.append((group, group, None, _keyed_decoder(members, float), False, False, MISSING))
    table.append(("applicability", "applicability", None, _applicability, True, True, None))
    return _table_decoder([(*entry, n) for n, entry in enumerate(table)], _weight_config, "weights")


_BUILDERS[WeightConfig] = _weight_config_decoder


def weight_config_from_obj(obj: object, path: str = "") -> WeightConfig:
    """Decode and normalise an already-parsed weight configuration document.

    ``path`` locates a config inside another document (``report.config``);
    every message then starts with it.
    """
    if obj == "equal":
        return equal_weight_config()
    return _decoder(WeightConfig)(obj, path)


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


# The report writer's leaves, in _report_document's order: component scores,
# alphas, flags, weights, the manifest digest, the spec version, per sub-score
# its flag, inputs digest, metric id and value, and the trust.
_component_leaves = itemgetter(*(component for component, _ in _SORTED_COMPONENTS))
_alpha_leaves = itemgetter(*sorted(range(len(_COMPONENT_KEYS)), key=_COMPONENT_KEYS.__getitem__))
_flag_leaves = itemgetter(*(metric for metric, _ in _SORTED_METRICS))
_weight_leaves = itemgetter(*(metric for _, members in _SORTED_GROUPS for metric, _ in members))
_sub_score_leaves = attrgetter("applicable", "inputs_digest", "metric_id", "value")
_FLAGS = slice(2 * len(COMPONENT_CODES), 2 * len(COMPONENT_CODES) + len(METRIC_CODES))
_WEIGHTS = slice(_FLAGS.stop, _FLAGS.stop + len(METRIC_CODES))
_APPLICABLE, _INPUTS_DIGESTS, _METRIC_IDS, _VALUES = (slice(_WEIGHTS.stop + n, -1, 4) for n in range(2, 6))
_LEAF_TYPES = [float] * _FLAGS.start + [bool] * len(METRIC_CODES) + [float] * len(METRIC_CODES) + [str, str]
_LEAF_TYPES += [bool, str, str, float] * len(METRIC_CODES) + [float]
_VALUE_TYPES = {float: float, type(None): float}  # a sub-score's value is a float or None
_FLAG_TEXT = {True: "true", False: "false"}
_UNESCAPED = bytes(code for code in range(0x20, 0x7F) if chr(code) not in '"\\')  # what JSON strings hold as is
_report_layouts: list[str | None] = [None, None]  # each rendered on first use by _written


def _report_leaves(report: StrideReport) -> list | None:
    """The report's leaves as the writer's slots take them, or None for a report that it does not take.

    It takes the shape scoring makes, 13 sub-scores and four alphas, with
    leaves of exactly scoring's types: floats with a finite sum, bools,
    None for a value, and printable ASCII strings with no quote or
    backslash.  A float's slot holds the float, which ``%s`` writes with
    ``float.__repr__`` as the encoders do; a report that faults when read
    is declined, so that the stdlib path raises its own error.
    """
    try:
        config = report.config_snapshot
        sub_scores = report.sub_scores
        if len(sub_scores) != len(METRIC_CODES) or len(config.alpha) != len(COMPONENT_CODES):
            return None
        leaves = [
            *_component_leaves(report.component_scores),
            *_alpha_leaves(config.alpha),
            *_flag_leaves(config.applicability),
            *_weight_leaves(config.weights),
            report.manifest_digest,
            SPEC_VERSION,
            *chain.from_iterable(map(_sub_score_leaves, sub_scores)),
            report.trust,
        ]
        leaves[_METRIC_IDS] = map(_METRIC_CODE.__getitem__, leaves[_METRIC_IDS])
    except (AttributeError, LookupError, TypeError, ValueError):  # the stdlib path raises what this met
        return None
    types = [*map(type, leaves)]
    types[_VALUES] = map(_VALUE_TYPES.get, types[_VALUES])
    if types != _LEAF_TYPES:
        return None
    total = sum(leaves[: _FLAGS.start]) + sum(leaves[_WEIGHTS]) + sum(filter(None, leaves[_VALUES])) + leaves[-1]
    strings = leaves[_WEIGHTS.stop] + "".join(leaves[_INPUTS_DIGESTS])  # and the manifest digest
    if total - total != 0 or not strings.isascii() or strings.encode().translate(None, _UNESCAPED):
        return None  # NaN, an infinity or a sum past float range; a string that JSON escapes
    leaves[_FLAGS] = map(_FLAG_TEXT.__getitem__, leaves[_FLAGS])
    leaves[_APPLICABLE] = map(_FLAG_TEXT.__getitem__, leaves[_APPLICABLE])
    leaves[_VALUES] = ["null" if value is None else value for value in leaves[_VALUES]]
    return leaves


def _written(report: StrideReport, form: int) -> str | None:
    """The report in the writer's indented (``form`` 0) or canonical (1) layout; None if it is not taken.

    Each layout is rendered on its first use with a placeholder at every
    leaf; a string's ``%s`` slot lies between its quotes.
    """
    leaves = _report_leaves(report)
    if leaves is None:
        return None
    layout = _report_layouts[form]
    if layout is None:
        from .digests import canonical_json

        document = _report_document(report, lambda value: "\x00" if type(value) is str else "\x01")
        text = canonical_json(document) if form else _indented_json(document)
        layout = _report_layouts[form] = text.replace("\\u0000", "%s").replace('"\\u0001"', "%s")
    return layout % tuple(leaves)


def report_to_json(report: StrideReport) -> str:
    """Indented report JSON, byte-identical to ``json.dumps(..., indent=2, sort_keys=True)``.

    A report that the writer does not take goes through that encoder, with its bytes and its errors.
    """
    text = _written(report, 0)
    return _indented_json(report_to_dict(report)) if text is None else text


def _canonical_report(report: StrideReport) -> tuple[str, str, str] | None:
    """``canonical_json`` of the report document and of its config and manifest digest entries, or None.

    An entry's text runs from its key to the next, since no string leaf holds a quote.
    """
    text = _written(report, 1)
    if text is None:
        return None
    config, digest, version = (text.index(key) for key in (',"config":', ',"manifest_digest":', ',"spec_version":'))
    return text, text[config + 10 : digest], text[digest + 19 : version]


def _sub_score_decoder() -> Callable:
    """A sub-score entry's decoder: its ``value`` is a number when applicable and null otherwise."""
    new = object.__new__

    def make(where: str, index: int | None, fields: dict) -> SubScore:
        value = fields["value"]
        if fields["applicable"]:
            if not (type(value) is float and _LO <= value <= _HI):
                fields["value"] = _as_float(value, _prefix(where, index) + "value")
        elif value is not None:
            raise SchemaError(f"{_prefix(where, index)}value: must be null when not applicable")
        sub = new(SubScore)  # as _instance makes it
        sub.__dict__.update(fields)
        return sub

    # ``value`` is taken as it stands (a finite float inline), and checked once every field is read.
    return _table_decoder(_table(SubScore, value=None), make)


_BUILDERS[SubScore] = _sub_score_decoder


def report_from_dict(document: dict) -> StrideReport:
    root = dict(_obj(document, "report"))
    version = _as_str(_take(root, "spec_version", "report"), "report.spec_version")
    if version != SPEC_VERSION:
        raise SchemaError(f"report.spec_version: unsupported version {version!r}")
    report = _decoder(StrideReport)(root, "report")
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

    if Interval not in _PRIMITIVES:
        _PRIMITIVES[Interval] = _as_interval
        _ENUMS[DiscrepancyCategory] = ({member.value: member for member in DiscrepancyCategory}, "category")
    return _decoder(tp)


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
