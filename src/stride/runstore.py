"""Content-addressed persistence for score reports.

A run's identity is the SHA-256 of its report's canonical JSON, so
identical inputs always map to the same run id and saving is naturally
idempotent.  Records are single JSON files written atomically
(temp file + rename); a record whose stored report no longer matches
its id is reported as corrupt rather than silently served.

A record is canonical JSON (sorted keys, no insignificant whitespace,
UTF-8) followed by a newline.  The report writer of :mod:`stride.io`
renders the report's canonical text once, hashed for the run id, and
its ``config`` entry's text for the config digest; the record is a fixed
template around it, so its bytes are those of ``canonical_json(record)``.

The store is touched with the calls it needs.  Saving opens the target
record directly: a missing one is written to a new temp file (created
exclusively, the store directory made only when that creation finds it
missing) and renamed into place.  An existing record that is exactly
the one this save would write, up to its timestamp, is kept unparsed;
any other only if :func:`load_run` would serve it, by the same check.
Loading a full 64-digit id opens its record directly, and a prefix or a
missing record goes through :func:`resolve_run_id`.  A record in saved
form for the report that it decodes to is served with no other parse.
Any other, such as one in the older indented form, is parsed refusing
non-finite numbers and re-encoded entry by entry; its run id, digests
and decoded report's own id must agree.  Either way, the component
scores and the trust, recomputed from the stored sub-scores and config
with the fold that scoring uses, must match bit for bit, as must the
config's weights the normalised ones that they load as.

Filesystem errors while saving raise :class:`StoreError`, and so does a
report holding NaN or an infinity, before anything is written.  A record
that cannot be read or decoded, including one holding NaN, an infinity
or a number beyond float range, is a store fault too: loading it raises
:class:`StoreError`, and so does a record whose envelope fields are not
strings, whose manifest or config digest contradicts its report, whose
report loads as a report of another id, whose config weights are not
normalised, or whose component scores or trust contradict its sub-scores.
"""

from __future__ import annotations

import errno
import itertools
import json
import math
import os
from datetime import datetime, timezone
from pathlib import Path
from typing import BinaryIO

from ._records import record
from .digests import _splice, _text_digest, canonical_json, content_digest
from .errors import ComputationError, SchemaError, StoreError, StrideError
from .io import (
    _WEIGHT_GROUPS,
    _canonical_report,
    _finite_float,
    _literal_error,
    _NonFiniteLiteral,
    _refuse_constant,
    report_from_dict,
    report_to_dict,
)
from .model import StrideReport
from .scoring import _components_and_trust

DEFAULT_STORE_ENV = "STRIDE_STORE"
DEFAULT_STORE_PATH = ".stride-runs"


@record
class RunRecord:
    """One persisted scoring run."""

    run_id: str
    timestamp: str
    manifest_digest: str
    config_digest: str
    report: StrideReport


def store_path_from_env(environ: dict | None = None) -> Path:
    """Resolve the store directory, honouring the STRIDE_STORE variable."""
    env = os.environ if environ is None else environ
    return Path(env.get(DEFAULT_STORE_ENV) or DEFAULT_STORE_PATH)


def run_id_for(report: StrideReport) -> str:
    """Content hash identifying a report; stable across identical inputs.

    A report holding NaN or an infinity has no canonical JSON, so it has
    no id: that raises :class:`StoreError`.
    """
    return _saved_form(report)[0]


def _saved_form(report: StrideReport) -> tuple[str, str, str]:
    """The report's run id and config digest, and the record :func:`save_run` writes for it up to the timestamp.

    That is ``canonical_json(record)`` spelled out around the report text,
    whose digests and timestamp are hex and ISO text.  A report that the
    writer does not take has each entry encoded on its own and spliced.
    """
    texts = _canonical_report(report)
    if texts is None:
        report_dict = report_to_dict(report)
        try:  # in key order, so that the first non-finite value is the one canonical_json(report_dict) meets
            entries = {key: canonical_json(report_dict[key]) for key in sorted(report_dict)}
        except ValueError as exc:  # canonical JSON refuses NaN and the infinities
            raise StoreError(f"report has no run id: {exc}") from None
        texts = _splice(entries), entries["config"], entries["manifest_digest"]
    report_text, config_text, digest_text = texts
    run_id, config_digest = _text_digest(report_text), _text_digest(config_text)
    head = (
        f'{{"config_digest":"{config_digest}","manifest_digest":{digest_text},'
        f'"report":{report_text},"run_id":"{run_id}","timestamp":"'
    )
    return run_id, config_digest, head


def _record_path(directory: str, run_id: str) -> str:
    """``str(Path(directory) / f"{run_id}.json")`` for a store's ``str``, without building the path."""
    return f"{run_id}.json" if directory == "." else os.path.join(directory, f"{run_id}.json")


# Failures of an open that Path.exists() reads as "no such file".
_ABSENT = (errno.ENOENT, errno.ENOTDIR, errno.ELOOP)


def _open_record(path: str, absent_ok: bool = False) -> BinaryIO | None:
    """Open a record for reading; None when ``absent_ok`` and there is no file to open."""
    try:
        return open(path, "rb", buffering=0)
    except OSError as exc:
        if absent_ok and exc.errno in _ABSENT:
            return None
        raise StoreError(f"cannot read run record {os.path.basename(path)}: {exc}") from None


def _is_saved_form(text: str, head: str) -> bool:
    """Whether a record's ``text`` is the one that ``head`` starts, up to its timestamp.

    The timestamp must hold no quote, backslash or control character and
    end the record, so that the record parses and nothing, such as a
    second ``"report"`` key, can follow it.
    """
    if not text.startswith(head) or not text.endswith('"}\n'):
        return False
    timestamp = text[len(head) : -3]
    return '"' not in timestamp and "\\" not in timestamp and timestamp.isprintable()


# Temp file names: .{id prefix}-{pid}-{n}.tmp, n counting up within a process.
_TEMP_NUMBERS = itertools.count()


def _create_temp(directory: str, run_id: str) -> tuple[int, str]:
    """Create a new, empty temp file in ``directory``; returns its descriptor and path."""
    while True:
        temp = os.path.join(directory, f".{run_id[:12]}-{os.getpid()}-{next(_TEMP_NUMBERS)}.tmp")
        try:
            return os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o600), temp
        except FileExistsError:
            continue


def save_run(report: StrideReport, store_path: Path | str) -> str:
    """Persist ``report``; returns its run id.

    Saving the same report twice keeps the single existing record.  A
    colliding record that :func:`load_run` would refuse raises
    :class:`StoreError` instead of being overwritten, and so does any
    filesystem error while creating the store or writing the record.
    """
    store = Path(store_path)
    run_id, _, head = _saved_form(report)
    directory = str(store)
    target = _record_path(directory, run_id)

    existing = _open_record(target, absent_ok=True)
    if existing is not None:
        text = _read_record(existing)
        if not _is_saved_form(text, head):
            raw = _parsed_record(text, f"{run_id}.json")
            if content_digest(raw.get("report")) != run_id:
                raise StoreError(f"run {run_id}: stored content does not match its id")
            try:  # a record is kept only if load_run would serve it
                _verified_record(raw, run_id)
            except StoreError as exc:
                reason = str(exc).removeprefix(f"run {run_id}: ")
                raise StoreError(f"run {run_id}: stored content does not match its id: {reason}") from None
        return run_id

    data = f'{head}{datetime.now(timezone.utc).isoformat()}"}}\n'.encode("utf-8")
    # Write-rename keeps readers from ever seeing a partial record.
    try:
        try:
            fd, temp = _create_temp(directory, run_id)
        except OSError:
            # Make the store only now that it is needed: a fault of its own is
            # reported as the store's, and a store that is there is tried again.
            try:
                store.mkdir(parents=True, exist_ok=True)
            except OSError as exc:
                raise StoreError(f"cannot open run store {store}: {exc}") from None
            fd, temp = _create_temp(directory, run_id)
        try:
            try:
                written = os.write(fd, data)
                while written < len(data):
                    written += os.write(fd, data[written:])
            finally:
                os.close(fd)
            os.replace(temp, target)
        except BaseException:
            try:
                os.unlink(temp)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise StoreError(f"cannot write run record {run_id}.json: {exc}") from None
    return run_id


def _read_record(handle: BinaryIO) -> str:
    """A record's text, from its open file, which this closes."""
    try:
        with handle:
            text = handle.readall().decode("utf-8")
    except (OSError, ValueError) as exc:  # ValueError covers UTF-8
        raise StoreError(f"cannot read run record {os.path.basename(handle.name)}: {exc}") from None
    # Newlines translated as reading in text mode does.
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _parsed_record(text: str, name: str) -> dict:
    """A record parsed from its ``text``, refusing numbers that are not finite floats."""
    try:
        raw = json.loads(text, parse_constant=_refuse_constant, parse_float=_finite_float)
    except (json.JSONDecodeError, _NonFiniteLiteral, RecursionError) as exc:
        raise StoreError(f"cannot read run record {name}: {exc}") from None
    except ValueError as exc:  # an integer too long for int(), which the parser does not place
        raise StoreError(f"cannot read run record {name}: {_literal_error(exc, text)}") from None
    if not isinstance(raw, dict):
        raise StoreError(f"cannot read run record {name}: not a JSON object")
    return raw


def resolve_run_id(run_id: str, store_path: Path | str) -> str:
    """Expand a unique run-id prefix to the full id."""
    store = Path(store_path)
    if not run_id or any(c not in "0123456789abcdef" for c in run_id):
        raise StoreError(f"run id must be a hex string, got {run_id!r}")
    if (store / f"{run_id}.json").exists():
        return run_id
    if not store.is_dir():
        raise StoreError(f"run store {store} does not exist")
    matches = sorted(
        entry.stem for entry in store.glob(f"{run_id}*.json") if not entry.name.startswith(".")
    )
    if not matches:
        raise StoreError(f"no run matches {run_id!r}")
    if len(matches) > 1:
        raise StoreError(f"run id prefix {run_id!r} is ambiguous: {', '.join(matches[:4])}...")
    return matches[0]


def load_run(run_id: str, store_path: Path | str) -> RunRecord:
    """Load a stored run, verifying its content against its id.

    The envelope is checked too: the timestamp and both digests must be
    strings, the manifest digest must be the verified report's own, and
    the config digest must be the content digest of the report's config,
    as :func:`save_run` computes it.
    """
    store = Path(store_path)
    handle = None
    if isinstance(run_id, str) and len(run_id) == 64 and not run_id.strip("0123456789abcdef"):
        handle = _open_record(_record_path(str(store), run_id), absent_ok=True)
    full_id = run_id
    if handle is None:
        full_id = resolve_run_id(run_id, store)
        handle = _open_record(_record_path(str(store), full_id))
    text = _read_record(handle)
    return _saved_record(text, full_id) or _verified_record(_parsed_record(text, f"{full_id}.json"), full_id)


def _saved_record(text: str, full_id: str) -> RunRecord | None:
    """The run in ``text`` if it is, byte for byte, what :func:`save_run` writes for its decoded report; else None.

    :func:`_verified_record` would serve the same run, since canonical
    text parses back to itself; it takes every other record.
    """
    try:
        raw = json.loads(text)
        report = report_from_dict(raw["report"])
        run_id, config_digest, head = _saved_form(report)
    except (ValueError, TypeError, KeyError, RecursionError, StrideError):
        return None
    if run_id != full_id or not _is_saved_form(text, head):
        return None
    return _served(raw, report, full_id, config_digest)


def _check_arithmetic(report: StrideReport, full_id: str) -> None:
    """Refuse a report whose component scores or trust are not, bit for bit, those its sub-scores give.

    They are recomputed from the stored sub-scores and config by the fold
    :func:`~stride.scoring.score_dataset` uses.  The run id is a content
    hash, not a signature, so a record edited and renamed to its new hash
    is caught here or not at all.
    """
    try:
        components, trust = _components_and_trust(report.sub_scores, report.config_snapshot)
    except ComputationError as exc:
        raise StoreError(f"run {full_id}: stored report cannot be recomputed: {exc}") from None
    for component, value in components.items():
        if not _same_bits(report.component_scores[component], value):
            raise StoreError(
                f"run {full_id}: stored component_scores.{component.value} does not match its sub-scores"
            )
    if not _same_bits(report.trust, trust):
        raise StoreError(f"run {full_id}: stored trust does not match its component scores")


def _check_config(stored: dict, report: StrideReport, full_id: str) -> None:
    """Refuse a report whose stored config weights are not, bit for bit, those it loads with.

    Loading renormalises the config's weights, as for a config document;
    :func:`save_run` writes a config that scoring has normalised already,
    so its weights come back unchanged.  A record edited to other weights
    and renamed to its new hash would otherwise be served with weights
    that hash to another id.  Alpha and the flags load as they are stored.
    """
    weights = report.config_snapshot.weights
    for group, members in _WEIGHT_GROUPS.items():
        entries = stored["config"][group]
        for metric, code in members:
            if not _same_bits(entries[code], weights[metric]):
                raise StoreError(f"run {full_id}: stored config.{group}.{code} is not a normalised weight")


def _same_bits(stored: float, computed: float) -> bool:
    """Equality that also tells 0.0 from -0.0; neither side is NaN."""
    return stored == computed and (stored != 0 or math.copysign(1.0, stored) == math.copysign(1.0, computed))


def _verified_record(raw: dict, full_id: str) -> RunRecord:
    """The run that a parsed record holds, once its report and envelope are checked against ``full_id``."""
    for key in ("run_id", "timestamp", "manifest_digest", "config_digest", "report"):
        if key not in raw:
            raise StoreError(f"run {full_id}: record missing field {key!r}")
    for key in ("timestamp", "manifest_digest", "config_digest"):
        if not isinstance(raw[key], str):
            raise StoreError(f"run {full_id}: record field {key!r} must be a string, got {type(raw[key]).__name__}")
    if raw["run_id"] != full_id:
        raise StoreError(f"run {full_id}: record carries mismatched id {raw['run_id']!r}")
    stored = raw["report"]
    # The report's canonical text, each entry encoded once; the config entry's
    # text is the one the config digest was taken from.
    texts = {key: canonical_json(value) for key, value in stored.items()} if isinstance(stored, dict) else None
    if _text_digest(canonical_json(stored) if texts is None else _splice(texts)) != full_id:
        raise StoreError(f"run {full_id}: stored report does not match its id")
    try:
        report = report_from_dict(stored)
    except SchemaError as exc:
        raise StoreError(f"run {full_id}: stored report is malformed: {exc}") from None
    record = _served(raw, report, full_id, _text_digest(texts["config"]))
    if run_id_for(report) != full_id:
        raise StoreError(f"run {full_id}: stored report loads as a report of another id")
    return record


def _served(raw: dict, report: StrideReport, full_id: str, config_digest: str) -> RunRecord:
    """The run of a record whose report decodes as ``report``, once its digests and scores are checked."""
    if raw["manifest_digest"] != report.manifest_digest:
        raise StoreError(f"run {full_id}: record manifest_digest does not match its report")
    if raw["config_digest"] != config_digest:
        raise StoreError(f"run {full_id}: record config_digest does not match its report")
    _check_arithmetic(report, full_id)
    _check_config(raw["report"], report, full_id)
    return RunRecord(raw["run_id"], raw["timestamp"], raw["manifest_digest"], raw["config_digest"], report)
