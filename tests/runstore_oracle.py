"""Frozen reference for the run store's save and load paths.

This is :mod:`stride.runstore`'s ``save_run``, ``_read_record``,
``resolve_run_id`` and ``load_run`` as they were before saving and
loading spliced the report's canonical text from its entries and opened
records directly.  It encodes through its own stdlib ``JSONEncoder``, as
``stride.digests`` did then.  It is kept unchanged so that the engine's
records, run ids, loaded runs and every error message can be checked
against it.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from datetime import date, datetime, timezone
from pathlib import Path

from stride.errors import SchemaError, StoreError
from stride.io import _finite_float, _refuse_constant, report_from_dict, report_to_dict
from stride.model import StrideReport
from stride.runstore import RunRecord


def _default(value: object) -> object:
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, date):
        return value.isoformat()
    raise TypeError(f"cannot canonicalise {type(value).__name__}")


_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False, default=_default
)


def canonical_json(value: object) -> str:
    return _ENCODER.encode(value)


def content_digest(value: object) -> str:
    return _text_digest(canonical_json(value))


def _text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _report_text(report_dict: dict) -> str:
    try:
        return canonical_json(report_dict)
    except ValueError as exc:  # canonical JSON refuses NaN and the infinities
        raise StoreError(f"report has no run id: {exc}") from None


def _record_path(store: Path, run_id: str) -> Path:
    return store / f"{run_id}.json"


def save_run(report: StrideReport, store_path: Path | str) -> str:
    """Persist ``report``; returns its run id.

    Saving the same report twice keeps the single existing record.  A
    colliding record whose content does not match the id raises
    :class:`StoreError` instead of being overwritten, and so does any
    filesystem error while creating the store or writing the record.
    """
    store = Path(store_path)
    report_dict = report_to_dict(report)
    report_text = _report_text(report_dict)
    run_id = _text_digest(report_text)
    target = _record_path(store, run_id)
    try:
        store.mkdir(parents=True, exist_ok=True)
        exists = target.exists()
    except OSError as exc:
        raise StoreError(f"cannot open run store {store}: {exc}") from None
    if exists:
        existing = _read_record(target)
        if content_digest(existing.get("report")) != run_id:
            raise StoreError(f"run {run_id}: stored content does not match its id")
        return run_id

    # canonical_json(record) spelled out around the report text.  The digests
    # and the timestamp are hex and ISO text, which JSON-encode as themselves
    # in quotes; the manifest digest is the report's own, so it is encoded.
    record_text = (
        f'{{"config_digest":"{content_digest(report_dict["config"])}",'
        f'"manifest_digest":{canonical_json(report.manifest_digest)},'
        f'"report":{report_text},"run_id":"{run_id}",'
        f'"timestamp":"{datetime.now(timezone.utc).isoformat()}"}}\n'
    )
    data = record_text.encode("utf-8")
    # Write-rename keeps readers from ever seeing a partial record.
    try:
        fd, temp_name = tempfile.mkstemp(dir=store, prefix=f".{run_id[:12]}-", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(temp_name, target)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
    except OSError as exc:
        raise StoreError(f"cannot write run record {target.name}: {exc}") from None
    return run_id


def _read_record(path: Path) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle, parse_constant=_refuse_constant, parse_float=_finite_float)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError covers JSON, UTF-8 and non-finite numbers
        raise StoreError(f"cannot read run record {path.name}: {exc}") from None
    if not isinstance(raw, dict):
        raise StoreError(f"cannot read run record {path.name}: not a JSON object")
    return raw


def resolve_run_id(run_id: str, store_path: Path | str) -> str:
    """Expand a unique run-id prefix to the full id."""
    store = Path(store_path)
    if not run_id or any(c not in "0123456789abcdef" for c in run_id):
        raise StoreError(f"run id must be a hex string, got {run_id!r}")
    if _record_path(store, run_id).exists():
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
    full_id = resolve_run_id(run_id, store)
    raw = _read_record(_record_path(store, full_id))
    for key in ("run_id", "timestamp", "manifest_digest", "config_digest", "report"):
        if key not in raw:
            raise StoreError(f"run {full_id}: record missing field {key!r}")
    for key in ("timestamp", "manifest_digest", "config_digest"):
        if not isinstance(raw[key], str):
            raise StoreError(f"run {full_id}: record field {key!r} must be a string, got {type(raw[key]).__name__}")
    if raw["run_id"] != full_id:
        raise StoreError(f"run {full_id}: record carries mismatched id {raw['run_id']!r}")
    if content_digest(raw["report"]) != full_id:
        raise StoreError(f"run {full_id}: stored report does not match its id")
    try:
        report = report_from_dict(raw["report"])
    except SchemaError as exc:
        raise StoreError(f"run {full_id}: stored report is malformed: {exc}") from None
    if raw["manifest_digest"] != report.manifest_digest:
        raise StoreError(f"run {full_id}: record manifest_digest does not match its report")
    if raw["config_digest"] != content_digest(raw["report"]["config"]):
        raise StoreError(f"run {full_id}: record config_digest does not match its report")
    return RunRecord(
        run_id=raw["run_id"],
        timestamp=raw["timestamp"],
        manifest_digest=raw["manifest_digest"],
        config_digest=raw["config_digest"],
        report=report,
    )
