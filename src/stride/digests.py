"""Canonical JSON rendering and content digests.

Every digest in the package is a SHA-256 over a canonical JSON form:
keys sorted, no insignificant whitespace, sets rendered as sorted lists.
Two structurally equal values always hash to the same string.

One shared encoder, built at import, renders every canonical form; it
holds no per-call state.  Callers that already hold a value's canonical
text (the scorer's section texts, the run store's report text) hash that
text with a private helper rather than encoding the value again.
"""

from __future__ import annotations

import hashlib
import json
from datetime import date


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
    """Render ``value`` as canonical JSON text; NaN and the infinities raise ``ValueError``."""
    return _ENCODER.encode(value)


def content_digest(value: object) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``value``."""
    return _text_digest(canonical_json(value))


def _text_digest(text: str) -> str:
    """SHA-256 hex digest of canonical JSON text that is already encoded."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
