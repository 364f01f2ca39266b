"""Canonical JSON rendering and content digests.

Every digest in the package is a SHA-256 over a canonical JSON form:
keys sorted, no insignificant whitespace, sets rendered as sorted lists.
Two structurally equal values always hash to the same string.
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


def canonical_json(value: object) -> str:
    """Render ``value`` as canonical JSON text; NaN and the infinities raise ``ValueError``."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False, default=_default
    )


def content_digest(value: object) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``value``."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()
