"""Canonical JSON rendering and content digests.

Every digest in the package is a SHA-256 over a canonical JSON form:
keys sorted, no insignificant whitespace, sets rendered as sorted lists.
Two structurally equal values always hash to the same string.

One C encoder, built once at import with the shared encoder's settings,
renders every canonical form; it holds no per-call state.  It keeps no
circular-reference markers, so a circular value (and a value nested past
the recursion limit) is handed to the stdlib encoder, which raises as it
always has.  Callers that already hold a value's canonical text (the
scorer's section texts, the run store's report text) hash that text with
a private helper rather than encoding the value again, and an object
whose entries are already encoded is spliced from their texts.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from datetime import date
from json.encoder import c_make_encoder, encode_basestring


def _default(value: object) -> object:
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, date):
        return value.isoformat()
    raise TypeError(f"cannot canonicalise {type(value).__name__}")


_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=False, allow_nan=False, default=_default
)

# What _ENCODER.encode builds on every call, built once: markers, default,
# string encoder, indent, key and item separators, sort_keys, skipkeys, allow_nan.
_C_ENCODE = (
    None
    if c_make_encoder is None
    else c_make_encoder(None, _default, encode_basestring, None, ":", ",", True, False, False)
)


def canonical_json(value: object) -> str:
    """Render ``value`` as canonical JSON text; NaN and the infinities raise ``ValueError``."""
    if _C_ENCODE is not None:
        try:
            return "".join(_C_ENCODE(value, 0))
        except RecursionError:  # circular or too deep: the stdlib encoder says which
            pass
    return _ENCODER.encode(value)


def content_digest(value: object) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``value``."""
    return _text_digest(canonical_json(value))


def _text_digest(text: str) -> str:
    """SHA-256 hex digest of canonical JSON text that is already encoded."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _splice(texts: Mapping[str, str]) -> str:
    """Canonical text of an object with string keys, from its entries' canonical texts."""
    return "{" + ",".join([encode_basestring(key) + ":" + texts[key] for key in sorted(texts)]) + "}"
