"""Error types shared across the package.

Two failure families matter to callers: malformed or contract-violating
input documents, and computations that cannot proceed on otherwise
well-formed data.  The CLI maps them to distinct exit codes.

:func:`_is_finite` is the package's one rule for "is this number finite
and within float range?": every check on a number that may be an int
calls it, since ``math.isfinite`` raises ``OverflowError`` for an int
too large for a float.  :func:`_shown` writes a value into a message,
since ``repr`` raises ``ValueError`` for an int too long to write out.
This module imports no other ``stride`` module, so every one of them can
import them.
"""

from __future__ import annotations

import math
import sys


class StrideError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(StrideError):
    """Input document is malformed or violates a declared invariant."""


class ComputationError(StrideError):
    """A score or sampling operation cannot be evaluated on the given data."""


class StoreError(StrideError):
    """Run store lookup or integrity failure."""


def _is_finite(number: float) -> bool:
    try:
        return math.isfinite(number)
    except OverflowError:  # an integer too large for a float
        return False


def _shown(value: object) -> str:
    """``repr(value)``, or a stand-in for an int with more digits than the interpreter writes out."""
    try:
        return repr(value)
    except ValueError:
        return f"<an integer of more than {sys.get_int_max_str_digits()} digits>"
