"""Bundled example documents: a worked case study, ready to score."""

from __future__ import annotations

from importlib import resources


def fixture_text(name: str) -> str:
    """Return the text of a bundled fixture file by name."""
    return (resources.files(__name__) / name).read_text(encoding="utf-8")

