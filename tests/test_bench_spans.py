"""Every function the benchmark's tracer wraps still exists.

``bench/tracing.py`` lists the traced functions as ``module.function``
strings in ``SPAN_FUNCTIONS``.  A renamed or removed function would only
show when a traced benchmark run fails, so this reads the list from the
file, without importing the benchmark, and resolves each name here.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _span_functions() -> tuple[str, ...]:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "SPAN_FUNCTIONS" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no SPAN_FUNCTIONS assignment in {TRACING}")


SPAN_FUNCTIONS = _span_functions()


def test_the_list_is_read():
    assert len(SPAN_FUNCTIONS) >= 20
    assert "stride.sampling.saturation_curve" in SPAN_FUNCTIONS


@pytest.mark.parametrize("qualified", SPAN_FUNCTIONS)
def test_each_traced_name_is_a_callable(qualified):
    module_name, attribute = qualified.rsplit(".", 1)
    assert module_name.startswith("stride.")
    function = getattr(importlib.import_module(module_name), attribute, None)
    assert callable(function), f"{qualified} does not resolve to a callable"
