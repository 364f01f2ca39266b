"""Differential: each section metric refuses exactly what ``validate_manifest`` refuses on the fields it reads.

Each case is the valid manifest of ``test_numeric_fuzz`` with one number
field of one section set to one of that fuzzer's hostile numbers or to a
value at the edge of a declared rule: 0, 1 and the layer count 5, the
floats either side of each, bools, and each number the section holds and
its neighbours, which are the edges of its at_most pairs.  The metric
must raise ``ComputationError`` exactly when ``validate_manifest`` of the
mutated manifest reports a violation on a field the metric reads, or the
value is not finite; its message is then ``<path> <message>`` of the
first such violation, or names the field that is not finite.  Otherwise
the metric returns a finite number.
"""

from __future__ import annotations

import math
from dataclasses import fields, replace
from itertools import product

import pytest

from stride.errors import ComputationError
from stride.model import validate_manifest
from stride.scoring import (
    agility,
    auditability_traceability,
    domain_expert,
    exemplary_reference,
    ground_truth,
    human_governed,
    inclusiveness_materiality,
    role_separation,
    security_safety,
    statistical_methodology,
    time_relevance,
    transparency,
)
from test_numeric_fuzz import HOSTILE, MANIFEST, _finite, _number_fields

EDGES = tuple(
    value
    for edge in (0, 1, 5)
    for value in (edge, float(edge), math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf))
) + (True, False, 2, 0.5)


def _methodology(inputs):
    return statistical_methodology(inputs.sample_size, inputs.saturation_threshold, inputs.share_deviation)


# Each metric's manifest section, the fields it reads (None for all of them)
# and the call.  The evidence metric is given the manifest's evidence with
# its last item mutated; statistical_methodology names its arguments bare.
METRICS = {
    "inclusiveness_materiality": ("coverage", None, inclusiveness_materiality),
    "auditability_traceability": ("evidence", None, auditability_traceability),
    "exemplary_reference": ("recognition", None, exemplary_reference),
    "time_relevance": ("temporal", None, time_relevance),
    "statistical_methodology": ("sampling_inputs", None, _methodology),
    "ground_truth": ("annotation", None, ground_truth),
    "agility": ("agility", None, agility),
    "security_safety": ("safety", None, security_safety),
    "human_governed": ("governance", ("interventions", "governed_cases"), human_governed),
    "domain_expert": (
        "governance",
        ("experts_involved", "experts_total", "stages_with_experts", "stages_total"),
        domain_expert,
    ),
    "transparency": ("governance", ("assumptions_disclosed", "assumptions_required"), transparency),
    "role_separation": ("governance", ("role_relations_separated", "role_relations_total"), role_separation),
}


def _expected(metric: str, section: object, prefix: str, field: str, value: object) -> str | None:
    """The refusal ``metric`` owes on ``section``, or None when it owes a number."""
    name, reads, _ = METRICS[metric]
    reads = reads or [item.name for item in fields(section[-1] if name == "evidence" else section)]
    shown = "" if name == "sampling_inputs" else prefix  # the place the metric names a field by
    if field in reads and not _finite(value):
        words = "is beyond float range" if isinstance(value, int) else f"must be finite, got {value!r}"
        return f"{shown}{field} {words}"
    for violation in validate_manifest(replace(MANIFEST, **{name: section})):
        if violation.path.startswith(prefix) and violation.path[len(prefix):] in reads:
            return f"{shown}{violation.path[len(prefix):]} {violation.message}"
    return None


@pytest.mark.parametrize("metric", METRICS)
def test_a_metric_refuses_what_validate_refuses_on_the_fields_it_reads(metric):
    name, _, call = METRICS[metric]
    assert validate_manifest(MANIFEST) == []
    base = getattr(MANIFEST, name)
    item = base[-1] if name == "evidence" else base
    prefix = f"evidence[{len(base) - 1}]." if name == "evidence" else f"{name}."
    numbers = _number_fields(item)
    held = [getattr(item, field) for field in numbers]
    neighbours = tuple(v for n in held for v in (n, math.nextafter(n, -math.inf), math.nextafter(n, math.inf)))
    values = HOSTILE + EDGES + neighbours
    faults = []
    for field, value in product(numbers, values):
        mutated = replace(item, **{field: value})
        section = base[:-1] + (mutated,) if name == "evidence" else mutated
        expected = _expected(metric, section, prefix, field, value)
        try:
            result = call(section)
        except ComputationError as exc:
            if str(exc) != expected:
                faults.append(f"{field}={value!r}: refused as {str(exc)!r}, where {expected!r} was owed")
            continue
        if expected is not None or not (isinstance(result, (int, float)) and _finite(result)):
            faults.append(f"{field}={value!r}: returned {result!r}, where {expected!r} was owed")
    assert not faults, f"{len(faults)} faults, first: " + "; ".join(faults[:3])
