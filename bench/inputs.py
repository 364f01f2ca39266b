"""Seeded input generators for the benchmark workloads.

Every function takes a ``random.Random`` or a seed and returns plain
documents (JSON text), so the program under test only ever sees
generated inputs, exactly as a caller would hand them over.
"""

from __future__ import annotations

import json
import math
import random

from manifest_factory import random_manifest
from stride.io import manifest_to_dict

# score_batch traffic mix, as shares of all ops.
REPEAT_SHARE = 0.25
INVALID_SHARE = 0.03

OK, REJECT = "ok", "reject"

# Each breaks one invariant that validate_manifest must report.
_BREAKERS = (
    lambda doc: doc["coverage"].update(countries_covered=doc["coverage"]["countries_total"] + 1),
    lambda doc: doc["safety"].update(harmful_rows=doc["safety"]["total_rows"] + 5),
    lambda doc: doc["recognition"].update(single_event_confidence=1.0),
    lambda doc: doc["governance"].update(interventions=doc["governance"]["governed_cases"] + 1),
    lambda doc: doc["coverage"].update(standard_layers_total=4),
    lambda doc: doc["temporal"].update(decay_rate=-0.5),
)

# Non-finite or unrepresentable values, whose correct outcome is a SchemaError.
_POISONS = (
    lambda doc: doc["temporal"].update(decay_rate=math.nan),
    lambda doc: doc["temporal"].update(lag_years=math.inf),
    lambda doc: doc["recognition"].update(single_event_confidence=10**400),
)

# Metrics that are never None, one per component; they stay applicable.
_ANCHORS = {"credibility": "IM", "reliability": "SS", "intimacy": "HG", "self_serving": "RS"}
_GROUPS = {
    "credibility": ("IM", "AT", "ER", "TR"),
    "reliability": ("SM", "GT", "AG", "SS"),
    "intimacy": ("HG", "DE", "IF"),
    "self_serving": ("T", "RS"),
}


def manifest_text(manifest) -> str:
    return json.dumps(manifest_to_dict(manifest), sort_keys=True)


def _mutated_text(rng: random.Random, mutations) -> str:
    document = manifest_to_dict(random_manifest(rng))
    rng.choice(mutations)(document)
    return json.dumps(document, sort_keys=True)


def invalid_manifest_text(rng: random.Random) -> str:
    return _mutated_text(rng, _BREAKERS)


def nonuniform_weights_text(rng: random.Random) -> str:
    """A weight document with random weights and some metrics inapplicable.

    Each component keeps one metric that every manifest can evaluate, so
    no component is ever left without an applicable sub-score.
    """
    document: dict = {"alpha": {c: round(rng.uniform(0.1, 1.0), 6) for c in "CRIS"}}
    applicability = {}
    for group, members in _GROUPS.items():
        document[group] = {m: round(rng.uniform(0.1, 2.0), 6) for m in members}
        for metric in members:
            if metric != _ANCHORS[group] and rng.random() < 0.3:
                applicability[metric] = False
    document["applicability"] = applicability
    return json.dumps(document, sort_keys=True)


def score_catalogue(seed: int, size: int) -> list[tuple[str, int, str]]:
    """The score_batch op sequence: (manifest text, config index, kind).

    Config index 0 is the equal-weight config and 1 the non-uniform one;
    new documents alternate between them.  A repeat copies an earlier
    valid op, config included, so it lands on an existing run record.
    """
    rng = random.Random(f"score_batch:{seed}")
    ops: list[tuple[str, int, str]] = []
    valid: list[int] = []
    for index in range(size):
        draw = rng.random()
        if valid and draw < REPEAT_SHARE:
            ops.append(ops[rng.choice(valid)])
            continue
        if draw < REPEAT_SHARE + INVALID_SHARE:
            ops.append((invalid_manifest_text(rng), index % 2, REJECT))
        else:
            valid.append(len(ops))
            ops.append((manifest_text(random_manifest(rng)), index % 2, OK))
    return ops


def poison_manifest_texts(seed: int, per_kind: int) -> list[str]:
    """``per_kind`` manifests for each non-finite or unrepresentable value.

    A fixed count, so that how many of them the program mishandles is a
    count that repeats exactly from run to run.
    """
    rng = random.Random(f"poison:{seed}")
    return [_mutated_text(rng, (poison,)) for poison in _POISONS for _ in range(per_kind)]


# ---------------------------------------------------------------------------
# Populations
# ---------------------------------------------------------------------------

_REGIONS = (("apac", 35), ("emea", 25), ("latam", 20), ("na", 15), ("mena", 5))
_SOURCES = (("survey", 40), ("registry", 30), ("scrape", 20), ("partner", 10))
_YEARS = ((2018, 5), (2019, 8), (2020, 12), (2021, 18), (2022, 22), (2023, 20), (2024, 15))
_TAGS = (("audit", 40), ("climate", 30), ("labour", 20), ("supply", 10))

# The swap search runs over one categorical, the boolean, the binned
# numeric and the multilabel criterion; "source" is carried but unused.
SELECTION_CRITERIA = ("region", "verified", "year", "tags")


def _pick(rng: random.Random, table) -> object:
    values, weights = zip(*table)
    return rng.choices(values, weights=weights)[0]


def selection_population_text(rng: random.Random, size: int) -> str:
    """Records with skewed criteria, so many share a category signature."""
    records = []
    for index in range(size):
        tags = [_pick(rng, _TAGS)]
        if rng.random() < 0.3:
            tags = sorted(set(tags) | {_pick(rng, _TAGS)})
        records.append(
            {
                "record_id": f"rec-{index:05d}",
                "region": _pick(rng, _REGIONS),
                "source": _pick(rng, _SOURCES),
                "verified": rng.random() < 0.75,
                "year": _pick(rng, _YEARS),
                "tags": tags,
            }
        )
    return json.dumps(records)


def curve_population_text(rng: random.Random, size: int) -> str:
    """Records with one continuous criterion, ``value``, for the saturation curve."""
    records = [
        {"record_id": f"obs-{index:06d}", "value": round(rng.lognormvariate(3.0, 0.8), 4)}
        for index in range(size)
    ]
    return json.dumps(records)


def curve_sizes(largest: int, points: int) -> list[int]:
    """``points`` roughly geometric sample sizes from 20 up to ``largest``."""
    ratio = (largest / 20) ** (1 / (points - 1))
    return [min(largest, round(20 * ratio**step)) for step in range(points)]
