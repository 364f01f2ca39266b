"""Frozen reference for the report and weight-configuration codecs.

A copy of :func:`stride.io.report_to_dict`, :func:`stride.io.report_from_dict`,
:func:`stride.io.weight_config_from_obj` and
:func:`stride.io.weight_config_to_dict` as they were when they walked the
``MetricId`` and ``ComponentId`` enums, with the decoding primitives they
used and the :func:`stride.model.validate_weight_config` normalisation
they called.  The engine must encode every report to the same dict and
decode every document to the same report, or fail with the same
:class:`SchemaError` message.
"""

from __future__ import annotations

import math

from stride.errors import SchemaError
from stride.model import (
    COMPONENT_METRICS,
    SPEC_VERSION,
    ComponentId,
    MetricId,
    StrideReport,
    SubScore,
    WeightConfig,
)

_WEIGHT_GROUPS = {component.name.lower(): members for component, members in COMPONENT_METRICS.items()}
_SUM_TOLERANCE = 1e-12
_FLOAT_INT_LIMIT = 2**1024 - 2**970


def _obj(value: object, path: str) -> dict:
    if not isinstance(value, dict):
        raise SchemaError(f"{path}: expected an object, got {type(value).__name__}")
    return value


def _take(obj: dict, key: str, path: str) -> object:
    if key not in obj:
        raise SchemaError(f"{path}.{key}: missing required field")
    return obj.pop(key)


def _no_extras(obj: dict, path: str) -> None:
    if obj:
        extras = ", ".join(sorted(obj))
        raise SchemaError(f"{path}: unknown field(s) {extras}")


def _as_str(value: object, path: str) -> str:
    if not isinstance(value, str):
        raise SchemaError(f"{path}: expected a string, got {type(value).__name__}")
    return value


def _as_int(value: object, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{path}: expected an integer, got {type(value).__name__}")
    if not -_FLOAT_INT_LIMIT < value < _FLOAT_INT_LIMIT:
        raise SchemaError(f"{path}: expected a finite number within float range")
    return value


def _as_float(value: object, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number, got {type(value).__name__}")
    number = float(_as_int(value, path) if isinstance(value, int) else value)
    if not math.isfinite(number):
        raise SchemaError(f"{path}: expected a finite number within float range")
    return number


def _as_bool(value: object, path: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(f"{path}: expected a boolean, got {type(value).__name__}")
    return value


def _as_list(value: object, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{path}: expected an array, got {type(value).__name__}")
    return value


def validate_weight_config(config: WeightConfig) -> WeightConfig:
    for metric in MetricId:
        if metric not in config.weights:
            raise SchemaError(f"weights: missing entry for {metric.value}")
        if metric not in config.applicability:
            raise SchemaError(f"applicability: missing entry for {metric.value}")
        if not math.isfinite(config.weights[metric]):
            raise SchemaError(f"weights.{metric.value}: must be a finite number, got {config.weights[metric]!r}")
        if config.weights[metric] < 0:
            raise SchemaError(f"weights.{metric.value}: negative weight {config.weights[metric]!r}")
    if len(config.alpha) != 4:
        raise SchemaError("alpha: expected exactly four coefficients")
    for component, coefficient in zip(ComponentId, config.alpha):
        if not math.isfinite(coefficient):
            raise SchemaError(f"alpha.{component.value}: must be a finite number, got {coefficient!r}")
        if coefficient < 0:
            raise SchemaError(f"alpha.{component.value}: negative coefficient {coefficient!r}")

    weights: dict[MetricId, float] = {}
    for component, members in COMPONENT_METRICS.items():
        applicable = [m for m in members if config.applicability[m]]
        if not applicable:
            raise SchemaError(f"component {component.value}: no applicable metric")
        total = sum(config.weights[m] for m in applicable)
        if total == 0:
            raise SchemaError(f"component {component.value}: applicable weights sum to zero")
        rescale = abs(total - 1.0) > _SUM_TOLERANCE
        for m in members:
            if not config.applicability[m]:
                weights[m] = 0.0
            elif rescale:
                weights[m] = config.weights[m] / total
            else:
                weights[m] = config.weights[m]

    return WeightConfig(
        alpha=tuple(config.alpha),
        weights={metric: weights[metric] for metric in MetricId},
        applicability={metric: bool(config.applicability[metric]) for metric in MetricId},
    )


def equal_weight_config() -> WeightConfig:
    raw = WeightConfig(
        alpha=(0.25, 0.25, 0.25, 0.25),
        weights={metric: 1.0 for metric in MetricId},
        applicability={metric: True for metric in MetricId},
    )
    return validate_weight_config(raw)


def weight_config_from_obj(obj: object) -> WeightConfig:
    if obj == "equal":
        return equal_weight_config()
    root = dict(_obj(obj, "weights"))

    alpha_obj = dict(_obj(_take(root, "alpha", "weights"), "alpha"))
    alpha = []
    for component in ComponentId:
        if component.value not in alpha_obj:
            raise SchemaError(f"alpha.{component.value}: missing required field")
        alpha.append(_as_float(alpha_obj.pop(component.value), f"alpha.{component.value}"))
    _no_extras(alpha_obj, "alpha")

    weights: dict[MetricId, float] = {}
    for group_name, members in _WEIGHT_GROUPS.items():
        group_obj = dict(_obj(_take(root, group_name, "weights"), group_name))
        for metric in members:
            if metric.value not in group_obj:
                raise SchemaError(f"{group_name}.{metric.value}: missing required field")
            weights[metric] = _as_float(group_obj.pop(metric.value), f"{group_name}.{metric.value}")
        _no_extras(group_obj, group_name)

    applicability = {metric: True for metric in MetricId}
    if root.get("applicability") is not None:
        applicability_obj = dict(_obj(root["applicability"], "applicability"))
        codes = {metric.value: metric for metric in MetricId}
        for code, value in sorted(applicability_obj.items()):
            if code not in codes:
                raise SchemaError(f"applicability.{code}: unknown metric code")
            applicability[codes[code]] = _as_bool(value, f"applicability.{code}")
    root.pop("applicability", None)
    _no_extras(root, "weights")

    return validate_weight_config(
        WeightConfig(alpha=tuple(alpha), weights=weights, applicability=applicability)
    )


def weight_config_to_dict(config: WeightConfig) -> dict:
    result: dict = {
        "alpha": {component.value: coefficient for component, coefficient in zip(ComponentId, config.alpha)},
    }
    for group_name, members in _WEIGHT_GROUPS.items():
        result[group_name] = {metric.value: config.weights[metric] for metric in members}
    result["applicability"] = {metric.value: config.applicability[metric] for metric in MetricId}
    return result


def report_to_dict(report: StrideReport) -> dict:
    return {
        "spec_version": SPEC_VERSION,
        "manifest_digest": report.manifest_digest,
        "sub_scores": [
            {
                "metric_id": sub.metric_id.value,
                "value": sub.value,
                "applicable": sub.applicable,
                "inputs_digest": sub.inputs_digest,
            }
            for sub in report.sub_scores
        ],
        "component_scores": {component.value: report.component_scores[component] for component in ComponentId},
        "trust": report.trust,
        "config": weight_config_to_dict(report.config_snapshot),
    }


def report_from_dict(document: dict, path: str = "report") -> StrideReport:
    root = dict(_obj(document, path))
    version = _as_str(_take(root, "spec_version", path), f"{path}.spec_version")
    if version != SPEC_VERSION:
        raise SchemaError(f"{path}.spec_version: unsupported version {version!r}")
    manifest_digest = _as_str(_take(root, "manifest_digest", path), f"{path}.manifest_digest")

    codes = {metric.value: metric for metric in MetricId}
    sub_scores = []
    seen: set[MetricId] = set()
    for index, entry in enumerate(_as_list(_take(root, "sub_scores", path), f"{path}.sub_scores")):
        sub_path = f"{path}.sub_scores[{index}]"
        sub_obj = dict(_obj(entry, sub_path))
        code = _as_str(_take(sub_obj, "metric_id", sub_path), f"{sub_path}.metric_id")
        if code not in codes:
            raise SchemaError(f"{sub_path}.metric_id: unknown metric code {code!r}")
        metric = codes[code]
        if metric in seen:
            raise SchemaError(f"{sub_path}.metric_id: duplicate entry for {code}")
        seen.add(metric)
        applicable = _as_bool(_take(sub_obj, "applicable", sub_path), f"{sub_path}.applicable")
        raw_value = _take(sub_obj, "value", sub_path)
        if applicable:
            value: float | None = _as_float(raw_value, f"{sub_path}.value")
        elif raw_value is not None:
            raise SchemaError(f"{sub_path}.value: must be null when not applicable")
        else:
            value = None
        digest = _as_str(_take(sub_obj, "inputs_digest", sub_path), f"{sub_path}.inputs_digest")
        _no_extras(sub_obj, sub_path)
        sub_scores.append(SubScore(metric, value, applicable, digest))
    missing = [metric.value for metric in MetricId if metric not in seen]
    if missing:
        raise SchemaError(f"{path}.sub_scores: missing entries for {', '.join(missing)}")

    components_obj = dict(_obj(_take(root, "component_scores", path), f"{path}.component_scores"))
    component_scores = {}
    for component in ComponentId:
        if component.value not in components_obj:
            raise SchemaError(f"{path}.component_scores.{component.value}: missing required field")
        component_scores[component] = _as_float(
            components_obj.pop(component.value), f"{path}.component_scores.{component.value}"
        )
    _no_extras(components_obj, f"{path}.component_scores")

    trust = _as_float(_take(root, "trust", path), f"{path}.trust")
    if not 0 < trust < 1:
        raise SchemaError(f"{path}.trust: must lie strictly between 0 and 1, got {trust!r}")

    config = weight_config_from_obj(_obj(_take(root, "config", path), f"{path}.config"))
    _no_extras(root, path)

    return StrideReport(
        sub_scores=tuple(sub_scores),
        component_scores=component_scores,
        trust=trust,
        config_snapshot=config,
        manifest_digest=manifest_digest,
    )
