"""Parsing and serialisation for every document the tool reads or writes.

All readers take document text and fail with :class:`SchemaError`
messages that name the offending field path (JSON syntax errors carry
line and column instead).  Writers emit indented JSON whose floats
round-trip exactly, so ``parse(emit(x))`` reproduces ``x``.
"""

from __future__ import annotations

import csv
import io as _stdio
import json
from datetime import date
from typing import Mapping, Sequence

from .delta import Annotation, DiscrepancyCategory, Interval, IssueScore, RatingRecord, validate_interval
from .errors import SchemaError
from .model import (
    SPEC_VERSION,
    AgilityStats,
    AnnotationStats,
    ComponentId,
    CoverageProfile,
    DatasetManifest,
    EvidenceItem,
    GovernanceStats,
    MetricId,
    RecognitionProfile,
    SafetyAudit,
    SamplingInputs,
    StrideReport,
    SubScore,
    TemporalProfile,
    Violation,
    WeightConfig,
    equal_weight_config,
    validate_manifest,
    validate_weight_config,
)
from .sampling import PopulationRecord

# Weight groups as they appear in configuration documents.
_WEIGHT_GROUPS: dict[str, tuple[MetricId, ...]] = {
    "credibility": (
        MetricId.INCLUSIVENESS_MATERIALITY,
        MetricId.AUDITABILITY_TRACEABILITY,
        MetricId.EXEMPLARY_REFERENCE,
        MetricId.TIME_RELEVANCE,
    ),
    "reliability": (
        MetricId.STATISTICAL_METHODOLOGY,
        MetricId.GROUND_TRUTH,
        MetricId.AGILITY,
        MetricId.SECURITY_SAFETY,
    ),
    "intimacy": (
        MetricId.HUMAN_GOVERNED,
        MetricId.DOMAIN_EXPERT,
        MetricId.ITERATIVE_FEEDBACK,
    ),
    "self_serving": (
        MetricId.TRANSPARENCY,
        MetricId.ROLE_SEPARATION,
    ),
}


# ---------------------------------------------------------------------------
# Decoding primitives
# ---------------------------------------------------------------------------


def _load_json(text: str) -> object:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from None


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
    return value


def _as_float(value: object, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number, got {type(value).__name__}")
    return float(value)


def _as_bool(value: object, path: str) -> bool:
    if not isinstance(value, bool):
        raise SchemaError(f"{path}: expected a boolean, got {type(value).__name__}")
    return value


def _as_list(value: object, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{path}: expected an array, got {type(value).__name__}")
    return value


def _as_date(value: object, path: str) -> date:
    text = _as_str(value, path)
    try:
        return date.fromisoformat(text)
    except ValueError:
        raise SchemaError(f"{path}: expected an ISO date (YYYY-MM-DD), got {text!r}") from None


# ---------------------------------------------------------------------------
# Dataset manifests
# ---------------------------------------------------------------------------


def decode_manifest(text: str) -> DatasetManifest:
    """Structural decode only; invariants are left to :func:`validate_manifest`."""
    root = dict(_obj(_load_json(text), "manifest"))

    coverage_obj = dict(_obj(_take(root, "coverage", "manifest"), "coverage"))
    layers = _as_list(_take(coverage_obj, "standard_layers_covered", "coverage"), "coverage.standard_layers_covered")
    coverage = CoverageProfile(
        countries_covered=_as_int(_take(coverage_obj, "countries_covered", "coverage"), "coverage.countries_covered"),
        countries_total=_as_int(_take(coverage_obj, "countries_total", "coverage"), "coverage.countries_total"),
        industries_covered=_as_int(_take(coverage_obj, "industries_covered", "coverage"), "coverage.industries_covered"),
        industries_total=_as_int(_take(coverage_obj, "industries_total", "coverage"), "coverage.industries_total"),
        standard_layers_covered=frozenset(
            _as_str(layer, f"coverage.standard_layers_covered[{i}]") for i, layer in enumerate(layers)
        ),
        standard_layers_total=_as_int(_take(coverage_obj, "standard_layers_total", "coverage"), "coverage.standard_layers_total"),
        external_data_flag=_as_int(_take(coverage_obj, "external_data_flag", "coverage"), "coverage.external_data_flag"),
    )
    _no_extras(coverage_obj, "coverage")

    evidence = []
    for index, entry in enumerate(_as_list(_take(root, "evidence", "manifest"), "evidence")):
        path = f"evidence[{index}]"
        item_obj = dict(_obj(entry, path))
        evidence.append(
            EvidenceItem(
                id=_as_str(_take(item_obj, "id", path), f"{path}.id"),
                source_uri=_as_str(_take(item_obj, "source_uri", path), f"{path}.source_uri"),
                auditability=_as_float(_take(item_obj, "auditability", path), f"{path}.auditability"),
                traceability=_as_float(_take(item_obj, "traceability", path), f"{path}.traceability"),
            )
        )
        _no_extras(item_obj, path)

    recognition_obj = dict(_obj(_take(root, "recognition", "manifest"), "recognition"))
    recognition = RecognitionProfile(
        recognitions_per_year=_as_int(_take(recognition_obj, "recognitions_per_year", "recognition"), "recognition.recognitions_per_year"),
        single_event_confidence=_as_float(_take(recognition_obj, "single_event_confidence", "recognition"), "recognition.single_event_confidence"),
    )
    _no_extras(recognition_obj, "recognition")

    temporal_obj = dict(_obj(_take(root, "temporal", "manifest"), "temporal"))
    temporal = TemporalProfile(
        lag_years=_as_float(_take(temporal_obj, "lag_years", "temporal"), "temporal.lag_years"),
        decay_rate=_as_float(_take(temporal_obj, "decay_rate", "temporal"), "temporal.decay_rate"),
    )
    _no_extras(temporal_obj, "temporal")

    annotation = None
    if root.get("annotation") is not None:
        annotation_obj = dict(_obj(root["annotation"], "annotation"))
        annotation = AnnotationStats(
            human_fraction=_as_float(_take(annotation_obj, "human_fraction", "annotation"), "annotation.human_fraction"),
            mean_tenure_years=_as_float(_take(annotation_obj, "mean_tenure_years", "annotation"), "annotation.mean_tenure_years"),
            tenure_cap_years=_as_float(_take(annotation_obj, "tenure_cap_years", "annotation"), "annotation.tenure_cap_years"),
            human_machine_deviation=_as_float(_take(annotation_obj, "human_machine_deviation", "annotation"), "annotation.human_machine_deviation"),
            machine_machine_deviation=_as_float(_take(annotation_obj, "machine_machine_deviation", "annotation"), "annotation.machine_machine_deviation"),
        )
        _no_extras(annotation_obj, "annotation")
    root.pop("annotation", None)

    agility = None
    if root.get("agility") is not None:
        agility_obj = dict(_obj(root["agility"], "agility"))
        epsilon = agility_obj.pop("epsilon", 1e-6)
        agility = AgilityStats(
            accuracy_gain=_as_float(_take(agility_obj, "accuracy_gain", "agility"), "agility.accuracy_gain"),
            change_proportion=_as_float(_take(agility_obj, "change_proportion", "agility"), "agility.change_proportion"),
            epsilon=_as_float(epsilon, "agility.epsilon"),
        )
        _no_extras(agility_obj, "agility")
    root.pop("agility", None)

    safety_obj = dict(_obj(_take(root, "safety", "manifest"), "safety"))
    safety = SafetyAudit(
        harmful_rows=_as_int(_take(safety_obj, "harmful_rows", "safety"), "safety.harmful_rows"),
        total_rows=_as_int(_take(safety_obj, "total_rows", "safety"), "safety.total_rows"),
    )
    _no_extras(safety_obj, "safety")

    governance_obj = dict(_obj(_take(root, "governance", "manifest"), "governance"))
    series = _as_list(_take(governance_obj, "accuracy_series", "governance"), "governance.accuracy_series")
    governance = GovernanceStats(
        interventions=_as_int(_take(governance_obj, "interventions", "governance"), "governance.interventions"),
        governed_cases=_as_int(_take(governance_obj, "governed_cases", "governance"), "governance.governed_cases"),
        experts_involved=_as_int(_take(governance_obj, "experts_involved", "governance"), "governance.experts_involved"),
        experts_total=_as_int(_take(governance_obj, "experts_total", "governance"), "governance.experts_total"),
        stages_with_experts=_as_int(_take(governance_obj, "stages_with_experts", "governance"), "governance.stages_with_experts"),
        stages_total=_as_int(_take(governance_obj, "stages_total", "governance"), "governance.stages_total"),
        accuracy_series=tuple(_as_float(v, f"governance.accuracy_series[{i}]") for i, v in enumerate(series)),
        assumptions_disclosed=_as_int(_take(governance_obj, "assumptions_disclosed", "governance"), "governance.assumptions_disclosed"),
        assumptions_required=_as_int(_take(governance_obj, "assumptions_required", "governance"), "governance.assumptions_required"),
        role_relations_separated=_as_int(_take(governance_obj, "role_relations_separated", "governance"), "governance.role_relations_separated"),
        role_relations_total=_as_int(_take(governance_obj, "role_relations_total", "governance"), "governance.role_relations_total"),
    )
    _no_extras(governance_obj, "governance")

    sampling_inputs = None
    if root.get("sampling_inputs") is not None:
        si_obj = dict(_obj(root["sampling_inputs"], "sampling_inputs"))
        sampling_inputs = SamplingInputs(
            sample_size=_as_int(_take(si_obj, "sample_size", "sampling_inputs"), "sampling_inputs.sample_size"),
            saturation_threshold=_as_int(_take(si_obj, "saturation_threshold", "sampling_inputs"), "sampling_inputs.saturation_threshold"),
            share_deviation=_as_float(_take(si_obj, "share_deviation", "sampling_inputs"), "sampling_inputs.share_deviation"),
        )
        _no_extras(si_obj, "sampling_inputs")
    root.pop("sampling_inputs", None)

    manifest = DatasetManifest(
        manifest_version=_as_str(_take(root, "manifest_version", "manifest"), "manifest_version"),
        dataset_id=_as_str(_take(root, "dataset_id", "manifest"), "dataset_id"),
        coverage=coverage,
        evidence=tuple(evidence),
        recognition=recognition,
        temporal=temporal,
        safety=safety,
        governance=governance,
        annotation=annotation,
        agility=agility,
        sampling_inputs=sampling_inputs,
    )
    _no_extras(root, "manifest")
    return manifest


def parse_manifest(text: str) -> DatasetManifest:
    """Decode manifest text and enforce its invariants."""
    manifest = decode_manifest(text)
    violations = validate_manifest(manifest)
    if violations:
        details = "; ".join(str(v) for v in violations)
        raise SchemaError(f"manifest invariant violation: {details}")
    return manifest


def manifest_to_dict(manifest: DatasetManifest) -> dict:
    coverage = manifest.coverage
    governance = manifest.governance
    result: dict = {
        "manifest_version": manifest.manifest_version,
        "dataset_id": manifest.dataset_id,
        "coverage": {
            "countries_covered": coverage.countries_covered,
            "countries_total": coverage.countries_total,
            "industries_covered": coverage.industries_covered,
            "industries_total": coverage.industries_total,
            "standard_layers_covered": sorted(coverage.standard_layers_covered),
            "standard_layers_total": coverage.standard_layers_total,
            "external_data_flag": coverage.external_data_flag,
        },
        "evidence": [
            {
                "id": item.id,
                "source_uri": item.source_uri,
                "auditability": item.auditability,
                "traceability": item.traceability,
            }
            for item in manifest.evidence
        ],
        "recognition": {
            "recognitions_per_year": manifest.recognition.recognitions_per_year,
            "single_event_confidence": manifest.recognition.single_event_confidence,
        },
        "temporal": {
            "lag_years": manifest.temporal.lag_years,
            "decay_rate": manifest.temporal.decay_rate,
        },
        "annotation": None,
        "agility": None,
        "safety": {
            "harmful_rows": manifest.safety.harmful_rows,
            "total_rows": manifest.safety.total_rows,
        },
        "governance": {
            "interventions": governance.interventions,
            "governed_cases": governance.governed_cases,
            "experts_involved": governance.experts_involved,
            "experts_total": governance.experts_total,
            "stages_with_experts": governance.stages_with_experts,
            "stages_total": governance.stages_total,
            "accuracy_series": list(governance.accuracy_series),
            "assumptions_disclosed": governance.assumptions_disclosed,
            "assumptions_required": governance.assumptions_required,
            "role_relations_separated": governance.role_relations_separated,
            "role_relations_total": governance.role_relations_total,
        },
        "sampling_inputs": None,
    }
    if manifest.annotation is not None:
        a = manifest.annotation
        result["annotation"] = {
            "human_fraction": a.human_fraction,
            "mean_tenure_years": a.mean_tenure_years,
            "tenure_cap_years": a.tenure_cap_years,
            "human_machine_deviation": a.human_machine_deviation,
            "machine_machine_deviation": a.machine_machine_deviation,
        }
    if manifest.agility is not None:
        g = manifest.agility
        result["agility"] = {
            "accuracy_gain": g.accuracy_gain,
            "change_proportion": g.change_proportion,
            "epsilon": g.epsilon,
        }
    if manifest.sampling_inputs is not None:
        si = manifest.sampling_inputs
        result["sampling_inputs"] = {
            "sample_size": si.sample_size,
            "saturation_threshold": si.saturation_threshold,
            "share_deviation": si.share_deviation,
        }
    return result


def manifest_to_json(manifest: DatasetManifest) -> str:
    return json.dumps(manifest_to_dict(manifest), indent=2, sort_keys=True) + "\n"


def manifest_violations(text: str) -> tuple[DatasetManifest, list[Violation]]:
    """Decode manifest text and list its invariant violations without raising."""
    manifest = decode_manifest(text)
    return manifest, validate_manifest(manifest)


# ---------------------------------------------------------------------------
# Weight configurations
# ---------------------------------------------------------------------------


def parse_weight_config(text: str) -> WeightConfig:
    """Parse and normalise a weight configuration document.

    The literal ``equal`` (bare or as a JSON string) expands to uniform
    weights with alpha = 1/4 each.
    """
    if text.strip() == "equal":
        return equal_weight_config()
    return weight_config_from_obj(_load_json(text))


def weight_config_from_obj(obj: object) -> WeightConfig:
    """Decode and normalise an already-parsed weight configuration document."""
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


def weight_config_to_json(config: WeightConfig) -> str:
    return json.dumps(weight_config_to_dict(config), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Score reports
# ---------------------------------------------------------------------------


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


def report_to_json(report: StrideReport) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"


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


# ---------------------------------------------------------------------------
# Population records
# ---------------------------------------------------------------------------


def _coerce_csv_cell(text: str) -> object:
    cell = text.strip()
    if "|" in cell:
        return tuple(part for part in (piece.strip() for piece in cell.split("|")) if part)
    lowered = cell.lower()
    if lowered == "true":
        return True
    if lowered == "false":
        return False
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        pass
    return cell


def _population_from_json(text: str) -> list[PopulationRecord]:
    loaded = _load_json(text)
    entries = _as_list(loaded, "population")
    records = []
    for index, entry in enumerate(entries):
        path = f"population[{index}]"
        record_obj = dict(_obj(entry, path))
        record_id = _as_str(_take(record_obj, "record_id", path), f"{path}.record_id")
        criteria: dict[str, object] = {}
        for key, value in record_obj.items():
            value_path = f"{path}.{key}"
            if isinstance(value, list):
                criteria[key] = tuple(_as_str(v, f"{value_path}[{i}]") for i, v in enumerate(value))
            elif isinstance(value, (bool, int, float, str)):
                criteria[key] = value
            else:
                raise SchemaError(f"{value_path}: unsupported value type {type(value).__name__}")
        records.append(PopulationRecord(record_id=record_id, criteria=criteria))
    if not records:
        raise SchemaError("population: no records")
    return records


def _population_from_csv(text: str) -> list[PopulationRecord]:
    reader = csv.DictReader(_stdio.StringIO(text))
    if reader.fieldnames is None or "record_id" not in reader.fieldnames:
        raise SchemaError("population: CSV must have a record_id column")
    records = []
    for index, row in enumerate(reader):
        record_id = (row.get("record_id") or "").strip()
        if not record_id:
            raise SchemaError(f"population[{index}].record_id: missing value")
        criteria = {
            key: _coerce_csv_cell(value if value is not None else "")
            for key, value in row.items()
            if key != "record_id"
        }
        records.append(PopulationRecord(record_id=record_id, criteria=criteria))
    if not records:
        raise SchemaError("population: no records")
    return records


def parse_population(text: str, source_name: str = "") -> list[PopulationRecord]:
    """Load population records from JSON (a list of flat objects) or CSV.

    The format is chosen by the ``source_name`` extension, falling back
    to content sniffing.  In CSV, list-valued cells join their labels
    with ``|`` (a single label keeps a trailing ``|``).
    """
    name = source_name.lower()
    if name.endswith(".csv"):
        return _population_from_csv(text)
    if name.endswith(".json"):
        return _population_from_json(text)
    head = text.lstrip()[:1]
    if head in ("[", "{"):
        return _population_from_json(text)
    return _population_from_csv(text)


# ---------------------------------------------------------------------------
# Rating records and annotations
# ---------------------------------------------------------------------------


def parse_rating_record(text: str, label: str = "rating") -> RatingRecord:
    root = dict(_obj(_load_json(text), label))
    issues_obj = dict(_obj(_take(root, "issue_scores", label), f"{label}.issue_scores"))
    issue_scores = {}
    for key in sorted(issues_obj):
        path = f"{label}.issue_scores[{key!r}]"
        issue_obj = dict(_obj(issues_obj[key], path))
        citation = issue_obj.pop("methodology_citation", "")
        issue_scores[key] = IssueScore(
            score=_as_float(_take(issue_obj, "score", path), f"{path}.score"),
            scale_min=_as_float(_take(issue_obj, "scale_min", path), f"{path}.scale_min"),
            scale_max=_as_float(_take(issue_obj, "scale_max", path), f"{path}.scale_max"),
            methodology_citation=_as_str(citation, f"{path}.methodology_citation"),
        )
    record = RatingRecord(
        source_label=_as_str(_take(root, "source_label", label), f"{label}.source_label"),
        period_start=_as_date(_take(root, "period_start", label), f"{label}.period_start"),
        period_end=_as_date(_take(root, "period_end", label), f"{label}.period_end"),
        overall_rating=_as_str(_take(root, "overall_rating", label), f"{label}.overall_rating"),
        issue_scores=issue_scores,
    )
    _no_extras(root, label)
    return record


def _as_interval(value: object, path: str) -> Interval:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        point = float(value)
        return Interval(point, point)
    entries = _as_list(value, path)
    if len(entries) != 2:
        raise SchemaError(f"{path}: expected [lower, upper]")
    interval = Interval(_as_float(entries[0], f"{path}[0]"), _as_float(entries[1], f"{path}[1]"))
    return validate_interval(interval, path)


def parse_annotations(text: str) -> dict[str, Annotation]:
    """Parse an issue-key-to-annotation map."""
    root = _obj(_load_json(text), "annotations")
    categories = {category.value: category for category in DiscrepancyCategory}
    annotations = {}
    for key in sorted(root):
        path = f"annotations[{key!r}]"
        entry = dict(_obj(root[key], path))
        category_code = _as_str(_take(entry, "category", path), f"{path}.category")
        if category_code not in categories:
            raise SchemaError(f"{path}.category: unknown category {category_code!r}")
        adjustment = _as_interval(_take(entry, "adjustment", path), f"{path}.adjustment")
        evidence_value = entry.pop("evidence", [])
        evidence = tuple(
            _as_str(v, f"{path}.evidence[{i}]") for i, v in enumerate(_as_list(evidence_value, f"{path}.evidence"))
        )
        narrative = _as_str(entry.pop("narrative", ""), f"{path}.narrative")
        assessment = None
        if entry.get("stride_assessment") is not None:
            assessment = _as_interval(entry["stride_assessment"], f"{path}.stride_assessment")
        entry.pop("stride_assessment", None)
        _no_extras(entry, path)
        annotations[key] = Annotation(
            category=categories[category_code],
            adjustment=adjustment,
            evidence_refs=evidence,
            narrative=narrative,
            stride_assessment=assessment,
        )
    return annotations
