"""Frozen reference for the manifest codec, written out field by field.

A copy of :func:`stride.io.decode_manifest` and
:func:`stride.io.manifest_to_dict` as they were before the codec was
driven by the ``stride.model`` dataclass fields, with the decoding
primitives they used.  The engine must decode every document to the same
manifest or fail with the same :class:`SchemaError` message, and encode
every manifest to the same dict.  Non-finite and oversized numbers are
not refused here; the tests check those refusals on the engine alone.
"""

from __future__ import annotations

import json

from stride.errors import SchemaError
from stride.model import (
    AgilityStats,
    AnnotationStats,
    CoverageProfile,
    DatasetManifest,
    EvidenceItem,
    GovernanceStats,
    RecognitionProfile,
    SafetyAudit,
    SamplingInputs,
    TemporalProfile,
)


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


def _as_list(value: object, path: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{path}: expected an array, got {type(value).__name__}")
    return value


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
