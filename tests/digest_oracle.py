"""Frozen reference for the report's input digests, built from ``asdict``.

This is how :func:`stride.scoring.score_dataset` derived each metric's
inputs digest and the manifest digest before it switched to slices of
one ``io.manifest_to_dict`` pass.  It is kept unchanged so that the
engine's digests, and with them every run id, can be checked against it.
"""

from __future__ import annotations

from dataclasses import asdict

from stride.digests import content_digest
from stride.model import DatasetManifest, MetricId


def _metric_inputs(metric: MetricId, manifest: DatasetManifest) -> object:
    """The manifest slice a metric reads, used for its inputs digest."""
    governance = manifest.governance
    if metric is MetricId.INCLUSIVENESS_MATERIALITY:
        return asdict(manifest.coverage)
    if metric is MetricId.AUDITABILITY_TRACEABILITY:
        return [asdict(item) for item in manifest.evidence]
    if metric is MetricId.EXEMPLARY_REFERENCE:
        return asdict(manifest.recognition)
    if metric is MetricId.TIME_RELEVANCE:
        return asdict(manifest.temporal)
    if metric is MetricId.STATISTICAL_METHODOLOGY:
        return None if manifest.sampling_inputs is None else asdict(manifest.sampling_inputs)
    if metric is MetricId.GROUND_TRUTH:
        return None if manifest.annotation is None else asdict(manifest.annotation)
    if metric is MetricId.AGILITY:
        return None if manifest.agility is None else asdict(manifest.agility)
    if metric is MetricId.SECURITY_SAFETY:
        return asdict(manifest.safety)
    if metric is MetricId.HUMAN_GOVERNED:
        return {"interventions": governance.interventions, "governed_cases": governance.governed_cases}
    if metric is MetricId.DOMAIN_EXPERT:
        return {
            "experts_involved": governance.experts_involved,
            "experts_total": governance.experts_total,
            "stages_with_experts": governance.stages_with_experts,
            "stages_total": governance.stages_total,
        }
    if metric is MetricId.ITERATIVE_FEEDBACK:
        return {"accuracy_series": list(governance.accuracy_series)}
    if metric is MetricId.TRANSPARENCY:
        return {
            "assumptions_disclosed": governance.assumptions_disclosed,
            "assumptions_required": governance.assumptions_required,
        }
    if metric is MetricId.ROLE_SEPARATION:
        return {
            "role_relations_separated": governance.role_relations_separated,
            "role_relations_total": governance.role_relations_total,
        }
    raise KeyError(metric)


def oracle_inputs_digests(manifest: DatasetManifest) -> dict[MetricId, str]:
    return {metric: content_digest(_metric_inputs(metric, manifest)) for metric in MetricId}


def oracle_manifest_digest(manifest: DatasetManifest) -> str:
    return content_digest(asdict(manifest))
