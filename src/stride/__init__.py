"""Trust scoring for benchmark datasets and rating discrepancy analysis.

The package has four working parts: a scoring engine that turns a
dataset manifest into a trust report, sampling diagnostics built on
Jensen-Shannon divergence, a discrepancy pipeline that diffs two rating
records and folds analyst adjustments into a net interval, and a small
content-addressed store for finished runs.  The ``stride`` console
script fronts all of it.

Submodules load on first use: ``import stride`` loads none of them, and
a name such as ``stride.score_dataset`` or ``stride.scoring`` imports
its submodule when it is first looked up (PEP 562).  So a ``stride``
command pays only for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_EXPORTS = {
    "delta": (
        "Annotation",
        "DeltaReport",
        "DiscrepancyCategory",
        "DiscrepancyItem",
        "Interval",
        "IssueScore",
        "RatingDiff",
        "RatingRecord",
        "attach_classification",
        "build_delta_report",
        "diff_ratings",
        "emit_delta_report",
        "net_adjustment",
    ),
    "errors": ("ComputationError", "SchemaError", "StoreError", "StrideError"),
    "model": (
        "SPEC_VERSION",
        "AgilityStats",
        "AnnotationStats",
        "ComponentId",
        "CoverageProfile",
        "DatasetManifest",
        "EvidenceItem",
        "GovernanceStats",
        "MetricId",
        "RecognitionProfile",
        "SafetyAudit",
        "SamplingInputs",
        "StrideReport",
        "SubScore",
        "TemporalProfile",
        "Violation",
        "WeightConfig",
        "equal_weight_config",
        "validate_manifest",
        "validate_weight_config",
    ),
    "runstore": ("RunRecord", "load_run", "run_id_for", "save_run"),
    "sampling": (
        "Distribution",
        "PopulationRecord",
        "SaturationPoint",
        "SelectionResult",
        "aggregate_divergence",
        "categorical_distribution",
        "js_divergence",
        "representativeness_sigma",
        "saturation_curve",
        "select_representative_sample",
    ),
    "scoring": (
        "ComponentBreakdown",
        "ComponentTerm",
        "component_score",
        "score_dataset",
        "sigmoid",
        "trust_score",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
# Submodules exposed as attributes of the package, loaded on first lookup.
_SUBMODULES = ("delta", "digests", "errors", "io", "model", "runstore", "sampling", "scoring")

# ``from stride import *`` binds the submodules as well as the public names.
__all__ = [*_ORIGIN, *_SUBMODULES]


def __getattr__(name: str) -> object:
    if name in _ORIGIN:
        return getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
