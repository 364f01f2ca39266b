"""Each ``stride`` command loads only the modules it runs.

The package exports its public names lazily, so ``import stride`` loads
no submodule, and each CLI handler imports what it uses.  The module
sets are checked in a fresh interpreter per command, since this test
process has long since imported everything.  The package needs nothing
beyond the standard library, and it declares no runtime dependency.
"""

from __future__ import annotations

import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import stride
from stride.cli import main
from stride.fixtures import fixture_text

SRC = str(Path(stride.__file__).resolve().parent.parent)
ROOT = Path(__file__).resolve().parent.parent

# The names the package exported when it imported every submodule eagerly.
EXPORTS = {
    "delta": (
        "Annotation DeltaReport DiscrepancyCategory DiscrepancyItem Interval IssueScore RatingDiff"
        " RatingRecord attach_classification build_delta_report diff_ratings emit_delta_report net_adjustment"
    ),
    "errors": "ComputationError SchemaError StoreError StrideError",
    "model": (
        "SPEC_VERSION AgilityStats AnnotationStats ComponentId CoverageProfile DatasetManifest EvidenceItem"
        " GovernanceStats MetricId RecognitionProfile SafetyAudit SamplingInputs StrideReport SubScore"
        " TemporalProfile Violation WeightConfig equal_weight_config validate_manifest validate_weight_config"
    ),
    "runstore": "RunRecord load_run run_id_for save_run",
    "sampling": (
        "Distribution PopulationRecord SaturationPoint SelectionResult aggregate_divergence"
        " categorical_distribution js_divergence representativeness_sigma saturation_curve"
        " select_representative_sample"
    ),
    "scoring": "ComponentBreakdown ComponentTerm component_score score_dataset sigmoid trust_score",
}
SUBMODULES = ("delta", "digests", "errors", "io", "model", "runstore", "sampling", "scoring")

VALIDATE = {"stride._records", "stride.errors", "stride.io", "stride.model"}
SCORE = VALIDATE | {"stride.scoring", "stride.digests", "stride.runstore"}

_PROBE = """
import contextlib, io, json, sys
import stride.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = stride.cli.main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


def _fresh(code: str, *argv: str, store: Path) -> str:
    env = {**os.environ, "PYTHONPATH": SRC, "STRIDE_STORE": str(store)}
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env,
        capture_output=True,
        text=True,
        encoding="utf-8",
        check=True,
        timeout=60,
    )
    return done.stdout


@pytest.fixture()
def inputs(tmp_path):
    for name in ("luxshare_manifest", "luxshare_baseline_rating", "luxshare_recomputed_rating", "luxshare_annotations"):
        (tmp_path / f"{name}.json").write_text(fixture_text(f"{name}.json"), encoding="utf-8")
    records = [{"record_id": f"r{i:03d}", "region": "apac" if i % 3 else "emea", "size": i} for i in range(40)]
    (tmp_path / "population.json").write_text(json.dumps(records), encoding="utf-8")
    (tmp_path / "population.csv").write_text(
        "record_id,region\n" + "".join(f"r{i},{'apac' if i % 3 else 'emea'}\n" for i in range(40)), encoding="utf-8"
    )
    return tmp_path


def _commands(inputs: Path, run_id: str) -> list:
    manifest = str(inputs / "luxshare_manifest.json")
    delta = ["delta", "--baseline", str(inputs / "luxshare_baseline_rating.json")]
    delta += ["--stride", str(inputs / "luxshare_recomputed_rating.json")]
    curve = ["sample", "curve", "--population", str(inputs / "population.json"), "--criterion", "region"]
    select = ["sample", "select", "--population", str(inputs / "population.csv"), "--k", "5", "--seed", "3"]
    return [
        (["validate", "--manifest", manifest], VALIDATE),
        (["score", "--manifest", manifest, "--weights", "equal"], SCORE),
        (["explain", "--run", run_id[:12]], SCORE),
        (delta + ["--annotations", str(inputs / "luxshare_annotations.json")], VALIDATE | {"stride.delta"}),
        (delta + ["--format", "markdown"], VALIDATE | {"stride.delta"}),
        (curve + ["--sizes", "5,10", "--seed", "1"], VALIDATE | {"stride.sampling"}),
        (select, VALIDATE | {"stride.sampling"}),
    ]


def test_each_subcommand_loads_only_its_modules(inputs, tmp_path, monkeypatch, capsys):
    store = tmp_path / "runs"
    monkeypatch.setenv("STRIDE_STORE", str(store))
    assert main(["score", "--manifest", str(inputs / "luxshare_manifest.json"), "--weights", "equal"]) == 0
    run_id = capsys.readouterr().err.split()[-1]
    for argv, expected in _commands(inputs, run_id):
        code, loaded = json.loads(_fresh(_PROBE, *argv, store=store))
        assert code == 0, argv
        assert {name for name in loaded if name.split(".")[0] == "stride"} == {"stride", "stride.cli"} | expected, argv
        # Record classes are built without dataclasses, whose import pulls in inspect.
        assert not {"dataclasses", "inspect"} & set(loaded), argv


# The codecs and rule checks built so far: decoders by type, encoders and checks
# by class, and which of the report writer's layouts (indented, canonical) are built.
_BUILT = """
import contextlib, io, json, sys
import stride.io, stride.model, stride.runstore

def built():
    names = lambda types: sorted(getattr(tp, "__name__", repr(tp)) for tp in types)
    codecs = [names(stride.io._DECODERS), names(stride.io._ENCODERS), names(stride.model._CHECKS)]
    return [*codecs, [layout is not None for layout in stride.io._report_layouts]]

after_import = built()
import stride.cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = stride.cli.main(sys.argv[1:])
print(json.dumps([after_import, code, built()]))
"""
# The document classes of scoring: a manifest and its sections, a config and a report.
SCORING_CLASSES = {
    "DatasetManifest", "CoverageProfile", "EvidenceItem", "RecognitionProfile", "TemporalProfile", "SafetyAudit",
    "GovernanceStats", "AnnotationStats", "AgilityStats", "SamplingInputs", "WeightConfig", "SubScore", "StrideReport",
}


def test_codecs_are_built_on_first_use_by_the_commands_that_decode(inputs, tmp_path):
    # Importing builds nothing, and sample and delta build none of the scoring codecs.
    # Only score builds the report writer's layouts; explain runs on a stored record below.
    run_id = "0" * 64
    checks_built = {}
    for argv, expected in _commands(inputs, run_id):
        if argv[0] == "explain":
            continue
        after_import, code, built = json.loads(_fresh(_BUILT, *argv, store=tmp_path / "runs"))
        decoders, encoders, checks, writer = built
        checks_built[argv[0]] = checks
        assert code == 0, argv
        assert after_import == [[], [], [], [False, False]], argv
        assert writer == [argv[0] == "score"] * 2, argv
        if argv[0] in ("sample", "delta"):
            assert not SCORING_CLASSES & set(decoders) and encoders == [] and checks == [], argv
        if argv[0] == "delta":
            assert {"RatingRecord", "IssueScore"} <= set(decoders), argv
            assert ("Annotation" in decoders) == ("--annotations" in argv), argv
        if argv[0] == "validate":
            assert "DatasetManifest" in decoders and "DatasetManifest" in checks and encoders == [], argv
    # The leaf metrics refuse their input through the rule checks that validate builds, and build none of their own.
    assert checks_built["score"] == checks_built["validate"]


def test_explain_builds_only_the_canonical_layout_to_check_its_record(inputs, tmp_path, monkeypatch, capsys):
    store = tmp_path / "runs"
    monkeypatch.setenv("STRIDE_STORE", str(store))
    assert main(["score", "--manifest", str(inputs / "luxshare_manifest.json"), "--weights", "equal"]) == 0
    run_id = capsys.readouterr().err.split()[-1]
    after_import, code, built = json.loads(_fresh(_BUILT, "explain", "--run", run_id[:12], store=store))
    assert (after_import, code, built[3]) == ([[], [], [], [False, False]], 0, [False, True])


def test_sampling_commands_load_no_statistics(inputs, tmp_path):
    # The numeric binning takes its quantiles itself, since importing statistics costs more than a call.
    population = str(inputs / "population.json")
    for argv in (
        ["sample", "curve", "--population", population, "--criterion", "size", "--sizes", "5,10", "--seed", "1"],
        ["sample", "select", "--population", population, "--k", "5", "--seed", "3", "--criteria", "region,size"],
    ):
        code, loaded = json.loads(_fresh(_PROBE, *argv, store=tmp_path / "runs"))
        assert code == 0, argv
        assert "statistics" not in loaded, argv


def test_bare_import_loads_no_submodule_yet_exposes_each(tmp_path):
    probe = (
        "import json, sys, stride\n"
        "before = sorted(name for name in sys.modules if name.startswith('stride.'))\n"
        f"found = [getattr(stride, name) is sys.modules['stride.' + name] for name in {SUBMODULES!r}]\n"
        "print(json.dumps([before, found, stride.__version__]))\n"
    )
    before, found, version = json.loads(_fresh(probe, store=tmp_path))
    assert before == []
    assert all(found)
    assert version == "0.1.0"


def test_errors_loads_no_other_stride_module(tmp_path):
    # Every module imports the finite-number rule from stride.errors, so it must import none of them.
    probe = (
        "import json, sys, stride.errors\n"
        "print(json.dumps(sorted(n for n in sys.modules if n.split('.')[0] == 'stride')))\n"
    )
    assert json.loads(_fresh(probe, store=tmp_path)) == ["stride", "stride.errors"]


def test_public_names_resolve_to_their_submodule_objects():
    names = [name for module, listed in EXPORTS.items() for name in listed.split()]
    assert len(names) == 57
    assert sorted(stride.__all__) == sorted([*names, *SUBMODULES])
    for module_name, listed in EXPORTS.items():
        module = importlib.import_module(f"stride.{module_name}")
        for name in listed.split():
            assert getattr(stride, name) is getattr(module, name), name
    for name in SUBMODULES:
        assert getattr(stride, name) is importlib.import_module(f"stride.{name}")
    assert {*names, *SUBMODULES, "__version__"} <= set(dir(stride))
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        stride.missing


def test_star_import_binds_every_name_and_submodule(tmp_path):
    probe = (
        "import json, sys\n"
        "namespace = {}\n"
        "exec('from stride import *', namespace)\n"
        "bound = sorted(name for name in namespace if name != '__builtins__')\n"
        f"modules = [namespace[name] is sys.modules['stride.' + name] for name in {SUBMODULES!r}]\n"
        "print(json.dumps([bound, modules]))\n"
    )
    bound, modules = json.loads(_fresh(probe, store=tmp_path))
    names = [name for listed in EXPORTS.values() for name in listed.split()]
    assert bound == sorted([*names, *SUBMODULES])
    assert all(modules)


def test_pyproject_declares_no_runtime_dependency():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    assert re.findall(r"^dependencies\b.*$", project, re.MULTILINE) == ["dependencies = []"]


def test_every_submodule_imports_from_the_standard_library_alone():
    # -S keeps site-packages and any sitecustomize out of the interpreter.
    probe = (
        "import importlib, json, pkgutil, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "before = set(sys.modules)\n"
        "import stride\n"
        "names = [info.name for info in pkgutil.walk_packages(stride.__path__, 'stride.')]\n"
        "for name in names:\n"
        "    importlib.import_module(name)\n"
        "loaded = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "print(json.dumps([names, sorted(loaded - set(sys.stdlib_module_names))]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe, SRC], capture_output=True, text=True, encoding="utf-8", check=True, timeout=60
    )
    names, outside = json.loads(done.stdout)
    assert {f"stride.{name}" for name in SUBMODULES} | {"stride.cli", "stride.fixtures"} <= set(names)
    assert outside == ["stride"]
