"""End-to-end command-line behaviour, driven through main(argv)."""

from __future__ import annotations

import json

import pytest

from stride.cli import main
from stride.digests import canonical_json, content_digest
from stride.fixtures import fixture_text


@pytest.fixture()
def store(tmp_path, monkeypatch):
    path = tmp_path / "runs"
    monkeypatch.setenv("STRIDE_STORE", str(path))
    return path


@pytest.fixture()
def manifest_file(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(fixture_text("luxshare_manifest.json"), encoding="utf-8")
    return path


@pytest.fixture()
def rating_files(tmp_path):
    baseline = tmp_path / "baseline.json"
    recomputed = tmp_path / "recomputed.json"
    annotations = tmp_path / "annotations.json"
    baseline.write_text(fixture_text("luxshare_baseline_rating.json"), encoding="utf-8")
    recomputed.write_text(fixture_text("luxshare_recomputed_rating.json"), encoding="utf-8")
    annotations.write_text(fixture_text("luxshare_annotations.json"), encoding="utf-8")
    return baseline, recomputed, annotations


@pytest.fixture()
def population_file(tmp_path):
    records = [{"record_id": f"r{i:03d}", "region": "apac" if i % 3 else "emea"} for i in range(60)]
    path = tmp_path / "population.json"
    path.write_text(json.dumps(records), encoding="utf-8")
    return path


class TestScore:
    def test_score_writes_report_and_saves_run(self, store, manifest_file, capsys):
        exit_code = main(["score", "--manifest", str(manifest_file), "--weights", "equal"])
        captured = capsys.readouterr()
        assert exit_code == 0
        document = json.loads(captured.out)
        assert document["trust"] == pytest.approx(0.55976, abs=1e-4)
        assert captured.err.startswith("run saved: ")
        run_id = captured.err.split()[-1]
        assert (store / f"{run_id}.json").exists()

    def test_score_accepts_a_weights_file(self, store, manifest_file, tmp_path, capsys):
        weights_file = tmp_path / "weights.json"
        weights_file.write_text(fixture_text("equal_weights.json"), encoding="utf-8")
        exit_code = main(["score", "--manifest", str(manifest_file), "--weights", str(weights_file)])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert json.loads(captured.out)["trust"] == pytest.approx(0.55976, abs=1e-4)

    def test_score_out_writes_a_file(self, store, manifest_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        exit_code = main(
            ["score", "--manifest", str(manifest_file), "--weights", "equal", "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert captured.out == ""
        assert json.loads(out.read_text(encoding="utf-8"))["component_scores"]["S"] == 1.0

    def test_rescoring_reuses_the_run_id(self, store, manifest_file, capsys):
        main(["score", "--manifest", str(manifest_file), "--weights", "equal"])
        first = capsys.readouterr().err.split()[-1]
        main(["score", "--manifest", str(manifest_file), "--weights", "equal"])
        second = capsys.readouterr().err.split()[-1]
        assert first == second
        assert len(list(store.glob("*.json"))) == 1

    def test_rescoring_onto_a_record_that_would_not_load_exits_3(self, store, manifest_file, capsys):
        main(["score", "--manifest", str(manifest_file), "--weights", "equal"])
        run_id = capsys.readouterr().err.split()[-1]
        path = store / f"{run_id}.json"
        record = json.loads(path.read_text(encoding="utf-8"))
        record["config_digest"] = "0" * 64
        tampered = json.dumps(record)
        path.write_text(tampered, encoding="utf-8")
        assert main(["explain", "--run", run_id]) == 3
        assert "record config_digest does not match its report" in capsys.readouterr().err
        exit_code = main(["score", "--manifest", str(manifest_file), "--weights", "equal"])
        captured = capsys.readouterr()
        assert exit_code == 3
        assert captured.err == (
            f"error: run {run_id}: stored content does not match its id: "
            "record config_digest does not match its report\n"
        )
        assert path.read_text(encoding="utf-8") == tampered

    def test_invalid_manifest_exits_2(self, store, tmp_path, capsys):
        document = json.loads(fixture_text("luxshare_manifest.json"))
        document["temporal"]["decay_rate"] = -1.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document), encoding="utf-8")
        exit_code = main(["score", "--manifest", str(bad), "--weights", "equal"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith("error: manifest invariant violation")

    @pytest.mark.parametrize(
        "field, literal",
        [
            ("decay_rate", "NaN"),
            ("decay_rate", "-Infinity"),
            ("decay_rate", "1e400"),
            ("total_rows", str(10**400)),
        ],
        ids=["nan", "minus-infinity", "1e400", "10**400"],
    )
    def test_non_finite_or_oversized_numbers_exit_2(self, store, tmp_path, capsys, field, literal):
        text = fixture_text("luxshare_manifest.json")
        document = json.loads(text)
        section = "temporal" if field == "decay_rate" else "safety"
        original = json.dumps({field: document[section][field]})[1:-1]
        assert text.count(original) == 1
        bad = tmp_path / "poisoned.json"
        bad.write_text(text.replace(original, f'"{field}": {literal}'), encoding="utf-8")
        exit_code = main(["score", "--manifest", str(bad), "--weights", "equal"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err
        assert not store.exists() or not list(store.iterdir())

    def test_missing_manifest_file_exits_2(self, store, capsys):
        exit_code = main(["score", "--manifest", "/nonexistent/manifest.json", "--weights", "equal"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "cannot read manifest file" in captured.err

    def test_unscorable_manifest_exits_3(self, store, tmp_path, manifest_file, capsys):
        # The fixture is valid, but with RS inapplicable the self-serving component has no applicable sub-score.
        document = json.loads(fixture_text("equal_weights.json"))
        document["applicability"]["RS"] = False
        weights = tmp_path / "no-rs.json"
        weights.write_text(json.dumps(document), encoding="utf-8")
        assert main(["validate", "--manifest", str(manifest_file)]) == 0
        capsys.readouterr()
        exit_code = main(["score", "--manifest", str(manifest_file), "--weights", str(weights)])
        captured = capsys.readouterr()
        assert exit_code == 3
        assert captured.err == "error: component S: no applicable sub-score\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        ("total", "part"),
        [
            ("governed_cases", "interventions"),
            ("experts_total", "experts_involved"),
            ("stages_total", "stages_with_experts"),
            ("role_relations_total", "role_relations_separated"),
        ],
    )
    def test_validate_and_score_agree_on_a_zero_governance_total(self, store, tmp_path, capsys, total, part):
        # A governance criterion is a share of its total, so a total of 0 leaves nothing to rate.
        document = json.loads(fixture_text("luxshare_manifest.json"))
        document["governance"].update({total: 0, part: 0})
        bad = tmp_path / "ungoverned.json"
        bad.write_text(json.dumps(document), encoding="utf-8")
        codes = [main(["validate", "--manifest", str(bad)])]
        validated = capsys.readouterr()
        codes.append(main(["score", "--manifest", str(bad), "--weights", "equal"]))
        scored = capsys.readouterr()
        assert codes == [2, 2]
        assert validated.out == f"governance.{total}: must be positive\n"
        assert scored.err == f"error: manifest invariant violation: governance.{total}: must be positive\n"
        assert scored.out == "" and not store.exists()

    def test_store_filesystem_error_exits_3(self, tmp_path, manifest_file, monkeypatch, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory", encoding="utf-8")
        monkeypatch.setenv("STRIDE_STORE", str(blocker / "store"))
        exit_code = main(["score", "--manifest", str(manifest_file), "--weights", "equal"])
        captured = capsys.readouterr()
        assert exit_code == 3
        assert captured.err.startswith("error: cannot open run store")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_unwritable_out_exits_2_and_saves_no_run(self, store, manifest_file, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "report.json"
        exit_code = main(
            ["score", "--manifest", str(manifest_file), "--weights", "equal", "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith("error: cannot write output file")
        assert "Traceback" not in captured.err
        assert not out.exists()
        assert not store.exists() or list(store.iterdir()) == []


class TestExplain:
    def test_explain_accepts_a_unique_prefix(self, store, manifest_file, capsys):
        main(["score", "--manifest", str(manifest_file), "--weights", "equal"])
        run_id = capsys.readouterr().err.split()[-1]
        exit_code = main(["explain", "--run", run_id[:12]])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert f"run: {run_id}" in captured.out
        assert "credibility (C) = 0.8118" in captured.out
        assert "self-serving (S) = 1.0000" in captured.out
        assert "[enters as -0.25 * S]" in captured.out
        assert "AT  not applicable" in captured.out
        assert captured.out.rstrip().endswith("trust = 0.5598")

    def test_indented_record_explains_the_same(self, store, manifest_file, capsys):
        main(["score", "--manifest", str(manifest_file), "--weights", "equal"])
        run_id = capsys.readouterr().err.split()[-1]
        assert main(["explain", "--run", run_id]) == 0
        expected = capsys.readouterr().out
        path = store / f"{run_id}.json"
        path.write_text(
            json.dumps(json.loads(path.read_text(encoding="utf-8")), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        assert main(["explain", "--run", run_id]) == 0
        assert capsys.readouterr().out == expected

    def test_unknown_run_exits_3(self, store, manifest_file, capsys):
        main(["score", "--manifest", str(manifest_file), "--weights", "equal"])
        capsys.readouterr()
        exit_code = main(["explain", "--run", "0123456789ab"])
        captured = capsys.readouterr()
        assert exit_code == 3
        assert "no run matches" in captured.err

    @pytest.mark.parametrize(
        ("literal", "reason"), [("NaN", "NaN is not a finite number"), ("1e400", "1e400 is out of float range")]
    )
    def test_record_holding_a_non_finite_number_exits_3(self, store, manifest_file, capsys, literal, reason):
        main(["score", "--manifest", str(manifest_file), "--weights", "equal"])
        run_id = capsys.readouterr().err.split()[-1]
        path = store / f"{run_id}.json"
        path.write_text(
            path.read_text(encoding="utf-8").replace('"trust":', f'"trust":{literal},"was":'), encoding="utf-8"
        )
        exit_code = main(["explain", "--run", run_id])
        captured = capsys.readouterr()
        assert exit_code == 3
        assert captured.out == ""
        assert captured.err == f"error: cannot read run record {run_id}.json: {reason}\n"

    @pytest.mark.parametrize(
        ("key", "value", "reason"),
        [
            ("timestamp", ["2026-01-01"], "record field 'timestamp' must be a string, got list"),
            ("config_digest", {"sha256": "00"}, "record field 'config_digest' must be a string, got dict"),
            ("manifest_digest", "0" * 64, "record manifest_digest does not match its report"),
        ],
        ids=["timestamp-list", "config-digest-object", "manifest-digest-contradicts"],
    )
    def test_record_with_a_bad_envelope_exits_3(self, store, manifest_file, capsys, key, value, reason):
        main(["score", "--manifest", str(manifest_file), "--weights", "equal"])
        run_id = capsys.readouterr().err.split()[-1]
        path = store / f"{run_id}.json"
        raw = json.loads(path.read_text(encoding="utf-8"))
        raw[key] = value
        path.write_text(json.dumps(raw), encoding="utf-8")
        exit_code = main(["explain", "--run", run_id])
        captured = capsys.readouterr()
        assert exit_code == 3
        assert captured.out == ""
        assert captured.err == f"error: run {run_id}: {reason}\n"

    def test_record_with_a_rewritten_config_digest_exits_3(self, store, manifest_file, capsys):
        main(["score", "--manifest", str(manifest_file), "--weights", "equal"])
        run_id = capsys.readouterr().err.split()[-1]
        path = store / f"{run_id}.json"
        raw = json.loads(path.read_text(encoding="utf-8"))
        raw["config_digest"] = "not checked"
        path.write_text(json.dumps(raw), encoding="utf-8")
        exit_code = main(["explain", "--run", run_id])
        captured = capsys.readouterr()
        assert exit_code == 3
        assert captured.out == ""
        assert captured.err == f"error: run {run_id}: record config_digest does not match its report\n"

    def test_record_with_edited_scores_under_its_new_hash_exits_3(self, store, manifest_file, capsys):
        # Zero C and raise the trust, rehash the report and rename the record to the new id.
        main(["score", "--manifest", str(manifest_file), "--weights", "equal"])
        run_id = capsys.readouterr().err.split()[-1]
        path = store / f"{run_id}.json"
        raw = json.loads(path.read_text(encoding="utf-8"))
        raw["report"]["component_scores"]["C"] = 0.0
        raw["report"]["trust"] = 0.9
        new_id = raw["run_id"] = content_digest(raw["report"])
        (store / f"{new_id}.json").write_text(canonical_json(raw) + "\n", encoding="utf-8")
        path.unlink()
        exit_code = main(["explain", "--run", new_id[:12]])
        captured = capsys.readouterr()
        assert exit_code == 3
        assert captured.out == ""
        assert captured.err == f"error: run {new_id}: stored component_scores.C does not match its sub-scores\n"

    @pytest.mark.parametrize("where", ["component S", "sub-score RS"])
    def test_record_with_an_integer_in_a_float_field_exits_3(self, store, manifest_file, capsys, where):
        # Write a float that is 1.0 as the int 1, rehash the report and rename the record to the new id.
        main(["score", "--manifest", str(manifest_file), "--weights", "equal"])
        run_id = capsys.readouterr().err.split()[-1]
        raw = json.loads((store / f"{run_id}.json").read_text(encoding="utf-8"))
        if where == "component S":
            assert raw["report"]["component_scores"]["S"] == 1.0
            raw["report"]["component_scores"]["S"] = 1
        else:
            (sub,) = [sub for sub in raw["report"]["sub_scores"] if sub["metric_id"] == "RS"]
            assert sub["value"] == 1.0
            sub["value"] = 1
        new_id = raw["run_id"] = content_digest(raw["report"])
        (store / f"{new_id}.json").write_text(canonical_json(raw) + "\n", encoding="utf-8")
        exit_code = main(["explain", "--run", new_id])
        captured = capsys.readouterr()
        assert exit_code == 3
        assert captured.out == ""
        assert captured.err == f"error: run {new_id}: stored report loads as a report of another id\n"

    def test_record_whose_config_is_not_normalised_exits_3(self, store, manifest_file, capsys):
        # Double the credibility weights, rehash the report and rename the record to the new id.
        main(["score", "--manifest", str(manifest_file), "--weights", "equal"])
        run_id = capsys.readouterr().err.split()[-1]
        path = store / f"{run_id}.json"
        raw = json.loads(path.read_text(encoding="utf-8"))
        weights = raw["report"]["config"]["credibility"]
        for code in weights:
            weights[code] *= 2
        raw["config_digest"] = content_digest(raw["report"]["config"])
        new_id = raw["run_id"] = content_digest(raw["report"])
        (store / f"{new_id}.json").write_text(canonical_json(raw) + "\n", encoding="utf-8")
        exit_code = main(["explain", "--run", new_id])
        captured = capsys.readouterr()
        assert exit_code == 3
        assert captured.out == ""
        assert captured.err == f"error: run {new_id}: stored config.credibility.IM is not a normalised weight\n"


class TestValidate:
    def test_clean_manifest_reports_ok(self, manifest_file, capsys):
        exit_code = main(["validate", "--manifest", str(manifest_file)])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert captured.out == "luxshare-esg-2024: ok\n"

    def test_violations_are_listed_and_exit_2(self, tmp_path, capsys):
        document = json.loads(fixture_text("luxshare_manifest.json"))
        document["coverage"]["external_data_flag"] = 2
        document["safety"]["harmful_rows"] = 9999
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document), encoding="utf-8")
        exit_code = main(["validate", "--manifest", str(bad)])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "coverage.external_data_flag: must be 0 or 1" in captured.out
        assert "safety.harmful_rows: cannot exceed total_rows" in captured.out


class TestSample:
    def test_curve_emits_deterministic_csv(self, population_file, capsys):
        argv = [
            "sample",
            "curve",
            "--population",
            str(population_file),
            "--criterion",
            "region",
            "--sizes",
            "10,30,60",
            "--seed",
            "7",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        lines = first.strip().splitlines()
        assert lines[0] == "sample_size,divergence"
        assert [line.split(",")[0] for line in lines[1:]] == ["10", "30", "60"]
        assert float(lines[3].split(",")[1]) == 0.0

    def test_curve_rejects_malformed_sizes(self, population_file, capsys):
        argv = [
            "sample",
            "curve",
            "--population",
            str(population_file),
            "--criterion",
            "region",
            "--sizes",
            "ten",
            "--seed",
            "7",
        ]
        assert main(argv) == 2
        assert "--sizes must be a comma-separated list of integers" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["curve", "select"])
    def test_bins_above_the_cap_exit_2(self, population_file, capsys, command):
        argv = ["sample", command, "--population", str(population_file), "--seed", "7", "--bins", "1001"]
        argv += ["--criterion", "region", "--sizes", "10"] if command == "curve" else ["--k", "5"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: bins must be at most 1000\n"

    def test_curve_rejects_oversized_samples(self, population_file, capsys):
        argv = [
            "sample",
            "curve",
            "--population",
            str(population_file),
            "--criterion",
            "region",
            "--sizes",
            "100",
            "--seed",
            "7",
        ]
        assert main(argv) == 3
        assert "outside" in capsys.readouterr().err

    def test_select_emits_sorted_json(self, population_file, capsys):
        argv = [
            "sample",
            "select",
            "--population",
            str(population_file),
            "--k",
            "12",
            "--seed",
            "3",
        ]
        assert main(argv) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["criteria"] == ["region"]
        assert document["k"] == 12
        assert document["seed"] == 3
        assert len(document["selected"]) == 12
        assert document["selected"] == sorted(document["selected"])
        assert document["deviation"] <= document["initial_deviation"]

    def test_select_honours_explicit_criteria(self, tmp_path, capsys):
        records = [
            {"record_id": f"r{i}", "region": "apac" if i % 2 else "emea", "size": float(i)}
            for i in range(40)
        ]
        path = tmp_path / "population.json"
        path.write_text(json.dumps(records), encoding="utf-8")
        argv = [
            "sample",
            "select",
            "--population",
            str(path),
            "--k",
            "8",
            "--seed",
            "1",
            "--criteria",
            "region",
        ]
        assert main(argv) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["criteria"] == ["region"]

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_population_values_exit_2(self, tmp_path, capsys, cell):
        rows = ["record_id,region,size"] + [f"r{i},{'apac' if i % 2 else 'emea'},{i}.5" for i in range(20)]
        rows[7] = f"r6,emea,{cell}"
        path = tmp_path / "population.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        commands = [
            ["sample", "select", "--population", str(path), "--k", "5", "--seed", "1"],
            ["sample", "curve", "--population", str(path), "--criterion", "size", "--sizes", "5,10", "--seed", "1"],
        ]
        for argv in commands:
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "criterion 'size': numeric values must be finite" in captured.err
            assert "Traceback" not in captured.err

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e400"])
    @pytest.mark.parametrize("column", ["size", "note"], ids=["used", "unused"])
    def test_non_finite_csv_cell_exits_2_at_decode(self, tmp_path, capsys, cell, column):
        rows = ["record_id,region,size,note"] + [f"r{i},{'apac' if i % 2 else 'emea'},{i}.5,{i}" for i in range(20)]
        rows[7] = f"r6,emea,{cell if column == 'size' else '6.5'},{cell if column == 'note' else '6'}"
        path = tmp_path / "population.csv"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        commands = [
            ["sample", "select", "--population", str(path), "--k", "5", "--seed", "1", "--criteria", "region,size"],
            ["sample", "curve", "--population", str(path), "--criterion", "size", "--sizes", "5,10", "--seed", "1"],
        ]
        for argv in commands:
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            message = f"population[6].{column}: criterion '{column}': numeric values must be finite"
            assert captured.err == f"error: {message}\n"

    def test_select_with_a_non_finite_deviation_exits_3(self, population_file, capsys, monkeypatch):
        import dataclasses

        import stride.sampling

        select = stride.sampling.select_representative_sample

        def non_finite(*args, **kwargs):
            return dataclasses.replace(select(*args, **kwargs), deviation=float("nan"))

        monkeypatch.setattr(stride.sampling, "select_representative_sample", non_finite)
        argv = ["sample", "select", "--population", str(population_file), "--k", "5", "--seed", "1"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: selection has no JSON form: Out of range float values")
        assert "Traceback" not in captured.err

    def test_select_rejects_a_negative_swap_budget(self, population_file, capsys):
        argv = ["sample", "select", "--population", str(population_file), "--k", "5", "--seed", "1", "--max-swaps", "-5"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "max_swaps must be >= 0, got -5" in captured.err
        assert "Traceback" not in captured.err


class TestDelta:
    def test_json_report_by_default(self, rating_files, capsys):
        baseline, recomputed, annotations = rating_files
        argv = [
            "delta",
            "--baseline",
            str(baseline),
            "--stride",
            str(recomputed),
            "--annotations",
            str(annotations),
        ]
        assert main(argv) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["baseline_overall"] == "BB"
        assert document["net_adjustment"]["lower"] == pytest.approx(0.1, abs=1e-12)
        assert document["net_adjustment"]["upper"] == pytest.approx(0.7, abs=1e-12)

    def test_markdown_report_carries_net_line(self, rating_files, capsys):
        baseline, recomputed, annotations = rating_files
        argv = [
            "delta",
            "--baseline",
            str(baseline),
            "--stride",
            str(recomputed),
            "--annotations",
            str(annotations),
            "--format",
            "markdown",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Rating discrepancy report")
        assert "**Net adjustment: +0.1 to +0.7**" in out

    def test_annotations_are_optional(self, rating_files, capsys):
        baseline, recomputed, _ = rating_files
        argv = ["delta", "--baseline", str(baseline), "--stride", str(recomputed)]
        assert main(argv) == 0
        document = json.loads(capsys.readouterr().out)
        categories = {item["category"] for item in document["items"]}
        assert categories == {"other_scoring_error"}

    def test_missing_input_file_exits_2(self, rating_files, capsys):
        baseline, _, _ = rating_files
        argv = ["delta", "--baseline", str(baseline), "--stride", "/nonexistent.json"]
        assert main(argv) == 2
        assert "cannot read rating file" in capsys.readouterr().err


def _rating(scores: dict[str, float], scale: tuple[float, float]) -> str:
    issues = {key: {"score": score, "scale_min": scale[0], "scale_max": scale[1]} for key, score in scores.items()}
    return json.dumps(
        {
            "source_label": "rater",
            "period_start": "2024-01-01",
            "period_end": "2024-12-31",
            "overall_rating": "BB",
            "issue_scores": issues,
        }
    )


class TestDeltaOverflow:
    @pytest.mark.parametrize("fmt", ["json", "markdown"])
    def test_a_delta_beyond_float_range_exits_3(self, tmp_path, capsys, fmt):
        scale = (-1.7e308, 1.7e308)
        (tmp_path / "base.json").write_text(_rating({"pay": -1.7e308}, scale), encoding="utf-8")
        (tmp_path / "ours.json").write_text(_rating({"pay": 1.7e308}, scale), encoding="utf-8")
        argv = ["delta", "--baseline", str(tmp_path / "base.json"), "--stride", str(tmp_path / "ours.json")]
        assert main(argv + ["--format", fmt]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: issue 'pay': recomputed 1.7e+308 minus baseline -1.7e+308 is beyond float range\n"
        )

    @pytest.mark.parametrize("fmt", ["json", "markdown"])
    def test_a_net_adjustment_beyond_float_range_exits_3(self, tmp_path, capsys, fmt):
        (tmp_path / "base.json").write_text(_rating({"a": 1.0, "b": 2.0}, (0.0, 10.0)), encoding="utf-8")
        (tmp_path / "ours.json").write_text(_rating({"a": 1.0, "b": 2.0}, (0.0, 10.0)), encoding="utf-8")
        adjustment = {"category": "definition_ambiguity", "adjustment": 1.5e308}
        (tmp_path / "notes.json").write_text(json.dumps({"a": adjustment, "b": adjustment}), encoding="utf-8")
        argv = ["delta", "--baseline", str(tmp_path / "base.json"), "--stride", str(tmp_path / "ours.json")]
        assert main(argv + ["--annotations", str(tmp_path / "notes.json"), "--format", fmt]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: net adjustment is beyond float range\n"


class TestDeeplyNestedJson:
    DEEP = "[" * 100000 + "]" * 100000

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--manifest", "{deep}"],
            ["score", "--manifest", "{manifest}", "--weights", "{deep}"],
            ["delta", "--baseline", "{rating}", "--stride", "{rating}", "--annotations", "{deep}"],
        ],
        ids=["manifest", "weights", "annotations"],
    )
    def test_a_deep_document_exits_2(self, store, manifest_file, rating_files, tmp_path, capsys, argv):
        deep = tmp_path / "deep.json"
        deep.write_text(self.DEEP, encoding="utf-8")
        paths = {"deep": deep, "manifest": manifest_file, "rating": rating_files[0]}
        assert main([arg.format(**paths) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: invalid JSON: arrays or objects nested too deeply\n"

    def test_a_deep_run_record_exits_3(self, store, manifest_file, capsys):
        main(["score", "--manifest", str(manifest_file), "--weights", "equal"])
        run_id = capsys.readouterr().err.split()[-1]
        path = store / f"{run_id}.json"
        path.write_text(
            path.read_text(encoding="utf-8").replace('"trust":', f'"deep":{self.DEEP},"trust":'), encoding="utf-8"
        )
        assert main(["explain", "--run", run_id]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read run record {run_id}.json: maximum recursion depth exceeded")


class TestIssueScoreKeys:
    def test_an_unknown_issue_score_key_exits_2(self, tmp_path, capsys):
        document = json.loads(_rating({"pay": 1.0}, (0.0, 5.0)))
        document["issue_scores"]["pay"]["scroe"] = 99
        (tmp_path / "base.json").write_text(json.dumps(document), encoding="utf-8")
        (tmp_path / "ours.json").write_text(_rating({"pay": 2.0}, (0.0, 5.0)), encoding="utf-8")
        argv = ["delta", "--baseline", str(tmp_path / "base.json"), "--stride", str(tmp_path / "ours.json")]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: baseline.issue_scores['pay']: unknown field(s) scroe\n"


SAMPLE_COMMANDS = {
    "select": ["sample", "select", "--k", "2", "--seed", "0"],
    "curve": ["sample", "curve", "--criterion", "region", "--sizes", "2", "--seed", "0"],
}


class TestPopulationIdentity:
    @pytest.mark.parametrize("command", SAMPLE_COMMANDS)
    @pytest.mark.parametrize(
        ("header", "column"),
        [("record_id,region,region", "region"), ("record_id,region,record_id", "record_id")],
        ids=["criterion", "record_id"],
    )
    def test_a_repeated_csv_column_exits_2(self, tmp_path, capsys, command, header, column):
        path = tmp_path / "population.csv"
        path.write_text(header + "\n" + "".join(f"r{i},apac,x{i}\n" for i in range(4)), encoding="utf-8")
        assert main(SAMPLE_COMMANDS[command] + ["--population", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: population: CSV header repeats column {column!r}\n"

    @pytest.mark.parametrize("command", SAMPLE_COMMANDS)
    @pytest.mark.parametrize("suffix", [".json", ".csv"])
    def test_a_duplicate_record_id_exits_2(self, tmp_path, capsys, command, suffix):
        rows = [("r1", "apac"), ("r1", "emea"), ("r2", "apac"), ("r3", "emea")]
        path = tmp_path / f"population{suffix}"
        if suffix == ".json":
            path.write_text(
                json.dumps([{"record_id": rid, "region": region} for rid, region in rows]),
                encoding="utf-8",
            )
        else:
            path.write_text(
                "record_id,region\n" + "".join(f"{rid},{region}\n" for rid, region in rows),
                encoding="utf-8",
            )
        assert main(SAMPLE_COMMANDS[command] + ["--population", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: population[1].record_id: duplicate id 'r1'\n"

    @pytest.mark.parametrize("command", SAMPLE_COMMANDS)
    @pytest.mark.parametrize("suffix", [".json", ".csv"])
    @pytest.mark.parametrize("record_id", ["", "  "], ids=["empty", "blank"])
    def test_an_empty_record_id_exits_2(self, tmp_path, capsys, command, suffix, record_id):
        rows = [("r0", "apac"), (record_id, "emea"), ("r2", "apac")]
        path = tmp_path / f"population{suffix}"
        if suffix == ".json":
            path.write_text(
                json.dumps([{"record_id": rid, "region": region} for rid, region in rows]),
                encoding="utf-8",
            )
        else:
            path.write_text(
                "record_id,region\n" + "".join(f"{rid},{region}\n" for rid, region in rows),
                encoding="utf-8",
            )
        assert main(SAMPLE_COMMANDS[command] + ["--population", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: population[1].record_id: missing value\n"

    def test_a_json_record_id_is_kept_as_written(self, tmp_path, capsys):
        path = tmp_path / "population.json"
        path.write_text(
            json.dumps([{"record_id": rid, "region": "apac"} for rid in ("r0", " r0", "r0 ")]),
            encoding="utf-8",
        )
        assert main(["sample", "select", "--k", "3", "--seed", "0", "--population", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["selected"] == [" r0", "r0", "r0 "]


class TestOverlongIntegerLiterals:
    """An integer literal longer than the interpreter converts (4300 digits by default) is bad input."""

    LITERAL = "-" + "9" * 5000

    @pytest.mark.parametrize(
        ("argv", "before", "after"),
        [
            (["validate", "--manifest", "{doc}"], '{"dataset_id": "d 12345",\n "manifest_version": ', "}"),
            (["score", "--manifest", "{manifest}", "--weights", "{doc}"], '{"alpha": {"C": 0.5, "R": 1e2, "I": ', "}}"),
            (
                [*SAMPLE_COMMANDS["curve"], "--population", "{doc}"],
                '[{"record_id": "r1", "region": "apac", "size": 7},\n {"record_id": "r2", "size": ',
                "}]",
            ),
            (["delta", "--baseline", "{doc}", "--stride", "{rating}"], '{"issue_scores": {"pay": {"score": ', "}}}"),
        ],
        ids=["manifest", "weights", "population", "rating-record"],
    )
    def test_exits_2_with_line_and_column(
        self, store, manifest_file, rating_files, tmp_path, capsys, argv, before, after
    ):
        document = tmp_path / "document.json"
        document.write_text(before + self.LITERAL + after, encoding="utf-8")
        paths = {"doc": document, "manifest": manifest_file, "rating": rating_files[0]}
        assert main([arg.format(**paths) for arg in argv]) == 2
        captured = capsys.readouterr()
        line = before.count("\n") + 1
        column = len(before) - before.rfind("\n")
        assert captured.out == ""
        assert captured.err == (
            f"error: invalid JSON at line {line}, column {column}: integer of 5000 digits is out of float range\n"
        )

    def test_stored_record_exits_3_with_line_and_column(self, store, manifest_file, capsys):
        main(["score", "--manifest", str(manifest_file), "--weights", "equal"])
        run_id = capsys.readouterr().err.split()[-1]
        path = store / f"{run_id}.json"
        text = path.read_text(encoding="utf-8").replace('"trust":', f'"big":{self.LITERAL},"trust":')
        path.write_text(text, encoding="utf-8")
        assert main(["explain", "--run", run_id]) == 3
        captured = capsys.readouterr()
        start = text.index(self.LITERAL)
        line = text.count("\n", 0, start) + 1
        column = start - text.rfind("\n", 0, start)
        assert captured.out == ""
        assert captured.err == (
            f"error: cannot read run record {run_id}.json: integer of 5000 digits is out of float range:"
            f" line {line} column {column} (char {start})\n"
        )
