"""End-to-end command-line behaviour, driven through main(argv)."""

from __future__ import annotations

import json

import pytest

from stride.cli import main
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
        assert json.loads(out.read_text())["component_scores"]["S"] == 1.0

    def test_rescoring_reuses_the_run_id(self, store, manifest_file, capsys):
        main(["score", "--manifest", str(manifest_file), "--weights", "equal"])
        first = capsys.readouterr().err.split()[-1]
        main(["score", "--manifest", str(manifest_file), "--weights", "equal"])
        second = capsys.readouterr().err.split()[-1]
        assert first == second
        assert len(list(store.glob("*.json"))) == 1

    def test_invalid_manifest_exits_2(self, store, tmp_path, capsys):
        document = json.loads(fixture_text("luxshare_manifest.json"))
        document["temporal"]["decay_rate"] = -1.0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document), encoding="utf-8")
        exit_code = main(["score", "--manifest", str(bad), "--weights", "equal"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert captured.err.startswith("error: manifest invariant violation")

    def test_missing_manifest_file_exits_2(self, store, capsys):
        exit_code = main(["score", "--manifest", "/nonexistent/manifest.json", "--weights", "equal"])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "cannot read manifest file" in captured.err

    def test_unscorable_manifest_exits_3(self, store, tmp_path, capsys):
        document = json.loads(fixture_text("luxshare_manifest.json"))
        document["governance"]["interventions"] = 0
        document["governance"]["governed_cases"] = 0
        bad = tmp_path / "ungoverned.json"
        bad.write_text(json.dumps(document), encoding="utf-8")
        exit_code = main(["score", "--manifest", str(bad), "--weights", "equal"])
        captured = capsys.readouterr()
        assert exit_code == 3
        assert "governed_cases" in captured.err


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

    def test_unknown_run_exits_3(self, store, manifest_file, capsys):
        main(["score", "--manifest", str(manifest_file), "--weights", "equal"])
        capsys.readouterr()
        exit_code = main(["explain", "--run", "0123456789ab"])
        captured = capsys.readouterr()
        assert exit_code == 3
        assert "no run matches" in captured.err


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
