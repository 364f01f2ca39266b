"""Content-addressed run persistence."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
import re

import pytest

from manifest_factory import random_manifest, skewed_config
from stride.digests import canonical_json, content_digest
from stride.errors import StoreError, StrideError
from stride.io import report_to_dict
from stride.model import COMPONENT_METRICS, ComponentId, MetricId, WeightConfig, equal_weight_config
from stride.runstore import (
    load_run,
    resolve_run_id,
    run_id_for,
    save_run,
    store_path_from_env,
)
from stride.scoring import score_dataset, trust_score


@pytest.fixture()
def report(luxshare_manifest, equal_config):
    return score_dataset(luxshare_manifest, equal_config)


def seeded_reports(count: int = 60):
    """Reports of seeded factory manifests under equal and skewed weights."""
    for config in (equal_weight_config(), skewed_config()):
        for seed in range(count):
            yield score_dataset(random_manifest(random.Random(seed)), config)


class TestSaveAndLoad:
    def test_run_id_is_the_report_content_hash(self, report, tmp_path):
        run_id = save_run(report, tmp_path)
        assert run_id == run_id_for(report)
        assert len(run_id) == 64
        assert (tmp_path / f"{run_id}.json").exists()

    def test_saving_twice_is_idempotent(self, report, tmp_path):
        first = save_run(report, tmp_path)
        before = (tmp_path / f"{first}.json").read_text(encoding="utf-8")
        second = save_run(report, tmp_path)
        after = (tmp_path / f"{first}.json").read_text(encoding="utf-8")
        assert first == second
        assert before == after
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_load_round_trips_the_report(self, report, tmp_path):
        run_id = save_run(report, tmp_path)
        record = load_run(run_id, tmp_path)
        assert record.run_id == run_id
        assert record.report == report
        assert record.manifest_digest == report.manifest_digest
        assert record.timestamp

    def test_loaded_record_rejects_tampering(self, report, tmp_path):
        run_id = save_run(report, tmp_path)
        path = tmp_path / f"{run_id}.json"
        raw = json.loads(path.read_text(encoding="utf-8"))
        raw["report"]["trust"] = 0.9
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(StoreError, match="does not match its id"):
            load_run(run_id, tmp_path)

    def test_unreadable_record_is_reported(self, report, tmp_path):
        run_id = save_run(report, tmp_path)
        (tmp_path / f"{run_id}.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(StoreError, match="cannot read run record"):
            load_run(run_id, tmp_path)

    @pytest.mark.parametrize("text", ["[]", "5", '"text"', "null"])
    def test_record_that_is_not_an_object_is_reported(self, report, tmp_path, text):
        run_id = save_run(report, tmp_path)
        (tmp_path / f"{run_id}.json").write_text(text, encoding="utf-8")
        with pytest.raises(StoreError, match="not a JSON object"):
            load_run(run_id, tmp_path)
        with pytest.raises(StoreError, match="not a JSON object"):
            save_run(report, tmp_path)

    def test_existing_record_without_a_report_is_not_overwritten(self, report, tmp_path):
        run_id = save_run(report, tmp_path)
        path = tmp_path / f"{run_id}.json"
        path.write_text("{}", encoding="utf-8")
        with pytest.raises(StoreError, match="does not match its id"):
            save_run(report, tmp_path)
        assert path.read_text(encoding="utf-8") == "{}"

    def test_record_missing_fields_is_reported(self, report, tmp_path):
        run_id = save_run(report, tmp_path)
        path = tmp_path / f"{run_id}.json"
        raw = json.loads(path.read_text(encoding="utf-8"))
        del raw["config_digest"]
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(StoreError, match="missing field 'config_digest'"):
            load_run(run_id, tmp_path)

    def test_different_configs_store_separately(self, report, luxshare_manifest, tmp_path):
        from stride.model import MetricId, WeightConfig, validate_weight_config

        other_config = validate_weight_config(
            WeightConfig(
                alpha=(0.4, 0.3, 0.2, 0.1),
                weights={metric: 1.0 for metric in MetricId},
                applicability={metric: True for metric in MetricId},
            )
        )
        other = score_dataset(luxshare_manifest, other_config)
        first = save_run(report, tmp_path)
        second = save_run(other, tmp_path)
        assert first != second
        assert len(list(tmp_path.glob("*.json"))) == 2


class TestResolution:
    def test_unique_prefix_resolves(self, report, tmp_path):
        run_id = save_run(report, tmp_path)
        assert resolve_run_id(run_id[:10], tmp_path) == run_id
        assert load_run(run_id[:10], tmp_path).run_id == run_id

    def test_unknown_prefix_is_reported(self, report, tmp_path):
        save_run(report, tmp_path)
        with pytest.raises(StoreError, match="no run matches"):
            resolve_run_id("f" * 12 if not run_id_for(report).startswith("f") else "0" * 12, tmp_path)

    def test_ambiguous_prefix_is_reported(self, report, tmp_path):
        run_id = save_run(report, tmp_path)
        sibling = dict(json.loads((tmp_path / f"{run_id}.json").read_text(encoding="utf-8")))
        forged = run_id[:8] + ("0" if run_id[8] != "0" else "1") + run_id[9:]
        (tmp_path / f"{forged}.json").write_text(json.dumps(sibling), encoding="utf-8")
        with pytest.raises(StoreError, match="ambiguous"):
            resolve_run_id(run_id[:8], tmp_path)

    def test_non_hex_run_id_is_rejected(self, tmp_path):
        with pytest.raises(StoreError, match="must be a hex string"):
            resolve_run_id("../escape", tmp_path)

    def test_missing_store_is_reported(self, tmp_path):
        with pytest.raises(StoreError, match="does not exist"):
            resolve_run_id("abc123", tmp_path / "never-created")


class TestStorePath:
    def test_environment_variable_wins(self):
        assert store_path_from_env({"STRIDE_STORE": "/tmp/custom-store"}).name == "custom-store"

    def test_default_path(self):
        assert str(store_path_from_env({})) == ".stride-runs"


class TestRunIdStability:
    def test_identical_reports_share_an_id(self, report, luxshare_manifest, equal_config):
        again = score_dataset(luxshare_manifest, equal_config)
        assert run_id_for(report) == run_id_for(again)

    def test_id_tracks_report_content(self, report):
        shifted = dataclasses.replace(report, trust=report.trust + 1e-9)
        assert run_id_for(shifted) != run_id_for(report)

    def test_id_is_the_digest_of_the_report_document(self, report):
        assert run_id_for(report) == content_digest(report_to_dict(report))


def _rewrite_indented(path) -> str:
    """Rewrite a record in the indented form older versions wrote."""
    text = json.dumps(json.loads(path.read_text(encoding="utf-8")), indent=2, sort_keys=True) + "\n"
    path.write_text(text, encoding="utf-8")
    return text


class TestRecordFormat:
    def test_record_is_canonical_json(self, report, tmp_path):
        # The record is a template around the report text; it must read as canonical_json(record).
        escaped = dataclasses.replace(report, manifest_digest='quote " backslash \\ control \x01 non-ASCII é ✓')
        for each in [report, escaped, *seeded_reports()]:
            run_id = save_run(each, tmp_path)
            text = (tmp_path / f"{run_id}.json").read_text(encoding="utf-8")
            raw = json.loads(text)
            assert text == canonical_json(raw) + "\n"
            assert sorted(raw) == ["config_digest", "manifest_digest", "report", "run_id", "timestamp"]
            assert raw["run_id"] == run_id
            assert raw["manifest_digest"] == each.manifest_digest
            assert raw["report"] == report_to_dict(each)
            assert raw["config_digest"] == content_digest(report_to_dict(each)["config"])
            assert load_run(run_id, tmp_path).report == each

    def test_indented_record_still_loads(self, report, tmp_path):
        run_id = save_run(report, tmp_path)
        saved = load_run(run_id, tmp_path)
        _rewrite_indented(tmp_path / f"{run_id}.json")
        record = load_run(run_id, tmp_path)
        assert record == saved
        assert record.report == report

    def test_saving_again_keeps_an_indented_record(self, report, tmp_path):
        run_id = save_run(report, tmp_path)
        path = tmp_path / f"{run_id}.json"
        before = _rewrite_indented(path).encode("utf-8")
        assert save_run(report, tmp_path) == run_id
        assert path.read_bytes() == before
        assert len(list(tmp_path.iterdir())) == 1


class TestRecordEnvelope:
    """A record whose report verifies is still refused if its envelope is wrong."""

    def _rewrite(self, path, **fields):
        raw = json.loads(path.read_text(encoding="utf-8"))
        raw.update(fields)
        path.write_text(canonical_json(raw) + "\n", encoding="utf-8")

    @pytest.mark.parametrize("key", ["timestamp", "manifest_digest", "config_digest"])
    @pytest.mark.parametrize("value", [["2026-01-01"], {"sha256": "00"}, 7, None], ids=["list", "object", "int", "null"])
    def test_envelope_field_that_is_not_a_string_is_a_store_error(self, report, tmp_path, key, value):
        run_id = save_run(report, tmp_path)
        self._rewrite(tmp_path / f"{run_id}.json", **{key: value})
        kind = type(value).__name__
        with pytest.raises(StoreError, match=f"^run {run_id}: record field '{key}' must be a string, got {kind}$"):
            load_run(run_id, tmp_path)

    def test_manifest_digest_contradicting_the_report_is_a_store_error(self, report, tmp_path):
        run_id = save_run(report, tmp_path)
        self._rewrite(tmp_path / f"{run_id}.json", manifest_digest="0" * 64)
        with pytest.raises(StoreError, match=f"^run {run_id}: record manifest_digest does not match its report$"):
            load_run(run_id, tmp_path)

    @pytest.mark.parametrize("value", ["not checked", "0" * 64, ""])
    def test_config_digest_contradicting_the_report_is_a_store_error(self, report, tmp_path, value):
        run_id = save_run(report, tmp_path)
        self._rewrite(tmp_path / f"{run_id}.json", config_digest=value)
        with pytest.raises(StoreError, match=f"^run {run_id}: record config_digest does not match its report$"):
            load_run(run_id, tmp_path)

    def test_config_digest_is_the_digest_of_the_stored_config(self, report, tmp_path):
        run_id = save_run(report, tmp_path)
        raw = json.loads((tmp_path / f"{run_id}.json").read_text(encoding="utf-8"))
        assert load_run(run_id, tmp_path).config_digest == raw["config_digest"] == content_digest(raw["report"]["config"])


class TestStoreErrors:
    def test_store_under_a_file_is_a_store_error(self, report, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory", encoding="utf-8")
        with pytest.raises(StoreError, match="cannot open run store"):
            save_run(report, blocker / "store")

    def test_failed_write_leaves_no_temp_file(self, report, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr("stride.runstore.os.replace", refuse)
        with pytest.raises(StoreError, match="cannot write run record"):
            save_run(report, tmp_path)
        assert list(tmp_path.iterdir()) == []


class TestNonFiniteRecords:
    def _write_record(self, path, report_dict, run_id):
        record = {"run_id": run_id, "timestamp": "t", "manifest_digest": "m", "config_digest": "c", "report": report_dict}
        path.write_text(json.dumps(record, sort_keys=True), encoding="utf-8")

    def test_report_holding_nan_is_refused_before_anything_is_written(self, report, tmp_path):
        store = tmp_path / "runs"
        for value in (float("nan"), float("inf")):
            non_finite = dataclasses.replace(report, trust=value)
            with pytest.raises(StoreError, match="^report has no run id: Out of range float values"):
                save_run(non_finite, store)
            with pytest.raises(StoreError, match="^report has no run id: Out of range float values"):
                run_id_for(non_finite)
        assert not store.exists()

    def test_record_holding_nan_is_a_store_error(self, report, tmp_path):
        # A record as an encoder that allows NaN would write it, id included.
        report_dict = report_to_dict(report)
        report_dict["trust"] = float("nan")
        run_id = hashlib.sha256(
            json.dumps(report_dict, sort_keys=True, separators=(",", ":")).encode("utf-8")
        ).hexdigest()
        self._write_record(tmp_path / f"{run_id}.json", report_dict, run_id)
        with pytest.raises(StoreError, match="^cannot read run record .*: NaN is not a finite number$"):
            load_run(run_id, tmp_path)

    @pytest.mark.parametrize(
        ("literal", "reason"),
        [
            ("Infinity", "Infinity is not a finite number"),
            ("1e400", "1e400 is out of float range"),
            ("-1e999", "-1e999 is out of float range"),
        ],
    )
    def test_existing_record_holding_a_non_finite_number_is_a_store_error(self, report, tmp_path, literal, reason):
        run_id = save_run(report, tmp_path)
        path = tmp_path / f"{run_id}.json"
        path.write_text(
            path.read_text(encoding="utf-8").replace('"trust":', f'"trust":{literal},"was":'), encoding="utf-8"
        )
        message = f"^cannot read run record {run_id}.json: {reason}$"
        with pytest.raises(StoreError, match=message):
            load_run(run_id, tmp_path)
        with pytest.raises(StoreError, match=message):
            save_run(report, tmp_path)

    def test_malformed_report_under_its_own_id_is_a_store_error(self, report, tmp_path):
        report_dict = report_to_dict(report)
        report_dict["trust"] = "high"
        run_id = content_digest(report_dict)
        self._write_record(tmp_path / f"{run_id}.json", report_dict, run_id)
        with pytest.raises(StoreError, match=f"^run {run_id}: stored report is malformed: report.trust: "):
            load_run(run_id, tmp_path)

    def test_record_that_is_not_utf8_is_a_store_error(self, report, tmp_path):
        run_id = save_run(report, tmp_path)
        (tmp_path / f"{run_id}.json").write_bytes(b'{"run_id": "\xff"}')
        with pytest.raises(StoreError, match="cannot read run record"):
            load_run(run_id, tmp_path)


def _write_edited(store, report, edit, indent=None) -> str:
    """Write a record of ``report`` edited in place by ``edit``, rehashed and named by its new run id."""
    document = report_to_dict(report)
    edit(document)
    run_id = content_digest(document)
    record = {
        "config_digest": content_digest(document["config"]),
        "manifest_digest": document["manifest_digest"],
        "report": document,
        "run_id": run_id,
        "timestamp": "2026-01-01T00:00:00+00:00",
    }
    text = canonical_json(record) if indent is None else json.dumps(record, indent=indent, sort_keys=True)
    store.mkdir(parents=True, exist_ok=True)
    (store / f"{run_id}.json").write_text(text + "\n", encoding="utf-8")
    return run_id


def _set(*path_and_value):
    *path, key, value = path_and_value

    def edit(document):
        for step in path:
            document = document[step]
        document[key] = value

    return edit


def _sub_score(document: dict, code: str) -> dict:
    return next(sub for sub in document["sub_scores"] if sub["metric_id"] == code)


def _zero_self_serving(sign: float):
    """The applicable self-serving sub-scores at 0.0, S stored as ``sign * 0.0``, and the trust that gives."""

    def edit(document):
        for sub in document["sub_scores"]:
            if sub["metric_id"] in ("T", "RS") and sub["applicable"]:
                sub["value"] = 0.0
        scores = document["component_scores"]
        scores["S"] = sign * 0.0
        document["trust"] = trust_score(scores["C"], scores["R"], scores["I"], 0.0, (0.25, 0.25, 0.25, 0.25))

    return edit


def _scale_credibility(factor: float):
    def edit(document):
        weights = document["config"]["credibility"]
        for code in weights:
            weights[code] *= factor

    return edit


def _no_credibility(document):
    for sub in document["sub_scores"]:
        if sub["metric_id"] in ("IM", "AT", "ER", "TR"):
            sub["value"], sub["applicable"] = None, False


class TestStoredArithmetic:
    """A record edited and renamed to its new hash must still add up: components and trust are recomputed."""

    @pytest.mark.parametrize(
        ("edit", "reason"),
        [
            (
                lambda d: (_set("component_scores", "C", 0.0)(d), _set("trust", 0.9)(d)),
                "stored component_scores.C does not match its sub-scores",
            ),
            (_set("trust", 0.9), "stored trust does not match its component scores"),
            (
                lambda d: _set("component_scores", "R", math.nextafter(d["component_scores"]["R"], 2.0))(d),
                "stored component_scores.R does not match its sub-scores",
            ),
            (
                lambda d: _set("sub_scores", 0, "value", d["sub_scores"][0]["value"] + 0.1)(d),
                "stored component_scores.C does not match its sub-scores",
            ),
            (_set("config", "credibility", "IM", 0.1), "stored component_scores.C does not match its sub-scores"),
            (_set("config", "alpha", "S", 0.5), "stored trust does not match its component scores"),
            (_zero_self_serving(-1.0), "stored component_scores.S does not match its sub-scores"),
            (_no_credibility, "stored report cannot be recomputed: component C: no applicable sub-score"),
        ],
        ids=[
            "C zeroed and trust raised",
            "trust raised",
            "R one ulp up",
            "sub-score raised",
            "weight lowered",
            "alpha raised",
            "S negative zero",
            "no credibility sub-score",
        ],
    )
    def test_edited_record_is_a_store_error(self, report, tmp_path, edit, reason):
        run_id = _write_edited(tmp_path, report, edit)
        with pytest.raises(StoreError, match=f"^run {run_id}: {re.escape(reason)}$"):
            load_run(run_id, tmp_path)

    def test_record_that_still_adds_up_loads(self, report, tmp_path):
        run_id = _write_edited(tmp_path, report, _zero_self_serving(1.0))
        loaded = load_run(run_id, tmp_path).report
        assert loaded.component_scores[ComponentId.SELF_SERVING] == 0.0 and loaded.trust > report.trust

    @pytest.mark.parametrize(
        ("config", "edit", "reason"),
        [
            # Doubled weights renormalise to the stored ones, so the scores still add up.
            (equal_weight_config, _scale_credibility(2.0), "stored config.credibility.IM is not a normalised weight"),
            # AT is inapplicable under the skewed config, so its weight loads as 0.0.
            (
                skewed_config,
                _set("config", "credibility", "AT", -0.0),
                "stored config.credibility.AT is not a normalised weight",
            ),
        ],
        ids=["credibility doubled", "inapplicable weight negative zero"],
    )
    def test_record_whose_config_is_not_normalised_is_a_store_error(
        self, luxshare_manifest, tmp_path, config, edit, reason
    ):
        # The parent served these, with weights under which the loaded report has another run id.
        run_id = _write_edited(tmp_path, score_dataset(luxshare_manifest, config()), edit)
        with pytest.raises(StoreError, match=f"^run {run_id}: {re.escape(reason)}$"):
            load_run(run_id, tmp_path)

    @pytest.mark.parametrize(
        "edit",
        [_set("component_scores", "S", 1), lambda document: _sub_score(document, "RS").update(value=1)],
        ids=["component S", "sub-score RS"],
    )
    def test_record_with_an_integer_in_a_float_field_is_a_store_error(self, report, tmp_path, edit):
        # The parent served these, and the loaded report, holding 1.0, hashed to another run id.
        assert report.component_scores[ComponentId.SELF_SERVING] == 1.0 == report.sub_score(MetricId.ROLE_SEPARATION).value
        run_id = _write_edited(tmp_path, report, edit)
        with pytest.raises(StoreError, match=f"^run {run_id}: stored report loads as a report of another id$"):
            load_run(run_id, tmp_path)

    def test_save_refuses_to_keep_a_record_that_loads_under_another_id(self, report, tmp_path):
        run_id = _write_edited(tmp_path, report, _set("component_scores", "S", 1), indent=2)
        as_stored = dataclasses.replace(report, component_scores={**report.component_scores, ComponentId.SELF_SERVING: 1})
        assert run_id_for(as_stored) == run_id
        reason = "stored report loads as a report of another id"
        with pytest.raises(StoreError, match=f"^run {run_id}: stored content does not match its id: {reason}$"):
            save_run(as_stored, tmp_path)

    def test_save_refuses_to_keep_an_edited_record(self, report, tmp_path):
        run_id = _write_edited(tmp_path, report, _set("trust", 0.9), indent=2)
        tampered = dataclasses.replace(report, trust=0.9)
        assert run_id_for(tampered) == run_id
        reason = "stored trust does not match its component scores"
        with pytest.raises(StoreError, match=f"^run {run_id}: stored content does not match its id: {reason}$"):
            save_run(tampered, tmp_path)

    def test_every_scored_report_passes_the_check(self, tmp_path):
        """Bit-exact recomputation on seeded manifests under seeded weight configurations."""
        loaded = 0
        for seed in range(300):
            rng = random.Random(seed)
            manifest = random_manifest(rng)
            config = _random_config(rng)
            try:
                report = score_dataset(manifest, config)
            except StrideError:
                continue
            assert load_run(save_run(report, tmp_path), tmp_path).report == report
            loaded += 1
        assert loaded > 250


def _random_config(rng: random.Random) -> WeightConfig:
    """Uneven weights of several magnitudes, uneven alpha, and some metrics inapplicable."""
    while True:
        applicability = {metric: rng.random() < 0.8 for metric in MetricId}
        if all(any(applicability[m] for m in members) for members in COMPONENT_METRICS.values()):
            break
    weights = {
        metric: rng.choice((rng.random() * 10, float(rng.randint(0, 5)), rng.random() * 1e-3)) for metric in MetricId
    }
    return WeightConfig(tuple(rng.random() * 3 for _ in range(4)), weights, applicability)
