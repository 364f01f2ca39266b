"""Document parsing and serialisation round trips."""

from __future__ import annotations

import json
import random

import pytest

from manifest_factory import random_manifest
from stride.delta import DiscrepancyCategory, Interval
from stride.errors import SchemaError
from stride.io import (
    decode_manifest,
    manifest_to_json,
    manifest_violations,
    parse_annotations,
    parse_manifest,
    parse_population,
    parse_rating_record,
    parse_weight_config,
    report_from_dict,
    report_to_dict,
    report_to_json,
    weight_config_to_json,
)
from stride.model import MetricId
from stride.scoring import score_dataset


class TestManifestParsing:
    def test_fixture_round_trips(self, luxshare_manifest):
        assert parse_manifest(manifest_to_json(luxshare_manifest)) == luxshare_manifest

    def test_random_manifests_round_trip(self):
        rng = random.Random(31)
        for _ in range(100):
            manifest = random_manifest(rng)
            assert parse_manifest(manifest_to_json(manifest)) == manifest

    def test_syntax_errors_carry_line_and_column(self):
        with pytest.raises(SchemaError, match=r"invalid JSON at line 2, column"):
            parse_manifest('{\n  "manifest_version": ,\n}')

    def test_missing_section_is_named(self, luxshare_manifest):
        document = json.loads(manifest_to_json(luxshare_manifest))
        del document["safety"]
        with pytest.raises(SchemaError, match=r"manifest\.safety: missing required field"):
            parse_manifest(json.dumps(document))

    def test_unknown_fields_are_rejected(self, luxshare_manifest):
        document = json.loads(manifest_to_json(luxshare_manifest))
        document["coverage"]["sectors_total"] = 3
        with pytest.raises(SchemaError, match=r"coverage: unknown field\(s\) sectors_total"):
            parse_manifest(json.dumps(document))

    def test_wrong_scalar_type_is_named(self, luxshare_manifest):
        document = json.loads(manifest_to_json(luxshare_manifest))
        document["safety"]["harmful_rows"] = "none"
        with pytest.raises(SchemaError, match=r"safety\.harmful_rows: expected an integer, got str"):
            parse_manifest(json.dumps(document))

    def test_booleans_do_not_pass_as_integers(self, luxshare_manifest):
        document = json.loads(manifest_to_json(luxshare_manifest))
        document["coverage"]["external_data_flag"] = True
        with pytest.raises(SchemaError, match=r"coverage\.external_data_flag: expected an integer"):
            parse_manifest(json.dumps(document))

    def test_null_optional_sections_mean_absent(self, luxshare_manifest):
        document = json.loads(manifest_to_json(luxshare_manifest))
        document["annotation"] = None
        document["agility"] = None
        document["sampling_inputs"] = None
        manifest = parse_manifest(json.dumps(document))
        assert manifest.annotation is None
        assert manifest.agility is None
        assert manifest.sampling_inputs is None

    def test_agility_epsilon_defaults_when_omitted(self, luxshare_manifest):
        document = json.loads(manifest_to_json(luxshare_manifest))
        document["agility"] = {"accuracy_gain": 0.05, "change_proportion": 0.2}
        manifest = parse_manifest(json.dumps(document))
        assert manifest.agility.epsilon == 1e-6

    def test_invariant_violations_fail_parse(self, luxshare_manifest):
        document = json.loads(manifest_to_json(luxshare_manifest))
        document["temporal"]["decay_rate"] = -1.0
        with pytest.raises(SchemaError, match="manifest invariant violation.*temporal.decay_rate"):
            parse_manifest(json.dumps(document))

    def test_manifest_violations_reports_without_raising(self, luxshare_manifest):
        document = json.loads(manifest_to_json(luxshare_manifest))
        document["temporal"]["decay_rate"] = -1.0
        manifest, violations = manifest_violations(json.dumps(document))
        assert manifest.dataset_id == luxshare_manifest.dataset_id
        assert [v.path for v in violations] == ["temporal.decay_rate"]

    def test_decode_skips_invariant_checks(self, luxshare_manifest):
        document = json.loads(manifest_to_json(luxshare_manifest))
        document["temporal"]["decay_rate"] = -1.0
        manifest = decode_manifest(json.dumps(document))
        assert manifest.temporal.decay_rate == -1.0


class TestWeightConfigParsing:
    def test_equal_shorthand(self, equal_config):
        assert parse_weight_config("equal") == equal_config
        assert parse_weight_config('"equal"') == equal_config

    def test_fixture_document_matches_equal(self, equal_config):
        from stride.fixtures import fixture_text

        assert parse_weight_config(fixture_text("equal_weights.json")) == equal_config

    def test_round_trip(self, equal_config):
        assert parse_weight_config(weight_config_to_json(equal_config)) == equal_config

    def test_parsed_weights_are_normalised(self):
        document = {
            "alpha": {"C": 0.25, "R": 0.25, "I": 0.25, "S": 0.25},
            "credibility": {"IM": 2.0, "AT": 2.0, "ER": 2.0, "TR": 2.0},
            "reliability": {"SM": 1.0, "GT": 1.0, "AG": 1.0, "SS": 1.0},
            "intimacy": {"HG": 3.0, "DE": 1.0, "IF": 0.0},
            "self_serving": {"T": 1.0, "RS": 1.0},
        }
        config = parse_weight_config(json.dumps(document))
        assert config.weights[MetricId.INCLUSIVENESS_MATERIALITY] == pytest.approx(0.25, abs=1e-15)
        assert config.weights[MetricId.HUMAN_GOVERNED] == pytest.approx(0.75, abs=1e-15)
        assert config.weights[MetricId.ITERATIVE_FEEDBACK] == 0.0

    def test_missing_group_member_is_named(self):
        document = {
            "alpha": {"C": 0.25, "R": 0.25, "I": 0.25, "S": 0.25},
            "credibility": {"IM": 1.0, "AT": 1.0, "ER": 1.0},
            "reliability": {"SM": 1.0, "GT": 1.0, "AG": 1.0, "SS": 1.0},
            "intimacy": {"HG": 1.0, "DE": 1.0, "IF": 1.0},
            "self_serving": {"T": 1.0, "RS": 1.0},
        }
        with pytest.raises(SchemaError, match=r"credibility\.TR: missing required field"):
            parse_weight_config(json.dumps(document))

    def test_missing_alpha_entry_is_named(self):
        document = {
            "alpha": {"C": 0.25, "R": 0.25, "I": 0.25},
            "credibility": {"IM": 1.0, "AT": 1.0, "ER": 1.0, "TR": 1.0},
            "reliability": {"SM": 1.0, "GT": 1.0, "AG": 1.0, "SS": 1.0},
            "intimacy": {"HG": 1.0, "DE": 1.0, "IF": 1.0},
            "self_serving": {"T": 1.0, "RS": 1.0},
        }
        with pytest.raises(SchemaError, match=r"alpha\.S: missing required field"):
            parse_weight_config(json.dumps(document))

    def test_unknown_applicability_code_is_rejected(self):
        document = json.loads(weight_config_to_json(parse_weight_config("equal")))
        document["applicability"]["XX"] = True
        with pytest.raises(SchemaError, match=r"applicability\.XX: unknown metric code"):
            parse_weight_config(json.dumps(document))

    def test_applicability_must_be_boolean(self):
        document = json.loads(weight_config_to_json(parse_weight_config("equal")))
        document["applicability"]["AT"] = "no"
        with pytest.raises(SchemaError, match=r"applicability\.AT: expected a boolean"):
            parse_weight_config(json.dumps(document))


class TestReportSerialisation:
    def test_report_round_trips(self, luxshare_manifest, equal_config):
        report = score_dataset(luxshare_manifest, equal_config)
        document = json.loads(report_to_json(report))
        assert report_from_dict(document) == report

    def test_emission_is_deterministic(self, luxshare_manifest, equal_config):
        report = score_dataset(luxshare_manifest, equal_config)
        assert report_to_json(report) == report_to_json(report)

    def test_unsupported_version_is_rejected(self, luxshare_manifest, equal_config):
        document = report_to_dict(score_dataset(luxshare_manifest, equal_config))
        document["spec_version"] = "9.9"
        with pytest.raises(SchemaError, match="unsupported version"):
            report_from_dict(document)

    def test_trust_outside_open_interval_is_rejected(self, luxshare_manifest, equal_config):
        document = report_to_dict(score_dataset(luxshare_manifest, equal_config))
        document["trust"] = 1.0
        with pytest.raises(SchemaError, match="strictly between 0 and 1"):
            report_from_dict(document)

    def test_duplicate_metric_entry_is_rejected(self, luxshare_manifest, equal_config):
        document = report_to_dict(score_dataset(luxshare_manifest, equal_config))
        document["sub_scores"][1] = dict(document["sub_scores"][0])
        with pytest.raises(SchemaError, match="duplicate entry"):
            report_from_dict(document)

    def test_inapplicable_value_must_be_null(self, luxshare_manifest, equal_config):
        document = report_to_dict(score_dataset(luxshare_manifest, equal_config))
        for entry in document["sub_scores"]:
            if not entry["applicable"]:
                entry["value"] = 0.5
                break
        with pytest.raises(SchemaError, match="must be null when not applicable"):
            report_from_dict(document)

    @pytest.mark.parametrize(
        ("trail", "message"),
        [
            (("alpha", "C"), "report.config.alpha.C: missing required field"),
            (("credibility",), "report.config.credibility: missing required field"),
            (("credibility", "TR"), "report.config.credibility.TR: missing required field"),
        ],
    )
    def test_faults_in_the_embedded_config_name_the_report(self, luxshare_manifest, equal_config, trail, message):
        document = report_to_dict(score_dataset(luxshare_manifest, equal_config))
        parent = document["config"]
        for key in trail[:-1]:
            parent = parent[key]
        del parent[trail[-1]]
        with pytest.raises(SchemaError) as caught:
            report_from_dict(document)
        assert str(caught.value) == message

    def test_normalisation_faults_in_the_embedded_config_name_the_report(self, luxshare_manifest, equal_config):
        document = report_to_dict(score_dataset(luxshare_manifest, equal_config))
        document["config"]["alpha"]["R"] = -1.0
        with pytest.raises(SchemaError) as caught:
            report_from_dict(document)
        assert str(caught.value) == "report.config.alpha.R: negative coefficient -1.0"


class TestPopulationParsing:
    def test_json_list_of_flat_objects(self):
        text = json.dumps(
            [
                {"record_id": "r1", "region": "apac", "revenue": 4.5, "listed": True},
                {"record_id": "r2", "region": "emea", "revenue": 9, "listed": False},
            ]
        )
        records = parse_population(text, "population.json")
        assert [r.record_id for r in records] == ["r1", "r2"]
        assert records[0].criteria["region"] == "apac"
        assert records[0].criteria["listed"] is True
        assert records[1].criteria["revenue"] == 9

    def test_json_lists_become_label_tuples(self):
        text = json.dumps([{"record_id": "r1", "tags": ["a", "b"]}])
        (record,) = parse_population(text, "population.json")
        assert record.criteria["tags"] == ("a", "b")

    def test_csv_with_typed_cells(self):
        text = "record_id,region,revenue,listed,tags\nr1,apac,4.5,true,a|b\nr2,emea,9,false,a|\n"
        records = parse_population(text, "population.csv")
        assert records[0].criteria == {"region": "apac", "revenue": 4.5, "listed": True, "tags": ("a", "b")}
        assert records[1].criteria == {"region": "emea", "revenue": 9, "listed": False, "tags": ("a",)}

    def test_format_sniffing_without_extension(self):
        json_text = json.dumps([{"record_id": "r1", "region": "apac"}])
        csv_text = "record_id,region\nr1,apac\n"
        assert parse_population(json_text)[0].criteria == parse_population(csv_text)[0].criteria

    def test_csv_requires_record_id_column(self):
        with pytest.raises(SchemaError, match="must have a record_id column"):
            parse_population("region\napac\n", "population.csv")

    def test_missing_record_id_value_is_rejected(self):
        with pytest.raises(SchemaError, match=r"population\[1\]\.record_id: missing value"):
            parse_population("record_id,region\nr1,apac\n,emea\n", "population.csv")

    def test_empty_population_is_rejected(self):
        with pytest.raises(SchemaError, match="no records"):
            parse_population("[]", "population.json")

    def test_nested_json_values_are_rejected(self):
        text = json.dumps([{"record_id": "r1", "extra": {"deep": 1}}])
        with pytest.raises(SchemaError, match="unsupported value type"):
            parse_population(text, "population.json")

    @pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-Infinity", "1e400", "-1e999", str(10**400)])
    def test_csv_non_finite_cell_is_rejected_at_decode(self, cell):
        text = f"record_id,region,unused\nr1,apac,1.5\nr2,emea,{cell}\n"
        message = r"^population\[1\]\.unused: criterion 'unused': numeric values must be finite$"
        with pytest.raises(SchemaError, match=message):
            parse_population(text, "population.csv")

    @pytest.mark.parametrize("number", ["1e400", "-1e400", str(10**400)])
    def test_json_number_beyond_float_range_is_rejected_at_decode(self, number):
        text = f'[{{"record_id": "r1", "region": "apac", "unused": {number}}}]'
        message = r"^population\[0\]\.unused: criterion 'unused': numeric values must be finite$"
        with pytest.raises(SchemaError, match=message):
            parse_population(text, "population.json")

    def test_csv_words_that_are_not_numbers_stay_text(self):
        text = "record_id,label\nr1,nano\nr2,infinite\nr3,1e308\n"
        assert [r.criteria["label"] for r in parse_population(text, "population.csv")] == ["nano", "infinite", 1e308]

    def test_csv_row_with_surplus_cells_is_rejected(self):
        with pytest.raises(SchemaError, match=r"^population\[1\]: 2 more cell\(s\) than header columns$"):
            parse_population("record_id,region\nr1,apac\nr2,emea,x,y\n", "population.csv")


class TestRatingAndAnnotationParsing:
    def test_rating_record_fields(self, luxshare_baseline):
        assert luxshare_baseline.source_label == "MSCI ESG Ratings"
        assert luxshare_baseline.overall_rating == "BB"
        assert set(luxshare_baseline.issue_scores) == {"executive_pay_disclosure", "chemical_safety"}
        issue = luxshare_baseline.issue_scores["executive_pay_disclosure"]
        assert (issue.score, issue.scale_min, issue.scale_max) == (-1.2, -3.0, 3.0)

    def test_bad_date_is_rejected(self, luxshare_baseline):
        document = {
            "source_label": "x",
            "period_start": "2023-13-01",
            "period_end": "2023-12-31",
            "overall_rating": "A",
            "issue_scores": {},
        }
        with pytest.raises(SchemaError, match="expected an ISO date"):
            parse_rating_record(json.dumps(document))

    def test_annotation_fields(self, luxshare_annotations):
        annotation = luxshare_annotations["chemical_safety"]
        assert annotation.category is DiscrepancyCategory.OVER_PENALIZATION
        assert annotation.adjustment == Interval(-1.1, -0.5)
        assert annotation.stride_assessment == Interval(5.0, 5.5)
        assert annotation.evidence_refs
        assert annotation.narrative

    def test_point_adjustment_becomes_degenerate_interval(self):
        text = json.dumps({"labor": {"category": "definition_ambiguity", "adjustment": 1.2}})
        annotations = parse_annotations(text)
        assert annotations["labor"].adjustment == Interval(1.2, 1.2)

    def test_unknown_category_is_rejected(self):
        text = json.dumps({"labor": {"category": "vibes", "adjustment": 0.1}})
        with pytest.raises(SchemaError, match="unknown category"):
            parse_annotations(text)

    def test_inverted_adjustment_is_rejected(self):
        text = json.dumps({"labor": {"category": "over_penalization", "adjustment": [0.5, -0.5]}})
        with pytest.raises(SchemaError, match="exceeds upper bound"):
            parse_annotations(text)

    def test_malformed_interval_is_rejected(self):
        text = json.dumps({"labor": {"category": "over_penalization", "adjustment": [1.0]}})
        with pytest.raises(SchemaError, match=r"expected \[lower, upper\]"):
            parse_annotations(text)

    @pytest.mark.parametrize("adjustment", ["1e400", str(10**400), "[0, 1e400]"], ids=["1e400", "10**400", "pair"])
    def test_adjustment_beyond_float_range_is_rejected(self, adjustment):
        text = '{"labor": {"category": "over_penalization", "adjustment": %s}}' % adjustment
        with pytest.raises(SchemaError, match=r"annotations\['labor'\]\.adjustment(\[1\])?: expected a finite number"):
            parse_annotations(text)


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_literals_are_refused_with_their_position(self, literal):
        text = '{"alpha": {"C": 0.25},\n "credibility": %s}' % literal
        with pytest.raises(SchemaError, match=rf"^invalid JSON at line 2, column 17: {literal} is not a finite number$"):
            parse_weight_config(text)

    def test_literals_inside_strings_are_not_the_ones_placed(self):
        text = json.dumps([{"record_id": 'NaN "Infinity"', "size": "NaN"}])[:-2] + ', "x": NaN}]'
        with pytest.raises(SchemaError, match=rf"column {text.rindex('NaN') + 1}: NaN is not a finite number"):
            parse_population(text, "population.json")

    @pytest.mark.parametrize("value", ["1e400", "-1e400", str(10**400)], ids=["1e400", "-1e400", "10**400"])
    def test_weights_beyond_float_range_are_refused(self, equal_config, value):
        document = json.loads(weight_config_to_json(equal_config))
        text = json.dumps(document).replace('"IM": 0.25', f'"IM": {value}')
        with pytest.raises(SchemaError, match=r"^credibility\.IM: expected a finite number within float range$"):
            parse_weight_config(text)

    def test_integers_are_refused_only_beyond_float_range(self, luxshare_manifest):
        largest = 2**1024 - 2**970 - 1  # the largest integer float() converts
        document = json.loads(manifest_to_json(luxshare_manifest))
        document["safety"]["harmful_rows"] = largest
        assert decode_manifest(json.dumps(document)).safety.harmful_rows == largest
        document["safety"]["harmful_rows"] = largest + 1
        with pytest.raises(SchemaError, match=r"^safety\.harmful_rows: expected a finite number"):
            decode_manifest(json.dumps(document))
