"""Validation utilities, scenario self-check, summary."""

import json

import pytest

from repro import build_scenario, run_study
from repro.artifacts import export_study
from repro.core.analysis.summary import summarize_study
from repro.core.geoloc.validation import (
    ValidationCounts,
    misclassified_servers,
    validate_against_truth,
)
from repro.core.geoloc.verdicts import (
    DatasetGeolocation,
    ServerStatus,
    ServerVerdict,
)
from repro.worldgen.selfcheck import check_scenario


class TestValidationCounts:
    def test_precision_recall_f1(self):
        counts = ValidationCounts(true_positive=8, false_positive=2, false_negative=2)
        assert counts.precision == pytest.approx(0.8)
        assert counts.recall == pytest.approx(0.8)
        assert counts.f1 == pytest.approx(0.8)

    def test_undefined_when_empty(self):
        counts = ValidationCounts()
        assert counts.precision is None
        assert counts.recall is None
        assert counts.f1 is None

    def test_merge(self):
        a = ValidationCounts(true_positive=1, true_negative=2)
        b = ValidationCounts(false_positive=3, false_negative=4)
        merged = a.merged_with(b)
        assert merged.total == 10

    def test_full_study_validation(self, scenario, study_small):
        counts = validate_against_truth(scenario.world, study_small.geolocations)
        assert counts.precision == 1.0
        assert counts.total > 200
        assert misclassified_servers(scenario.world, study_small.geolocations) == []


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
@pytest.mark.parametrize(
    "seed, countries",
    [("imc2025-3", ["JO", "UG"]), ("imc2025-2", ["QA", "AE"])],
)
def test_subset_reproductions_verify_no_local_server(seed, countries):
    # Neighbour-country precision hole: a slow access link makes a truly
    # local server look as far away as a neighbour's capital, so today
    # these return [('JO', '5.1.50.55', 'LB', 'JO'),
    # ('UG', '5.1.39.52', 'RW', 'UG')] and [('QA', '5.1.53.169', 'AE', 'QA')].
    scenario = build_scenario(seed, countries=countries)
    outcome = run_study(scenario)
    assert misclassified_servers(scenario.world, outcome.geolocations) == []


class TestVerdictLayerRegressions:
    def test_nonlocal_hosts_tolerates_unjudged_addresses(self):
        geolocation = DatasetGeolocation(country_code="US")
        geolocation.host_to_address = {
            "tracked.example": "1.1.1.1",
            "unjudged.example": "9.9.9.9",  # no verdict: previously KeyError
        }
        geolocation.verdicts = {
            "1.1.1.1": ServerVerdict(
                address="1.1.1.1", hosts=["host-1.1.1.1"],
                status=ServerStatus.NONLOCAL_VERIFIED,
            ),
        }
        assert geolocation.nonlocal_hosts() == ["tracked.example"]

    def test_f1_zero_when_positives_exist_but_none_found(self):
        counts = ValidationCounts(
            true_positive=0, false_positive=1, false_negative=1, true_negative=0
        )
        assert counts.precision == 0.0
        assert counts.recall == 0.0
        assert counts.f1 == 0.0  # 0/0-F1 convention, not None

    def test_f1_none_only_when_genuinely_undefined(self):
        assert ValidationCounts(true_negative=5).f1 is None

    def test_f1_harmonic_mean(self):
        counts = ValidationCounts(
            true_positive=1, false_positive=1, false_negative=1
        )
        assert counts.f1 == pytest.approx(0.5)


class TestSelfCheck:
    def test_default_scenario_healthy(self, scenario):
        assert check_scenario(scenario) == []

    def test_detects_corrupted_target(self, scenario):
        targets = scenario.targets["TH"]
        original = list(targets.regional)
        targets.regional[0] = "not-in-catalogue.example"
        try:
            problems = check_scenario(scenario)
            assert any("missing from catalogue" in p for p in problems)
        finally:
            targets.regional[:] = original

    def test_detects_bad_volunteer_ip(self, scenario):
        volunteer = scenario.volunteers["TH"]
        original = volunteer.ip
        volunteer.ip = "8.8.8.8"
        try:
            problems = check_scenario(scenario)
            assert any("not in served space" in p for p in problems)
        finally:
            volunteer.ip = original


class TestStudySummary:
    def test_summary_headline_and_json(self, study_full):
        summary = summarize_study(study_full)
        assert summary.countries_with_foreign_trackers == 21
        assert len(summary.countries) == 23
        assert summary.central_hub_continent == "Europe"
        assert next(iter(summary.top_destinations)) == "FR"
        headline = summary.headline()
        assert "91%" in headline or "21/23" in headline
        payload = json.loads(json.dumps(summary.to_dict()))
        assert payload["funnel"]["total_hosts"] > 0

    def test_outcome_accessor(self, study_full):
        assert study_full.summary().countries == sorted(study_full.datasets)

    def test_single_country_summary_has_no_correlations(self, scenario, tmp_path):
        # Regression: one country gave "need at least two points".
        outcome = run_study(scenario, countries=["RW"])
        summary = outcome.summary()
        assert summary.reg_gov_pearson is None
        assert summary.policy_strictness_spearman is None
        export_study(outcome, tmp_path)
        payload = json.loads((tmp_path / "data" / "summary.json").read_text(encoding="utf-8"))
        assert payload["countries"] == ["RW"]
        assert payload["reg_gov_pearson"] is None
        assert payload["policy_strictness_spearman"] is None

    def test_constant_strictness_rank_leaves_spearman_undefined(self, scenario, tmp_path):
        # Regression: CA and NZ share strictness rank 3, which gave
        # "correlation undefined for constant sequences".
        outcome = run_study(scenario, countries=["CA", "NZ"])
        summary = outcome.summary()
        assert summary.policy_strictness_spearman is None
        assert isinstance(summary.reg_gov_pearson, float)
        export_study(outcome, tmp_path)
        payload = json.loads((tmp_path / "data" / "summary.json").read_text(encoding="utf-8"))
        assert payload["policy_strictness_spearman"] is None
        table1 = (tmp_path / "figures" / "table1_policy.txt").read_text(encoding="utf-8")
        assert "Spearman rho=undefined" in table1
