"""Confidence scoring: invariants, shared anchors, calibration.

Four contracts are locked down here:

* **Monotonicity** — a wider decision margin can never *lower* a
  verdict's confidence (property-based, both the squash and the full
  combine formula).
* **Shared anchors** — scores read through the pipeline's anchor table
  are bit-identical to scoring each verdict afresh from a standalone
  table on the full 23-country study, and they survive the process-pool
  transport.
* **Annotation-only** — with confidence on, the binary verdicts,
  funnels, summaries, and stripped journals are byte-identical to a
  confidence-off run.
* **Calibration** — the metrics are exact on a hand-built confusion
  fixture, and the study-level scores meet the acceptance targets
  (ECE <= 0.10, Brier <= 0.15) against the seeded ground truth.
"""

from __future__ import annotations

import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import StudyConfig, run_study
from repro.core.geoloc import PipelineConfig
from repro.core.geoloc.confidence import (
    CONF_CEIL,
    CONF_FLOOR,
    CONFIDENCE_KINDS,
    K_DISC_DEST_EVIDENCE,
    K_DISC_SOURCE_EVIDENCE,
    K_VERIFIED,
    ConfidenceAnchors,
    ConfidenceInputs,
    ConfidenceReport,
    combine_score,
    margin_ratio,
    margin_score,
    score_verdict,
)
from repro.core.geoloc.validation import (
    BRIER_TARGET,
    ECE_TARGET,
    ValidationCounts,
    calibrate_against_truth,
)
from repro.core.geoloc.verdicts import (
    DatasetGeolocation,
    ServerStatus,
    ServerVerdict,
)
from tests.conftest import SMALL_COUNTRIES

_MARGIN_KINDS = (K_VERIFIED, K_DISC_SOURCE_EVIDENCE, K_DISC_DEST_EVIDENCE)
_ratio = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


def _config(confidence: bool = True) -> StudyConfig:
    return StudyConfig(pipeline=PipelineConfig(confidence=confidence))


def _confidences(outcome):
    return {
        country: {
            address: verdict.confidence
            for address, verdict in geolocation.verdicts.items()
        }
        for country, geolocation in outcome.geolocations.items()
    }


# -- monotonicity --------------------------------------------------------------


class TestMonotonicity:
    @settings(max_examples=200, deadline=None)
    @given(_ratio, _ratio)
    def test_margin_score_is_monotone(self, a, b):
        lo, hi = sorted((a, b))
        assert margin_score(lo) <= margin_score(hi)
        assert 0.0 <= margin_score(lo) < 1.0

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(_MARGIN_KINDS),
        _ratio, _ratio,
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0)),
        st.booleans(),
    )
    def test_wider_margin_never_lowers_confidence(
        self, kind, a, b, consistency, rdns_hint
    ):
        lo, hi = sorted((a, b))
        tight = ConfidenceInputs(
            kind=kind, margin_src=lo,
            consistency=consistency, rdns_hint=rdns_hint,
        )
        wide = ConfidenceInputs(
            kind=kind, margin_src=hi,
            consistency=consistency, rdns_hint=rdns_hint,
        )
        assert combine_score(tight) <= combine_score(wide)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(range(len(CONFIDENCE_KINDS))),
           st.one_of(st.none(), _ratio),
           st.one_of(st.none(), _ratio),
           st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0)),
           st.booleans())
    def test_scores_stay_in_band(
        self, kind, margin_src, margin_dst, consistency, rdns_hint
    ):
        conf = combine_score(ConfidenceInputs(
            kind=kind, margin_src=margin_src, margin_dst=margin_dst,
            consistency=consistency, rdns_hint=rdns_hint,
        ))
        assert CONF_FLOOR <= conf <= CONF_CEIL

    def test_margin_ratio_examples(self):
        assert margin_ratio(10.0, 10.0) == 0.0
        assert margin_ratio(30.0, 10.0) == 2.0
        assert margin_ratio(0.0, 10.0) == 1.0
        # Sub-millisecond thresholds are floored at 1 ms, not divided by.
        assert margin_ratio(0.5, 0.25) == pytest.approx(0.25)


# -- shared anchors ------------------------------------------------------------


@pytest.fixture(scope="module")
def study_confidence(scenario):
    return run_study(scenario, config=_config())


def _source_city(scenario, outcome, country):
    """The city the country's source traces were launched from."""
    volunteer = scenario.volunteers[country]
    if outcome.source_trace_origins[country].startswith("atlas:"):
        probe, _ = scenario.atlas.mesh.probe_for_country(country, volunteer.city)
        return probe.city
    return volunteer.city


class TestSharedAnchors:
    def test_pipeline_scores_equal_standalone_rescoring(
        self, scenario, study_confidence
    ):
        scored = 0
        for country, geolocation in study_confidence.geolocations.items():
            # A fresh geometry-only table per country: nothing shared
            # with the pipeline that produced the scores.
            anchors = ConfidenceAnchors(scenario.atlas)
            source_city = _source_city(scenario, study_confidence, country)
            for address, verdict in geolocation.verdicts.items():
                rescored = score_verdict(verdict, source_city, anchors)
                assert verdict.confidence == rescored, (country, address)
                scored += 1
        assert scored > 1000  # the whole study is scored, not a corner

    def test_scores_survive_the_process_transport(self, scenario):
        serial = run_study(
            scenario, countries=SMALL_COUNTRIES, config=_config()
        )
        pooled = run_study(
            scenario, countries=SMALL_COUNTRIES, config=_config(),
            jobs=2, backend="process",
        )
        assert _confidences(serial) == _confidences(pooled)
        # The confidence-weighted flow view agrees too, and is populated.
        weighted = serial.tracker_confidence()
        assert weighted is not None
        assert any(rows for rows, _mean in weighted.values())
        assert pooled.tracker_confidence() == weighted


# -- the annotation-layer contract ---------------------------------------------


class TestAnnotationOnly:
    @pytest.fixture(scope="class")
    def on_and_off(self, scenario, tmp_path_factory):
        root = tmp_path_factory.mktemp("confidence")
        outcomes = {}
        for label, confidence in (("on", True), ("off", False)):
            outcomes[label] = run_study(
                scenario, countries=SMALL_COUNTRIES,
                config=_config(confidence=confidence),
                trace=root / f"{label}.jsonl",
            )
        return outcomes

    def test_binary_verdicts_identical_modulo_annotation(self, on_and_off):
        on, off = on_and_off["on"], on_and_off["off"]
        for country, geolocation in off.geolocations.items():
            scored = on.geolocations[country]
            for address, verdict in geolocation.verdicts.items():
                annotated = scored.verdicts[address]
                assert annotated.confidence is not None
                stripped = ServerVerdict(
                    address=annotated.address, hosts=annotated.hosts,
                    status=annotated.status, claim=annotated.claim,
                    discarded_by=annotated.discarded_by,
                    checks=annotated.checks,
                )
                assert pickle.dumps(stripped) == pickle.dumps(verdict)

    def test_funnels_and_summaries_identical(self, on_and_off):
        on, off = on_and_off["on"], on_and_off["off"]
        assert on.funnel() == off.funnel()
        dump = lambda o: json.dumps(o.summary().to_dict(), sort_keys=True)  # noqa: E731
        assert dump(on) == dump(off)

    def test_stripped_journals_identical(self, on_and_off):
        on, off = on_and_off["on"], on_and_off["off"]
        assert on.journal is not None and off.journal is not None
        assert on.journal.events("geoloc_confidence")  # annotation present...
        assert not off.journal.events("geoloc_confidence")
        # ...but stripping removes it with the other diagnostics.
        assert on.journal.dumps(timings=False) == off.journal.dumps(timings=False)

    def test_confidence_journal_events_conform_to_schema(self, on_and_off):
        from repro.obs import validate_journal

        journal = on_and_off["on"].journal
        assert validate_journal(journal.records) == []
        event = journal.events("geoloc_confidence")[0]
        assert event["kind"] in CONFIDENCE_KINDS
        assert 0.0 <= event["confidence"] <= 1.0

    def test_confidence_histogram_in_metrics_snapshot(self, on_and_off):
        snapshot = on_and_off["on"].metrics_snapshot
        assert snapshot is not None
        families = snapshot["metrics"]["families"]
        assert "geoloc_confidence" in families
        series = families["geoloc_confidence"]["series"]
        assert sum(record["count"] for record in series) > 0


# -- calibration ---------------------------------------------------------------


class _StubIPs:
    def __init__(self, truth):
        self._truth = truth

    def true_country(self, address):
        return self._truth.get(address)


class _StubWorld:
    def __init__(self, truth):
        self.ips = _StubIPs(truth)


def _verdict(address, status, confidence):
    return ServerVerdict(
        address=address, hosts=[f"host-{address}"], status=status,
        confidence=confidence,
    )


class TestCalibrationMetrics:
    def test_exact_metrics_on_hand_built_confusion(self):
        geolocation = DatasetGeolocation(country_code="US")
        geolocation.verdicts = {
            # verified + truly foreign: correct, bin 9
            "1.1.1.1": _verdict("1.1.1.1", ServerStatus.NONLOCAL_VERIFIED, 0.9),
            # verified + truly local: wrong, bin 8
            "2.2.2.2": _verdict("2.2.2.2", ServerStatus.NONLOCAL_VERIFIED, 0.8),
            # called local + truly local: correct, bin 6
            "3.3.3.3": _verdict("3.3.3.3", ServerStatus.LOCAL, 0.6),
            # discarded + truly foreign: wrong, bin 2
            "4.4.4.4": _verdict("4.4.4.4", ServerStatus.DISCARDED, 0.25),
            # unscored and truth-less verdicts are skipped, not binned
            "5.5.5.5": _verdict("5.5.5.5", ServerStatus.LOCAL, None),
            "6.6.6.6": _verdict("6.6.6.6", ServerStatus.LOCAL, 0.7),
        }
        world = _StubWorld({
            "1.1.1.1": "DE", "2.2.2.2": "US", "3.3.3.3": "US",
            "4.4.4.4": "JP", "5.5.5.5": "US",
        })
        report = calibrate_against_truth(world, {"US": geolocation})
        assert report.total == 4
        assert report.skipped == 2
        assert report.accuracy == pytest.approx(0.5)
        assert report.brier == pytest.approx(
            (0.1 ** 2 + 0.8 ** 2 + 0.4 ** 2 + 0.25 ** 2) / 4
        )
        assert report.ece == pytest.approx((0.25 + 0.4 + 0.8 + 0.1) / 4)
        populated = {
            (row.lower, row.count, row.correct)
            for row in report.bins if row.count
        }
        assert populated == {
            (0.2, 1, 0), (0.6, 1, 1), (0.8, 1, 0), (0.9, 1, 1),
        }

    def test_empty_input_reports_none_metrics(self):
        report = calibrate_against_truth(_StubWorld({}), {})
        assert report.total == 0
        assert report.brier is None and report.ece is None

    def test_study_calibration_meets_targets(
        self, scenario, study_confidence
    ):
        report = calibrate_against_truth(
            scenario.world, study_confidence.geolocations
        )
        assert report.skipped == 0
        assert report.total > 5000
        assert report.ece <= ECE_TARGET
        assert report.brier <= BRIER_TARGET

    def test_confidence_report_view(self, study_confidence):
        geolocation = next(iter(study_confidence.geolocations.values()))
        report = ConfidenceReport.from_geolocation(geolocation, low_n=3)
        assert report.scored == len(geolocation.verdicts)
        assert len(report.low_confidence) <= 3
        payload = report.as_dict()
        assert payload["scored"] == report.scored
        assert sum(
            entry["count"] for entry in payload["by_status"].values()
        ) == report.scored


# -- verdict-layer regressions the confidence work exposed ---------------------


class TestVerdictLayerRegressions:
    def test_nonlocal_hosts_tolerates_unjudged_addresses(self):
        geolocation = DatasetGeolocation(country_code="US")
        geolocation.host_to_address = {
            "tracked.example": "1.1.1.1",
            "unjudged.example": "9.9.9.9",  # no verdict: previously KeyError
        }
        geolocation.verdicts = {
            "1.1.1.1": _verdict("1.1.1.1", ServerStatus.NONLOCAL_VERIFIED, None),
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
