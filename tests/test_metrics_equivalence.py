"""Telemetry must never change the study, and must not depend on how it ran.

Two contracts, both locked down over the 5-country subset:

* **Backend-independence of the metrics**: every deterministic
  (non-runtime) metric family — verdict statuses, funnel stages,
  constraint checks, tracker attributions, site counts — lands on exactly equal values for the serial and
  process backends at any worker count, and a skipped fault drops only
  the failed country's contribution.
  Runtime families (timings, cache traffic) are excluded by
  classification, not by tolerance.
* **Telemetry-independence of the study**: enabling progress streaming
  and resource profiling changes no artefact — the stripped journal is
  byte-identical and the study summary equal, which is what keeps
  ``--progress``/``--profile`` safe to leave on.
"""

from __future__ import annotations

import io

import pytest

from repro import StudyConfig, run_study
from repro.exec.resilience import FaultInjector
from repro.obs.metrics import (
    MetricsRegistry,
    diff_snapshots,
    merge_snapshots,
    strip_runtime,
    validate_study_snapshot,
)
from repro.obs.progress import ProgressReporter
from repro.obs.schema import validate_journal

from tests.conftest import SMALL_COUNTRIES


def _run(scenario, **kwargs):
    kwargs.setdefault("countries", SMALL_COUNTRIES)
    return run_study(scenario, **kwargs)


@pytest.fixture(scope="module")
def backend_runs(scenario):
    return {
        "serial": _run(scenario),
        "process-1": _run(scenario, config=StudyConfig(backend="process", jobs=1)),
        "process-4": _run(scenario, config=StudyConfig(backend="process", jobs=4)),
    }


class TestBackendIndependence:
    def test_snapshots_validate(self, backend_runs):
        for name, outcome in backend_runs.items():
            problems = validate_study_snapshot(outcome.metrics_snapshot)
            assert problems == [], (name, problems)

    def test_nonruntime_families_exact(self, backend_runs):
        reference = strip_runtime(backend_runs["serial"].metrics_snapshot["metrics"])
        assert reference["families"], "expected deterministic metric families"
        for name, outcome in backend_runs.items():
            stripped = strip_runtime(outcome.metrics_snapshot["metrics"])
            assert stripped == reference, f"{name} diverged from serial"

    def test_registry_holds_counters_and_gauges_only(self, backend_runs):
        # Constraint evidence lives in the verdicts and the journal's
        # ``geoloc_decision`` events, not in a metric family.
        for name, outcome in backend_runs.items():
            families = outcome.metrics_snapshot["metrics"]["families"]
            assert "geoloc_evidence_ms" not in families, name
            assert {entry["type"] for entry in families.values()} == {"counter", "gauge"}

    def test_diff_between_backends_reports_no_regressions(self, backend_runs):
        findings = diff_snapshots(
            backend_runs["serial"].metrics_snapshot,
            backend_runs["process-4"].metrics_snapshot,
        )
        assert findings == [], [f.render() for f in findings]

    def test_study_counts_match_artefacts(self, backend_runs):
        outcome = backend_runs["serial"]
        families = outcome.metrics_snapshot["metrics"]["families"]
        countries = families["study_countries_total"]["series"][0]["value"]
        assert countries == len(SMALL_COUNTRIES)
        loaded = next(
            record["value"]
            for record in families["study_sites_total"]["series"]
            if record["labels"] == {"outcome": "loaded"}
        )
        assert loaded == sum(d.loaded_count for d in outcome.datasets.values())
        funnel = {
            record["labels"]["stage"]: record["value"]
            for record in families["geoloc_funnel_total"]["series"]
        }
        assert funnel == outcome.funnel().stages()
        assert funnel["verified_nonlocal"] > 0


def _oracle_country_snapshot(geolocation, result):
    """One country's verdict and tracker families, one update per verdict."""
    registry = MetricsRegistry()
    for verdict in geolocation.verdicts.values():
        registry.counter("geoloc_verdicts_total", {"status": verdict.status}).inc()
        if verdict.discarded_by:
            registry.counter("geoloc_discards_total", {"constraint": verdict.discarded_by}).inc()
        for check in verdict.checks:
            registry.counter(
                "geoloc_constraint_checks_total",
                {"constraint": check.constraint, "status": check.status},
            ).inc()
    for verdict in result.tracker_verdicts.values():
        if verdict.is_tracker:
            registry.counter("tracker_hosts_total", {"method": verdict.method or "unknown"}).inc()
    return registry.snapshot()


class TestFamiliesFromVerdicts:
    """The verdict-derived families equal a per-verdict rebuild."""

    FAMILIES = (
        "geoloc_verdicts_total",
        "geoloc_discards_total",
        "geoloc_constraint_checks_total",
        "tracker_hosts_total",
    )

    def test_registry_equals_per_verdict_oracle(self, backend_runs):
        outcome = backend_runs["serial"]
        # Per-country registries merged in input country order, as the
        # study merges its workers' deltas.
        expected = merge_snapshots(
            _oracle_country_snapshot(outcome.geolocations[result.country_code], result)
            for result in outcome.results
        )["families"]
        actual = outcome.metrics_snapshot["metrics"]["families"]
        for name in self.FAMILIES:
            assert expected[name]["series"], name
            assert actual[name]["type"] == expected[name]["type"], name
            assert actual[name]["series"] == expected[name]["series"], name


class TestFaultIndependence:
    def test_skipped_fault_leaves_survivor_totals_exact_in_process_pool(
        self, scenario
    ):
        survivors = [cc for cc in SMALL_COUNTRIES if cc != "NZ"]
        clean = _run(scenario, countries=survivors)
        skipped = _run(
            scenario, config=StudyConfig(backend="process", jobs=4, on_error="skip"),
            fault_injector=FaultInjector({"NZ"}),
        )
        assert skipped.failed_countries() == ["NZ"]
        assert strip_runtime(skipped.metrics_snapshot["metrics"]) == strip_runtime(
            clean.metrics_snapshot["metrics"]
        )

    def test_skipped_country_drops_only_its_contribution(self, scenario):
        clean = _run(scenario, countries=["CA", "RW"])
        partial = _run(
            scenario, countries=["CA", "NZ", "RW"], config=StudyConfig(on_error="skip"),
            fault_injector=FaultInjector({"NZ"}),
        )
        assert partial.failed_countries() == ["NZ"]
        assert partial.metrics_snapshot["meta"]["failed"] == ["NZ"]
        families = partial.metrics_snapshot["metrics"]["families"]
        assert families["study_countries_total"]["series"][0]["value"] == 2
        assert strip_runtime(partial.metrics_snapshot["metrics"]) == strip_runtime(
            clean.metrics_snapshot["metrics"]
        )


class TestTelemetryInvariance:
    """Satellite contract: progress + profiling change no artefact."""

    @pytest.fixture(scope="class")
    def plain_and_instrumented(self, scenario):
        plain = _run(scenario, trace=True)
        stream = io.StringIO()
        instrumented = _run(
            scenario, trace=True, config=StudyConfig(profile=True),
            progress=ProgressReporter(len(SMALL_COUNTRIES), stream=stream),
        )
        return plain, instrumented, stream

    def test_stripped_journal_bytes_identical(self, plain_and_instrumented):
        plain, instrumented, _ = plain_and_instrumented
        assert plain.journal.dumps(timings=False) == instrumented.journal.dumps(
            timings=False
        )

    def test_instrumented_journal_equals_plain_and_validates(
        self, plain_and_instrumented
    ):
        # Progress goes to the stream only: the timed journals carry the
        # same record types, each completion once as its ``country`` span.
        plain, instrumented, _ = plain_and_instrumented
        assert [r["ev"] for r in instrumented.journal.records] == [
            r["ev"] for r in plain.journal.records
        ]
        assert validate_journal(instrumented.journal.records) == []

    def test_progress_stream_saw_every_country(self, plain_and_instrumented):
        _, _, stream = plain_and_instrumented
        lines = stream.getvalue().splitlines()
        total = len(SMALL_COUNTRIES)
        assert [line.split()[1] for line in lines[:-1]] == [
            f"{done}/{total}" for done in range(1, total + 1)
        ]
        assert {line.split()[2] for line in lines[:-1]} == set(SMALL_COUNTRIES)
        assert lines[-1].startswith(f"progress: {total}/{total} countries")

    def test_summary_and_artefacts_equal(self, plain_and_instrumented):
        plain, instrumented, _ = plain_and_instrumented
        assert plain.summary() == instrumented.summary()
        assert plain.source_trace_origins == instrumented.source_trace_origins
        assert plain.funnel() == instrumented.funnel()

    def test_resources_recorded_per_country(self, plain_and_instrumented):
        _, instrumented, _ = plain_and_instrumented
        resources = instrumented.metrics_snapshot["resources"]
        assert sorted(resources) == sorted(SMALL_COUNTRIES)
        for usage in resources.values():
            assert usage["cpu_seconds"] >= 0.0
            assert set(usage["phases"]) <= {"gamma", "source_traces", "geoloc", "join"}
