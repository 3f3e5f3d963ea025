"""Serial/parallel equivalence of ``run_study`` — the determinism proof.

The repo's headline guarantee is bit-exact determinism; the parallel
executor must therefore be *unobservable* in study artefacts.  These
tests run the same study through the serial and process-pool
backends at several worker counts and assert that every
artefact — datasets, verdicts, funnel counters, joined analysis records,
and the derived summary — is exactly equal, including across repeated
runs.
"""

from __future__ import annotations

import os

import pytest

from repro import run_study
from repro.core.analysis.summary import summarize_study
from repro.study import StudyConfig
from tests.conftest import SMALL_COUNTRIES


def assert_outcomes_identical(reference, other) -> None:
    """Every study artefact equal, field by field (timings excluded)."""
    assert sorted(reference.datasets) == sorted(other.datasets)
    assert [r.country_code for r in reference.results] == [
        r.country_code for r in other.results
    ]
    assert reference.source_trace_origins == other.source_trace_origins
    for cc in reference.datasets:
        assert reference.datasets[cc].to_json() == other.datasets[cc].to_json(), cc
        a, b = reference.geolocations[cc], other.geolocations[cc]
        assert a.funnel == b.funnel, cc
        assert a.host_to_address == b.host_to_address, cc
        assert a.verdicts == b.verdicts, cc
    assert reference.funnel() == other.funnel()
    for ref_result, other_result in zip(reference.results, other.results):
        assert ref_result.sites == other_result.sites, ref_result.country_code
        assert ref_result.tracker_verdicts == other_result.tracker_verdicts
    # One structural check over every downstream analysis (flows, hosting,
    # organizations, policy, prevalence, funnel) in a single object.
    assert summarize_study(reference).to_dict() == summarize_study(other).to_dict()


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", ["process"])
    @pytest.mark.parametrize("jobs", [1, 2, 8])
    def test_small_study_equal_for_all_backends_and_job_counts(
        self, scenario, study_small, backend, jobs
    ):
        parallel = run_study(
            scenario, countries=SMALL_COUNTRIES,
            config=StudyConfig(jobs=jobs, backend=backend),
        )
        assert parallel.metrics.backend == backend
        assert parallel.metrics.jobs == jobs
        assert_outcomes_identical(study_small, parallel)

    def test_repeated_parallel_runs_identical(self, scenario):
        config = StudyConfig(jobs=2, backend="process")
        first = run_study(scenario, countries=SMALL_COUNTRIES, config=config)
        second = run_study(scenario, countries=SMALL_COUNTRIES, config=config)
        assert_outcomes_identical(first, second)

    def test_config_carries_jobs_and_backend(self, scenario):
        config = StudyConfig(jobs=2, backend="process")
        outcome = run_study(scenario, countries=["CA", "NZ"], config=config)
        assert outcome.metrics.backend == "process"
        assert outcome.metrics.jobs == 2

    @pytest.mark.parametrize("keyword,value", [
        ("jobs", 1), ("backend", "serial"), ("on_error", "skip"),
        ("max_retries", 0), ("profile", True),
        ("collect_metrics", False),
    ])
    def test_study_options_are_not_run_study_keywords(self, scenario, keyword, value):
        # StudyConfig is the one place a study option is set; run_study
        # takes per-run I/O only, so an option keyword is a TypeError.
        with pytest.raises(TypeError, match=keyword):
            run_study(scenario, countries=["CA"], **{keyword: value})


class TestFullScenarioAcceptance:
    """The acceptance criterion: jobs=4 on the default 23-country world."""

    def test_jobs4_process_pool_equals_serial(self, scenario, study_full):
        parallel = run_study(scenario, config=StudyConfig(jobs=4))
        assert parallel.metrics.backend == "process"  # auto resolves to process
        assert parallel.metrics.jobs == 4
        assert_outcomes_identical(study_full, parallel)
        # The per-country work really ran (phase accounting is complete).
        assert set(parallel.metrics.country_seconds) == set(scenario.countries)
        assert parallel.metrics.aggregate_seconds > 0


class TestMetricsShape:
    def test_serial_metrics_account_every_phase(self, study_small):
        metrics = study_small.metrics
        assert metrics.backend == "serial"
        assert metrics.jobs == 1
        assert set(metrics.country_seconds) == set(SMALL_COUNTRIES)
        for phase in ("gamma", "source_traces", "geoloc", "join"):
            assert phase in metrics.phase_seconds
        assert metrics.wall_seconds > 0
        assert 0 < metrics.aggregate_seconds <= metrics.wall_seconds * 1.5
        assert 0 < metrics.cpu_seconds <= metrics.wall_seconds * 1.05
        assert study_small.metrics_snapshot["meta"]["cpus"] == os.cpu_count()

    def test_speedup_never_exceeds_available_cpus(self, scenario):
        # Regression: speedup used to be summed per-country *wall* time
        # over fan-out wall, so oversubscribed workers (jobs > CPUs)
        # reported close to ``jobs`` x without any real gain.
        outcome = run_study(
            scenario, countries=SMALL_COUNTRIES[:3],
            config=StudyConfig(jobs=4, backend="process"),
        )
        metrics = outcome.metrics
        assert metrics.cpu_seconds > 0
        assert metrics.speedup <= min(4, os.cpu_count()) + 0.05

    def test_metrics_stay_out_of_summary_and_exports(self, study_small):
        summary = summarize_study(study_small).to_dict()
        flattened = str(summary)
        assert "wall_seconds" not in flattened
        assert "backend" not in flattened
