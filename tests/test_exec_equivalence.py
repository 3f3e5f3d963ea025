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

import hashlib
import json
import os

import pytest

from repro import run_study
from repro.core.analysis.summary import summarize_study
from repro.study import StudyConfig
from tests.conftest import SMALL_COUNTRIES


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _sites_with_traces(dataset_json: str) -> dict:
    """URL → the site's stored entry, its trace references resolved."""
    payload = json.loads(dataset_json)
    traces = payload["traces"]
    sites = payload["websites"]
    for entry in sites.values():
        entry["traceroutes"] = {
            address: traces[slot] for address, slot in entry["traceroutes"].items()
        }
    return sites


def _first_differing_key(a: dict, b: dict):
    """The first key (in *a*'s order, then *b*'s) the two mappings
    disagree on, or ``None`` when they are equal."""
    for key in [*a, *(key for key in b if key not in a)]:
        if key not in a or key not in b or a[key] != b[key]:
            return key
    return None


def assert_outcomes_identical(reference, other) -> None:
    """Every study artefact equal, field by field (timings excluded).

    Large artefacts are compared by digest or key by key, so a mismatch
    names the first differing site, address or host at once instead of
    asking pytest to diff megabytes of text.
    """
    assert sorted(reference.datasets) == sorted(other.datasets)
    assert [r.country_code for r in reference.results] == [
        r.country_code for r in other.results
    ]
    assert reference.source_trace_origins == other.source_trace_origins
    for cc in reference.datasets:
        ref_json = reference.datasets[cc].to_json()
        other_json = other.datasets[cc].to_json()
        if _digest(ref_json) != _digest(other_json):
            site = _first_differing_key(
                _sites_with_traces(ref_json), _sites_with_traces(other_json)
            )
            pytest.fail(
                f"{cc}: datasets differ, first at site {site}"
                if site is not None
                else f"{cc}: datasets differ outside the sites (header or trace sharing)"
            )
        a, b = reference.geolocations[cc], other.geolocations[cc]
        assert a.funnel == b.funnel, cc
        host = _first_differing_key(a.host_to_address, b.host_to_address)
        assert host is None, f"{cc}: host_to_address differs at host {host}"
        address = _first_differing_key(a.verdicts, b.verdicts)
        assert address is None, f"{cc}: verdicts differ at address {address}"
    assert reference.funnel() == other.funnel()
    for ref_result, other_result in zip(reference.results, other.results):
        cc = ref_result.country_code
        assert [s.url for s in ref_result.sites] == [s.url for s in other_result.sites], cc
        site = next(
            (a.url for a, b in zip(ref_result.sites, other_result.sites) if a != b), None
        )
        assert site is None, f"{cc}: joined site records differ at site {site}"
        host = _first_differing_key(ref_result.tracker_verdicts, other_result.tracker_verdicts)
        assert host is None, f"{cc}: tracker verdicts differ at host {host}"
    # One structural check over every downstream analysis (flows, hosting,
    # organizations, policy, prevalence, funnel) in a single object.
    part = _first_differing_key(
        summarize_study(reference).to_dict(), summarize_study(other).to_dict()
    )
    assert part is None, f"summaries differ at {part!r}"


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
