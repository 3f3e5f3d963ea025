"""Each execution number is recorded once, in the per-country registry.

A worker records its country's phase seconds, total and CPU seconds and
memo-cache movement into the fresh registry it ships back; the
coordinator merges those deltas into the run registry, which
:class:`~repro.exec.ExecMetrics` only reads and the snapshot's
``metrics`` section holds.  These tests pin that every ``ExecMetrics``
number equals the merged family it is read from, that the snapshot
carries no section or family restating another, and that a resumed
country adds no runtime series.
"""

from __future__ import annotations

import pytest

from repro import StudyConfig, run_study
from repro.exec.metrics import PHASES
from repro.obs.journal import strip_timings
from repro.obs.metrics import strip_runtime
from repro.obs.schema import validate_journal

COUNTRIES = ["CA", "NZ", "RW"]

#: Every family of a serial CA,NZ,RW study snapshot.  A family that
#: restates another (a phase, cache or aggregate total kept twice) must
#: not come back.
STUDY_FAMILIES = {
    "cache_delta_operations_total",
    "exec_cache_size",
    "exec_country_seconds_total",
    "exec_cpu_seconds_total",
    "exec_wall_seconds",
    "geoloc_constraint_checks_total",
    "geoloc_countries_total",
    "geoloc_discards_total",
    "geoloc_funnel_total",
    "geoloc_verdicts_total",
    "study_countries_total",
    "study_sites_total",
    "study_traceroutes_total",
    "tracker_hosts_total",
    "tracker_observations_total",
    "tracker_sites_total",
    "worker_phase_duration_seconds",
}
#: What crossing the process boundary adds (nothing is unpickled before
#: the snapshot is taken, so no decode seconds yet).
TRANSPORT_FAMILIES = {
    "exec_transport_bytes_total",
    "exec_transport_encode_seconds_total",
}


def _series(snapshot, family, label):
    """``{label value: value}`` of one merged family."""
    entry = snapshot["metrics"]["families"].get(family, {"series": []})
    return {
        record.get("labels", {}).get(label): record["value"]
        for record in entry["series"]
    }


def _scalar(snapshot, family):
    """The value of one unlabeled merged family."""
    (record,) = snapshot["metrics"]["families"][family]["series"]
    return record["value"]


def _cache_family(snapshot):
    """The cache numbers as the snapshot's families hold them."""
    caches = {}
    for record in snapshot["metrics"]["families"]["cache_delta_operations_total"]["series"]:
        labels = record["labels"]
        key = "hits" if labels["op"] == "hit" else "misses"
        caches.setdefault(labels["cache"], {})[key] = record["value"]
    for name, size in _series(snapshot, "exec_cache_size", "cache").items():
        caches[name]["size"] = size
    return caches


@pytest.fixture(scope="module")
def runs(scenario):
    return {
        "serial": run_study(scenario, countries=COUNTRIES),
        "process-2": run_study(
            scenario, countries=COUNTRIES,
            config=StudyConfig(jobs=2, backend="process"),
        ),
    }


class TestEachNumberOnce:
    @pytest.mark.parametrize("name", ["serial", "process-2"])
    def test_exec_metrics_read_the_merged_families(self, runs, name):
        metrics = runs[name].metrics
        snapshot = runs[name].metrics_snapshot
        countries = _series(snapshot, "exec_country_seconds_total", "country")
        assert sorted(countries) == sorted(COUNTRIES)
        assert metrics.country_seconds == countries
        assert metrics.aggregate_seconds == sum(countries.values())
        assert metrics.phase_seconds == _series(
            snapshot, "worker_phase_duration_seconds", "phase"
        )
        assert metrics.cpu_seconds == _scalar(snapshot, "exec_cpu_seconds_total")
        assert metrics.wall_seconds == _scalar(snapshot, "exec_wall_seconds")
        assert {
            cache: {key: info[key] for key in ("hits", "misses", "size")}
            for cache, info in metrics.cache_infos.items()
        } == _cache_family(snapshot)
        assert metrics.transport_bytes == _series(
            snapshot, "exec_transport_bytes_total", "country"
        )

    @pytest.mark.parametrize("name", ["serial", "process-2"])
    def test_snapshot_holds_the_registry_once(self, runs, name):
        # No section restates the registry; ``resources`` appears only
        # when profiling.
        assert sorted(runs[name].metrics_snapshot) == [
            "kind", "meta", "metrics", "schema",
        ]

    def test_family_names_pinned(self, runs):
        serial = runs["serial"].metrics_snapshot["metrics"]["families"]
        process = runs["process-2"].metrics_snapshot["metrics"]["families"]
        assert set(serial) == STUDY_FAMILIES
        assert set(process) == STUDY_FAMILIES | TRANSPORT_FAMILIES

    @pytest.mark.parametrize("name", ["serial", "process-2"])
    def test_phase_seconds_are_a_counter_summing_to_country_seconds(self, runs, name):
        # Each phase's seconds summed over countries; how many countries
        # is ``exec_country_seconds_total``'s to say.
        snapshot = runs[name].metrics_snapshot
        entry = snapshot["metrics"]["families"]["worker_phase_duration_seconds"]
        assert (entry["type"], entry["runtime"]) == ("counter", True)
        phases = _series(snapshot, "worker_phase_duration_seconds", "phase")
        assert sorted(phases) == sorted(PHASES)
        countries = _series(snapshot, "exec_country_seconds_total", "country")
        assert sum(phases.values()) == pytest.approx(
            sum(countries.values()), abs=1e-6 * len(COUNTRIES)
        )


class TestResumedAccounting:
    """Checkpoint CA,NZ, then resume CA,NZ,RW (traced, profiled): only
    RW ran here."""

    @pytest.fixture(scope="class")
    def resumed(self, scenario, tmp_path_factory):
        checkpoint_dir = tmp_path_factory.mktemp("ckpt")
        config = StudyConfig(profile=True)
        run_study(
            scenario, countries=COUNTRIES[:2], config=config,
            checkpoint_dir=checkpoint_dir, trace=True,
        )
        return run_study(
            scenario, countries=COUNTRIES, config=config,
            checkpoint_dir=checkpoint_dir, resume=True, trace=True,
        )

    def test_resources_describe_this_process_only(self, resumed):
        assert list(resumed.metrics_snapshot["resources"]) == ["RW"]
        assert validate_journal(resumed.journal.records) == []

    def test_stripped_journal_equals_an_uninterrupted_run(self, resumed, scenario):
        uninterrupted = run_study(scenario, countries=COUNTRIES, trace=True)
        assert strip_timings(resumed.journal.records) == strip_timings(
            uninterrupted.journal.records
        )

    def test_cache_infos_equal_the_snapshot_cache_family(self, resumed):
        snapshot = resumed.metrics_snapshot
        assert {
            cache: {key: info[key] for key in ("hits", "misses", "size")}
            for cache, info in resumed.metrics.cache_infos.items()
        } == _cache_family(snapshot)

    def test_runtime_numbers_describe_this_process_only(self, resumed):
        snapshot = resumed.metrics_snapshot
        assert list(resumed.metrics.country_seconds) == ["RW"]
        assert list(
            _series(snapshot, "exec_country_seconds_total", "country")
        ) == ["RW"]
        assert snapshot["meta"]["resumed"] == COUNTRIES[:2]
        phases = _series(snapshot, "worker_phase_duration_seconds", "phase")
        assert sum(phases.values()) == pytest.approx(
            resumed.metrics.country_seconds["RW"], abs=1e-6
        )

    def test_study_families_equal_an_uninterrupted_run(self, resumed, runs):
        assert strip_runtime(resumed.metrics_snapshot["metrics"]) == strip_runtime(
            runs["serial"].metrics_snapshot["metrics"]
        )
