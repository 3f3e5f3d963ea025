"""A study's cache numbers count that study, on the scenario it ran on.

Every memo cache belongs to the object that fills it: GeoDNS answers to
the world's resolver, path inflation to its latency model, PTR records
to its reverse-DNS service, verdicts to the scenario's tracker
identifier, hostname owners to its organisation directory, destination
and fallback source traces to its measurement service, each volunteer's
last run of traces to the scenario's trace carry, first-observation
traces to one country's probe runner.  The study metrics fold per-country
deltas of exactly those caches, the same way on every backend, so:

* a study reports every memo its scenario owns, and its trace memo;
* a study on one of two live scenarios reports that scenario's lookups;
* serial and process runs report the same lookups for caches whose
  lookups do not depend on scheduling;
* repeating a study on one scenario repeats its per-run trace memo.
"""

from __future__ import annotations

import pytest

from repro import StudyConfig, build_scenario, run_study

COUNTRIES = ["CA", "NZ"]

BACKENDS = [
    pytest.param(StudyConfig(), id="serial"),
    pytest.param(StudyConfig(jobs=2, backend="process"), id="process-2"),
]


def _lookups(outcome, name: str) -> int:
    info = outcome.metrics.cache_infos.get(name, {"hits": 0, "misses": 0})
    return info["hits"] + info["misses"]


@pytest.fixture(scope="module")
def second_scenario(scenario):
    """Built after the session scenario and kept alive beside it."""
    return build_scenario()


class TestEveryMemoReported:
    @pytest.mark.parametrize("config", BACKENDS)
    def test_ca_study_reports_all_scenario_memos(self, config):
        # A fresh scenario: once its verdict memo is warm, a study asks
        # the directory nothing and moves no ``trackers.orgs`` counter.
        # QA's volunteer traces are blocked, so its source traces come
        # from the ``atlas:AE`` probe through ``atlas.source_traces``.
        scenario = build_scenario()
        outcome = run_study(scenario, countries=["CA", "QA"], config=config)
        names = {cache.name for cache in scenario.caches}
        assert names == {
            "netsim.geodns", "latency.inflation[latency]", "netsim.rdns",
            "trackers.verdicts", "trackers.orgs", "atlas.dest_traces",
            "atlas.source_traces", "gamma.carry", "netsim.distance",
        }
        assert set(outcome.metrics.cache_infos) == names | {"gamma.traces"}
        for name in outcome.metrics.cache_infos:
            assert _lookups(outcome, name) > 0, name


class TestFirstOfTwoScenarios:
    @pytest.mark.parametrize("config", BACKENDS)
    def test_reports_its_own_scenarios_caches(self, scenario, second_scenario, config):
        outcome = run_study(scenario, countries=COUNTRIES, config=config)
        verdicts = _lookups(outcome, "trackers.verdicts")
        geodns = _lookups(outcome, "netsim.geodns")
        assert verdicts > 0
        assert geodns > 0

    def test_serial_lookups_equal_the_owners_counter_movement(
        self, scenario, second_scenario
    ):
        owners = {
            "trackers.verdicts": scenario.identifier.verdict_cache,
            "netsim.geodns": scenario.world.dns.answer_cache,
        }
        before = {name: cache.info() for name, cache in owners.items()}
        outcome = run_study(scenario, countries=COUNTRIES, config=StudyConfig())
        for name, cache in owners.items():
            after = cache.info()
            moved = after.lookups - before[name].lookups
            reported = _lookups(outcome, name)
            assert moved > 0, name
            assert reported == moved, name


class TestBackendsCountOneStudy:
    def test_serial_and_process_lookups_match(self, scenario):
        serial = run_study(scenario, countries=COUNTRIES, config=StudyConfig())
        process = run_study(
            scenario, countries=COUNTRIES, config=StudyConfig(jobs=2, backend="process")
        )
        for name in ("gamma.traces", "trackers.verdicts"):
            serial_lookups = _lookups(serial, name)
            process_lookups = _lookups(process, name)
            assert serial_lookups > 0, name
            assert serial_lookups == process_lookups, name

    def test_back_to_back_studies_report_identical_trace_memos(self, scenario):
        first, second = (
            run_study(scenario, countries=COUNTRIES, config=StudyConfig())
            for _ in range(2)
        )
        counts = [
            tuple(outcome.metrics.cache_infos["gamma.traces"][key]
                  for key in ("hits", "misses", "size"))
            for outcome in (first, second)
        ]
        assert counts[0] == counts[1]
        assert counts[0][0] > 0
