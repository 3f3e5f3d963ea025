"""The revisit carry: a volunteer's next run replays its last run's traces.

A trace is a pure function of its source city, address and measurement
key (plus the OS normaliser), and volunteer measurement keys name the
volunteer, site and position but not the visit.  So a study on a
scenario that has already run an earlier visit must equal the same
visit on a fresh scenario, byte for byte, while its carry serves hits.
The countries cover both trace formats (CA/NZ Linux, AZ Windows), a
source-blocked country (QA) and a volunteer who opts out of C3 (EG).
"""

from __future__ import annotations

import pytest

from repro import StudyConfig, build_scenario, export_study, run_study
from repro.core.gamma.probes import CARRY_CACHE_NAME, ProbeRunner, TraceCarry
from tests.test_exec_equivalence import assert_outcomes_identical

COUNTRIES = ["CA", "NZ", "AZ", "QA", "EG"]
#: EG opts out of traceroutes, so it never carries a run.
CARRYING = {"vol-CA", "vol-NZ", "vol-AZ", "vol-QA"}


def _study(scenario, visit_key: str, **config):
    return run_study(
        scenario, countries=COUNTRIES, trace=True,
        config=StudyConfig(visit_key=visit_key, **config),
    )


def _carry_info(outcome) -> dict:
    return outcome.metrics.cache_infos[CARRY_CACHE_NAME]


def _carried_volunteers(carry: TraceCarry) -> set:
    """The volunteers with a run in *carry* (read from its store)."""
    return set(carry._runs)


def _traced_addresses(outcome) -> int:
    """Distinct addresses each volunteer traced, summed over countries."""
    return sum(
        len({
            address
            for measurement in dataset.websites.values()
            for address in measurement.traceroutes
        })
        for dataset in outcome.datasets.values()
    )


@pytest.fixture(scope="module")
def warm():
    """visit-1 then visit-2 on one scenario."""
    scenario = build_scenario()
    first = _study(scenario, "visit-1")
    return scenario, first, _study(scenario, "visit-2")


@pytest.fixture(scope="module")
def fresh():
    """visit-2 alone on a fresh scenario."""
    return _study(build_scenario(), "visit-2")


class TestWarmVisitEqualsFresh:
    def test_every_artefact_identical(self, warm, fresh):
        assert_outcomes_identical(fresh, warm[2])

    def test_summary_and_stripped_journal_identical(self, warm, fresh):
        _, _, revisit = warm
        assert revisit.summary().to_dict() == fresh.summary().to_dict()
        assert revisit.journal.dumps(timings=False) == fresh.journal.dumps(timings=False)

    def test_export_bundles_byte_identical(self, warm, fresh, tmp_path):
        warm_paths = export_study(warm[2], tmp_path / "warm")
        fresh_paths = export_study(fresh, tmp_path / "fresh")
        assert [p.relative_to(tmp_path / "warm") for p in warm_paths] == [
            p.relative_to(tmp_path / "fresh") for p in fresh_paths
        ]
        for warm_path, fresh_path in zip(warm_paths, fresh_paths):
            assert warm_path.read_bytes() == fresh_path.read_bytes(), warm_path.name


class TestCarryCounters:
    def test_first_study_misses_and_second_hits(self, warm):
        _, first, revisit = warm
        assert _carry_info(first)["hits"] == 0
        assert _carry_info(first)["misses"] > 0
        assert _carry_info(revisit)["hits"] > 0

    def test_every_carry_lookup_is_a_trace_memo_miss(self, warm):
        _, _, revisit = warm
        carry = _carry_info(revisit)
        assert carry["hits"] + carry["misses"] == revisit.metrics.cache_infos[
            "gamma.traces"
        ]["misses"]


class TestOneRunPerVolunteer:
    def test_store_holds_only_the_last_run_after_three_visits(self):
        scenario = build_scenario()
        for visit in ("visit-1", "visit-2", "visit-3"):
            last = run_study(
                scenario, countries=COUNTRIES, config=StudyConfig(visit_key=visit)
            )
        carry = scenario.trace_carry
        assert _carried_volunteers(carry) == CARRYING
        # Exactly the last run's first observations: nothing older stays.
        assert len(carry) == carry.info().size == _traced_addresses(last)

    def test_process_study_leaves_the_coordinators_store_untouched(self):
        scenario = build_scenario()
        outcome = _study(scenario, "visit-1", jobs=2, backend="process")
        carry = scenario.trace_carry
        assert (carry.info().hits, carry.info().misses, len(carry)) == (0, 0, 0)
        # The pool workers looked up (and filled) their own copies.
        assert _carry_info(outcome)["misses"] > 0


class TestProbeRunnerCarry:
    def _launch(self, scenario, carry, city, target, os_name="linux", prefix="site"):
        runner = ProbeRunner(scenario.world, os_name, carry, "vol-T")
        trace = runner.traceroute_many(city, [target], key_prefix=prefix)[target]
        runner.carry_forward()
        return runner, trace

    @pytest.fixture()
    def setup(self, scenario, registry):
        return registry.city("Toronto, CA"), str(next(iter(scenario.world.ips)).address(2))

    def test_same_launch_is_replayed(self, scenario, setup):
        city, target = setup
        carry = TraceCarry()
        _, first = self._launch(scenario, carry, city, target)
        _, second = self._launch(scenario, carry, city, target)
        assert second is first
        assert (carry.info().hits, carry.info().misses) == (1, 1)

    @pytest.mark.parametrize("change", [
        {"prefix": "other-site"},
        {"os_name": "windows"},
    ], ids=["measurement-key", "os"])
    def test_another_launch_is_measured_anew(self, scenario, setup, change):
        city, target = setup
        carry = TraceCarry()
        self._launch(scenario, carry, city, target)
        runner, trace = self._launch(scenario, carry, city, target, **change)
        assert (carry.info().hits, carry.info().misses) == (0, 2)
        key = f"{change.get('prefix', 'site')}:0"
        assert trace == runner.traceroute(city, target, key)

    def test_a_run_replaces_the_volunteers_previous_run(self, scenario, setup):
        city, target = setup
        other = str(next(iter(scenario.world.ips)).address(3))
        carry = TraceCarry()
        self._launch(scenario, carry, city, target)
        self._launch(scenario, carry, city, other)
        assert _carried_volunteers(carry) == {"vol-T"}
        assert len(carry) == 1
        # The first run's trace is gone: launching it again misses.
        self._launch(scenario, carry, city, target)
        assert carry.info().hits == 0
