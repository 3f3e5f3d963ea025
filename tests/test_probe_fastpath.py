"""Study-level equivalence of the probe-layer fast paths.

Four fast paths accelerate the probe layer — direct normalisation
instead of the text render → parse round trip, the per-country
first-observation trace memo, the cross-country destination-probe
memo, and the fallback source-trace memo a revisit is served from.
The contract: none of them may change a study artefact.  Direct
normalisation is checked against the round trip of
``tests/trace_oracle.py`` patched into ``ProbeRunner.traceroute``; it
and the two Atlas memos are *byte-invisible* everywhere
(``assert_outcomes_identical``, trace-by-trace equality); the trace
memo replays each address's first observation for later sites, so
per-site duplicate entries carry the first site's RTT samples — while
everything downstream (first observations, source traces, verdicts,
funnel, summary) stays byte-identical.
"""

from __future__ import annotations

import json

import pytest

from repro import StudyConfig, build_scenario, run_study
from repro import study as study_module
from repro.atlas.measurements import DEST_TRACE_CACHE_NAME, SOURCE_TRACE_CACHE_NAME
from repro.core.gamma.probes import TRACE_CACHE_NAME, ProbeRunner
from tests.test_exec_equivalence import assert_outcomes_identical
from tests.trace_oracle import parse_traceroute_output, raw_traceroute

#: Mixed-format sample: CA/NZ volunteers run Linux traceroute, AZ runs
#: Windows tracert — both quantisations cross the study path.
COUNTRIES = ["CA", "NZ", "AZ"]


def _first_observations(dataset):
    """First trace per address in site-visit order, as stored dicts."""
    merged = {}
    for measurement in dataset.websites.values():
        for address, trace in measurement.traceroutes.items():
            merged.setdefault(address, json.dumps(trace.to_dict()))
    return merged


class TestParserOracleEquivalence:
    def test_direct_normalisation_byte_identical_to_parser_path(
        self, scenario, monkeypatch
    ):
        fast = run_study(scenario, countries=COUNTRIES, config=StudyConfig())
        parsed = []

        def render_then_parse(runner, source_city, target_ip, key=""):
            # The text probe path: OS-native text, then the parser.
            raw = raw_traceroute(
                runner._os_name, runner._world.traceroute, source_city, target_ip, key
            )
            trace = parse_traceroute_output(raw)
            parsed.append(trace.tool)
            return trace

        # A fresh scenario: on the session one, traces its volunteers'
        # earlier runs launched would be replayed from the carry unparsed.
        with monkeypatch.context() as patch:
            patch.setattr(ProbeRunner, "traceroute", render_then_parse)
            oracle = run_study(build_scenario(), countries=COUNTRIES, config=StudyConfig())
        # Both text formats went through the parsers.
        assert {"traceroute", "tracert"} <= set(parsed)
        assert_outcomes_identical(fast, oracle)

    def test_tool_provenance_matches_volunteer_os(self, scenario):
        outcome = run_study(scenario, countries=COUNTRIES, config=StudyConfig())
        tools = {
            cc: {
                trace.tool
                for measurement in outcome.datasets[cc].websites.values()
                for trace in measurement.traceroutes.values()
            }
            for cc in COUNTRIES
        }
        assert tools["CA"] <= {"traceroute"}
        assert tools["NZ"] <= {"traceroute"}
        assert tools["AZ"] <= {"tracert"}
        assert tools["AZ"]  # tracert actually produced records


class TestTraceMemoEquivalence:
    def test_memo_preserves_every_downstream_artefact(self, scenario, monkeypatch):
        memo = run_study(scenario, countries=COUNTRIES, config=StudyConfig())
        calls = []

        def unmemoised(self, source_city, target_ips, key_prefix=""):
            # The oracle: launch every trace under its own site's key.
            calls.append(key_prefix)
            return {
                target_ip: self.traceroute(source_city, target_ip, f"{key_prefix}:{i}")
                for i, target_ip in enumerate(target_ips)
            }

        monkeypatch.setattr(ProbeRunner, "traceroute_many", unmemoised)
        legacy = run_study(scenario, countries=COUNTRIES, config=StudyConfig())
        assert calls  # the study really took the unmemoised path
        # Everything the analyses consume is byte-identical.
        assert memo.source_trace_origins == legacy.source_trace_origins
        for cc in COUNTRIES:
            assert _first_observations(memo.datasets[cc]) == _first_observations(
                legacy.datasets[cc]
            ), cc
            a, b = memo.geolocations[cc], legacy.geolocations[cc]
            assert a.funnel == b.funnel, cc
            assert a.host_to_address == b.host_to_address, cc
            assert a.verdicts == b.verdicts, cc
        assert memo.funnel() == legacy.funnel()
        assert json.dumps(memo.summary().to_dict()) == json.dumps(
            legacy.summary().to_dict()
        )

    def test_memo_replays_first_observation_for_duplicates(self, scenario):
        outcome = run_study(scenario, countries=["CA"], config=StudyConfig())
        dataset = outcome.datasets["CA"]
        seen = {}
        duplicates = 0
        for measurement in dataset.websites.values():
            for address, trace in measurement.traceroutes.items():
                if address in seen:
                    duplicates += 1
                    assert trace == seen[address], address
                else:
                    seen[address] = trace
        # ~100 sites share third-party infrastructure heavily; the memo
        # must actually be getting exercised for this test to mean much.
        assert duplicates > 0

    def test_reached_flag_is_measurement_key_independent(self, scenario):
        # The memo may serve a trace launched under another site's key;
        # downstream per-site reached counts only stay stable because
        # reachability never depends on the measurement key.
        volunteer = scenario.volunteers["NZ"]
        runner = ProbeRunner(scenario.world, volunteer.os_name)
        address = next(iter(scenario.world.ips)).address(1)
        first = runner.traceroute(volunteer.city, str(address), "site-a:0")
        second = runner.traceroute(volunteer.city, str(address), "site-b:7")
        assert first.reached == second.reached


class TestProbeRunnerMemo:
    def _target(self, scenario):
        return str(next(iter(scenario.world.ips)).address(2))

    def test_memo_hits_counted_on_the_runners_cache(self, scenario, registry):
        runner = ProbeRunner(scenario.world, "linux")
        city = registry.city("Toronto, CA")
        target = self._target(scenario)
        runner.traceroute_many(city, [target], key_prefix="s1")
        runner.traceroute_many(city, [target], key_prefix="s2")
        info = runner.trace_cache.info()
        assert (info.name, info.hits, info.misses, info.size) == (
            TRACE_CACHE_NAME, 1, 1, 1
        )

    def test_runners_never_share_memo_entries(self, scenario, registry):
        city = registry.city("Toronto, CA")
        target = self._target(scenario)
        first = ProbeRunner(scenario.world, "linux")
        second = ProbeRunner(scenario.world, "linux")
        a = first.traceroute_many(city, [target], key_prefix="x")
        b = second.traceroute_many(city, [target], key_prefix="y")
        # Same inputs, separate memos: both computed (equal values,
        # launched under their own keys — not served from each other).
        assert a[target].target == b[target].target
        assert first.trace_cache is not second.trace_cache
        assert second.trace_cache.info().misses == 1


class TestDestinationMemoEquivalence:
    def test_dest_traceroute_identical_to_unmemoised_call(self, scenario):
        atlas = scenario.atlas
        probe, _ = atlas.mesh.probe_for_country("US", None)
        address = str(next(iter(scenario.world.ips)).address(3))
        memoised = atlas.dest_traceroute(probe, address)
        direct = atlas.traceroute(probe, address, f"dest:{address}")
        assert memoised.target == direct.target
        assert memoised.reached == direct.reached
        assert [(h.index, h.address, h.rtt_ms) for h in memoised.hops] == [
            (h.index, h.address, h.rtt_ms) for h in direct.hops
        ]
        # And the repeat is a hit on the registered cache.
        info = atlas.dest_trace_cache.info()
        assert info.misses >= 1

    def test_study_metrics_surface_probe_caches(self, scenario):
        outcome = run_study(scenario, countries=COUNTRIES, config=StudyConfig())
        infos = outcome.metrics.cache_infos
        assert TRACE_CACHE_NAME in infos
        assert infos[TRACE_CACHE_NAME]["hits"] > 0  # duplicate addresses replayed
        assert DEST_TRACE_CACHE_NAME in infos
        # Countries share tracker destinations, so the cross-country memo
        # must produce real hits even on a 3-country sample.
        assert infos[DEST_TRACE_CACHE_NAME]["hits"] > 0


#: Countries whose source traces come from an Atlas probe: the QA
#: volunteer's traceroutes are blocked (a neighbour's probe stands in),
#: the EG volunteer opts out.
FALLBACK_COUNTRIES = ["QA", "EG"]

#: Every country whose source traces fall back, and the probe country
#: that stands in: EG opts out of traceroute, AU, IN, QA and JO are
#: blocked, and QA and JO take a neighbour's probe, as in the paper.
FALLBACK_ORIGINS = {
    "AU": "atlas:AU", "EG": "atlas:EG", "IN": "atlas:IN",
    "JO": "atlas:IL", "QA": "atlas:AE",
}


def _recording_source_traces(monkeypatch):
    """Record every ``SourceTraces`` a study builds, by country."""
    recorded = {}
    original = study_module.build_source_traces

    def recording(scenario, volunteer, dataset):
        traces = original(scenario, volunteer, dataset)
        recorded[volunteer.country_code] = traces
        return traces

    monkeypatch.setattr(study_module, "build_source_traces", recording)
    return recorded


def _assert_same_source_traces(a, b, cc):
    assert (a.origin, a.city) == (b.origin, b.city), cc
    assert list(a.traces) == list(b.traces), cc
    for address, trace in a.traces.items():
        assert trace == b.traces[address], (cc, address)


class TestSourceMemoEquivalence:
    def test_source_traceroute_identical_to_unmemoised_call(self, scenario):
        outcome = run_study(scenario, countries=FALLBACK_COUNTRIES, config=StudyConfig())
        atlas = scenario.atlas
        for cc in FALLBACK_COUNTRIES:
            assert outcome.source_trace_origins[cc].startswith("atlas:"), cc
            volunteer = scenario.volunteers[cc]
            probe, _ = atlas.mesh.probe_for_country(cc, volunteer.city)
            addresses = sorted({
                address
                for measurement in outcome.datasets[cc].websites.values()
                for address in measurement.dns.values()
            })
            assert addresses, cc
            for address in addresses:
                direct = atlas.traceroute(probe, address, f"src-fallback:{address}")
                assert atlas.source_traceroute(probe, address) == direct, (cc, address)

    @pytest.mark.parametrize("cc", sorted(FALLBACK_ORIGINS))
    def test_first_visit_launches_each_trace_once_from_the_nearest_probe(
        self, cc, monkeypatch
    ):
        recorded = _recording_source_traces(monkeypatch)
        scenario = build_scenario()
        outcome = run_study(scenario, countries=[cc], config=StudyConfig())
        traces = recorded[cc]
        probe, used = scenario.atlas.mesh.probe_for_country(cc, scenario.volunteers[cc].city)
        assert traces.origin == outcome.source_trace_origins[cc] == FALLBACK_ORIGINS[cc]
        assert f"atlas:{used}" == traces.origin
        assert traces.city == probe.city
        assert traces.traces, cc
        # A fresh scenario's memo is empty: one miss per address, no hit.
        info = outcome.metrics.cache_infos[SOURCE_TRACE_CACHE_NAME]
        assert (info["hits"], info["misses"]) == (0, len(traces.traces))

    @pytest.mark.parametrize("cc", sorted(FALLBACK_ORIGINS))
    def test_revisit_is_served_from_the_memo_and_equals_a_fresh_visit(
        self, cc, monkeypatch
    ):
        recorded = _recording_source_traces(monkeypatch)
        warm_scenario = build_scenario()
        for visit in ("visit-1", "visit-2"):
            warm = run_study(warm_scenario, countries=[cc],
                             config=StudyConfig(visit_key=visit))
        warm_traces = recorded[cc]
        info = warm.metrics.cache_infos[SOURCE_TRACE_CACHE_NAME]
        assert info["hits"] > 0
        assert info["hits"] + info["misses"] == len(warm_traces.traces)
        fresh = run_study(build_scenario(), countries=[cc],
                          config=StudyConfig(visit_key="visit-2"))
        assert fresh.metrics.cache_infos[SOURCE_TRACE_CACHE_NAME]["hits"] == 0
        assert warm_traces.origin == FALLBACK_ORIGINS[cc]
        _assert_same_source_traces(warm_traces, recorded[cc], cc)
        assert json.dumps(warm.summary().to_dict()) == json.dumps(
            fresh.summary().to_dict()
        )

    def test_process_revisit_equals_serial_revisit(self):
        # The memo is filled in the parent by a serial visit-1; a
        # visit-2 on process workers must produce what a serial one does.
        outcomes = []
        for config in (StudyConfig(visit_key="visit-2"),
                       StudyConfig(visit_key="visit-2", jobs=2, backend="process")):
            scenario = build_scenario()
            run_study(scenario, countries=FALLBACK_COUNTRIES,
                      config=StudyConfig(visit_key="visit-1"))
            outcomes.append(run_study(scenario, countries=FALLBACK_COUNTRIES, config=config))
        serial, process = outcomes
        assert process.source_trace_origins == serial.source_trace_origins
        assert json.dumps(process.summary().to_dict()) == json.dumps(
            serial.summary().to_dict()
        )

    def test_volunteer_traces_never_consult_the_memo(self):
        scenario = build_scenario()
        outcome = run_study(scenario, countries=COUNTRIES, config=StudyConfig())
        assert set(outcome.source_trace_origins.values()) == {"volunteer"}
        assert SOURCE_TRACE_CACHE_NAME not in outcome.metrics.cache_infos
        assert scenario.atlas.source_trace_cache.info().lookups == 0
