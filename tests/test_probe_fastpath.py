"""Study-level equivalence of the probe-layer fast paths.

Three fast paths accelerate component C3 — direct normalisation
instead of the render → parse round trip, the per-country
first-observation trace memo, and the cross-country destination-probe
memo.  The contract: none of them may change a study artefact.  Direct
normalisation is checked against the round trip patched back into
``ProbeRunner.traceroute``; it and the destination memo are
*byte-invisible* everywhere (``assert_outcomes_identical``); the trace
memo replays each address's first observation for later sites, so
per-site duplicate entries carry the first site's RTT samples — while
everything downstream (first observations, source traces, verdicts,
funnel, summary) stays byte-identical.
"""

from __future__ import annotations

import json

from repro import StudyConfig, run_study
from repro.atlas.measurements import DEST_TRACE_CACHE_NAME
from repro.core.gamma.parsers import parse_traceroute_output
from repro.core.gamma.probes import TRACE_CACHE_NAME, ProbeRunner
from tests.test_exec_equivalence import assert_outcomes_identical

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
            # The historical probe path: OS-native text, then the parser.
            raw = runner.adapter.raw_traceroute(
                runner._world.traceroute, source_city, target_ip, key
            )
            parsed.append(runner.adapter.traceroute_command)
            return parse_traceroute_output(raw)

        with monkeypatch.context() as patch:
            patch.setattr(ProbeRunner, "traceroute", render_then_parse)
            oracle = run_study(scenario, countries=COUNTRIES, config=StudyConfig())
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
    def test_memo_preserves_every_downstream_artefact(self, scenario):
        memo = run_study(scenario, countries=COUNTRIES, config=StudyConfig())
        legacy = run_study(
            scenario, countries=COUNTRIES, config=StudyConfig(memo_traces=False)
        )
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

    def test_memo_hits_counted_on_registered_cache(self, scenario, registry):
        runner = ProbeRunner(scenario.world, "linux")
        city = registry.city("Toronto, CA")
        target = self._target(scenario)
        from repro.exec.cache import cache_snapshot

        before = cache_snapshot(TRACE_CACHE_NAME)[TRACE_CACHE_NAME]
        runner.traceroute_many(city, [target], key_prefix="s1", memo=True)
        runner.traceroute_many(city, [target], key_prefix="s2", memo=True)
        after = cache_snapshot(TRACE_CACHE_NAME)[TRACE_CACHE_NAME]
        assert after.misses == before.misses + 1
        assert after.hits == before.hits + 1

    def test_runners_never_share_memo_entries(self, scenario, registry):
        city = registry.city("Toronto, CA")
        target = self._target(scenario)
        first = ProbeRunner(scenario.world, "linux")
        second = ProbeRunner(scenario.world, "linux")
        a = first.traceroute_many(city, [target], key_prefix="x", memo=True)
        b = second.traceroute_many(city, [target], key_prefix="y", memo=True)
        # Same inputs, isolated namespaces: both computed (equal values,
        # launched under their own keys — not served from each other).
        assert a[target].target == b[target].target
        info = ProbeRunner(scenario.world, "linux")  # fresh namespace token
        assert info._memo_namespace > second._memo_namespace

    def test_memo_off_recomputes_per_site(self, scenario, registry):
        runner = ProbeRunner(scenario.world, "linux")
        city = registry.city("Toronto, CA")
        target = self._target(scenario)
        one = runner.traceroute_many(city, [target], key_prefix="a", memo=False)
        two = runner.traceroute_many(city, [target], key_prefix="b", memo=False)
        assert one[target].reached == two[target].reached


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
