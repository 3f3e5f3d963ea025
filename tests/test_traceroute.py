"""Traceroute synthesis, blocking, and the oracle's raw-output rendering."""

import pickle
import re

import pytest

from repro.netsim.distance import city_distance_km, min_rtt_ms
from repro.netsim.geography import default_registry
from repro.netsim.ip import IPSpace
from repro.netsim.latency import LatencyModel
from repro.netsim.routing import hop_count_for_distance, path_fractions
from repro.netsim import traceroute as traceroute_module
from repro.netsim.traceroute import (
    TracerouteBlocking,
    TracerouteHop,
    TracerouteEngine,
)
from tests.trace_oracle import render_linux, render_windows

REG = default_registry()


@pytest.fixture()
def engine_and_target():
    space = IPSpace()
    allocation = space.allocate(5, REG.city("Frankfurt, DE"), label="X/fra1")
    engine = TracerouteEngine(LatencyModel(), space, TracerouteBlocking(unreachable_rate=0.0))
    return engine, str(allocation.address(1)), space


class TestRouting:
    def test_hop_count_scales_with_distance(self):
        assert hop_count_for_distance(100) < hop_count_for_distance(10000)

    def test_hop_count_bounds(self):
        assert hop_count_for_distance(0) == 3
        assert hop_count_for_distance(1e6) == 20

    def test_negative_distance_raises(self):
        with pytest.raises(ValueError):
            hop_count_for_distance(-1)

    def test_fractions_strictly_increasing(self):
        src, dst = REG.city("London, GB"), REG.city("Tokyo, JP")
        fractions = path_fractions(src, dst, "k")
        assert all(b > a for a, b in zip(fractions, fractions[1:]))
        assert all(0 < f < 1 for f in fractions)

    @pytest.mark.parametrize("src_key, dst_key", [
        ("London, GB", "Tokyo, JP"),
        ("London, GB", "Frankfurt, DE"),
        ("Bangkok, TH", "Bangkok, TH"),
    ])
    def test_fraction_count_follows_distance(self, src_key, dst_key):
        src, dst = REG.city(src_key), REG.city(dst_key)
        expected = hop_count_for_distance(city_distance_km(src, dst))
        assert len(path_fractions(src, dst, "k")) == expected

    def test_path_deterministic(self):
        src, dst = REG.city("London, GB"), REG.city("Tokyo, JP")
        assert path_fractions(src, dst, "k") == path_fractions(src, dst, "k")


class TestTracerouteEngine:
    def test_reaches_destination(self, engine_and_target):
        engine, target, _ = engine_and_target
        result = engine.trace(REG.city("London, GB"), target)
        assert result.reached
        assert result.hops[-1].address == target

    def test_rtts_monotone_nondecreasing(self, engine_and_target):
        engine, target, _ = engine_and_target
        result = engine.trace(REG.city("Bangkok, TH"), target)
        rtts = [h.rtt_ms for h in result.hops if h.responded]
        assert all(b >= a for a, b in zip(rtts, rtts[1:]))

    def test_last_hop_respects_sol(self, engine_and_target):
        engine, target, _ = engine_and_target
        src = REG.city("Bangkok, TH")
        result = engine.trace(src, target)
        floor = min_rtt_ms(city_distance_km(src, REG.city("Frankfurt, DE")))
        assert result.last_hop_rtt >= floor

    def test_first_hop_is_gateway(self, engine_and_target):
        engine, target, _ = engine_and_target
        result = engine.trace(REG.city("London, GB"), target)
        assert result.hops[0].address == "192.168.1.1"
        assert result.hops[0].rtt_ms < 5

    def test_unknown_target_unreached(self, engine_and_target):
        engine, _, _ = engine_and_target
        result = engine.trace(REG.city("London, GB"), "8.8.8.8")
        assert not result.reached
        assert result.destination_rtt is None

    def test_blocked_source_country_fails_entirely(self):
        space = IPSpace()
        allocation = space.allocate(5, REG.city("Frankfurt, DE"), label="X/fra1")
        engine = TracerouteEngine(
            LatencyModel(), space,
            TracerouteBlocking(blocked_source_countries={"AU"}, unreachable_rate=0.0),
        )
        result = engine.trace(REG.city("Sydney, AU"), str(allocation.address(1)))
        assert not result.reached
        assert all(not h.responded for h in result.hops)

    def test_blocked_source_trace_is_pinned_and_draws_nothing(self, monkeypatch):
        space = IPSpace()
        allocation = space.allocate(5, REG.city("Frankfurt, DE"), label="X/fra1")
        engine = TracerouteEngine(
            LatencyModel(), space, TracerouteBlocking(blocked_source_countries={"AU"}),
        )

        def no_generator(*parts):
            raise AssertionError(f"blocked trace seeded a generator: {parts}")

        monkeypatch.setattr(traceroute_module, "stable_rng", no_generator)
        result = engine.trace(REG.city("Sydney, AU"), str(allocation.address(1)), "k")
        assert result.reached is False
        assert [(h.index, h.address, h.rtt_ms) for h in result.hops] == [
            (i, None, None) for i in range(1, 6)
        ]

    def test_deterministic(self, engine_and_target):
        engine, target, _ = engine_and_target
        a = engine.trace(REG.city("London, GB"), target, "k")
        b = engine.trace(REG.city("London, GB"), target, "k")
        assert [(h.address, h.rtt_ms) for h in a.hops] == [(h.address, h.rtt_ms) for h in b.hops]

    def test_unreachable_rate_applies(self):
        space = IPSpace()
        allocation = space.allocate(5, REG.city("Frankfurt, DE"), label="X/fra1")
        engine = TracerouteEngine(LatencyModel(), space, TracerouteBlocking(unreachable_rate=1.0))
        result = engine.trace(REG.city("London, GB"), str(allocation.address(1)))
        assert not result.reached

    def test_first_last_rtt_properties(self, engine_and_target):
        engine, target, _ = engine_and_target
        result = engine.trace(REG.city("London, GB"), target)
        assert result.first_hop_rtt <= result.last_hop_rtt
        assert result.destination_rtt == result.last_hop_rtt


class TestHopRecord:
    def test_hops_are_slotted(self):
        assert not hasattr(TracerouteHop(1, "10.0.0.1", 1.5), "__dict__")

    def test_pickle_round_trip_keeps_every_field(self, engine_and_target):
        # A spawn-started pool pickles the scenario's trace memos.
        engine, target, _ = engine_and_target
        result = engine.trace(REG.city("London, GB"), target, "k")
        hops = pickle.loads(pickle.dumps(result.hops))
        assert hops == result.hops
        assert [h.probes for h in hops] == [h.probes for h in result.hops]
        assert any(h.probes is not None for h in hops)


class TestRendering:
    def test_linux_format(self, engine_and_target):
        engine, target, _ = engine_and_target
        text = render_linux(engine.trace(REG.city("London, GB"), target))
        assert text.startswith(f"traceroute to {target}")
        assert re.search(r"\d+\.\d+ ms", text)

    def test_windows_format(self, engine_and_target):
        engine, target, _ = engine_and_target
        text = render_windows(engine.trace(REG.city("London, GB"), target))
        assert "Tracing route to" in text
        assert "Trace complete." in text

    def test_windows_unreached_not_complete(self, engine_and_target):
        engine, _, _ = engine_and_target
        text = render_windows(engine.trace(REG.city("London, GB"), "8.8.8.8"))
        assert "Trace complete." not in text
        assert "Request timed out." in text

    def test_linux_star_hops(self, engine_and_target):
        engine, _, _ = engine_and_target
        text = render_linux(engine.trace(REG.city("London, GB"), "8.8.8.8"))
        assert "* * *" in text
