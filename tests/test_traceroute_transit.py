"""Transit hops: what geolocation reads is unchanged, the rest is plausible.

Transit hops (the access hop 2, waypoint hops, and hops 2…k of a failed
trace) derive their address and probe samples from the one draw the
trace's generator spends on them, mixed by integers instead of a
reseeded generator.  The reference engine below is the earlier per-hop
reseeding engine, frozen verbatim, over the earlier waypoint path
(great-circle coordinates plus fractions), also frozen verbatim.  Against it, every trace must agree
on everything the latency constraints read: ``reached``, the hop
indices, the responded/``*`` pattern, every canonical ``rtt_ms``, and
the gateway and destination hops including their probe samples.  Only
transit-hop addresses and samples may differ.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gamma.normalize import normalize_direct
from repro.core.geoloc.constraints import adjusted_latency_ms
from repro.determinism import stable_draw_rng, stable_rng
from repro.netsim.distance import city_distance_km, interpolate
from repro.netsim.geography import default_registry
from repro.netsim.ip import IPSpace
from repro.netsim.latency import LatencyModel
from repro.netsim.routing import hop_count_for_distance, path_fractions
from repro.netsim.traceroute import (
    TracerouteBlocking,
    TracerouteEngine,
    TracerouteHop,
    TracerouteResult,
    _transit_hop,
)

REG = default_registry()
GATEWAY = "192.168.1.1"


# --- the reference path: waypoints with coordinates, as routing built them ---


@dataclass(frozen=True)
class Waypoint:
    """One intermediate router location on a forward path."""

    lat: float
    lon: float
    fraction: float  # cumulative share of the end-to-end propagation delay


def synthesize_path(src, dst, key=""):
    """Deterministic waypoint list from *src* to *dst*."""
    distance = city_distance_km(src, dst)
    count = hop_count_for_distance(distance)
    rng = stable_rng("path", src.key, dst.key, key)
    waypoints: List[Waypoint] = []
    for i in range(1, count + 1):
        base = i / (count + 1)
        fraction = min(0.99, max(0.01, base + rng.uniform(-0.4, 0.4) / (count + 1)))
        if waypoints and fraction <= waypoints[-1].fraction:
            fraction = min(0.99, waypoints[-1].fraction + 0.005)
        lat, lon = interpolate(src.lat, src.lon, dst.lat, dst.lon, fraction)
        waypoints.append(Waypoint(lat=lat, lon=lon, fraction=fraction))
    return waypoints


# --- the reference: per-hop reseeding, as the engine used to build hops ---


def _reference_probe_rtts(index, address, rtt_ms):
    rng = stable_draw_rng("probe-rtts", index, address, rtt_ms)
    return (
        max(0.05, rtt_ms + rng.uniform(-0.4, 0.4)),
        max(0.05, rtt_ms + rng.uniform(-0.4, 0.4)),
        max(0.05, rtt_ms + rng.uniform(-0.4, 0.4)),
    )


def _reference_hop(index, address, rtt_ms):
    return TracerouteHop(index, address, rtt_ms, _reference_probe_rtts(index, address, rtt_ms))


class ReferenceEngine(TracerouteEngine):
    """``TracerouteEngine`` with its earlier hop builders."""

    def _build_hops(self, source_city, destination_city, target_ip, total_rtt, measurement_key, rng):
        hops: List[TracerouteHop] = []
        gateway_rtt = rng.uniform(0.4, 3.0)
        hops.append(_reference_hop(1, self._GATEWAY, round(gateway_rtt, 3)))
        access_rtt = gateway_rtt + self._latency.access_penalty(source_city) * rng.uniform(0.7, 1.2)
        hops.append(_reference_hop(2, self._transit_address(source_city.key, 0, rng), round(access_rtt, 3)))

        waypoints = synthesize_path(source_city, destination_city, measurement_key)
        propagation_budget = max(0.0, total_rtt - access_rtt - 1.0)
        previous_rtt = access_rtt
        for order, waypoint in enumerate(waypoints, start=1):
            index = len(hops) + 1
            if rng.random() < self._HOP_LOSS:
                hops.append(TracerouteHop(index, None, None))
                continue
            rtt = access_rtt + propagation_budget * waypoint.fraction
            rtt = max(previous_rtt + 0.05, rtt)
            previous_rtt = rtt
            hops.append(
                _reference_hop(index, self._transit_address(source_city.key + target_ip, order, rng), round(rtt, 3))
            )
        hops.append(_reference_hop(len(hops) + 1, target_ip, round(max(previous_rtt + 0.05, total_rtt), 3)))
        return hops

    def _failed_trace(self, source_city, target_ip, rng, hops_before_loss):
        hops: List[TracerouteHop] = []
        if hops_before_loss > 0:
            hops.append(_reference_hop(1, self._GATEWAY, round(rng.uniform(0.4, 3.0), 3)))
            previous = hops[0].rtt_ms or 1.0
            for i in range(2, hops_before_loss + 1):
                previous = previous + rng.uniform(0.5, 12.0)
                hops.append(_reference_hop(i, self._transit_address(source_city.key, i, rng), round(previous, 3)))
        start = len(hops) + 1
        for i in range(start, start + 5):
            hops.append(TracerouteHop(i, None, None))
        return TracerouteResult(target=target_ip, source_city=source_city, reached=False, hops=hops)

    @staticmethod
    def _transit_address(key, order, rng):
        h = stable_draw_rng("transit-ip", key, order, rng.random())
        return f"62.{h.randint(0, 255)}.{h.randint(0, 255)}.{h.randint(1, 254)}"


# --- the sweep ---


UNKNOWN_TARGETS = ["8.8.8.8", "203.0.113.7", "62.1.2.3"]
KEYS = ["", "visit-1", "atlas:p7:dest:x"]


def _is_endpoint(hop: TracerouteHop, result: TracerouteResult) -> bool:
    """The gateway, or the destination of a trace that reached it."""
    return hop.address == GATEWAY or (result.reached and hop is result.hops[-1])


def _sweep_inputs(scenario):
    world = scenario.world
    sources = sorted({volunteer.city for volunteer in scenario.volunteers.values()}, key=lambda c: c.key)
    sources += [REG.city("Frankfurt, DE"), REG.city("Sydney, AU")]
    allocations = list(world.ips)
    served = [str(allocation.address(1 + i % 250)) for i, allocation in enumerate(allocations[::23])]
    targets = served[:40] + UNKNOWN_TARGETS
    return sources, targets


@pytest.fixture(scope="module")
def sweep(scenario):
    """Every (policy, source, target, key) pair: new trace, reference trace."""
    world = scenario.world
    sources, targets = _sweep_inputs(scenario)
    policies = [
        world.traceroute_blocking,
        TracerouteBlocking(blocked_source_countries=set(), unreachable_rate=0.10),
    ]
    pairs = []
    for blocking in policies:
        engine = TracerouteEngine(world.latency, world.ips, blocking)
        reference = ReferenceEngine(world.latency, world.ips, blocking)
        for source in sources:
            for target in targets:
                for key in KEYS:
                    pairs.append((
                        blocking, source, target,
                        engine.trace(source, target, key),
                        reference.trace(source, target, key),
                    ))
    return pairs


class TestPathFractions:
    def test_fractions_equal_the_waypoint_path(self):
        cities = [city for country in REG.countries for city in country.cities]
        sources = cities[::3]
        pairs = [(src, dst) for src in sources for dst in cities[::5]]
        pairs += [(city, city) for city in sources]
        checked = 0
        for src, dst in pairs:
            for key in KEYS + ["k", "TH:https://example.th/:203.0.113.9"]:
                expected = [waypoint.fraction for waypoint in synthesize_path(src, dst, key)]
                assert path_fractions(src, dst, key) == expected, (src.key, dst.key, key)
                checked += 1
        assert checked > 1000


class TestOracle:
    def test_sweep_covers_every_kind_of_trace(self, sweep, scenario):
        kinds = set()
        for blocking, source, target, new, _ in sweep:
            if blocking.source_blocked(source.country_code):
                kinds.add("blocked source")
            elif scenario.world.ips.true_city(target) is None:
                kinds.add("unknown target")
            elif not new.reached:
                kinds.add("destination unreachable")
            else:
                kinds.add("reached")
        assert kinds == {"blocked source", "unknown target", "destination unreachable", "reached"}

    def test_what_geolocation_reads_is_unchanged(self, sweep):
        for _, _, _, new, ref in sweep:
            assert new.reached == ref.reached
            assert [h.index for h in new.hops] == [h.index for h in ref.hops]
            assert [h.responded for h in new.hops] == [h.responded for h in ref.hops]
            assert [h.rtt_ms for h in new.hops] == [h.rtt_ms for h in ref.hops]
            assert (new.first_hop_rtt, new.last_hop_rtt, new.destination_rtt) == (
                ref.first_hop_rtt, ref.last_hop_rtt, ref.destination_rtt,
            )

    def test_gateway_and_destination_hops_match_exactly(self, sweep):
        endpoints = 0
        for _, _, _, new, ref in sweep:
            for new_hop, ref_hop in zip(new.hops, ref.hops):
                if not new_hop.responded:
                    continue
                if _is_endpoint(ref_hop, ref):
                    endpoints += 1
                    assert new_hop.address == ref_hop.address
                    assert new_hop.probes == ref_hop.probes
                else:
                    assert not _is_endpoint(new_hop, new)
                    assert new_hop.address.startswith("62.")
        assert endpoints > 1000

    @pytest.mark.parametrize("os_name", ["linux", "windows"])
    def test_normalised_latency_is_unchanged(self, sweep, os_name):
        for _, _, _, new, ref in sweep:
            new_norm = normalize_direct(new, os_name)
            ref_norm = normalize_direct(ref, os_name)
            assert new_norm.reached == ref_norm.reached
            if ref_norm.reached:
                assert adjusted_latency_ms(new_norm) == adjusted_latency_ms(ref_norm)


# --- transit-hop properties and one golden trace ---


def _transit_hops(result: TracerouteResult):
    return [hop for hop in result.hops if hop.responded and not _is_endpoint(hop, result)]


def _assert_plausible(hop: TracerouteHop) -> None:
    address = ipaddress.IPv4Address(hop.address)
    assert address in ipaddress.IPv4Network("62.0.0.0/8")
    assert 1 <= int(hop.address.rsplit(".", 1)[1]) <= 254
    assert len(hop.probes) == 3
    for sample in hop.probes:
        assert sample >= 0.05
        assert sample == 0.05 or abs(sample - hop.rtt_ms) <= 0.4 + 1e-9


class TestTransitHops:
    def test_engine_transit_hops_are_plausible_and_unserved(self, sweep, scenario):
        checked = 0
        for _, _, _, new, _ in sweep:
            for hop in _transit_hops(new):
                _assert_plausible(hop)
                assert scenario.world.ips.true_city(hop.address) is None
                checked += 1
        assert checked > 1000

    def test_same_trace_built_twice_is_identical(self, scenario):
        world = scenario.world
        fresh = TracerouteEngine(world.latency, world.ips, world.traceroute_blocking)
        sources, targets = _sweep_inputs(scenario)
        for source in sources[:6]:
            for target in targets[::5]:
                a = world.traceroute.trace(source, target, "twice")
                b = fresh.trace(source, target, "twice")
                assert a == b
                assert [h.probes for h in a.hops] == [h.probes for h in b.hops]

    @settings(max_examples=300, deadline=None)
    @given(
        k=st.integers(min_value=0, max_value=2**53 - 1),
        rtt=st.floats(min_value=0.0, max_value=600.0),
        index=st.integers(min_value=2, max_value=30),
    )
    def test_mixer_ranges_over_every_draw(self, k, rtt, index):
        hop = _transit_hop(index, round(rtt, 3), k / 2**53)
        assert hop.index == index and hop.rtt_ms == round(rtt, 3)
        _assert_plausible(hop)
        assert hop == _transit_hop(index, round(rtt, 3), k / 2**53)

    def test_octets_cover_their_ranges(self):
        octets = [set(), set(), set()]
        for k in range(20000):
            hop = _transit_hop(2, 10.0, k / 20000)
            for seen, text in zip(octets, hop.address.split(".")[1:]):
                seen.add(int(text))
        assert octets[0] == set(range(256))
        assert octets[1] == set(range(256))
        assert octets[2] == set(range(1, 255))

    @pytest.mark.parametrize("target_kind, golden", [
        ("served", "GOLDEN_REACHED"), ("unknown", "GOLDEN_FAILED"),
    ])
    def test_golden_trace(self, target_kind, golden):
        space = IPSpace()
        allocation = space.allocate(5, REG.city("Frankfurt, DE"), label="X/fra1")
        engine = TracerouteEngine(LatencyModel(), space, TracerouteBlocking(unreachable_rate=0.0))
        target = str(allocation.address(1)) if target_kind == "served" else "8.8.8.8"
        result = engine.trace(REG.city("London, GB"), target, "g1")
        assert result.reached == (target_kind == "served")
        assert [(h.index, h.address, h.rtt_ms, h.probes) for h in result.hops] == globals()[golden]


#: London -> Frankfurt, measurement key "g1": a lost waypoint at hop 5.
GOLDEN_REACHED = [
    (1, "192.168.1.1", 2.085, (1.8664734681564223, 1.8389513720807467, 2.0630142660751467)),
    (2, "62.253.160.211", 3.556, (3.7571417388916015, 3.4294062194824217, 3.860800033569336)),
    (3, "62.103.230.153", 6.981, (6.770029312133789, 6.942017227172851, 6.951128631591796)),
    (4, "62.163.119.56", 10.367, (10.50728663635254, 10.328811447143556, 10.083035461425782)),
    (5, None, None, None),
    (6, "5.0.0.1", 19.764, (19.6173371570884, 19.380010746707626, 19.547611520555275)),
]

#: London -> 8.8.8.8 (outside the served space), measurement key "g1".
GOLDEN_FAILED = [
    (1, "192.168.1.1", 2.469, (2.287730113194835, 2.519618890127957, 2.5605832478919197)),
    (2, "62.135.87.200", 3.432, (3.0810798950195313, 3.110694152832031, 3.057249481201172)),
    (3, "62.121.32.11", 10.44, (10.71132568359375, 10.7923681640625, 10.404698410034179)),
    (4, None, None, None),
    (5, None, None, None),
    (6, None, None, None),
    (7, None, None, None),
    (8, None, None, None),
]
