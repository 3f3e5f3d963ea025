"""Micro-benchmarks of the substrate primitives on the hot path.

The full study makes hundreds of thousands of these calls; these benches
track their cost so substrate changes that would blow up study runtime
get caught in review.
"""

from repro.netsim.distance import haversine_km
from repro.netsim.geography import default_registry
from repro.netsim.latency import LatencyModel
from tests.trace_oracle import (
    parse_linux_traceroute,
    parse_windows_tracert,
    render_linux,
    render_windows,
)

REG = default_registry()
MODEL = LatencyModel()


def test_haversine(benchmark):
    result = benchmark(haversine_km, 51.51, -0.13, -36.85, 174.76)
    assert 18000 < result < 18500  # London -> Auckland


def test_latency_sample(benchmark):
    a, b = REG.city("London, GB"), REG.city("Nairobi, KE")
    result = benchmark(MODEL.rtt_ms, a, b, "bench")
    assert result > 0


def test_geodns_resolution(benchmark, scenario):
    city = REG.city("Bangkok, TH")
    address = benchmark(scenario.world.dns.resolve_address,
                        "stats.g.doubleclick.net", city)
    assert address


def test_filterlist_match(benchmark, scenario):
    verdict = benchmark(scenario.identifier.classify, "stats.g.doubleclick.net", "TH")
    assert verdict.is_tracker


def test_filterlist_miss(benchmark, scenario):
    verdict = benchmark(scenario.identifier.classify, "cdnjs.cloudmesh-cdn.com", "TH")
    assert not verdict.is_tracker


def test_traceroute_synthesis_and_parse(benchmark, scenario):
    city = REG.city("Kigali, RW")
    target = str(next(iter(scenario.world.ips)).address(1))

    def roundtrip():
        trace = scenario.world.traceroute.trace(city, target, "bench")
        return parse_linux_traceroute(render_linux(trace))

    parsed = benchmark(roundtrip)
    assert parsed.target == target


def test_tracert_render_parse(benchmark, scenario):
    city = REG.city("Riyadh, SA")
    target = str(next(iter(scenario.world.ips)).address(2))
    trace = scenario.world.traceroute.trace(city, target, "bench")

    def roundtrip():
        return parse_windows_tracert(render_windows(trace))

    parsed = benchmark(roundtrip)
    assert parsed.target == target


def test_ipmap_lookup(benchmark, scenario):
    address = str(next(iter(scenario.world.ips)).address(3))
    scenario.ipmap.locate(address)  # warm the cache as the pipeline would
    claim = benchmark(scenario.ipmap.locate, address)
    assert claim is None or claim.country_code


def test_registrable_domain(benchmark):
    from repro.domains import registrable_domain

    result = benchmark(registrable_domain, "deep.sub.of.google.com.eg")
    assert result == "google.com.eg"
