"""Fuzzing the geolocation pipeline over randomly-generated mini-worlds.

Property under test: across arbitrary PoP placements, vantage points and
database error rates, a "verified non-local" verdict is NEVER issued for
a server whose ground-truth location is inside the measurement country —
the precision property the paper's method is built around.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atlas.measurements import AtlasMeasurementService
from repro.core.gamma.output import VolunteerDataset, WebsiteMeasurement
from repro.core.geoloc.latency_stats import default_stats_chain
from repro.core.geoloc.pipeline import GeolocationPipeline, SourceTraces
from repro.geodb.errors import GeoErrorModel
from repro.geodb.ipmap import IPMapService
from repro.netsim.geography import MEASUREMENT_COUNTRIES, default_registry
from repro.netsim.network import World
from repro.netsim.servers import Deployment, Organization, PoP
from tests.trace_oracle import parse_linux_traceroute, render_linux

REG = default_registry()
ALL_COUNTRIES = [c.code for c in REG.countries]

_world_spec = st.fixed_dictionaries({
    "vantage_cc": st.sampled_from(sorted(MEASUREMENT_COUNTRIES)),
    "pop_ccs": st.lists(st.sampled_from(ALL_COUNTRIES), min_size=1, max_size=5, unique=True),
    "wrong_country_rate": st.floats(min_value=0.0, max_value=0.6),
    "missing_rate": st.floats(min_value=0.0, max_value=0.2),
    "seed": st.integers(min_value=0, max_value=10_000),
})


def _build_world(spec):
    world = World(geo=REG)
    asys = world.asns.register("FUZZ-NET", "FuzzOrg", "US")
    pops = []
    for cc in spec["pop_ccs"]:
        city = REG.country(cc).capital
        allocation = world.ips.allocate(asys.asn, city, label=f"FuzzOrg/{cc.lower()}1")
        pops.append(PoP("FuzzOrg", f"{cc.lower()}1", city, allocation, asys.asn))
    org = Organization("FuzzOrg", "US", ("fuzzorg.net",), is_tracker=True)
    world.add_deployment(Deployment(org=org, pops=pops))
    return world


@settings(max_examples=40, deadline=None)
@given(_world_spec)
def test_verified_nonlocal_never_truly_local(spec):
    world = _build_world(spec)
    vantage = REG.country(spec["vantage_cc"]).capital

    hosts = [f"h{i}.fuzzorg.net" for i in range(4)]
    dns = {}
    for host in hosts:
        try:
            dns[host] = world.dns.resolve_address(host, vantage)
        except LookupError:
            continue
    dataset = VolunteerDataset(spec["vantage_cc"], vantage.key, "1.2.3.4", "linux", "chrome")
    measurement = WebsiteMeasurement(
        url="site.example", category="regional", loaded=True,
        requested_hosts=list(dns), dns=dict(dns),
        rdns={addr: world.rdns.lookup(addr) for addr in dns.values()},
    )
    dataset.add(measurement)

    traces = {}
    for address in dns.values():
        result = world.traceroute.trace(vantage, address, f"fuzz:{spec['seed']}")
        traces[address] = parse_linux_traceroute(render_linux(result))
    source = SourceTraces(city=vantage, traces=traces)

    pipeline = GeolocationPipeline(
        ipmap=IPMapService(world, GeoErrorModel(
            missing_rate=spec["missing_rate"],
            wrong_city_rate=0.05,
            wrong_country_rate=spec["wrong_country_rate"],
            seed=f"fuzz:{spec['seed']}",
        )),
        atlas=AtlasMeasurementService(world),
        stats=default_stats_chain(world.latency, REG),
        latency=world.latency,
    )
    geolocation = pipeline.classify_dataset(dataset, source)

    for verdict in geolocation.verdicts.values():
        truth = world.ips.true_country(verdict.address)
        if verdict.is_verified_nonlocal:
            assert truth != spec["vantage_cc"], (
                f"precision violated: {verdict.address} truly in {truth}, "
                f"claimed {verdict.claimed_country}, vantage {spec['vantage_cc']}"
            )
        # Funnel must stay internally consistent on every input.
        funnel = geolocation.funnel
        assert funnel.total_hosts == funnel.local + funnel.nonlocal_candidates + funnel.unlocated
        assert funnel.after_rdns == funnel.verified_nonlocal
