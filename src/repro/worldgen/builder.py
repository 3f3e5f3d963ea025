"""World/scenario construction.

``build_scenario()`` assembles the full study environment: the synthetic
Internet (ASes, PoPs, GeoDNS, reverse DNS), the web (sites + embeddings),
the measurement services (probe mesh, geolocation databases, latency
statistics), target-list machinery (ranking providers, Tranco-like list),
tracker identification (filter lists + directory), the policy registry,
and one volunteer per measurement country.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.atlas.measurements import AtlasMeasurementService
from repro.atlas.probes import ProbeMesh
from repro.browser.engine import BrowserConfig
from repro.core.gamma.probes import TraceCarry
from repro.core.gamma.volunteer import Volunteer
from repro.core.geoloc.latency_stats import StatsChain, default_stats_chain
from repro.core.targets.builder import TargetList, TargetListBuilder
from repro.core.targets.government import TrancoLikeList
from repro.core.targets.rankings import CatalogRankingProvider
from repro.core.trackers.identify import TrackerIdentifier
from repro.core.trackers.orgs import OrganizationDirectory
from repro.core.trackers.party import PartyClassifier
from repro.determinism import stable_rng
from repro.exec.cache import ReadThroughCache
from repro.geodb.errors import GeoErrorModel
from repro.geodb.ipinfo import IPInfoService
from repro.geodb.ipmap import IPMapService
from repro.netsim.distance import distance_cache
from repro.netsim.geography import MEASUREMENT_COUNTRIES, default_registry
from repro.netsim.network import World
from repro.netsim.rdns import RDNSStyle
from repro.netsim.servers import Deployment, Organization, PoP, ServingPolicy
from repro.netsim.traceroute import TracerouteBlocking
from repro.policy.registry import PolicyRegistry, default_policy_registry
from repro.web.catalog import SiteCatalog
from repro.worldgen.datacenters import datacenter_city, volunteer_city
from repro.worldgen.lists_gen import build_directory, build_filter_lists
from repro.worldgen.orgs_data import all_org_specs
from repro.worldgen.orgspec import OrgKind, OrgSpec
from repro.worldgen.profiles import PROFILES, CountryProfile
from repro.worldgen.sites import (
    FOREIGN_HOSTING_ANCHORS,
    GeneratedSite,
    OrgIndex,
    generate_country_sites,
    generate_global_sites,
)

__all__ = ["Scenario", "build_scenario", "TRACEROUTE_BLOCKED_COUNTRIES"]

#: Countries whose volunteers' traceroute probes all failed (section 4.1.1).
TRACEROUTE_BLOCKED_COUNTRIES = frozenset({"AU", "IN", "QA", "JO"})

#: Background rate at which home-connection traceroutes never complete.
_VOLUNTEER_UNREACHABLE_RATE = 0.30


@dataclass
class Scenario:
    """Everything a study run needs, fully constructed."""

    world: World
    catalog: SiteCatalog
    profiles: Dict[str, CountryProfile]
    volunteers: Dict[str, Volunteer]
    targets: Dict[str, TargetList]
    identifier: TrackerIdentifier
    directory: OrganizationDirectory
    party_classifier: PartyClassifier
    ipmap: IPMapService
    ipinfo: IPInfoService
    atlas: AtlasMeasurementService
    stats: StatsChain
    policy: PolicyRegistry
    browser_config: BrowserConfig
    tranco: TrancoLikeList
    providers: Dict[str, CatalogRankingProvider]
    target_builder: TargetListBuilder
    filter_list_texts: Dict[str, str] = field(default_factory=dict)
    org_specs: Dict[str, OrgSpec] = field(default_factory=dict)
    #: Each volunteer's last Gamma run of traces, replayed on a revisit.
    trace_carry: TraceCarry = field(default_factory=TraceCarry)

    @property
    def countries(self) -> List[str]:
        return sorted(self.volunteers)

    @property
    def caches(self) -> Tuple[Union[ReadThroughCache, TraceCarry], ...]:
        """The memo caches this scenario's services own, its trace
        carry, and the pure process-wide ``netsim.distance`` memo every
        scenario shares.  A study reports its own share of their
        counters."""
        return (
            self.world.dns.answer_cache,
            self.world.latency.inflation_cache,
            self.world.rdns.lookup_cache,
            self.identifier.verdict_cache,
            self.directory.owner_cache,
            self.atlas.dest_trace_cache,
            self.atlas.source_trace_cache,
            self.trace_carry,
            distance_cache,
        )


def _build_deployment(world: World, spec: OrgSpec, cloud_asns: Dict[str, int]) -> None:
    """Instantiate one org spec as AS + PoPs + deployment + rDNS style."""
    own_as = world.asns.register(
        f"{spec.name.upper().replace(' ', '-')}-NET", spec.name, spec.home,
        is_cloud=(spec.kind == OrgKind.CLOUD),
    )
    if spec.kind == OrgKind.CLOUD:
        cloud_asns[spec.name] = own_as.asn
        world.add_organization(Organization(
            name=spec.name, home_country=spec.home, domains=spec.domains,
            is_tracker=False, is_cloud=True,
        ))
        world.rdns.set_style(spec.name, RDNSStyle(
            apex=spec.rdns_apex, coverage=spec.rdns_coverage, hinted=spec.rdns_hinted,
        ))
        return

    pops: List[PoP] = []
    for pop_cc in spec.pops:
        city = datacenter_city(world.geo, pop_cc)
        cloud_org = spec.cloud_pops.get(pop_cc)
        if cloud_org is not None:
            label = f"{cloud_org}/{spec.name}-{pop_cc.lower()}"
            hosting_asn = cloud_asns[cloud_org]
        else:
            label = f"{spec.name}/{pop_cc.lower()}1"
            hosting_asn = own_as.asn
        allocation = world.ips.allocate(hosting_asn, city, label=label)
        pops.append(PoP(
            org_name=spec.name, name=f"{pop_cc.lower()}1", city=city,
            allocation=allocation, hosting_asn=hosting_asn,
        ))

    policy = ServingPolicy(
        restricted={cc: set(clients) for cc, clients in spec.restricted.items()},
        preferences=dict(spec.preferences),
        pinned=dict(spec.pinned),
    )
    org = Organization(
        name=spec.name, home_country=spec.home, domains=spec.domains,
        is_tracker=spec.is_tracker,
    )
    world.add_deployment(Deployment(org=org, pops=pops, policy=policy))
    world.rdns.set_style(spec.name, RDNSStyle(
        apex=spec.rdns_apex or f"{spec.name.lower().replace(' ', '')}.net",
        coverage=spec.rdns_coverage,
        hinted=spec.rdns_hinted,
    ))


def _build_hosting_org(world: World, name: str, country_code: str) -> Deployment:
    """A web-hosting deployment with one local PoP."""
    asys = world.asns.register(f"{name.upper()}-AS", name, country_code)
    city = datacenter_city(world.geo, country_code)
    allocation = world.ips.allocate(asys.asn, city, label=f"{name}/{country_code.lower()}1")
    org = Organization(name=name, home_country=country_code, domains=(f"{name.lower()}.net",))
    deployment = Deployment(
        org=org,
        pops=[PoP(org_name=name, name=f"{country_code.lower()}1", city=city,
                  allocation=allocation, hosting_asn=asys.asn)],
    )
    world.add_deployment(deployment)
    world.rdns.set_style(name, RDNSStyle(
        apex=f"{name.lower()}.net", coverage=0.6, hinted=True, role="web",
    ))
    return deployment


def build_scenario(
    seed: str = "imc2025",
    countries: Optional[List[str]] = None,
    geo_errors: Optional[GeoErrorModel] = None,
) -> Scenario:
    """Construct the full calibrated scenario.

    *countries* restricts the study to a subset (useful for fast tests);
    defaults to all 23 measurement countries.
    """
    if countries is None:
        countries = list(MEASUREMENT_COUNTRIES)
    unknown = set(countries) - set(MEASUREMENT_COUNTRIES)
    if unknown:
        raise ValueError(f"not measurement countries: {sorted(unknown)}")

    registry = default_registry()
    world = World(
        geo=registry,
        traceroute_blocking=TracerouteBlocking(
            blocked_source_countries=set(TRACEROUTE_BLOCKED_COUNTRIES),
            unreachable_rate=_VOLUNTEER_UNREACHABLE_RATE,
        ),
    )

    # 1. Organisations and their deployments.
    spec_list = all_org_specs()
    specs = {spec.name: spec for spec in spec_list}
    cloud_asns: Dict[str, int] = {}
    for spec in spec_list:
        if spec.kind == OrgKind.CLOUD:
            _build_deployment(world, spec, cloud_asns)
    for spec in spec_list:
        if spec.kind != OrgKind.CLOUD:
            _build_deployment(world, spec, cloud_asns)

    # 2. Hosting deployments: one local per measurement country + anchors.
    hosting: Dict[str, Deployment] = {}
    for cc in MEASUREMENT_COUNTRIES:
        hosting[f"Hosting-{cc}"] = _build_hosting_org(world, f"Hosting-{cc}", cc)
    for anchor_cc, name in FOREIGN_HOSTING_ANCHORS.items():
        if name not in hosting:
            hosting[name] = _build_hosting_org(world, name, anchor_cc)

    # 3. Volunteer access networks.
    volunteer_ips: Dict[str, str] = {}
    for cc in MEASUREMENT_COUNTRIES:
        asys = world.asns.register(f"{cc}-TELECOM", f"{cc} Telecom", cc)
        city = volunteer_city(registry, cc)
        allocation = world.ips.allocate(asys.asn, city, label=f"{cc}-Telecom/access")
        volunteer_ips[cc] = str(allocation.address(10))

    # 4. The web.  One org index serves every country's sites.
    profiles = {cc: PROFILES[cc] for cc in MEASUREMENT_COUNTRIES}
    catalog = SiteCatalog()
    generated: List[GeneratedSite] = []
    index = OrgIndex(specs)
    for cc in MEASUREMENT_COUNTRIES:
        generated.extend(generate_country_sites(profiles[cc], registry, specs, index=index))
    generated.extend(generate_global_sites(profiles, specs))
    for item in generated:
        catalog.add(item.website)
        serving = world.deployments.get(item.hosting_org) or hosting.get(item.hosting_org)
        if serving is None:
            raise ValueError(f"no deployment for hosting org {item.hosting_org}")
        # Global platform sites' own domains are already registered via
        # their owning org's deployment.
        if item.website.domain not in serving.org.domains:
            world.dns.register(item.website.domain, serving)

    # 5. Target-list machinery.
    similarweb = CatalogRankingProvider(
        "similarweb", catalog, noise=4.0,
        missing_countries=("RW", "UG", "LB", "DZ", "AZ"),
    )
    # Noise levels calibrated so top-50 agreement with the similarweb-like
    # reference lands near the paper's 65 % (semrush) and 48 % (ahrefs).
    semrush = CatalogRankingProvider("semrush", catalog, noise=520.0)
    ahrefs = CatalogRankingProvider("ahrefs", catalog, noise=1600.0, score_cap=380.0)
    tranco = TrancoLikeList.from_catalog(catalog, coverage=0.85)
    target_builder = TargetListBuilder(registry, catalog, similarweb, semrush, tranco)
    targets = target_builder.build_all(countries)

    # 6. Identification.
    global_lists, regional_lists, texts = build_filter_lists(spec_list)
    directory = build_directory(spec_list)
    identifier = TrackerIdentifier(global_lists, regional_lists, directory)

    # 7. Measurement services.
    mesh = ProbeMesh(registry)
    atlas = AtlasMeasurementService(world, mesh)
    ipmap = IPMapService(world, geo_errors or GeoErrorModel(seed=f"{seed}:ipmap"))
    ipinfo = IPInfoService(world)
    stats = default_stats_chain(world.latency, registry)

    # 8. Volunteers (one per country; opt-outs drawn from their targets).
    volunteers: Dict[str, Volunteer] = {}
    for cc in countries:
        profile = profiles[cc]
        opted_out = set()
        if profile.opt_out_sites > 0:
            rng = stable_rng(seed, "optout", cc)
            pool = sorted(targets[cc].all_sites)
            opted_out = set(rng.sample(pool, min(profile.opt_out_sites, len(pool))))
        volunteers[cc] = Volunteer(
            name=f"vol-{cc}",
            city=volunteer_city(registry, cc),
            ip=volunteer_ips[cc],
            os_name=profile.volunteer_os,
            opted_out_sites=opted_out,
            traceroute_opt_out=profile.traceroute_opt_out,
        )

    browser_config = BrowserConfig(
        failure_rates={cc: profiles[cc].load_failure_rate for cc in MEASUREMENT_COUNTRIES},
        default_failure_rate=0.08,
    )

    return Scenario(
        world=world,
        catalog=catalog,
        profiles=profiles,
        volunteers=volunteers,
        targets=targets,
        identifier=identifier,
        directory=directory,
        party_classifier=PartyClassifier(directory),
        ipmap=ipmap,
        ipinfo=ipinfo,
        atlas=atlas,
        stats=stats,
        policy=default_policy_registry(),
        browser_config=browser_config,
        tranco=tranco,
        providers={"similarweb": similarweb, "semrush": semrush, "ahrefs": ahrefs},
        target_builder=target_builder,
        filter_list_texts=texts,
        org_specs=specs,
    )
