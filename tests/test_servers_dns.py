"""Serving policies, deployments, and GeoDNS resolution."""

import pytest

from repro.netsim.dns import GeoDNSResolver, NXDomain
from repro.netsim.geography import default_registry
from repro.netsim.ip import IPSpace
from repro.netsim.servers import Deployment, Organization, PoP, ServingPolicy, nearest_pop

REG = default_registry()


def make_deployment(pop_countries, policy=None, org_name="TestOrg", domains=("testorg.com",), space=None):
    # Note: an empty IPSpace is falsy (it defines __len__), so this must
    # be an identity check, not a truthiness one.
    space = space if space is not None else IPSpace()
    pops = []
    for cc in pop_countries:
        city = REG.country(cc).capital
        allocation = space.allocate(1000, city, label=f"{org_name}/{cc.lower()}1")
        pops.append(PoP(org_name=org_name, name=f"{cc.lower()}1", city=city, allocation=allocation))
    org = Organization(name=org_name, home_country="US", domains=domains, is_tracker=True)
    return Deployment(org=org, pops=pops, policy=policy or ServingPolicy())


class TestServingPolicy:
    def test_default_allows_everything(self):
        assert ServingPolicy().allowed("PK", "IN")

    def test_exclusion(self):
        policy = ServingPolicy(exclusions={"PK": {"IN"}})
        assert not policy.allowed("PK", "IN")
        assert policy.allowed("LK", "IN")

    def test_restriction(self):
        policy = ServingPolicy(restricted={"IN": {"IN"}})
        assert policy.allowed("IN", "IN")
        assert not policy.allowed("PK", "IN")

    def test_weight_default_and_override(self):
        policy = ServingPolicy(preferences={"FR": 1.5})
        assert policy.weight("FR") == 1.5
        assert policy.weight("DE") == 1.0

    def test_nonpositive_weight_rejected(self):
        policy = ServingPolicy(preferences={"FR": 0.0})
        with pytest.raises(ValueError):
            policy.weight("FR")


class TestDeployment:
    def test_empty_pops_rejected(self):
        org = Organization("X", "US", ("x.com",))
        with pytest.raises(ValueError):
            Deployment(org=org, pops=[])

    def test_serves_nearest(self):
        deployment = make_deployment(["FR", "JP"])
        client = REG.country("DE").capital
        assert deployment.serve(client).country_code == "FR"

    def test_preference_overrides_distance(self):
        # Italy is nearer to Algiers than Germany, but a strong preference
        # weight pulls traffic to the German PoP.
        policy = ServingPolicy(preferences={"DE": 3.0})
        deployment = make_deployment(["IT", "DE"], policy)
        client = REG.country("DZ").capital
        assert deployment.serve(client).country_code == "DE"

    def test_restriction_blocks_nearest(self):
        # Indian PoP restricted to Indian clients: Pakistan is served from
        # France despite India being far closer.
        policy = ServingPolicy(restricted={"IN": {"IN"}})
        deployment = make_deployment(["IN", "FR"], policy)
        client = REG.country("PK").capital
        assert deployment.serve(client).country_code == "FR"
        assert deployment.serve(REG.country("IN").capital).country_code == "IN"

    def test_pinned_client(self):
        policy = ServingPolicy(pinned={"EG": "DE"})
        deployment = make_deployment(["IT", "FR", "DE"], policy)
        client = REG.country("EG").capital
        assert deployment.serve(client).country_code == "DE"

    def test_no_eligible_pop_raises(self):
        policy = ServingPolicy(restricted={"IN": {"IN"}})
        deployment = make_deployment(["IN"], policy)
        with pytest.raises(LookupError):
            deployment.serve(REG.country("PK").capital)

    def test_candidate_pops(self):
        policy = ServingPolicy(restricted={"IN": {"IN"}})
        deployment = make_deployment(["IN", "FR"], policy)
        assert {p.country_code for p in deployment.candidate_pops("PK")} == {"FR"}

    def test_pop_countries(self):
        deployment = make_deployment(["FR", "JP"])
        assert deployment.pop_countries == {"FR", "JP"}

    def test_pop_named(self):
        deployment = make_deployment(["FR"])
        assert deployment.pop_named("fr1") is not None
        assert deployment.pop_named("zz9") is None

    def test_nearest_pop_helper(self):
        deployment = make_deployment(["FR", "JP"])
        assert nearest_pop(deployment.pops, REG.country("TH").capital).country_code == "JP"

    def test_nearest_pop_empty_raises(self):
        with pytest.raises(ValueError):
            nearest_pop([], REG.country("TH").capital)


class TestGeoDNS:
    def _resolver(self):
        resolver = GeoDNSResolver()
        deployment = make_deployment(["FR", "JP"])
        for domain in deployment.org.domains:
            resolver.register(domain, deployment)
        return resolver, deployment

    def test_resolves_subdomains_by_registrable(self):
        resolver, _ = self._resolver()
        answer = resolver.resolve("cdn.testorg.com", REG.country("DE").capital)
        assert answer.org_name == "TestOrg"

    def test_geodns_differs_by_client(self):
        resolver, _ = self._resolver()
        eu = resolver.resolve("x.testorg.com", REG.country("DE").capital)
        asia = resolver.resolve("x.testorg.com", REG.country("TH").capital)
        assert eu.pop.country_code == "FR"
        assert asia.pop.country_code == "JP"
        assert eu.address != asia.address

    def test_same_host_same_pop_stable_address(self):
        resolver, _ = self._resolver()
        a = resolver.resolve("x.testorg.com", REG.country("DE").capital)
        b = resolver.resolve("x.testorg.com", REG.country("FR").capital)
        assert a.address == b.address  # both served from the FR PoP

    def test_different_hosts_different_addresses(self):
        resolver, _ = self._resolver()
        a = resolver.resolve("a.testorg.com", REG.country("DE").capital)
        b = resolver.resolve("b.testorg.com", REG.country("DE").capital)
        assert a.address != b.address

    def test_nxdomain(self):
        resolver, _ = self._resolver()
        with pytest.raises(NXDomain):
            resolver.resolve("unknown.example", REG.country("DE").capital)
        assert not resolver.knows("unknown.example")

    def test_conflicting_registration_rejected(self):
        resolver, deployment = self._resolver()
        other = make_deployment(["US"], org_name="Rival", domains=("testorg.com",))
        with pytest.raises(ValueError):
            resolver.register("testorg.com", other)

    def test_reregister_same_org_ok(self):
        resolver, deployment = self._resolver()
        resolver.register("testorg.com", deployment)  # idempotent

    def test_exact_registration_beats_registrable(self):
        resolver, deployment = self._resolver()
        special = make_deployment(["US"], org_name="Special", domains=("special.net",))
        resolver.register("exact.testorg.com", special, exact=True)
        answer = resolver.resolve("exact.testorg.com", REG.country("DE").capital)
        assert answer.org_name == "Special"

    def test_is_ip_literal(self):
        assert GeoDNSResolver.is_ip_literal("10.1.2.3")
        assert not GeoDNSResolver.is_ip_literal("example.com")

    def test_all_registered_domains(self):
        resolver, _ = self._resolver()
        assert resolver.all_registered_domains() == ["testorg.com"]

    def test_answer_address_is_the_first_address(self):
        resolver, _ = self._resolver()
        city = REG.country("DE").capital
        answer = resolver.resolve("x.testorg.com", city)
        assert answer.address == answer.addresses[0]
        assert resolver.resolve_address("x.testorg.com", city) == answer.address

    def test_repeat_resolution_is_served_from_the_memo(self):
        resolver, _ = self._resolver()
        city = REG.country("DE").capital
        first = resolver.resolve("x.testorg.com", city)
        assert resolver.resolve("x.testorg.com", city) is first
        info = resolver.answer_cache.info()
        assert (info.hits, info.misses) == (1, 1)

    def test_memoised_nxdomain_raises_with_the_same_arguments(self):
        resolver, _ = self._resolver()
        city = REG.country("DE").capital
        raised = []
        for _ in range(2):
            with pytest.raises(NXDomain) as caught:
                resolver.resolve("unknown.example", city)
            raised.append(caught.value.args)
        assert raised[0] == raised[1] == ("unknown.example",)
        assert resolver.answer_cache.info().hits == 1

    def test_refusal_is_memoised_and_raised_again(self):
        resolver = GeoDNSResolver()
        deployment = make_deployment(["FR"], policy=ServingPolicy(exclusions={"DE": {"FR"}}))
        resolver.register("testorg.com", deployment)
        city = REG.country("DE").capital
        for _ in range(2):
            with pytest.raises(LookupError) as caught:
                resolver.resolve("x.testorg.com", city)
            assert not isinstance(caught.value, NXDomain)
        assert resolver.answer_cache.info().hits == 1

    def test_malformed_hostname_is_not_memoised(self):
        resolver, _ = self._resolver()
        city = REG.country("DE").capital
        for _ in range(2):
            with pytest.raises(ValueError):
                resolver.resolve("bad host..com", city)
        assert len(resolver.answer_cache) == 0

    def test_register_clears_the_memo(self):
        resolver, _ = self._resolver()
        city = REG.country("DE").capital
        resolver.resolve("x.testorg.com", city)
        assert len(resolver.answer_cache) == 1
        special = make_deployment(["US"], org_name="Special", domains=("special.net",))
        resolver.register("x.testorg.com", special, exact=True)
        assert len(resolver.answer_cache) == 0
        assert resolver.resolve("x.testorg.com", city).org_name == "Special"
