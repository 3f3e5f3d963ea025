"""Browser engine: page loads, failures, background noise, Brave shields."""

import pytest

from repro.browser.engine import (
    CHROMEDRIVER_BACKGROUND_HOSTS,
    BrowserConfig,
    BrowserEngine,
    BrowserKind,
)
from repro.browser.har import NetworkRequest, PageLoadRecord, RequestStatus
from repro.netsim.geography import default_registry
from repro.netsim.network import World
from repro.web.catalog import SiteCatalog
from repro.web.website import CATEGORY_REGIONAL, EmbeddedResource, Website

from tests.test_servers_dns import make_deployment

REG = default_registry()


@pytest.fixture()
def mini_world():
    """A world with one publisher site and one tracker org."""
    world = World(geo=REG)
    publisher = make_deployment(["TH"], org_name="ThaiHost", domains=("siamnews.co.th",),
                                space=world.ips)
    tracker = make_deployment(["FR", "SG"], org_name="AdOrg", domains=("adorg.net",),
                              space=world.ips)
    google = make_deployment(["US"], org_name="Google",
                             domains=("googleapis.com", "google.com"), space=world.ips)
    for deployment in (publisher, tracker, google):
        world.deployments[deployment.org.name] = deployment
        for domain in deployment.org.domains:
            world.dns.register(domain, deployment)
    site = Website(
        domain="www.siamnews.co.th", country_code="TH", category=CATEGORY_REGIONAL,
        owner_org="ThaiPub",
        embedded=[EmbeddedResource(host="px.adorg.net"),
                  EmbeddedResource(host="missing.invalid-zone.example")],
    )
    world.dns.register("www.siamnews.co.th", publisher)
    return world, SiteCatalog([site])


class TestBrowserConfig:
    def test_invalid_browser(self):
        with pytest.raises(ValueError):
            BrowserConfig(browser="netscape")

    def test_invalid_timeouts(self):
        with pytest.raises(ValueError):
            BrowserConfig(hard_timeout_s=0)

    def test_invalid_failure_rate(self):
        with pytest.raises(ValueError):
            BrowserConfig(failure_rates={"TH": 1.2})

    def test_failure_rate_lookup(self):
        config = BrowserConfig(failure_rates={"JP": 0.36}, default_failure_rate=0.05)
        assert config.failure_rate("JP") == 0.36
        assert config.failure_rate("TH") == 0.05


class TestBrowserEngine:
    def test_successful_load_records_requests(self, mini_world):
        world, catalog = mini_world
        engine = BrowserEngine(world, catalog, BrowserConfig(default_failure_rate=0.0))
        record = engine.load("www.siamnews.co.th", REG.country("TH").capital)
        assert record.loaded
        hosts = record.requested_hosts()
        assert hosts[0] == "www.siamnews.co.th"
        assert "static.www.siamnews.co.th" in hosts
        assert "px.adorg.net" in hosts

    def test_geodns_affects_recorded_address(self, mini_world):
        world, catalog = mini_world
        engine = BrowserEngine(world, catalog, BrowserConfig(default_failure_rate=0.0))
        th = engine.load("www.siamnews.co.th", REG.country("TH").capital)
        # px.adorg.net resolves to the SG PoP from Thailand.
        address = th.host_addresses()["px.adorg.net"]
        assert world.ips.true_country(address) == "SG"

    def test_dns_failure_recorded(self, mini_world):
        world, catalog = mini_world
        engine = BrowserEngine(world, catalog, BrowserConfig(default_failure_rate=0.0))
        record = engine.load("www.siamnews.co.th", REG.country("TH").capital)
        failed = [r for r in record.requests if r.status == RequestStatus.DNS_ERROR]
        assert [r.host for r in failed] == ["missing.invalid-zone.example"]

    def test_unknown_site_fails(self, mini_world):
        world, catalog = mini_world
        engine = BrowserEngine(world, catalog, BrowserConfig(default_failure_rate=0.0))
        record = engine.load("Nonexistent.Example", REG.country("TH").capital)
        assert not record.loaded
        assert record.failure_reason == "dns_error"
        # Not catalogued, so recorded under the name as given.
        assert record.url == "Nonexistent.Example"
        assert [r.host for r in record.requests] == ["Nonexistent.Example"]

    def test_differently_cased_url_loads_the_site(self, mini_world):
        world, catalog = mini_world
        engine = BrowserEngine(world, catalog, BrowserConfig(default_failure_rate=0.0))
        record = engine.load("WWW.SiamNews.co.th", REG.country("TH").capital)
        assert record.failure_reason != "dns_error"
        assert record.loaded
        assert record.requested_hosts()[0] == "www.siamnews.co.th"

    def test_url_casing_does_not_change_the_visit(self, mini_world):
        world, catalog = mini_world
        engine = BrowserEngine(world, catalog, BrowserConfig(default_failure_rate=0.5))
        city = REG.country("TH").capital
        for visit in ("visit-1", "visit-2", "visit-3", "visit-4"):
            canonical = engine.load("www.siamnews.co.th", city, visit)
            assert engine.load("WWW.SiamNews.CO.TH", city, visit) == canonical
        assert canonical.url == "www.siamnews.co.th"

    def test_default_targets_are_canonical_site_domains(self, scenario):
        # The engine seeds with the site's domain, so a study's draws
        # stay those of its target names only while the two agree.
        for targets in scenario.targets.values():
            for name in targets.all_sites:
                assert scenario.catalog.get(name).domain == name

    def test_failure_rate_one_always_fails(self, mini_world):
        world, catalog = mini_world
        engine = BrowserEngine(world, catalog, BrowserConfig(default_failure_rate=0.99))
        record = engine.load("www.siamnews.co.th", REG.country("TH").capital)
        assert not record.loaded

    def test_chrome_emits_background_requests(self, mini_world):
        world, catalog = mini_world
        engine = BrowserEngine(world, catalog, BrowserConfig(default_failure_rate=0.0))
        record = engine.load("www.siamnews.co.th", REG.country("TH").capital)
        background = {r.host for r in record.requests if r.background}
        assert background == set(CHROMEDRIVER_BACKGROUND_HOSTS)
        # Stripped from analysis-facing views by default:
        assert not set(record.requested_hosts()) & background

    def test_firefox_has_no_background_requests(self, mini_world):
        world, catalog = mini_world
        engine = BrowserEngine(
            world, catalog,
            BrowserConfig(browser=BrowserKind.FIREFOX, default_failure_rate=0.0),
        )
        record = engine.load("www.siamnews.co.th", REG.country("TH").capital)
        assert not any(r.background for r in record.requests)

    def test_brave_blocks_blocklisted_hosts(self, mini_world):
        world, catalog = mini_world
        engine = BrowserEngine(
            world, catalog,
            BrowserConfig(browser=BrowserKind.BRAVE, default_failure_rate=0.0,
                          blocklist={"adorg.net"}),
        )
        record = engine.load("www.siamnews.co.th", REG.country("TH").capital)
        blocked = [r for r in record.requests if r.status == RequestStatus.BLOCKED]
        assert [r.host for r in blocked] == ["px.adorg.net"]

    def test_deterministic(self, mini_world):
        world, catalog = mini_world
        engine = BrowserEngine(world, catalog, BrowserConfig(default_failure_rate=0.3))
        a = engine.load("www.siamnews.co.th", REG.country("TH").capital, "v1")
        b = engine.load("www.siamnews.co.th", REG.country("TH").capital, "v1")
        assert a.loaded == b.loaded


class TestPageLoadRecord:
    def test_host_addresses_skips_failures(self):
        record = PageLoadRecord(
            url="x.com", country_code="TH", browser="chrome", loaded=True, render_time_s=1,
            requests=[NetworkRequest("a.com", "script", RequestStatus.OK, "5.0.0.1"),
                      NetworkRequest("b.com", "script", RequestStatus.REFUSED)],
        )
        assert record.host_addresses() == {"a.com": "5.0.0.1"}

    @staticmethod
    def _record(requests):
        return PageLoadRecord(url="x.com", country_code="TH", browser="chrome",
                              loaded=True, render_time_s=1, requests=requests)

    def test_only_ok_requests_succeed(self):
        assert NetworkRequest("a.com", "script", RequestStatus.OK).succeeded
        for status in (RequestStatus.DNS_ERROR, RequestStatus.BLOCKED, RequestStatus.REFUSED):
            assert not NetworkRequest("a.com", "script", status).succeeded

    def test_successful_requests_keep_background_by_default(self):
        telemetry = NetworkRequest("update.browser.com", "background", RequestStatus.OK,
                                   "5.0.0.9", background=True)
        page = NetworkRequest("a.com", "script", RequestStatus.OK, "5.0.0.1")
        record = self._record([telemetry, page,
                               NetworkRequest("b.com", "image", RequestStatus.BLOCKED)])
        assert record.successful_requests() == [telemetry, page]
        assert record.successful_requests(include_background=False) == [page]

    def test_requested_hosts_unique_in_first_seen_order(self):
        record = self._record([
            NetworkRequest("b.com", "script", RequestStatus.OK, "5.0.0.2"),
            NetworkRequest("a.com", "image", RequestStatus.OK, "5.0.0.1"),
            NetworkRequest("b.com", "xhr", RequestStatus.OK, "5.0.0.2"),
            NetworkRequest("c.com", "xhr", RequestStatus.DNS_ERROR),
        ])
        assert record.requested_hosts() == ["b.com", "a.com"]

    def test_requested_hosts_drop_background_unless_asked(self):
        record = self._record([
            NetworkRequest("bg.browser.com", "background", RequestStatus.OK, "5.0.0.9",
                           background=True),
            NetworkRequest("a.com", "script", RequestStatus.OK, "5.0.0.1"),
        ])
        assert record.requested_hosts() == ["a.com"]
        assert record.requested_hosts(include_background=True) == ["bg.browser.com", "a.com"]

    def test_host_addresses_keep_the_first_address_per_host(self):
        record = self._record([
            NetworkRequest("a.com", "script", RequestStatus.OK, "5.0.0.1"),
            NetworkRequest("a.com", "image", RequestStatus.OK, "5.0.0.7"),
            NetworkRequest("b.com", "image", RequestStatus.OK, None),
        ])
        assert record.host_addresses() == {"a.com": "5.0.0.1"}
