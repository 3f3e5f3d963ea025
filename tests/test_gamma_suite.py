"""Gamma suite end-to-end: one volunteer, their settings and accommodations."""

import importlib

import pytest

from repro.browser.engine import BrowserConfig, BrowserEngine, BrowserKind
from repro.core.gamma.suite import GammaSuite
from repro.core.gamma.volunteer import Volunteer
from repro.core.targets.builder import TargetList
from repro.netsim.geography import MEASUREMENT_COUNTRIES, default_registry
from repro.netsim.network import World
from repro.obs.schema import validate_record
from repro.web.catalog import SiteCatalog
from repro.web.website import CATEGORY_GOVERNMENT, CATEGORY_REGIONAL, EmbeddedResource, Website

from tests.test_servers_dns import make_deployment

REG = default_registry()


@pytest.fixture()
def mini_setup():
    world = World(geo=REG)
    publisher = make_deployment(["TH"], org_name="ThaiHost", domains=("thaihost.net",),
                                space=world.ips)
    tracker = make_deployment(["FR"], org_name="AdOrg", domains=("adorg.net",), space=world.ips)
    google = make_deployment(["US"], org_name="Google",
                             domains=("googleapis.com", "google.com"), space=world.ips)
    for deployment in (publisher, tracker, google):
        world.deployments[deployment.org.name] = deployment
        for domain in deployment.org.domains:
            world.dns.register(domain, deployment)
    sites = []
    for i, category in [(0, CATEGORY_REGIONAL), (1, CATEGORY_REGIONAL), (2, CATEGORY_GOVERNMENT)]:
        domain = f"site{i}.co.th" if category == CATEGORY_REGIONAL else "health.go.th"
        world.dns.register(domain, publisher)
        sites.append(Website(
            domain=domain, country_code="TH", category=category, owner_org="Pub",
            embedded=[EmbeddedResource(host="px.adorg.net")],
        ))
    catalog = SiteCatalog(sites)
    targets = TargetList("TH", regional=["site0.co.th", "site1.co.th"],
                         government=["health.go.th"])
    volunteer = Volunteer(name="vol-TH", city=REG.country("TH").capital, ip="5.99.0.10")
    return world, catalog, targets, volunteer


def _suite(world, catalog):
    return GammaSuite(world, catalog, BrowserConfig(default_failure_rate=0.0))


class TestGammaSuite:
    def test_full_run_records_everything(self, mini_setup):
        world, catalog, targets, volunteer = mini_setup
        dataset = _suite(world, catalog).run(volunteer, targets)
        assert dataset.attempted_count == 3
        assert dataset.loaded_count == 3
        measurement = dataset.websites["site0.co.th"]
        assert "px.adorg.net" in measurement.requested_hosts
        assert measurement.dns["px.adorg.net"]
        assert measurement.traceroutes  # C3 ran
        assert measurement.category == CATEGORY_REGIONAL
        assert dataset.websites["health.go.th"].category == CATEGORY_GOVERNMENT

    def test_background_hosts_separated(self, mini_setup):
        world, catalog, targets, volunteer = mini_setup
        dataset = _suite(world, catalog).run(volunteer, targets)
        measurement = dataset.websites["site0.co.th"]
        assert "update.googleapis.com" in measurement.background_hosts
        assert "update.googleapis.com" not in measurement.requested_hosts

    def test_rdns_recorded_for_resolved_ips(self, mini_setup):
        world, catalog, targets, volunteer = mini_setup
        dataset = _suite(world, catalog).run(volunteer, targets)
        measurement = dataset.websites["site0.co.th"]
        for address in measurement.resolved_addresses:
            assert address in measurement.rdns  # value may be None (no PTR)

    def test_site_opt_out_respected(self, mini_setup):
        world, catalog, targets, volunteer = mini_setup
        volunteer.opted_out_sites = {"site1.co.th"}
        dataset = _suite(world, catalog).run(volunteer, targets)
        assert "site1.co.th" not in dataset.websites
        assert dataset.attempted_count == 2

    def test_traceroute_opt_out(self, mini_setup):
        world, catalog, targets, volunteer = mini_setup
        volunteer.traceroute_opt_out = True
        dataset = _suite(world, catalog).run(volunteer, targets)
        assert all(not m.traceroutes for m in dataset.websites.values())
        # C2 still ran.
        assert dataset.websites["site0.co.th"].dns

    def test_windows_volunteer_uses_tracert(self, mini_setup):
        world, catalog, targets, volunteer = mini_setup
        volunteer.os_name = "windows"
        dataset = _suite(world, catalog).run(volunteer, targets)
        assert dataset.os_name == "windows"
        for measurement in dataset.websites.values():
            for trace in measurement.traceroutes.values():
                assert trace.tool == "tracert"

    def test_deterministic_runs(self, mini_setup):
        world, catalog, targets, volunteer = mini_setup
        a = _suite(world, catalog).run(volunteer, targets)
        b = _suite(world, catalog).run(volunteer, targets)
        assert a.to_json() == b.to_json()


class TestVisitOrder:
    def test_sites_visited_in_list_order(self, mini_setup):
        world, catalog, targets, volunteer = mini_setup
        dataset = _suite(world, catalog).run(volunteer, targets)
        assert list(dataset.websites) == targets.all_sites


class TestVolunteerSettings:
    """The OS and the opt-outs come from the volunteer alone."""

    def test_unknown_os_rejected(self):
        with pytest.raises(ValueError, match="unsupported OS"):
            Volunteer(name="vol-TH", city=REG.country("TH").capital, ip="5.99.0.10",
                      os_name="beos")

    @pytest.mark.parametrize("cc", sorted(MEASUREMENT_COUNTRIES))
    def test_scenario_volunteer_sets_os_and_c3(self, scenario, cc):
        volunteer = scenario.volunteers[cc]
        targets = scenario.targets[cc]
        first_three = targets.without(targets.all_sites[3:])
        suite = GammaSuite(scenario.world, scenario.catalog, scenario.browser_config)
        dataset = suite.run(volunteer, first_three)
        assert dataset.os_name == volunteer.os_name
        traces = [
            trace
            for measurement in dataset.websites.values()
            for trace in measurement.traceroutes.values()
        ]
        assert bool(traces) == (not volunteer.traceroute_opt_out)
        for trace in traces:
            assert (trace.tool == "tracert") == (volunteer.os_name == "windows")

    def test_scenario_volunteers_use_both_tools(self, scenario):
        # The per-volunteer check above sees tracert and traceroute at work.
        traced_os = {v.os_name for v in scenario.volunteers.values() if not v.traceroute_opt_out}
        assert {"windows", "linux"} <= traced_os

    @pytest.mark.parametrize("cc", ["EG", "PK", "RU", "TW"])
    def test_scenario_run_drops_opt_outs(self, scenario, cc):
        volunteer = scenario.volunteers[cc]
        opted_out = volunteer.opted_out_sites
        assert opted_out
        targets = scenario.targets[cc]
        kept = [url for url in targets.all_sites if url not in opted_out][:2]
        offered = targets.without([url for url in targets.all_sites
                                   if url not in opted_out and url not in kept])
        assert opted_out <= set(offered.all_sites)
        suite = GammaSuite(scenario.world, scenario.catalog, scenario.browser_config)
        dataset = suite.run(volunteer, offered)
        assert list(dataset.websites) == kept
        assert dataset.attempted_count == len(kept)


class TestBrowserSession:
    """The browser session comes from the BrowserConfig alone."""

    @pytest.mark.parametrize("browser", BrowserKind.ALL)
    def test_dataset_browser_comes_from_browser_config(self, mini_setup, browser):
        world, catalog, targets, volunteer = mini_setup
        config = BrowserConfig(browser=browser, default_failure_rate=0.0)
        dataset = GammaSuite(world, catalog, config).run(volunteer, targets)
        assert dataset.browser == browser
        assert dataset.loaded_count == len(targets.all_sites)


class TestRemovedApi:
    def test_gamma_config_is_gone(self):
        with pytest.raises(ImportError):
            from repro import GammaConfig  # noqa: F401

    @pytest.mark.parametrize("module", [
        "repro.core.gamma.config", "repro.core.gamma.checkpoint", "repro.core.gamma.osadapt",
    ])
    def test_removed_module_is_gone(self, module):
        with pytest.raises(ImportError):
            importlib.import_module(module)

    def test_run_takes_no_checkpoint(self, mini_setup):
        world, catalog, targets, volunteer = mini_setup
        with pytest.raises(TypeError):
            _suite(world, catalog).run(volunteer, targets, checkpoint=None)

    def test_run_takes_no_progress_callback(self, mini_setup):
        world, catalog, targets, volunteer = mini_setup
        with pytest.raises(TypeError):
            _suite(world, catalog).run(volunteer, targets, progress=lambda url, m: None)

    def test_suite_takes_no_instance_count(self, mini_setup):
        world, catalog, _, _ = mini_setup
        with pytest.raises(TypeError):
            GammaSuite(world, catalog, instances=2)

    def test_engine_has_no_load_many(self):
        assert not hasattr(BrowserEngine, "load_many")

    def test_volunteer_has_no_opted_out_helper(self):
        assert not hasattr(Volunteer, "opted_out")

    def test_browser_config_has_no_render_wait(self):
        with pytest.raises(TypeError):
            BrowserConfig(wait_time_s=1)

    def test_site_skip_event_is_gone(self):
        assert validate_record({"ev": "site_skip", "url": "u", "reason": "r"}) == [
            "record: unknown event type 'site_skip'"
        ]


class TestProbeRunner:
    """C3's runner: one OS tool per volunteer, one trace per address."""

    @staticmethod
    def _targets(world, count):
        allocation = world.ips.allocate(count, REG.city("Frankfurt, DE"), label="X/fra1")
        return [str(allocation.address(i + 1)) for i in range(count)]

    def test_unknown_os_rejected(self):
        from repro.core.gamma.probes import ProbeRunner

        with pytest.raises(ValueError, match="unsupported OS"):
            ProbeRunner(World(geo=REG), "plan9")

    @pytest.mark.parametrize("os_name,tool", [("linux", "traceroute"), ("windows", "tracert")])
    def test_trace_names_the_volunteers_tool(self, os_name, tool):
        from repro.core.gamma.probes import ProbeRunner

        world = World(geo=REG)
        runner = ProbeRunner(world, os_name)
        trace = runner.traceroute(REG.country("TH").capital, self._targets(world, 1)[0], "k")
        assert trace.tool == tool

    def test_traceroute_is_the_os_normalised_engine_trace(self):
        from repro.core.gamma.normalize import normalize_direct
        from repro.core.gamma.probes import ProbeRunner

        world = World(geo=REG)
        runner = ProbeRunner(world, "windows")
        city = REG.country("TH").capital
        target = self._targets(world, 1)[0]
        direct = normalize_direct(world.traceroute.trace(city, target, "k"), "windows")
        assert runner.traceroute(city, target, "k").to_dict() == direct.to_dict()

    def test_traceroute_many_keys_follow_the_input_order(self):
        from repro.core.gamma.probes import ProbeRunner

        world = World(geo=REG)
        targets = self._targets(world, 3)
        runner = ProbeRunner(world, "linux")
        traces = runner.traceroute_many(REG.country("TH").capital, list(reversed(targets)), "s")
        assert list(traces) == list(reversed(targets))
        assert all(traces[ip].target == ip for ip in targets)

    def test_repeated_address_in_one_call_replays_the_first_trace(self):
        from repro.core.gamma.probes import ProbeRunner

        world = World(geo=REG)
        target = self._targets(world, 1)[0]
        runner = ProbeRunner(world, "linux")
        city = REG.country("TH").capital
        traces = runner.traceroute_many(city, [target, target], "s")
        assert traces == {target: runner.traceroute(city, target, "s:0")}
        info = runner.trace_cache.info()
        assert (info.hits, info.misses) == (1, 1)
