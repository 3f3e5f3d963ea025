"""Browser-engine edge cases: timeouts, render times, heavy pages."""

import pytest

from repro.browser.engine import BrowserConfig, BrowserEngine
from repro.netsim.geography import default_registry
from repro.netsim.network import World
from repro.web.catalog import SiteCatalog
from repro.web.website import CATEGORY_REGIONAL, Website

from tests.test_servers_dns import make_deployment

REG = default_registry()


@pytest.fixture()
def heavy_setup():
    world = World(geo=REG)
    # Hosted on the far side of the planet from the volunteer: render time
    # is dominated by dozens of sequential round trips.
    publisher = make_deployment(["NZ"], org_name="FarHost", domains=("farnews.co.nz",),
                                space=world.ips)
    world.deployments["FarHost"] = publisher
    world.dns.register("farnews.co.nz", publisher)
    world.dns.register("www.farnews.co.nz", publisher)
    site = Website(
        domain="www.farnews.co.nz", country_code="NZ", category=CATEGORY_REGIONAL,
        owner_org="Pub", complexity=3.0,
    )
    return world, SiteCatalog([site])


class TestRenderTiming:
    def test_render_time_recorded(self, heavy_setup):
        world, catalog = heavy_setup
        engine = BrowserEngine(world, catalog, BrowserConfig(default_failure_rate=0.0))
        record = engine.load("www.farnews.co.nz", REG.country("GB").capital)
        assert record.loaded
        assert record.render_time_s > 5  # UK -> NZ round trips are slow

    def test_hard_timeout_kills_pathological_loads(self, heavy_setup):
        world, catalog = heavy_setup
        engine = BrowserEngine(
            world, catalog,
            BrowserConfig(default_failure_rate=0.0, hard_timeout_s=5.0),
        )
        record = engine.load("www.farnews.co.nz", REG.country("GB").capital)
        assert not record.loaded
        assert record.failure_reason == "hard_timeout"
        assert record.requests == []  # nothing recorded for a killed instance

    def test_nearby_vantage_faster_on_average(self, heavy_setup):
        # Per-visit render noise can dominate a single sample, so compare
        # averages across visits.
        world, catalog = heavy_setup
        engine = BrowserEngine(world, catalog, BrowserConfig(default_failure_rate=0.0))

        def mean_render(cc):
            times = [
                engine.load("www.farnews.co.nz", REG.country(cc).capital, f"v{i}").render_time_s
                for i in range(12)
            ]
            return sum(times) / len(times)

        assert mean_render("NZ") < mean_render("GB")

    def test_study_timeout_budget_suffices_normally(self, heavy_setup):
        """The paper's 180 s hard timeout should virtually never trigger
        for a normal page, even on a slow intercontinental path."""
        world, catalog = heavy_setup
        engine = BrowserEngine(world, catalog, BrowserConfig(default_failure_rate=0.0))
        for cc in ("GB", "US", "JP", "RW"):
            record = engine.load("www.farnews.co.nz", REG.country(cc).capital)
            assert record.loaded
            assert record.render_time_s < 180


class TestScenarioBrowserBehaviour:
    def test_hard_timeouts_are_rare_in_study(self, study_full):
        timeouts = sum(
            1
            for dataset in study_full.datasets.values()
            for measurement in dataset.websites.values()
            if measurement.failure_reason == "hard_timeout"
        )
        attempted = sum(d.attempted_count for d in study_full.datasets.values())
        assert timeouts / attempted < 0.02

    def test_failure_reasons_categorised(self, study_full):
        reasons = {
            measurement.failure_reason
            for dataset in study_full.datasets.values()
            for measurement in dataset.websites.values()
            if not measurement.loaded
        }
        assert reasons <= {"connection_failure", "hard_timeout", "dns_error"}
        assert "connection_failure" in reasons
