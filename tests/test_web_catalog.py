"""Websites, embedded resources, and the site catalogue."""

import pytest

from repro.web.catalog import SiteCatalog
from repro.web.website import (
    CATEGORY_GOVERNMENT,
    CATEGORY_REGIONAL,
    EmbeddedResource,
    ResourceKind,
    Website,
)


def make_site(domain="news.example.com", country="TH", category=CATEGORY_REGIONAL, **kwargs):
    return Website(domain=domain, country_code=country, category=category,
                   owner_org="Pub", **kwargs)


class TestEmbeddedResource:
    def test_validates_host(self):
        with pytest.raises(ValueError):
            EmbeddedResource(host="")

    def test_validates_kind(self):
        with pytest.raises(ValueError):
            EmbeddedResource(host="x.com", kind="weird")

    def test_validates_probability(self):
        with pytest.raises(ValueError):
            EmbeddedResource(host="x.com", load_probability=0.0)
        with pytest.raises(ValueError):
            EmbeddedResource(host="x.com", load_probability=1.5)

    def test_always_fires_at_p1(self):
        resource = EmbeddedResource(host="x.com")
        assert all(resource.fires(f"v{i}") for i in range(10))

    def test_probabilistic_fire_deterministic(self):
        resource = EmbeddedResource(host="x.com", load_probability=0.5)
        assert resource.fires("v1") == resource.fires("v1")

    def test_probabilistic_fire_varies_by_visit(self):
        resource = EmbeddedResource(host="x.com", load_probability=0.5)
        outcomes = {resource.fires(f"v{i}") for i in range(40)}
        assert outcomes == {True, False}

    def test_country_targeting(self):
        resource = EmbeddedResource(host="x.com", countries=("AU", "QA"))
        assert resource.fires("v", "AU")
        assert not resource.fires("v", "TH")
        assert not resource.fires("v", None)


class TestWebsite:
    def test_invalid_category_rejected(self):
        with pytest.raises(ValueError):
            make_site(category="blog")

    def test_complexity_floor(self):
        with pytest.raises(ValueError):
            make_site(complexity=0.5)

    def test_requested_hosts_order(self):
        site = make_site(embedded=[EmbeddedResource(host="t.tracker.com")])
        hosts = site.requested_hosts("v1", "TH")
        assert hosts[0] == ("news.example.com", "document")
        assert hosts[1] == ("static.news.example.com", ResourceKind.IMAGE)
        assert ("t.tracker.com", ResourceKind.SCRIPT) in hosts

    def test_geo_targeted_resource_respects_country(self):
        site = make_site(embedded=[EmbeddedResource(host="t.tracker.com", countries=("AU",))])
        assert "t.tracker.com" not in [h for h, _ in site.requested_hosts("v1", "TH")]
        assert "t.tracker.com" in [h for h, _ in site.requested_hosts("v1", "AU")]

    def test_is_government(self):
        assert make_site(domain="x.go.th", category=CATEGORY_GOVERNMENT).is_government
        assert not make_site().is_government

    def test_embedded_hosts(self):
        site = make_site(embedded=[EmbeddedResource(host="a.com"), EmbeddedResource(host="b.com")])
        assert site.embedded_hosts() == ["a.com", "b.com"]


class TestSiteCatalog:
    def test_add_and_get(self):
        catalog = SiteCatalog([make_site()])
        assert catalog.get("news.example.com").country_code == "TH"
        assert catalog.has("news.example.com")
        assert len(catalog) == 1

    def test_has_normalises_like_get(self):
        catalog = SiteCatalog([make_site("Example.com")])
        for name in ("example.com", "Example.com", "EXAMPLE.COM", "example.com."):
            assert catalog.has(name), name
            assert catalog.get(name).domain == "example.com"
        assert not catalog.has("other.example")
        assert not catalog.has("")
        assert not catalog.has("bad..name")

    def test_duplicate_rejected(self):
        catalog = SiteCatalog([make_site()])
        with pytest.raises(ValueError):
            catalog.add(make_site())

    def test_missing_raises(self):
        with pytest.raises(KeyError):
            SiteCatalog().get("nope.example")

    def test_in_country_by_category(self):
        catalog = SiteCatalog([
            make_site("a.co.th", "TH", CATEGORY_REGIONAL),
            make_site("b.go.th", "TH", CATEGORY_GOVERNMENT),
            make_site("c.com.eg", "EG", CATEGORY_REGIONAL),
        ])
        assert len(catalog.regional("TH")) == 1
        assert len(catalog.government("TH")) == 1
        assert len(catalog.in_country("TH")) == 2
        assert catalog.countries == ["EG", "TH"]

    def test_market_includes_listed_globals(self):
        global_site = make_site("google.example", "US", listed_in=("TH", "EG"))
        catalog = SiteCatalog([make_site("a.co.th", "TH"), global_site])
        th_market = {s.domain for s in catalog.market("TH", CATEGORY_REGIONAL)}
        assert th_market == {"a.co.th", "google.example"}
        # Not listed in PK.
        assert {s.domain for s in catalog.market("PK")} == set()

    def test_market_lists_globals_in_insertion_order(self):
        catalog = SiteCatalog([
            make_site("z.example", "US", listed_in=("TH",)),
            make_site("a.co.th", "TH"),
            make_site("m.example", "GB", listed_in=("TH", "EG")),
            make_site("b.example", "US", listed_in=("EG",)),
        ])
        assert [s.domain for s in catalog.market("TH")] == ["a.co.th", "z.example", "m.example"]
        assert [s.domain for s in catalog.market("EG")] == ["m.example", "b.example"]

    def test_market_does_not_duplicate_home_country(self):
        global_site = make_site("google.example", "US", listed_in=("TH",))
        catalog = SiteCatalog([global_site])
        us_market = catalog.market("US")
        assert [s.domain for s in us_market] == ["google.example"]
