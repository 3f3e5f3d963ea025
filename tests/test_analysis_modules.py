"""Per-figure analyses over hand-built study records."""

import pickle

import pytest

from repro.core.analysis.continents import ContinentFlowAnalysis
from repro.core.analysis.firstparty import FirstPartyAnalysis
from repro.core.analysis.flows import FlowAnalysis
from repro.core.analysis.hosting import HostingAnalysis
from repro.core.analysis.organizations import OrganizationAnalysis
from repro.core.analysis.perwebsite import PerWebsiteAnalysis
from repro.core.analysis.policy import PolicyAnalysis
from repro.core.analysis.prevalence import PrevalenceAnalysis
from repro.core.analysis.records import CountryStudyResult, NonLocalTracker, SiteTrackerRecord
from repro.core.analysis.report import render_table
from repro.core.gamma.output import VolunteerDataset, WebsiteMeasurement
from repro.core.gamma.parsers import NormalizedHop, NormalizedTraceroute
from repro.core.geoloc.pipeline import DatasetGeolocation
from repro.core.trackers.orgs import OrganizationDirectory, OrgEntry
from repro.core.trackers.party import PartyClassifier
from repro.netsim.geography import default_registry
from repro.policy.registry import default_policy_registry

REG = default_registry()


def tracker(host, dest, org=None, address="5.0.0.1"):
    return NonLocalTracker(host=host, address=address, destination_country=dest,
                           destination_city_key=f"X, {dest}", org_name=org)


def site(url, cc, category, trackers=()):
    return SiteTrackerRecord(url=url, country_code=cc, category=category,
                             trackers=list(trackers))


def result(cc, sites):
    return CountryStudyResult(
        country_code=cc,
        dataset=VolunteerDataset(cc, f"City, {cc}", "0.0.0.0", "linux", "chrome"),
        geolocation=DatasetGeolocation(country_code=cc),
        sites=sites,
    )


@pytest.fixture()
def results():
    """Two countries: NZ (foreign-heavy, flows to AU) and CA (clean)."""
    nz_sites = [
        site("a.co.nz", "NZ", "regional",
             [tracker("t1.ads.example", "AU", "Google"), tracker("t2.ads.example", "US", "Heap")]),
        site("b.co.nz", "NZ", "regional", [tracker("t1.ads.example", "AU", "Google")]),
        site("c.co.nz", "NZ", "regional"),
        site("health.govt.nz", "NZ", "government", [tracker("t1.ads.example", "AU", "Google")]),
    ]
    ca_sites = [
        site("a.co.ca", "CA", "regional"),
        site("gc.gc.ca", "CA", "government"),
    ]
    return [result("NZ", nz_sites), result("CA", ca_sites)]


class TestPrevalence:
    def test_per_country(self, results):
        rows = {r.country_code: r for r in PrevalenceAnalysis(results).per_country()}
        assert rows["NZ"].regional_pct == pytest.approx(100 * 2 / 3)
        assert rows["NZ"].government_pct == 100.0
        assert rows["NZ"].combined_pct == pytest.approx(75.0)
        assert rows["CA"].combined_pct == 0.0

    def test_countries_with_foreign_trackers(self, results):
        assert PrevalenceAnalysis(results).countries_with_foreign_trackers() == ["NZ"]

    def test_mean_and_stdev(self, results):
        summary = PrevalenceAnalysis(results).regional_mean_and_stdev()
        assert summary["mean"] == pytest.approx((100 * 2 / 3 + 0) / 2)

    def test_correlation(self, results):
        # Two points give a perfect correlation by construction.
        assert PrevalenceAnalysis(results).regional_government_correlation() == pytest.approx(1.0)


class TestPerWebsite:
    def test_counts_only_sites_with_trackers(self, results):
        analysis = PerWebsiteAnalysis(results)
        assert sorted(analysis.counts_for("NZ")) == [1, 1, 2]
        assert analysis.counts_for("CA") == []

    def test_distribution_boxplot(self, results):
        dist = PerWebsiteAnalysis(results).distribution("NZ")
        assert dist.box.median == 1
        assert dist.sites_with_trackers == 3

    def test_empty_distribution(self, results):
        dist = PerWebsiteAnalysis(results).distribution("CA")
        assert dist.box is None

    def test_histogram(self, results):
        assert PerWebsiteAnalysis(results).histogram("NZ") == {1: 2, 2: 1}

    def test_histogram_clamps(self, results):
        assert PerWebsiteAnalysis(results).histogram("NZ", max_count=1) == {1: 3}

    def test_unknown_country_raises(self, results):
        with pytest.raises(KeyError):
            PerWebsiteAnalysis(results).counts_for("ZZ")


class TestFlows:
    def test_edges(self, results):
        analysis = FlowAnalysis(results)
        edges = {(e.source, e.destination): e.website_count for e in analysis.edges()}
        assert edges[("NZ", "AU")] == 3
        assert edges[("NZ", "US")] == 1

    def test_destination_shares(self, results):
        shares = FlowAnalysis(results).destination_shares()
        assert shares["AU"] == pytest.approx(100.0)  # every tracked site uses AU
        assert shares["US"] == pytest.approx(100 / 3)

    def test_single_source_effect(self, results):
        effects = FlowAnalysis(results).single_source_effect("AU")
        assert effects["NZ"] == 0.0  # removing NZ removes all AU flow

    def test_source_counts(self, results):
        assert FlowAnalysis(results).source_count_per_destination() == {"AU": 1, "US": 1}

    def test_dominant_source(self, results):
        assert FlowAnalysis(results).dominant_source("AU") == "NZ"
        assert FlowAnalysis(results).dominant_source("FR") is None

    def test_destinations_of(self, results):
        assert FlowAnalysis(results).destinations_of("NZ") == {"AU": 3, "US": 1}

    def test_category_filter(self, results):
        gov_edges = FlowAnalysis(results).edges(category="government")
        assert {(e.source, e.destination) for e in gov_edges} == {("NZ", "AU")}


class TestContinents:
    def test_matrix_and_hub(self, results):
        analysis = ContinentFlowAnalysis(results, REG)
        matrix = analysis.matrix()
        assert matrix[("Oceania", "Oceania")] == 3
        assert matrix[("Oceania", "North America")] == 1
        assert analysis.inward_flow("North America") == 1
        assert analysis.inward_flow("Oceania") == 0
        assert analysis.intra_flow("Oceania") == 3

    def test_share_staying_within(self, results):
        analysis = ContinentFlowAnalysis(results, REG)
        assert analysis.share_staying_within("Oceania") == pytest.approx(0.75)

    def test_inward_source_continents(self, results):
        analysis = ContinentFlowAnalysis(results, REG)
        assert analysis.inward_source_continents("North America") == ["Oceania"]


class TestOrganizations:
    @pytest.fixture()
    def directory(self):
        return OrganizationDirectory([
            OrgEntry("Google", "US", ("google-t.example",), is_tracker=True),
            OrgEntry("Heap", "US", ("heap-t.example",), is_tracker=True),
        ])

    def test_flow_edges_and_tops(self, results, directory):
        analysis = OrganizationAnalysis(results, directory)
        edges = {(s, o): n for s, o, n in analysis.flow_edges()}
        assert edges[("NZ", "Google")] == 3
        assert analysis.top_organizations(1) == [("Google", 3)]

    def test_home_country_distribution(self, results, directory):
        distribution = OrganizationAnalysis(results, directory).home_country_distribution()
        assert distribution == {"US": 100.0}

    def test_country_exclusive(self, results, directory):
        exclusive = OrganizationAnalysis(results, directory).country_exclusive_organizations()
        assert exclusive == {"NZ": ["Google", "Heap"]}

    def test_cloud_requires_ipinfo(self, results, directory):
        with pytest.raises(ValueError):
            OrganizationAnalysis(results, directory).cloud_hosted_trackers()


class TestHosting:
    def test_domains_per_destination(self, results):
        counts = HostingAnalysis(results).domains_per_destination()
        # (NZ, t1)->AU and (NZ, t2)->US: one distinct pair each.
        assert counts == {"AU": 1, "US": 1}

    def test_breakdown_by_source(self, results):
        assert HostingAnalysis(results).breakdown_by_source("AU") == {"NZ": 1}

    def test_destinations_hosting_exactly(self, results):
        assert HostingAnalysis(results).destinations_hosting_exactly(1) == ["AU", "US"]

    def test_unique_domains(self, results):
        assert HostingAnalysis(results).unique_domains_per_destination() == {"AU": 1, "US": 1}

    def test_unique_domains_ties_break_by_destination(self):
        # Equal counts order by destination code, not by set iteration
        # (which varies with the interpreter's hash seed).
        records = [result("NZ", [
            site("a.co.nz", "NZ", "regional",
                 [tracker(f"t{i}.ads.example", dest) for i, dest in enumerate("ZYXWV")]),
        ])]
        unique = HostingAnalysis(records).unique_domains_per_destination()
        assert list(unique) == ["V", "W", "X", "Y", "Z"]


class TestFirstParty:
    def test_detection(self):
        directory = OrganizationDirectory([
            OrgEntry("Google", "US", ("google.jo", "googleapis.com"), is_tracker=True,
                     tracking_domains=("googleapis.com",)),
        ])
        records = [result("JO", [
            site("google.jo", "JO", "regional", [tracker("fonts.googleapis.com", "FR", "Google")]),
            site("news.jo", "JO", "regional", [tracker("fonts.googleapis.com", "FR", "Google")]),
        ])]
        analysis = FirstPartyAnalysis(records, PartyClassifier(directory))
        assert analysis.sites_with_nonlocal() == 2
        first_party = analysis.first_party_sites()
        assert [s.url for s in first_party] == ["google.jo"]
        assert analysis.owner_breakdown() == {"Google": 1}
        assert analysis.first_party_share() == pytest.approx(0.5)


class TestPolicyAnalysis:
    def test_rows_ordered_by_strictness(self, results):
        analysis = PolicyAnalysis(results, default_policy_registry())
        rows = analysis.table_rows()
        assert [r.country_code for r in rows] == ["CA", "NZ"]  # both TA, alphabetical
        assert all(r.policy_type == "TA" for r in rows)

    def test_mean_by_type(self, results):
        means = PolicyAnalysis(results, default_policy_registry()).mean_rate_by_policy_type()
        assert means["TA"] == pytest.approx((0.0 + 75.0) / 2)


class TestRenderTable:
    def test_alignment(self):
        text = render_table(["a", "bb"], [["x", 1], ["yyy", 22]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5


class TestSlotsPickleCompat:
    """Pre-slots checkpoint states still restore; current pickles round-trip."""

    CASES = [
        (
            NonLocalTracker,
            {
                "host": "t.ads.example", "address": "5.0.0.1",
                "destination_country": "US",
                "destination_city_key": "X, US", "org_name": "Google",
            },
        ),
        (
            SiteTrackerRecord,
            {
                "url": "a.example", "country_code": "NZ",
                "category": "regional", "trackers": [],
            },
        ),
        (
            NormalizedHop,
            {"hop": 3, "address": "1.2.3.4", "rtts_ms": (1.0, 2.0)},
        ),
        (
            WebsiteMeasurement,
            {
                "url": "a.example", "category": "regional", "loaded": True,
                "requested_hosts": [], "background_hosts": [], "dns": {},
                "rdns": {}, "traceroutes": {}, "failure_reason": None,
            },
        ),
    ]

    @pytest.mark.parametrize("cls,state", CASES, ids=lambda c: getattr(c, "__name__", ""))
    def test_old_dict_state_restores(self, cls, state):
        """What a pre-slots pickle supplies: a plain ``__dict__`` state."""
        revived = cls.__new__(cls)
        revived.__setstate__(dict(state))
        for name, value in state.items():
            assert getattr(revived, name) == value

    @pytest.mark.parametrize("cls,state", CASES, ids=lambda c: getattr(c, "__name__", ""))
    def test_two_tuple_state_restores(self, cls, state):
        """The (dict, slots) form some pickle protocols emit."""
        revived = cls.__new__(cls)
        revived.__setstate__((None, dict(state)))
        for name, value in state.items():
            assert getattr(revived, name) == value

    def test_current_pickles_round_trip(self):
        trace = NormalizedTraceroute(
            target="1.2.3.4", reached=True,
            hops=[NormalizedHop(hop=1, address="9.9.9.9", rtts_ms=(3.0,))],
            tool="tracert",
        )
        record = SiteTrackerRecord(
            url="a.example", country_code="NZ", category="regional",
            trackers=[
                NonLocalTracker(
                    host="t.ads.example", address="5.0.0.1",
                    destination_country="US", destination_city_key="X, US",
                    org_name="Google",
                )
            ],
        )
        record.tracker_count  # warm the derived memo: must not pickle
        for obj in (trace, record):
            clone = pickle.loads(pickle.dumps(obj))
            assert clone == obj
            assert pickle.dumps(clone) == pickle.dumps(obj)

    def test_derived_memo_excluded_and_invalidation_safe(self):
        record = SiteTrackerRecord(
            url="a.example", country_code="NZ", category="regional",
        )
        assert record.tracker_count == 0
        record.trackers.append(
            NonLocalTracker(
                host="t.ads.example", address="5.0.0.1",
                destination_country="US", destination_city_key="X, US",
            )
        )
        # The builder path appends after a read: the memo re-derives.
        assert record.tracker_count == 1
        assert record.destination_countries() == ["US"]
        assert "_derived" not in record.__getstate__()


class TestCountryResultViews:
    def test_sites_in_filters_by_category(self, results):
        nz = results[0]
        assert [s.url for s in nz.sites_in("regional")] == ["a.co.nz", "b.co.nz", "c.co.nz"]
        assert [s.url for s in nz.government_sites] == ["health.govt.nz"]
        assert nz.regional_sites == nz.sites_in("regional")
        everything = nz.sites_in()
        assert everything == nz.sites and everything is not nz.sites

    def test_nonlocal_tracker_hosts_unique_in_first_seen_order(self, results):
        nz, ca = results
        assert nz.nonlocal_tracker_hosts() == ["t1.ads.example", "t2.ads.example"]
        assert ca.nonlocal_tracker_hosts() == []

    def test_site_tracker_counts(self, results):
        a, b, c, _ = results[0].sites
        assert (a.has_nonlocal_tracker, a.tracker_count) == (True, 2)
        assert (b.has_nonlocal_tracker, b.tracker_count) == (True, 1)
        assert (c.has_nonlocal_tracker, c.tracker_count) == (False, 0)
        assert a.destination_countries() == ["AU", "US"]
        assert a.organizations() == ["Google", "Heap"]
