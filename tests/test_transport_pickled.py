"""``PickledCountryRun``: the pool-boundary descriptor, unit by unit.

A process-pool worker pickles each finished run once and ships a
:class:`~repro.exec.transport.PickledCountryRun`.  Its contract, pinned
here without a pool in the way:

* **Lossless** — ``load()`` returns a run equal to the original field by
  field, with the object-graph sharing topology intact, and the payload
  is the run's own protocol-5 pickle.
* **Lazy** — every accounting field and the joined sites/verdicts
  answer without unpickling; only ``dataset``/``geolocation`` (directly
  or through ``result``) load the payload, once.
* **Analysable** — every analysis over shipped results equals the same
  analysis over the in-process results, value and ordering, and never
  loads a payload.
* **Checkpointed** — :class:`~repro.exec.checkpoint.StudyCheckpoint`
  stores and restores runs as ``<CC>.run.pkl`` and nothing else.

Hypothesis drives the round trip over randomly shaped runs; a real
single-country study run pins the production shape.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.analysis.flows import FlowAnalysis
from repro.core.analysis.hosting import HostingAnalysis
from repro.core.analysis.organizations import OrganizationAnalysis
from repro.core.analysis.perwebsite import PerWebsiteAnalysis
from repro.core.analysis.prevalence import PrevalenceAnalysis
from repro.core.analysis.records import (
    CountryStudyResult,
    NonLocalTracker,
    SiteTrackerRecord,
)
from repro.core.gamma.output import VolunteerDataset, WebsiteMeasurement
from repro.core.gamma.parsers import NormalizedHop, NormalizedTraceroute
from repro.core.geoloc.constraints import ConstraintResult
from repro.core.geoloc.verdicts import (
    DatasetGeolocation,
    FunnelCounters,
    ServerVerdict,
)
from repro.core.trackers.identify import TrackerVerdict
from repro.core.trackers.orgs import OrganizationDirectory, OrgEntry
from repro.exec import transport
from repro.exec.checkpoint import StudyCheckpoint
from repro.exec.metrics import CountryTimings
from repro.exec.resilience import CountryFailure
from repro.exec.transport import PickledCountryRun, TransportWorker
from repro.exec.worker import CountryRun, StudyWorker
from repro.geodb.ipmap import GeoClaim
from repro.netsim.geography import City

# -- strategies --------------------------------------------------------------

#: Drawing every string from a small fixed pool makes equal strings the
#: *same object* in the generated graph, the way interning and memoised
#: records share them in a real run.  Includes non-ASCII text.
_STRINGS = [
    "tracker.example", "cdn.example", "ads.example", "static.example",
    "10.0.0.1", "10.0.0.2", "192.168.7.9", "site-a", "site-b",
    "https://a.example", "https://b.example", "regional", "government",
    "CA", "NZ", "RW", "toronto", "auckland", "kigali", "Montréal–Øst",
    "ipmap", "rdns.example", "source_latency", "pass", "fail", "easylist", "",
]
_EVENT_STRINGS = ["evt-started", "evt-finished", "evt-CA", "evt-NZ"]

_pooled = st.sampled_from(_STRINGS)
_opt_pooled = st.one_of(st.none(), _pooled)
_floats = st.one_of(
    st.integers(min_value=0, max_value=10_000_000).map(lambda n: n / 1000.0),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
)
_counters = st.integers(min_value=0, max_value=2**40)


@st.composite
def _traceroutes(draw):
    hops = [
        NormalizedHop(
            hop=draw(st.integers(min_value=0, max_value=64)),
            address=draw(_opt_pooled),
            rtts_ms=tuple(draw(st.lists(_floats, max_size=3))),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=3)))
    ]
    return NormalizedTraceroute(
        target=draw(_pooled), reached=draw(st.booleans()), hops=hops,
        tool=draw(_pooled),
    )


@st.composite
def _measurements(draw, traces):
    hosts = draw(st.lists(_pooled, max_size=4))
    addresses = draw(st.lists(_pooled, max_size=3, unique=True))
    return WebsiteMeasurement(
        url=draw(_pooled),
        category=draw(st.sampled_from(["regional", "government"])),
        loaded=draw(st.booleans()),
        requested_hosts=hosts,
        background_hosts=draw(st.lists(_pooled, max_size=2)),
        dns={host: draw(_pooled) for host in set(hosts)},
        rdns={address: draw(_opt_pooled) for address in addresses},
        traceroutes=(
            {address: draw(st.sampled_from(traces)) for address in addresses}
            if traces else {}
        ),
        failure_reason=draw(_opt_pooled),
        page_html=draw(_opt_pooled),
        hardcoded_domains=draw(st.lists(_pooled, max_size=2)),
    )


@st.composite
def _datasets(draw, traces):
    dataset = VolunteerDataset(
        country_code=draw(_pooled), city_key=draw(_pooled),
        volunteer_ip=draw(_pooled), os_name=draw(_pooled),
        browser=draw(_pooled),
    )
    for key in draw(st.lists(_pooled, max_size=3, unique=True)):
        dataset.websites[key] = draw(_measurements(traces))
    return dataset


@st.composite
def _verdicts(draw, claims):
    checks = [
        ConstraintResult(
            constraint=draw(_pooled), status=draw(_pooled),
            reason=draw(_pooled),
            observed_ms=draw(st.one_of(st.none(), _floats)),
            expected_ms=draw(st.one_of(st.none(), _floats)),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=3)))
    ]
    return ServerVerdict(
        address=draw(_pooled),
        hosts=draw(st.lists(_pooled, max_size=3)),
        status=draw(st.sampled_from(
            ["local", "nonlocal_verified", "discarded", "unlocated"]
        )),
        claim=draw(st.one_of(st.none(), st.sampled_from(claims))) if claims else None,
        discarded_by=draw(_pooled),
        checks=checks,
        confidence=draw(st.one_of(
            st.none(), st.floats(min_value=0.0, max_value=1.0)
        )),
    )


@st.composite
def _geolocations(draw, claims):
    geo = DatasetGeolocation(
        country_code=draw(_pooled),
        funnel=FunnelCounters(*(draw(_counters) for _ in range(9))),
    )
    geo.host_to_address = {
        host: draw(_pooled)
        for host in draw(st.lists(_pooled, max_size=3, unique=True))
    }
    for key in draw(st.lists(_pooled, max_size=3, unique=True)):
        geo.verdicts[key] = draw(_verdicts(claims))
    return geo


@st.composite
def country_runs(draw, shared=None):
    """A small, randomly shaped — but realistically shared — run graph.

    ``shared=True`` pins the production shape (the result holds the
    run's own dataset and geolocation); ``None`` draws either shape.
    """
    cities = [
        City(name=draw(_pooled), country_code=draw(_pooled),
             lat=draw(_floats), lon=draw(_floats))
        for _ in range(draw(st.integers(min_value=1, max_value=3)))
    ]
    claims = [
        GeoClaim(address=draw(_pooled), city=draw(st.sampled_from(cities)),
                 source=draw(_pooled))
        for _ in range(draw(st.integers(min_value=0, max_value=3)))
    ]
    traces = draw(st.lists(_traceroutes(), max_size=3))
    dataset = draw(_datasets(traces))
    geolocation = draw(_geolocations(claims))
    share = shared if shared is not None else draw(st.booleans())

    result = CountryStudyResult(
        country_code=draw(_pooled),
        dataset=dataset if share else draw(_datasets(traces)),
        geolocation=geolocation if share else draw(_geolocations(claims)),
    )
    for key in draw(st.lists(_pooled, max_size=3, unique=True)):
        result.tracker_verdicts[key] = TrackerVerdict(
            host=draw(_pooled), is_tracker=draw(st.booleans()),
            method=draw(_opt_pooled), list_name=draw(_opt_pooled),
            org_name=draw(_opt_pooled),
        )
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        site = SiteTrackerRecord(
            url=draw(_pooled), country_code=draw(_pooled),
            category=draw(_pooled),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            site.trackers.append(NonLocalTracker(
                host=draw(_pooled), address=draw(_pooled),
                destination_country=draw(_pooled),
                destination_city_key=draw(_pooled),
                org_name=draw(_opt_pooled),
            ))
        result.sites.append(site)

    timings = CountryTimings(draw(_pooled), cpu_seconds=draw(_floats))
    for phase in draw(st.lists(_pooled, max_size=3, unique=True)):
        timings.phase_seconds[phase] = draw(_floats)

    return CountryRun(
        country_code=draw(_pooled),
        dataset=dataset,
        geolocation=geolocation,
        result=result,
        source_trace_origin=draw(_pooled),
        timings=timings,
        cache_deltas={
            name: {
                "hits": draw(_counters), "misses": draw(_counters),
                "size": draw(_counters),
            }
            for name in draw(st.lists(_pooled, max_size=2, unique=True))
        },
        events=draw(st.one_of(
            st.none(),
            st.lists(
                st.fixed_dictionaries({
                    "ev": st.sampled_from(_EVENT_STRINGS),
                    "country": st.sampled_from(_EVENT_STRINGS),
                }),
                max_size=2,
            ),
        )),
        metrics_delta=draw(st.one_of(
            st.none(),
            st.fixed_dictionaries({"counters": st.just({}), "gauges": st.just({})}),
        )),
        resources=draw(st.one_of(
            st.none(), st.fixed_dictionaries({"cpu_s": _floats}),
        )),
    )


def assert_runs_equal(loaded: CountryRun, original: CountryRun) -> None:
    assert loaded.country_code == original.country_code
    assert loaded.dataset == original.dataset
    assert loaded.geolocation == original.geolocation
    assert loaded.result.country_code == original.result.country_code
    assert loaded.result.dataset == original.result.dataset
    assert loaded.result.geolocation == original.result.geolocation
    assert loaded.result.tracker_verdicts == original.result.tracker_verdicts
    assert loaded.result.sites == original.result.sites
    assert loaded.source_trace_origin == original.source_trace_origin
    assert loaded.timings == original.timings
    assert loaded.cache_deltas == original.cache_deltas
    assert loaded.events == original.events
    assert loaded.metrics_delta == original.metrics_delta
    assert loaded.resources == original.resources


def _watch(shipped: PickledCountryRun) -> list:
    """Record every unpickle of *shipped* (its ``on_load`` seconds)."""
    loads: list = []
    shipped.on_load = loads.append
    return loads


_PROPERTY = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# -- round-trip properties ---------------------------------------------------


class TestRoundTripProperties:
    @_PROPERTY
    @given(run=country_runs())
    def test_load_inverts_of(self, run):
        assert_runs_equal(PickledCountryRun.of(run).load(), run)

    @_PROPERTY
    @given(run=country_runs())
    def test_payload_is_the_runs_own_pickle(self, run):
        shipped = PickledCountryRun.of(run)
        assert shipped.payload == pickle.dumps(run, protocol=5)
        assert shipped.nbytes == len(shipped.payload)
        assert shipped.encode_seconds >= 0

    @_PROPERTY
    @given(run=country_runs())
    def test_sharing_topology_preserved(self, run):
        loaded = PickledCountryRun.of(run).load()
        assert (loaded.result.dataset is loaded.dataset) == (
            run.result.dataset is run.dataset
        )
        assert (loaded.result.geolocation is loaded.geolocation) == (
            run.result.geolocation is run.geolocation
        )

        def distinct_traces(dataset):
            return {
                id(trace)
                for measurement in dataset.websites.values()
                for trace in measurement.traceroutes.values()
            }

        # Memo-shared traceroutes stay shared: same number of distinct
        # trace objects on both sides of the round trip.
        assert len(distinct_traces(loaded.dataset)) == len(
            distinct_traces(run.dataset)
        )

    @_PROPERTY
    @given(run=country_runs())
    def test_descriptor_answers_without_loading(self, run):
        shipped = PickledCountryRun.of(run)
        loads = _watch(shipped)
        assert shipped.country_code == run.country_code
        assert shipped.source_trace_origin == run.source_trace_origin
        assert shipped.funnel == run.funnel
        assert shipped.timings == run.timings
        assert shipped.cache_deltas == run.cache_deltas
        assert shipped.events == run.events
        assert shipped.metrics_delta == run.metrics_delta
        assert shipped.resources == run.resources
        assert shipped.site_count == run.site_count
        assert shipped.sites == run.result.sites
        assert shipped.tracker_verdicts == run.result.tracker_verdicts
        assert shipped.result.sites == run.result.sites
        assert shipped.result.country_code == run.country_code
        assert loads == []

    @_PROPERTY
    @given(run=country_runs())
    def test_descriptor_survives_the_pool_boundary(self, run):
        """What the pool does: pickle the descriptor, unpickle elsewhere."""
        clone = pickle.loads(pickle.dumps(PickledCountryRun.of(run)))
        assert clone.sites == run.result.sites
        assert clone.funnel == run.funnel
        assert_runs_equal(clone.load(), run)

    @_PROPERTY
    @given(run=country_runs(shared=True))
    def test_shipped_result_loads_on_first_dataset_read(self, run):
        shipped = PickledCountryRun.of(run)
        loads = _watch(shipped)
        result = shipped.result
        assert loads == []
        assert result.dataset == run.result.dataset
        assert len(loads) == 1
        assert result.geolocation == run.result.geolocation
        assert result.geolocation is shipped.geolocation
        assert len(loads) == 1


# -- the production shape ----------------------------------------------------


@pytest.fixture(scope="module")
def real_run(scenario):
    from repro.study import StudyConfig

    return StudyWorker(scenario, StudyConfig())("CA")


class TestRealRun:
    def test_round_trip_and_sharing(self, real_run):
        loaded = PickledCountryRun.of(real_run).load()
        assert_runs_equal(loaded, real_run)
        assert loaded.result.dataset is loaded.dataset
        assert loaded.result.geolocation is loaded.geolocation
        assert loaded.dataset.to_json() == real_run.dataset.to_json()

    def test_payload_is_protocol_5(self, real_run):
        shipped = PickledCountryRun.of(real_run)
        assert shipped.payload[:2] == b"\x80\x05"
        assert shipped.nbytes == len(pickle.dumps(real_run, protocol=5))
        assert shipped.encode_seconds >= 0

    def test_load_is_cached_and_releases_the_payload(self, real_run):
        shipped = PickledCountryRun.of(real_run)
        loads = _watch(shipped)
        first = shipped.load()
        assert shipped.payload is None
        assert shipped.load() is first
        assert len(loads) == 1 and loads[0] >= 0
        # nbytes keeps reporting what crossed the boundary.
        assert shipped.nbytes == len(pickle.dumps(real_run, protocol=5))

    def test_every_route_reaches_the_same_objects(self, real_run):
        shipped = PickledCountryRun.of(real_run)
        loads = _watch(shipped)
        assert shipped.result is shipped.result
        assert isinstance(shipped.result, CountryStudyResult)
        assert shipped.result.dataset is shipped.dataset
        assert shipped.result.geolocation is shipped.geolocation
        assert shipped.dataset is shipped.load().dataset
        assert len(loads) == 1

    def test_shipped_sites_are_not_copied_on_load(self, real_run):
        """The sites the figures read stay the descriptor's own list."""
        shipped = PickledCountryRun.of(real_run)
        sites = shipped.result.sites
        shipped.load()
        assert shipped.result.sites is sites
        assert sites == real_run.result.sites


class TestTransportWorker:
    def test_wraps_a_finished_run(self, real_run):
        shipped = TransportWorker(lambda country_code: real_run)("CA")
        assert isinstance(shipped, PickledCountryRun)
        assert shipped.country_code == "CA"
        assert_runs_equal(shipped.load(), real_run)

    def test_failure_manifest_passes_through(self):
        failure = CountryFailure("CA", 3, "RuntimeError", "boom", "tb")
        assert TransportWorker(lambda country_code: failure)("CA") is failure

    def test_pickles_each_run_exactly_once(self, real_run, monkeypatch):
        dumped = []

        class _CountingPickle:
            loads = staticmethod(pickle.loads)

            @staticmethod
            def dumps(obj, protocol=None):
                dumped.append(obj.country_code)
                return pickle.dumps(obj, protocol=protocol)

        monkeypatch.setattr(transport, "pickle", _CountingPickle)
        worker = TransportWorker(lambda country_code: real_run)
        worker("CA")
        worker("CA")
        assert dumped == ["CA", "CA"]

    def test_worker_errors_propagate(self):
        def broken(country_code):
            raise RuntimeError(f"{country_code} exploded")

        with pytest.raises(RuntimeError, match="CA exploded"):
            TransportWorker(broken)("CA")


# -- analyses over shipped results ------------------------------------------

SOURCES = ["NZ", "CA", "RW", "QA"]
DESTINATIONS = ["US", "AU", "DE", "RW"]
HOSTS = [f"t{i}.ads.example" for i in range(6)]
ORGS = [None, "Google", "Heap", "Demdex"]

DIRECTORY = OrganizationDirectory([
    OrgEntry(name="Google", home_country="US", domains=("ads.example",)),
    OrgEntry(name="Heap", home_country="US", domains=()),
    OrgEntry(name="Demdex", home_country="US", domains=()),
])

_trackers = st.builds(
    NonLocalTracker,
    host=st.sampled_from(HOSTS),
    address=st.sampled_from([f"5.0.0.{i}" for i in range(4)]),
    destination_country=st.sampled_from(DESTINATIONS),
    destination_city_key=st.sampled_from([f"X, {cc}" for cc in DESTINATIONS]),
    org_name=st.sampled_from(ORGS),
)


def _results_strategy():
    def country(cc: str):
        def build(site_specs):
            sites = [
                SiteTrackerRecord(
                    url=f"s{i}.{cc.lower()}.example",
                    country_code=cc,
                    category=category,
                    trackers=trackers,
                )
                for i, (category, trackers) in enumerate(site_specs)
            ]
            return CountryStudyResult(
                country_code=cc,
                dataset=VolunteerDataset(cc, f"City, {cc}", "0.0.0.0", "linux", "chrome"),
                geolocation=DatasetGeolocation(country_code=cc),
                sites=sites,
            )

        return st.lists(
            st.tuples(
                st.sampled_from(["regional", "government"]),
                st.lists(_trackers, max_size=4),
            ),
            max_size=6,
        ).map(build)

    return st.lists(st.sampled_from(SOURCES), min_size=1, max_size=4, unique=True).flatmap(
        lambda codes: st.tuples(*[country(cc) for cc in codes]).map(list)
    )


def _ship(results):
    """Each result as the coordinator holds it after a process-pool run:
    pickled in the 'worker', the descriptor re-materialised in the
    'coordinator', its run never loaded."""
    shipped, loads = [], []
    for result in results:
        run = CountryRun(
            country_code=result.country_code,
            dataset=result.dataset,
            geolocation=result.geolocation,
            result=result,
            source_trace_origin="volunteer",
        )
        descriptor = pickle.loads(pickle.dumps(PickledCountryRun.of(run)))
        descriptor.on_load = loads.append
        shipped.append(descriptor.result)
    return shipped, loads


def _ordered(mapping):
    """Items in iteration order — exact-ordering comparison for dicts."""
    return list(mapping.items())


def _outcome(fn):
    """Value or the raised ValueError's message — both sides must match."""
    try:
        return ("ok", fn())
    except ValueError as error:
        return ("raise", str(error))


class TestShippedResultsAnalyse:
    """In-process vs shipped results over every public accessor."""

    @_PROPERTY
    @given(results=_results_strategy())
    def test_flows(self, results):
        shipped, loads = _ship(results)
        obj = FlowAnalysis(results)
        got = FlowAnalysis(shipped)
        for category in (None, "regional", "government"):
            assert got.edges(category) == obj.edges(category)
            assert got.sites_with_nonlocal(category) == obj.sites_with_nonlocal(category)
            assert _ordered(got.destination_shares(category)) == _ordered(
                obj.destination_shares(category)
            )
            assert _ordered(got.source_count_per_destination(category)) == _ordered(
                obj.source_count_per_destination(category)
            )
            for destination in DESTINATIONS:
                assert _ordered(got.single_source_effect(destination, category)) == (
                    _ordered(obj.single_source_effect(destination, category))
                )
        for destination in DESTINATIONS:
            assert got.dominant_source(destination) == obj.dominant_source(destination)
        for source in SOURCES:
            assert _ordered(got.destinations_of(source)) == _ordered(
                obj.destinations_of(source)
            )
        assert loads == []

    @_PROPERTY
    @given(results=_results_strategy())
    def test_prevalence(self, results):
        shipped, loads = _ship(results)
        obj = PrevalenceAnalysis(results)
        got = PrevalenceAnalysis(shipped)
        assert got.per_country() == obj.per_country()
        assert _ordered(got.combined_pct_by_country()) == _ordered(
            obj.combined_pct_by_country()
        )
        assert got.regional_mean_and_stdev() == obj.regional_mean_and_stdev()
        assert got.government_mean_and_stdev() == obj.government_mean_and_stdev()
        assert _outcome(got.regional_government_correlation) == _outcome(
            obj.regional_government_correlation
        )
        assert got.countries_with_foreign_trackers() == (
            obj.countries_with_foreign_trackers()
        )
        assert loads == []

    @_PROPERTY
    @given(results=_results_strategy())
    def test_per_website(self, results):
        shipped, loads = _ship(results)
        obj = PerWebsiteAnalysis(results)
        got = PerWebsiteAnalysis(shipped)
        for result in results:
            cc = result.country_code
            for category in (None, "regional", "government"):
                assert got.counts_for(cc, category) == obj.counts_for(cc, category)
                assert got.distribution(cc, category) == obj.distribution(cc, category)
            assert _ordered(got.histogram(cc)) == _ordered(obj.histogram(cc))
            assert _ordered(got.histogram(cc, max_count=2)) == _ordered(
                obj.histogram(cc, max_count=2)
            )
            assert got.outlier_sites(cc) == obj.outlier_sites(cc)
        assert got.all_distributions() == obj.all_distributions()
        assert got.all_distributions("regional") == obj.all_distributions("regional")
        assert loads == []

    @_PROPERTY
    @given(results=_results_strategy())
    def test_hosting(self, results):
        shipped, loads = _ship(results)
        obj = HostingAnalysis(results)
        got = HostingAnalysis(shipped)
        assert got.domain_observations() == obj.domain_observations()
        assert _ordered(got.domains_per_destination()) == _ordered(
            obj.domains_per_destination()
        )
        assert got.top_destinations(3) == obj.top_destinations(3)
        for destination in DESTINATIONS:
            assert _ordered(got.breakdown_by_source(destination)) == _ordered(
                obj.breakdown_by_source(destination)
            )
        for count in (1, 2):
            assert got.destinations_hosting_exactly(count) == (
                obj.destinations_hosting_exactly(count)
            )
        assert _ordered(got.unique_domains_per_destination()) == _ordered(
            obj.unique_domains_per_destination()
        )
        assert loads == []

    @_PROPERTY
    @given(results=_results_strategy())
    def test_organizations(self, results):
        shipped, loads = _ship(results)
        obj = OrganizationAnalysis(results, DIRECTORY)
        got = OrganizationAnalysis(shipped, DIRECTORY)
        assert got.flow_edges() == obj.flow_edges()
        assert got.observed_organizations() == obj.observed_organizations()
        assert got.top_organizations(3) == obj.top_organizations(3)
        assert _ordered(got.home_country_distribution()) == _ordered(
            obj.home_country_distribution()
        )
        assert _ordered(got.country_exclusive_organizations()) == _ordered(
            obj.country_exclusive_organizations()
        )
        assert loads == []


# -- checkpoint files --------------------------------------------------------


class TestRunCheckpoint:
    def test_store_load_round_trip(self, real_run, tmp_path):
        checkpoint = StudyCheckpoint(tmp_path)
        path = checkpoint.store(real_run)
        assert path.name == "CA.run.pkl"
        assert path == checkpoint.path_for("CA")
        assert path.read_bytes()[:2] == b"\x80\x05"
        assert_runs_equal(checkpoint.load("CA"), real_run)
        assert checkpoint.completed_countries() == ["CA"]

    def test_store_leaves_no_temporary_files(self, real_run, tmp_path):
        checkpoint = StudyCheckpoint(tmp_path / "nested" / "ckpt")
        checkpoint.store(real_run)
        checkpoint.store(real_run)  # an overwrite is one os.replace
        assert [p.name for p in checkpoint.directory.iterdir()] == ["CA.run.pkl"]

    def test_only_run_pickles_count_as_completed(self, real_run, tmp_path):
        checkpoint = StudyCheckpoint(tmp_path)
        checkpoint.store(real_run)
        (tmp_path / "NZ.run.col").write_bytes(b"CRUN\x03\x01leftover")
        (tmp_path / "QA.run.pkl.corrupt").write_bytes(b"junk")
        (tmp_path / ".RW-tmpfile").write_bytes(b"half written")
        (tmp_path / "metrics.json").write_text("{}")
        assert checkpoint.completed_countries() == ["CA"]

    def test_leftover_columnar_file_reads_as_absent(self, tmp_path):
        leftover = tmp_path / "NZ.run.col"
        leftover.write_bytes(b"CRUN\x03\x01leftover")
        checkpoint = StudyCheckpoint(tmp_path)
        assert checkpoint.load("NZ") is None
        # Not this format's file: left alone, not quarantined.
        assert leftover.exists()
        assert not (tmp_path / "NZ.run.col.corrupt").exists()

    def test_garbage_file_is_quarantined(self, tmp_path):
        checkpoint = StudyCheckpoint(tmp_path)
        checkpoint.path_for("CA").write_bytes(b"\x80\x05not a pickle")
        assert checkpoint.load("CA") is None
        assert not checkpoint.path_for("CA").exists()
        assert (tmp_path / "CA.run.pkl.corrupt").exists()
        assert checkpoint.completed_countries() == []

    def test_non_run_payload_is_quarantined(self, tmp_path):
        checkpoint = StudyCheckpoint(tmp_path)
        checkpoint.path_for("CA").write_bytes(pickle.dumps({"country_code": "CA"}))
        assert checkpoint.load("CA") is None
        assert (tmp_path / "CA.run.pkl.corrupt").exists()

    def test_shipped_descriptor_is_not_a_checkpoint(self, real_run, tmp_path):
        """Checkpoints hold full runs; a pool descriptor is quarantined."""
        checkpoint = StudyCheckpoint(tmp_path)
        checkpoint.path_for("CA").write_bytes(
            pickle.dumps(PickledCountryRun.of(real_run))
        )
        assert checkpoint.load("CA") is None
        assert (tmp_path / "CA.run.pkl.corrupt").exists()
