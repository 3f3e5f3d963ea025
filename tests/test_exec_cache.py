"""Cache correctness: memoised lookups equal their uncached computations.

Every cache the execution layer added (great-circle distance, latency
inflation, reverse DNS, GeoDNS resolution, Atlas fallback source
traces) memoises a pure function, so cached and uncached answers must
be identical over any sample of keys — and hit counters must actually
move, or the "cache" is dead weight.
"""

from __future__ import annotations

import io
import multiprocessing
import os
import pickle
import threading

import pytest

from repro import StudyConfig, build_scenario, determinism, run_study
from repro.determinism import stable_rng
from repro.exec.cache import ReadThroughCache, cache_registry
from repro.longitudinal import LongitudinalStudy
from repro.netsim.distance import city_distance_km, distance_cache, haversine_km
from repro.netsim.dns import NXDomain
from repro.netsim.geography import default_registry
from repro.netsim.latency import LatencyModel
from repro.netsim.network import World
from repro.obs.progress import ProgressReporter
from tests.test_servers_dns import make_deployment


def sample_city_pairs(registry, count: int, seed: str):
    cities = [city for country in registry.countries for city in country.cities]
    rng = stable_rng("exec-cache-sample", seed)
    return [(rng.choice(cities), rng.choice(cities)) for _ in range(count)]


class TestDistanceCache:
    def test_cached_equals_uncached_over_seeded_sample(self, registry):
        for a, b in sample_city_pairs(registry, 200, "distance"):
            assert city_distance_km(a, b) == haversine_km(a.lat, a.lon, b.lat, b.lon)

    def test_hit_counter_increments(self, registry):
        a = registry.city("London, GB")
        b = registry.city("Nairobi, KE")
        city_distance_km(a, b)  # ensure the pair is cached
        before = distance_cache.info()
        city_distance_km(a, b)
        after = distance_cache.info()
        assert after.hits == before.hits + 1
        assert after.misses == before.misses

    def test_cache_registry_reports_only_the_distance_memo(self):
        assert [info.name for info in cache_registry()] == ["netsim.distance"]


class TestVerdictCacheSurfacing:
    """The tracker verdict cache reports through the exec metrics layer."""

    def test_study_metrics_include_verdict_cache(self):
        # A study's metrics count that study alone, so misses show only
        # on a scenario whose verdict cache starts cold.
        outcome = run_study(build_scenario(), countries=["CA", "NZ"])
        infos = outcome.metrics.cache_infos
        assert "trackers.verdicts" in infos
        verdicts = infos["trackers.verdicts"]
        # The ~100 sites per country repeat hosts heavily: the study join
        # must produce real hits, and counters must reconcile.
        assert verdicts["hits"] > 0
        assert verdicts["misses"] > 0
        assert 0.0 <= verdicts["hit_rate"] <= 1.0

    def test_metrics_render_shows_cache_counters(self, study_small):
        rendered = study_small.metrics.render()
        assert "cache trackers.verdicts:" in rendered
        assert "hit_rate=" in rendered


class TestInflationCache:
    def test_cached_equals_fresh_model(self, registry):
        cached = LatencyModel(seed="cache-check")
        for a, b in sample_city_pairs(registry, 100, "inflation"):
            fresh = LatencyModel(seed="cache-check")  # empty cache every time
            assert cached.inflation(a, b) == fresh.inflation(a, b)

    def test_symmetry_survives_caching(self, registry):
        model = LatencyModel(seed="sym")
        for a, b in sample_city_pairs(registry, 50, "sym"):
            assert model.inflation(a, b) == model.inflation(b, a)

    def test_hit_counter_increments(self, registry):
        model = LatencyModel(seed="hits")
        a = registry.city("Paris, FR")
        b = registry.city("Tokyo, JP")
        model.inflation(a, b)
        assert model.inflation_cache.info().misses == 1
        model.inflation(a, b)
        model.inflation(b, a)  # sorted pair key: same entry
        info = model.inflation_cache.info()
        assert info.hits == 2
        assert info.misses == 1

    def test_model_with_cache_pickles(self, registry):
        model = LatencyModel(seed="pickle")
        a = registry.city("Paris, FR")
        b = registry.city("Tokyo, JP")
        expected = model.inflation(a, b)
        clone = pickle.loads(pickle.dumps(model))
        assert clone.inflation(a, b) == expected


class TestReverseDNSCache:
    def _sample_addresses(self, scenario, count=150):
        rng = stable_rng("exec-cache-sample", "rdns")
        allocations = list(scenario.world.ips)
        return [
            str(rng.choice(allocations).address(rng.randint(1, 200)))
            for _ in range(count)
        ]

    def test_cached_equals_uncached_over_seeded_sample(self, scenario):
        rdns = scenario.world.rdns
        for address in self._sample_addresses(scenario):
            assert rdns.lookup(address) == rdns._lookup_uncached(address)

    def test_hit_counter_increments(self, scenario):
        rdns = scenario.world.rdns
        address = self._sample_addresses(scenario, count=1)[0]
        rdns.lookup(address)
        before = rdns.lookup_cache.info()
        rdns.lookup(address)
        after = rdns.lookup_cache.info()
        assert after.hits == before.hits + 1

    def test_override_invalidates(self, scenario):
        rdns = scenario.world.rdns
        address = self._sample_addresses(scenario, count=1)[0]
        unpatched = rdns.lookup(address)  # populate the memo
        try:
            rdns.override(address, "planted.ptr.example.net")
            assert rdns.lookup(address) == "planted.ptr.example.net"
            rdns.override(address, None)
            assert rdns.lookup(address) is None
        finally:
            # The scenario fixture is session-scoped: drop the override so
            # later tests observe the original generated PTR record.
            rdns._overrides.pop(address, None)
            rdns.lookup_cache.invalidate(address)
        assert rdns.lookup(address) == unpatched


class TestSourceTraceCache:
    """``AtlasMeasurementService.source_trace_cache``: fallback source
    traces, keyed by ``(probe, address)``."""

    #: The countries whose source traces fall back to an Atlas probe.
    FALLBACK = ("AU", "EG", "IN", "JO", "QA")

    def _sample(self, scenario, count=120):
        rng = stable_rng("exec-cache-sample", "source-traces")
        probes = [
            scenario.atlas.mesh.probe_for_country(cc, scenario.volunteers[cc].city)[0]
            for cc in self.FALLBACK
        ]
        allocations = list(scenario.world.ips)
        return [
            (rng.choice(probes), str(rng.choice(allocations).address(rng.randint(1, 200))))
            for _ in range(count)
        ]

    def test_cached_equals_uncached_over_seeded_sample(self, scenario):
        atlas = scenario.atlas
        for probe, address in self._sample(scenario):
            direct = atlas.traceroute(probe, address, f"src-fallback:{address}")
            for _ in range(2):  # the miss, then the hit
                assert atlas.source_traceroute(probe, address) == direct, (probe, address)

    def test_hit_counter_increments(self, scenario):
        atlas = scenario.atlas
        probe, address = self._sample(scenario, count=1)[0]
        atlas.source_traceroute(probe, address)
        before = atlas.source_trace_cache.info()
        atlas.source_traceroute(probe, address)
        after = atlas.source_trace_cache.info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_each_new_address_is_one_miss_and_one_entry(self):
        atlas = build_scenario().atlas
        sample = list(dict.fromkeys(self._sample(build_scenario(), count=20)))
        for probe, address in sample:
            atlas.source_traceroute(probe, address)
        info = atlas.source_trace_cache.info()
        assert (info.hits, info.misses, info.size) == (0, len(sample), len(sample))

    def test_probe_is_part_of_the_key(self, scenario):
        # JO's and QA's fallback probes trace the same address apart:
        # neither may be served the other's trace.
        atlas = scenario.atlas
        probes = [
            atlas.mesh.probe_for_country(cc, scenario.volunteers[cc].city)[0]
            for cc in ("JO", "QA")
        ]
        assert probes[0].probe_id != probes[1].probe_id
        _, address = self._sample(scenario, count=1)[0]
        for probe in probes:
            direct = atlas.traceroute(probe, address, f"src-fallback:{address}")
            assert atlas.source_traceroute(probe, address) == direct, probe.probe_id

    def test_owned_by_the_service_and_listed_by_the_scenario(self, scenario):
        cache = scenario.atlas.source_trace_cache
        assert cache.name == "atlas.source_traces"
        assert cache is not build_scenario().atlas.source_trace_cache
        assert any(listed is cache for listed in scenario.caches)


class TestGeoDNSAnswerCache:
    """``GeoDNSResolver.answer_cache``: the world's one GeoDNS memo."""

    @staticmethod
    def _outcome(resolve, host, city):
        """The answer, or the exception's type and arguments."""
        try:
            return resolve(host, city)
        except LookupError as error:
            return type(error), error.args

    def test_memoised_equals_fresh_world_everywhere(self, scenario):
        # A fresh world's memo is empty, so its answers are computed;
        # the shared scenario's second pass is served from its memo.
        fresh = build_scenario().world.dns
        dns = scenario.world.dns
        hosts = dns.all_registered_domains() + ["no-such-host.invalid-zone.example"]
        cities = [scenario.volunteers[cc].city for cc in sorted(scenario.volunteers)]
        kinds = set()
        for host in hosts:
            for city in cities:
                expected = self._outcome(fresh.resolve, host, city)
                for _ in range(2):
                    assert self._outcome(dns.resolve, host, city) == expected, (host, city.key)
                kinds.add(expected[0] if isinstance(expected, tuple) else "ok")
        assert kinds == {"ok", NXDomain, LookupError}

    def test_second_lookup_is_a_hit(self, scenario):
        dns = scenario.world.dns
        city = scenario.volunteers["TH"].city
        for host in (dns.all_registered_domains()[0], "no-such-host.invalid-zone.example"):
            first = self._outcome(dns.resolve, host, city)
            before = dns.answer_cache.info()
            assert self._outcome(dns.resolve, host, city) == first
            after = dns.answer_cache.info()
            assert (after.hits, after.misses) == (before.hits + 1, before.misses), host

    def test_invalid_hostname_is_not_memoised(self, scenario):
        dns = scenario.world.dns
        city = scenario.volunteers["TH"].city
        before = len(dns.answer_cache)
        for _ in range(2):
            with pytest.raises(ValueError):
                dns.resolve("bad..host", city)
        assert len(dns.answer_cache) == before

    def test_owned_by_the_resolver_and_listed_by_the_scenario(self, scenario):
        world = World(geo=default_registry())
        assert world.dns.answer_cache.name == "netsim.geodns"
        assert world.dns.answer_cache is not scenario.world.dns.answer_cache
        assert any(cache is scenario.world.dns.answer_cache for cache in scenario.caches)

    def test_register_after_lookup_changes_the_answer(self, registry):
        world = World(geo=registry)
        city = registry.city("Bangkok, TH")
        first = make_deployment(["FR"], org_name="FirstOrg", domains=("first.net",),
                                space=world.ips)
        second = make_deployment(["JP"], org_name="SecondOrg", domains=("second.net",),
                                 space=world.ips)
        with pytest.raises(NXDomain):
            world.dns.resolve("cdn.first.net", city)
        world.add_deployment(first)
        assert world.dns.resolve("cdn.first.net", city).org_name == "FirstOrg"
        world.dns.register("cdn.first.net", second, exact=True)
        assert world.dns.resolve("cdn.first.net", city).org_name == "SecondOrg"

    def test_localization_reaches_direct_resolve(self):
        scenario = build_scenario(seed="longitudinal-test")
        dns = scenario.world.dns
        client = scenario.volunteers["JO"].city
        host = scenario.world.organizations["Google"].domains[0]
        assert dns.resolve(host, client).pop.country_code != "JO"
        LongitudinalStudy(scenario).enact_localization("JO", orgs=["Google"])
        answer = dns.resolve(host, client)
        assert (answer.pop.country_code, answer.pop.name) == ("JO", "jo-resid")


class TestReadThroughCache:
    """The plain memo: FIFO bound, pickling, failures and exact counters."""

    def test_maxsize_evicts_oldest(self):
        cache = ReadThroughCache("test.evict", maxsize=2)
        cache.get("a", lambda: 1)
        cache.get("b", lambda: 2)
        cache.get("c", lambda: 3)  # evicts "a"
        assert len(cache) == 2
        present, _ = cache.peek("a")
        assert not present

    def test_pickle_roundtrip_keeps_entries_and_counters(self):
        cache = ReadThroughCache("test.pickle")
        cache.get("k", lambda: "v")
        cache.get("k", lambda: "v")
        clone = pickle.loads(pickle.dumps(cache))
        info = clone.info()
        assert (info.hits, info.misses, info.size) == (1, 1, 1)
        assert clone.get("k", lambda: "other") == "v"

    def test_failed_compute_leaves_no_entry(self):
        cache = ReadThroughCache("test.clean")
        with pytest.raises(KeyError):
            cache.get("k", lambda: (_ for _ in ()).throw(KeyError("nope")))
        assert len(cache) == 0
        assert cache.get("k", lambda: "ok") == "ok"
        info = cache.info()
        assert (info.hits, info.misses) == (0, 2)  # the failure was a miss

    def test_counters_after_invalidate_and_clear(self):
        cache = ReadThroughCache("test.reset")
        for key in ("a", "b", "a"):
            cache.get(key, lambda key=key: key.upper())
        cache.invalidate("a")  # drops the entry, keeps counting
        assert cache.peek("a") == (False, None)
        assert cache.get("a", lambda: "again") == "again"
        info = cache.info()
        assert (info.hits, info.misses, info.size) == (1, 3, 2)
        cache.clear()  # drops every entry and zeroes the counters
        info = cache.info()
        assert (info.hits, info.misses, info.size) == (0, 0, 0)
        assert cache.get("b", lambda: "fresh") == "fresh"
        info = cache.info()
        assert (info.hits, info.misses, info.size) == (0, 1, 1)


class TestCacheTraffic:
    """Every memo lookup and seeded draw of a study runs on its process's
    main thread.

    That is why a cache needs no lock and the single-draw helpers share
    one generator: the serial backend runs on the caller's thread, each
    pool worker is a process with its own copy of every cache and of the
    generator, and completions are reported on the coordinator's main
    thread.
    """

    @staticmethod
    def _assert_main_thread_calls(owner, name, scenario, config, monkeypatch, tmp_path):
        """Run a CA,NZ study with progress on and assert that every call
        of ``owner.name`` ran on its process's main thread: the
        coordinator records thread ids, each pool worker one
        ``<pid>-<on main thread>`` marker file."""
        coordinator = os.getpid()
        calls = []
        seen = set()  # (pid, on main thread) pairs already marked
        original = getattr(owner, name)

        def recording(*args):
            if os.getpid() == coordinator:
                calls.append(threading.get_ident())
            else:
                # A forked pool worker: one marker file per new pair.
                pair = (os.getpid(), threading.current_thread() is threading.main_thread())
                if pair not in seen:
                    seen.add(pair)
                    (tmp_path / "{}-{}".format(*pair)).touch()
            return original(*args)

        monkeypatch.setattr(owner, name, recording)
        stream = io.StringIO()
        run_study(
            scenario, countries=["CA", "NZ"], config=config,
            progress=ProgressReporter(2, stream=stream),
        )
        assert "2/2" in stream.getvalue()
        workers = sorted(path.name for path in tmp_path.iterdir())
        assert set(calls) <= {threading.main_thread().ident}
        assert all(marker.endswith("-True") for marker in workers), workers
        if config.backend != "process":
            assert calls and not workers
        elif "fork" in multiprocessing.get_all_start_methods():
            assert workers  # the forked workers ran the recording call

    @pytest.mark.parametrize("config", [
        StudyConfig(),
        StudyConfig(jobs=2, backend="process"),
    ], ids=["serial", "process-2"])
    def test_progress_is_reported_on_the_coordinator_main_thread(
        self, scenario, config, monkeypatch
    ):
        threads = []
        original = ProgressReporter.country_done

        def recording(self, *args, **kwargs):
            threads.append(threading.get_ident())
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ProgressReporter, "country_done", recording)
        run_study(
            scenario, countries=["CA", "NZ"], config=config,
            progress=ProgressReporter(2, stream=io.StringIO()),
        )
        assert threads == [threading.main_thread().ident] * 2

    @pytest.mark.parametrize("config", [
        StudyConfig(),
        StudyConfig(jobs=2, backend="process"),
    ], ids=["serial", "process-2"])
    def test_every_lookup_runs_on_a_main_thread(self, scenario, config, monkeypatch, tmp_path):
        self._assert_main_thread_calls(
            ReadThroughCache, "get", scenario, config, monkeypatch, tmp_path
        )

    @pytest.mark.parametrize("config", [
        StudyConfig(),
        StudyConfig(jobs=2, backend="process"),
    ], ids=["serial", "process-2"])
    def test_every_draw_runs_on_a_main_thread(self, scenario, config, monkeypatch, tmp_path):
        self._assert_main_thread_calls(
            determinism, "_seeded_draw_rng", scenario, config, monkeypatch, tmp_path
        )
