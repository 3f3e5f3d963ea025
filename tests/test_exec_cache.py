"""Cache correctness: memoised lookups equal their uncached computations.

Every cache the execution layer added (great-circle distance, latency
inflation, reverse DNS, GeoDNS resolution) memoises a pure function, so
cached and uncached answers must be identical over any sample of keys —
and hit counters must actually move, or the "cache" is dead weight.
"""

from __future__ import annotations

import pickle
import sys
import threading
import time
import types

import pytest

from repro import build_scenario, run_study
from repro.determinism import stable_rng
import repro.exec.cache as cache_module
from repro.exec.cache import ReadThroughCache, cache_registry
from repro.longitudinal import LongitudinalStudy
from repro.netsim.distance import city_distance_km, distance_cache, haversine_km
from repro.netsim.dns import NXDomain
from repro.netsim.geography import default_registry
from repro.netsim.latency import LatencyModel
from repro.netsim.network import World
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

    def test_metrics_to_dict_includes_caches(self, study_small):
        as_dict = study_small.metrics.to_dict()
        assert "trackers.verdicts" in as_dict["caches"]


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


class TestReadThroughCacheConcurrency:
    def test_each_key_computed_exactly_once_under_contention(self):
        cache = ReadThroughCache("test.concurrency")
        computed = []

        def compute_for(key):
            def compute():
                computed.append(key)
                return key * 2
            return compute

        keys = list(range(64))
        errors = []

        def hammer():
            try:
                for key in keys * 20:
                    assert cache.get(key, compute_for(key)) == key * 2
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert sorted(computed) == keys  # each key computed exactly once
        info = cache.info()
        assert info.misses == len(keys)
        assert info.hits == 8 * 20 * len(keys) - len(keys)

    def test_contended_misses_under_fast_switching(self):
        # Computes yield mid-flight and the interpreter switches threads
        # every microsecond, so most misses find a waiter attaching to
        # the owner's flight: the lazily created wait primitive must
        # still release every waiter with the one computed value.
        cache = ReadThroughCache("test.concurrency.switching")
        computed = []
        keys = list(range(32))
        workers = 12
        errors = []

        def compute_for(key):
            def compute():
                computed.append(key)
                time.sleep(0.0005)
                return key * 3
            return compute

        def hammer(offset):
            try:
                for _ in range(5):
                    for key in keys[offset % 4::4] + keys:
                        assert cache.get(key, compute_for(key)) == key * 3
            except Exception as error:  # pragma: no cover - failure reporting
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(i,)) for i in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert sorted(computed) == keys
        lookups = workers * 5 * (len(keys) + len(keys) // 4)
        info = cache.info()
        assert (info.hits, info.misses) == (lookups - len(keys), len(keys))

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


class TestReadThroughCacheSingleFlight:
    """Computes run outside the lock, coordinated per key.

    The original implementation held the cache lock *during* compute, so
    one slow lookup stalled every other key.  These tests are the
    regression net: distinct keys must compute concurrently, same-key
    callers must share one compute, and an owner's failure must hand
    ownership to a waiter instead of poisoning the key.
    """

    def test_distinct_keys_compute_concurrently(self):
        # Each compute blocks until the *other* compute has started.
        # Under lock-held-compute this deadlocks; under single-flight it
        # completes immediately.
        cache = ReadThroughCache("test.sf.parallel")
        started_a = threading.Event()
        started_b = threading.Event()
        results = {}

        def compute_a():
            started_a.set()
            assert started_b.wait(timeout=20), "compute 'b' never entered"
            return "va"

        def compute_b():
            started_b.set()
            assert started_a.wait(timeout=20), "compute 'a' never entered"
            return "vb"

        threads = [
            threading.Thread(target=lambda: results.update(a=cache.get("a", compute_a))),
            threading.Thread(target=lambda: results.update(b=cache.get("b", compute_b))),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads), "computes serialised"
        assert results == {"a": "va", "b": "vb"}
        info = cache.info()
        assert (info.hits, info.misses) == (0, 2)

    def test_same_key_waiters_share_one_compute(self):
        cache = ReadThroughCache("test.sf.shared")
        in_compute = threading.Event()
        release = threading.Event()
        calls = []
        results = []

        def slow_compute():
            calls.append(1)
            in_compute.set()
            assert release.wait(timeout=20)
            return "value"

        threads = [
            threading.Thread(target=lambda: results.append(cache.get("k", slow_compute)))
            for _ in range(6)
        ]
        threads[0].start()
        assert in_compute.wait(timeout=20)
        for thread in threads[1:]:  # all join while the owner is inside compute
            thread.start()
        release.set()
        for thread in threads:
            thread.join(timeout=30)
        assert results == ["value"] * 6
        assert len(calls) == 1  # one compute served every caller
        info = cache.info()
        assert (info.hits, info.misses) == (5, 1)

    def test_owner_error_propagates_and_waiter_takes_over(self):
        cache = ReadThroughCache("test.sf.errors")
        in_compute = threading.Event()
        release = threading.Event()
        calls = []
        outcome = {}

        def failing_then_ok():
            calls.append(1)
            if len(calls) == 1:
                in_compute.set()
                assert release.wait(timeout=20)
                raise RuntimeError("boom")
            return 42

        def owner():
            try:
                cache.get("k", failing_then_ok)
            except RuntimeError as error:
                outcome["owner_error"] = str(error)

        def waiter():
            outcome["waiter_value"] = cache.get("k", failing_then_ok)

        owner_thread = threading.Thread(target=owner)
        owner_thread.start()
        assert in_compute.wait(timeout=20)
        waiter_thread = threading.Thread(target=waiter)
        waiter_thread.start()
        release.set()
        owner_thread.join(timeout=30)
        waiter_thread.join(timeout=30)
        assert outcome == {"owner_error": "boom", "waiter_value": 42}
        assert len(calls) == 2  # the failure was retried, not cached
        present, value = cache.peek("k")
        assert present and value == 42

    def test_failed_compute_leaves_no_entry(self):
        cache = ReadThroughCache("test.sf.clean")
        with pytest.raises(KeyError):
            cache.get("k", lambda: (_ for _ in ()).throw(KeyError("nope")))
        assert len(cache) == 0
        assert cache.get("k", lambda: "ok") == "ok"


class TestReadThroughCacheResets:
    """``clear()``/``invalidate()`` during a compute, and the lean miss."""

    @staticmethod
    def _start_old_compute(cache):
        """Thread A inside ``get("k", compute_old)``; released on demand."""
        in_compute = threading.Event()
        release = threading.Event()
        outcome = {}

        def compute_old():
            in_compute.set()
            assert release.wait(timeout=20)
            return "old"

        thread = threading.Thread(target=lambda: outcome.update(a=cache.get("k", compute_old)))
        thread.start()
        assert in_compute.wait(timeout=20)
        return thread, release, outcome

    @pytest.mark.parametrize("reset", ["clear", "invalidate"])
    def test_reset_during_compute_does_not_publish_the_stale_value(self, reset):
        cache = ReadThroughCache("test.reset")
        thread, release, outcome = self._start_old_compute(cache)
        if reset == "clear":
            cache.clear()
        else:
            cache.invalidate("k")
        release.set()
        thread.join(timeout=30)
        assert outcome == {"a": "old"}  # the owner still answers its caller
        assert cache.peek("k") == (False, None)
        assert cache.get("k", lambda: "new") == "new"
        assert cache.get("k", lambda: "other") == "new"

    def test_waiter_of_a_cleared_flight_gets_the_owner_value(self):
        cache = ReadThroughCache("test.reset.waiter")
        thread, release, outcome = self._start_old_compute(cache)
        waiter = threading.Thread(
            target=lambda: outcome.update(b=cache.get("k", lambda: "waiter-computed"))
        )
        waiter.start()
        deadline = time.monotonic() + 20
        while cache._inflight["k"].event is None:  # until the waiter attaches
            assert time.monotonic() < deadline, "waiter never attached"
            waiter.join(timeout=0.001)
        cache.clear()
        release.set()
        thread.join(timeout=30)
        waiter.join(timeout=30)
        assert outcome == {"a": "old", "b": "old"}
        assert len(cache) == 0

    def test_reset_does_not_drop_a_newer_flight(self):
        # After the reset a second owner claims "k"; the first owner's
        # completion must leave that claim (and its value) alone.
        cache = ReadThroughCache("test.reset.newer")
        thread, release, outcome = self._start_old_compute(cache)
        cache.invalidate("k")
        in_new = threading.Event()
        release_new = threading.Event()

        def compute_new():
            in_new.set()
            assert release_new.wait(timeout=20)
            return "new"

        second = threading.Thread(target=lambda: outcome.update(b=cache.get("k", compute_new)))
        second.start()
        assert in_new.wait(timeout=20)
        release.set()
        thread.join(timeout=30)
        assert cache.peek("k") == (False, None)
        release_new.set()
        second.join(timeout=30)
        assert outcome == {"a": "old", "b": "new"}
        assert cache.peek("k") == (True, "new")

    def test_uncontended_miss_creates_no_event(self, monkeypatch):
        created = []

        def counting_event():
            created.append(1)
            return threading.Event()

        # Replace the module's ``threading`` name only, not the stdlib's.
        monkeypatch.setattr(
            cache_module, "threading",
            types.SimpleNamespace(Event=counting_event, Lock=threading.Lock),
        )
        cache = ReadThroughCache("test.lean")
        for key in range(50):
            assert cache.get(key, lambda key=key: key) == key
            assert cache.get(key, lambda: "recomputed") == key
        with pytest.raises(RuntimeError):
            cache.get("bad", lambda: (_ for _ in ()).throw(RuntimeError("boom")))
        assert created == []
        info = cache.info()
        assert (info.hits, info.misses) == (50, 51)
