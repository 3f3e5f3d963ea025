"""Scalar-vs-columnar differential harness for the geolocation engines.

The columnar engine's contract is *byte identity*: for any batch of
addresses it must return exactly the verdicts the scalar oracle returns
— same dataclasses, same evidence floats, same funnel movement, same
order, same pickled bytes.  This suite attacks that contract from three
sides:

* **Property-based batches** — hypothesis generates adversarial server
  batches (unlocated/local/foreign claims, missing/unreached/zero-hop
  traceroutes, contradicting PTR records) and every verdict is compared
  field by field across all constraint-toggle configurations.
* **Exact boundaries** — deterministic batches place observed RTTs
  exactly at (and one ulp below) the SOL floor, the 80 %-rule floor and
  the strict destination ceiling, where a single float discrepancy
  between engines would flip a verdict.
* **Study-level golden run** — the full 23-country study executed with
  either engine yields identical outcomes, identical pickled verdict
  maps, and byte-identical stripped run journals, with the engine name
  surfaced in ``ExecMetrics``.

Stub services live at module level so the engines (which hold service
references) stay picklable — the same property the process-pool backend
relies on, locked down here by a pickle round-trip test.
"""

from __future__ import annotations

import json
import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import run_study
from repro.atlas.probes import Probe
from repro.core.gamma.parsers import NormalizedHop, NormalizedTraceroute
from repro.core.geoloc.constraints import source_latency_floor_ms
from repro.core.geoloc.latency_stats import SyntheticStatsProvider
from repro.core.geoloc.pipeline import (
    FunnelCounters,
    GeolocationPipeline,
    PipelineConfig,
    SourceTraces,
)
from repro.geodb.ipmap import GeoClaim
from repro.netsim.distance import city_distance_km, min_rtt_ms
from repro.netsim.geography import default_registry
from repro.netsim.latency import LatencyModel
from repro.study import StudyConfig
from tests.test_exec_equivalence import assert_outcomes_identical

REG = default_registry()
MODEL = LatencyModel()

#: The measurement vantage: a GB volunteer in London.
MEASUREMENT_COUNTRY = "GB"
SOURCE_CITY = REG.city("London, GB")

#: Foreign-claim palette: near (Paris), far (Tokyo), antipodal
#: (Auckland), probe-less countries (NZ), stats-less pairs (Auckland,
#: Nairobi) and a claim whose probe sits in a *different* city of the
#: claimed country (Al Fujairah City vs the Dubai probe).
CLAIM_KEYS = [
    "Paris, FR",
    "Tokyo, JP",
    "Auckland, NZ",
    "Nairobi, KE",
    "New York, US",
    "Al Fujairah City, AE",
]

#: Probe mesh: one probe per country; NZ deliberately has none.
PROBES = {
    "FR": Probe(1001, REG.city("Marseille, FR")),
    "JP": Probe(1002, REG.city("Tokyo, JP")),
    "KE": Probe(1003, REG.city("Mombasa, KE")),
    "US": Probe(1004, REG.city("Ashburn, US")),
    "AE": Probe(1005, REG.city("Dubai, AE")),
}

#: Published statistics cover some pairs only — Auckland and Nairobi
#: claims exercise the "SOL ok; no published statistics" branch.
STATS = SyntheticStatsProvider(
    "columnar-test",
    MODEL,
    covered_cities=[
        "London, GB", "Paris, FR", "Tokyo, JP", "New York, US",
        "Dubai, AE", "Al Fujairah City, AE",
    ],
)

#: PTR palette: missing, hint-free, and hints that match/contradict the
#: claim palette (mba = Mombasa KE, ams = Amsterdam NL).
RDNS_VALUES = [
    None,
    "server-1.example.net",
    "edge-1.cdg01.example.net",
    "edge-2.nrt01.example.net",
    "edge-3.mba01.example.net",
    "edge-7.ams02.example.net",
]


class StubIPMap:
    """Address -> fixed claim (or None); deterministic and picklable."""

    def __init__(self, claims):
        self._claims = claims

    def locate(self, address):
        return self._claims.get(address)


class StubMesh:
    def __init__(self, probes):
        self._probes = probes

    def probe_for_country(self, country_code, near_city=None):
        return self._probes.get(country_code), country_code


class StubAtlas:
    """Fixed destination traces keyed by target address."""

    def __init__(self, mesh, traces):
        self.mesh = mesh
        self._traces = traces

    def dest_traceroute(self, probe, address):
        return self._traces[address]


def make_trace(kind, first=None, last=None, target="t"):
    """Build the traceroute shapes the constraints branch on."""
    if kind == "missing":
        return None
    if kind == "unreached":
        hops = [NormalizedHop(1, "62.0.0.1", (last if last is not None else 10.0,))]
        return NormalizedTraceroute(target=target, reached=False, hops=hops)
    if kind == "empty":  # reached, but zero hops recorded
        return NormalizedTraceroute(target=target, reached=True, hops=[])
    if kind == "timeouts":  # reached, every hop timed out (address None)
        hops = [NormalizedHop(1, None, ()), NormalizedHop(2, None, ())]
        return NormalizedTraceroute(target=target, reached=True, hops=hops)
    hops = []
    if first is not None:
        hops.append(NormalizedHop(1, "192.168.1.1", (first,)))
    hops.append(NormalizedHop(2, "10.0.0.1", (last,)))
    return NormalizedTraceroute(target=target, reached=True, hops=hops)


RTT = st.floats(min_value=0.0, max_value=400.0, allow_nan=False, allow_infinity=False)

SOURCE_SPEC = st.one_of(
    st.just(("missing",)),
    st.just(("unreached",)),
    st.just(("empty",)),
    st.just(("timeouts",)),
    st.tuples(st.just("ok"), st.one_of(st.none(), RTT), RTT),
)

DEST_SPEC = st.one_of(
    st.just(("unreached",)),
    st.just(("timeouts",)),
    st.tuples(st.just("ok"), st.one_of(st.none(), RTT), RTT),
)

ADDRESS_SPEC = st.fixed_dictionaries(
    {
        "claim": st.sampled_from(["unlocated", "local"] + CLAIM_KEYS),
        "source": SOURCE_SPEC,
        "dest": DEST_SPEC,
        "rdns": st.sampled_from(RDNS_VALUES),
        "hosts": st.integers(min_value=1, max_value=3),
    }
)

#: Constraint-toggle grid: every engine branch must agree under every
#: configuration, not just the study default.
CONFIG_GRID = [
    {},
    {"strict_destination_bound": True},
    {"enable_source": False},
    {"enable_destination": False},
    {"enable_rdns": False},
    {"conservative_threshold": 1.0, "strict_destination_bound": True},
]


def build_batch(specs):
    """Expand hypothesis specs into the classify_addresses inputs."""
    claims, addresses, src_traces, dest_traces, rdns = {}, {}, {}, {}, {}
    for i, spec in enumerate(specs):
        address = f"198.51.{i // 250}.{i % 250 + 1}"
        if spec["claim"] == "local":
            claims[address] = GeoClaim(address, SOURCE_CITY)
        elif spec["claim"] != "unlocated":
            claims[address] = GeoClaim(address, REG.city(spec["claim"]))
        addresses[address] = [f"host-{i}-{h}.example.net" for h in range(spec["hosts"])]
        trace = make_trace(*spec["source"], target=address) if spec["source"][0] != "ok" \
            else make_trace("ok", spec["source"][1], spec["source"][2], target=address)
        if trace is not None:
            src_traces[address] = trace
        dest_traces[address] = make_trace(*spec["dest"], target=address) \
            if spec["dest"][0] != "ok" \
            else make_trace("ok", spec["dest"][1], spec["dest"][2], target=address)
        if spec["rdns"] is not None:
            rdns[address] = spec["rdns"]
    return claims, addresses, src_traces, dest_traces, rdns


def build_pipeline(engine, claims, dest_traces, **config_kwargs):
    return GeolocationPipeline(
        ipmap=StubIPMap(claims),
        atlas=StubAtlas(StubMesh(PROBES), dest_traces),
        stats=STATS,
        latency=MODEL,
        config=PipelineConfig(engine=engine, **config_kwargs),
    )


def classify(pipeline, addresses, src_traces, rdns):
    funnel = FunnelCounters()
    verdicts = pipeline.classify_addresses(
        addresses,
        MEASUREMENT_COUNTRY,
        SourceTraces(city=SOURCE_CITY, traces=src_traces),
        rdns,
        funnel,
    )
    return verdicts, funnel


def canonical_verdict_bytes(geolocations):
    """Identity-free byte encoding of every verdict in a study.

    Floats are rendered with ``float.hex`` so two runs agree only if
    every evidence value is *bit* identical, while string/object
    identity (which raw pickle memoises) cannot influence the bytes.
    """
    def ms(value):
        return None if value is None else float.hex(value)

    payload = {
        cc: [
            [
                v.address, list(v.hosts), v.status,
                v.claim.city_key if v.claim else None,
                v.discarded_by,
                [
                    [c.constraint, c.status, c.reason,
                     ms(c.observed_ms), ms(c.expected_ms)]
                    for c in v.checks
                ],
            ]
            for v in geoloc.verdicts.values()
        ]
        for cc, geoloc in geolocations.items()
    }
    return json.dumps(payload, sort_keys=False).encode()


def assert_batches_identical(scalar, columnar):
    """Field-by-field and byte-level equality of two classify results."""
    scalar_verdicts, scalar_funnel = scalar
    columnar_verdicts, columnar_funnel = columnar
    assert list(scalar_verdicts) == list(columnar_verdicts)  # order too
    for address, expected in scalar_verdicts.items():
        actual = columnar_verdicts[address]
        assert expected == actual, address
        assert len(expected.checks) == len(actual.checks), address
        for want, got in zip(expected.checks, actual.checks):
            for name in ("constraint", "status", "reason", "observed_ms", "expected_ms"):
                assert getattr(want, name) == getattr(got, name), (address, name)
            # Materialised evidence must be built-in floats (no numpy
            # scalars leaking into verdicts / pickles / journals).
            for value in (got.observed_ms, got.expected_ms):
                assert value is None or type(value) is float, address
    assert scalar_funnel == columnar_funnel
    assert pickle.dumps(scalar_verdicts) == pickle.dumps(columnar_verdicts)


class TestDifferentialBatches:
    @pytest.mark.parametrize("config_kwargs", CONFIG_GRID,
                             ids=lambda kw: ",".join(kw) or "default")
    @given(specs=st.lists(ADDRESS_SPEC, min_size=0, max_size=25))
    @settings(max_examples=25, deadline=None)
    def test_engines_agree_on_generated_batches(self, config_kwargs, specs):
        claims, addresses, src_traces, dest_traces, rdns = build_batch(specs)
        scalar = build_pipeline("scalar", claims, dest_traces, **config_kwargs)
        columnar = build_pipeline("columnar", claims, dest_traces, **config_kwargs)
        assert scalar.engine_name == "scalar"
        assert columnar.engine_name == "columnar"
        assert_batches_identical(
            classify(scalar, addresses, src_traces, rdns),
            classify(columnar, addresses, src_traces, rdns),
        )

    @given(specs=st.lists(ADDRESS_SPEC, min_size=1, max_size=15))
    @settings(max_examples=10, deadline=None)
    def test_columnar_engine_pickle_round_trip(self, specs):
        claims, addresses, src_traces, dest_traces, rdns = build_batch(specs)
        pipeline = build_pipeline("columnar", claims, dest_traces)
        engine = pipeline._columnar
        clone = pickle.loads(pickle.dumps(engine))
        funnel_a, funnel_b = FunnelCounters(), FunnelCounters()
        traces = SourceTraces(city=SOURCE_CITY, traces=src_traces)
        original = engine.classify_batch(
            addresses, MEASUREMENT_COUNTRY, traces, rdns, funnel_a
        )
        revived = clone.classify_batch(
            addresses, MEASUREMENT_COUNTRY, traces, rdns, funnel_b
        )
        # Equality, not pickle-byte equality: the revived engine's claims
        # were unpickled, so the str/City identity sharing that pickle
        # memoises differs even though every value is equal.  Byte
        # identity within one process is asserted by the study-level
        # golden test below.
        assert original == revived
        assert funnel_a == funnel_b
        assert pickle.loads(pickle.dumps(revived)) == original


class TestExactBoundaries:
    """Batches pinned to the exact comparison boundaries of every rule."""

    def boundary_batch(self):
        """Addresses whose observed RTTs sit exactly on (or one ulp
        below) the SOL floor, the 80 %-rule floor and the strict
        destination ceiling for a London -> Paris claim."""
        paris = REG.city("Paris, FR")
        sol = min_rtt_ms(city_distance_km(SOURCE_CITY, paris))
        floor = source_latency_floor_ms(0.8, STATS.published_rtt_ms(SOURCE_CITY, paris))
        probe = PROBES["FR"]
        dest_sol = min_rtt_ms(city_distance_km(probe.city, paris))
        specs = {
            "at-sol": (sol, None),
            "below-sol": (math.nextafter(sol, 0.0), None),
            "at-floor": (floor, None),
            "below-floor": (math.nextafter(floor, 0.0), None),
            "dest-at-sol": (floor, dest_sol),
            "dest-below-sol": (floor, math.nextafter(dest_sol, 0.0)),
        }
        claims, addresses, src_traces, dest_traces = {}, {}, {}, {}
        for i, (label, (src_rtt, dest_rtt)) in enumerate(specs.items()):
            address = f"203.0.113.{i + 1}"
            claims[address] = GeoClaim(address, paris)
            addresses[address] = [f"{label}.example.net"]
            src_traces[address] = make_trace("ok", None, src_rtt, target=address)
            dest_traces[address] = make_trace(
                "ok", None, dest_rtt if dest_rtt is not None else 20.0, target=address
            )
        return claims, addresses, src_traces, dest_traces

    @pytest.mark.parametrize("config_kwargs", [{}, {"strict_destination_bound": True}])
    def test_engines_agree_at_thresholds(self, config_kwargs):
        claims, addresses, src_traces, dest_traces = self.boundary_batch()
        scalar = build_pipeline("scalar", claims, dest_traces, **config_kwargs)
        columnar = build_pipeline("columnar", claims, dest_traces, **config_kwargs)
        assert_batches_identical(
            classify(scalar, addresses, src_traces, {}),
            classify(columnar, addresses, src_traces, {}),
        )

    def test_boundary_semantics_match_scalar_rules(self):
        """Pin the rules themselves: equality passes, one ulp below fails."""
        claims, addresses, src_traces, dest_traces = self.boundary_batch()
        pipeline = build_pipeline("columnar", claims, dest_traces)
        verdicts, _ = classify(pipeline, addresses, src_traces, {})
        by_label = {v.hosts[0].split(".")[0]: v for v in verdicts.values()}
        assert by_label["below-sol"].discarded_by == "source"
        assert "speed-of-light" in by_label["below-sol"].checks[0].reason
        assert by_label["below-floor"].discarded_by == "source"
        assert "80%" in by_label["below-floor"].checks[0].reason
        assert by_label["dest-below-sol"].discarded_by == "destination"
        # Exactly at the SOL floor the SOL rule does NOT fire — but the
        # 80 %-rule floor sits above it for a stats-covered pair, so the
        # verdict is still a (different) source discard.
        assert by_label["at-sol"].discarded_by == "source"
        assert "80%" in by_label["at-sol"].checks[0].reason
        for label in ("at-floor", "dest-at-sol"):
            assert by_label[label].discarded_by == "", label


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown geoloc engine"):
            build_pipeline("simd", {}, {})

    def test_scalar_pipeline_has_no_columnar_engine(self):
        assert build_pipeline("scalar", {}, {})._columnar is None


class TestStudyEngineEquivalence:
    """The golden acceptance run: a full traced 23-country study per engine."""

    @pytest.fixture(scope="class")
    def full_scalar(self, scenario):
        return run_study(
            scenario, trace=True,
            config=StudyConfig(pipeline=PipelineConfig(engine="scalar")),
        )

    @pytest.fixture(scope="class")
    def full_columnar(self, scenario):
        return run_study(scenario, trace=True)  # columnar is the default

    def test_outcomes_identical_across_engines(self, full_scalar, full_columnar):
        assert_outcomes_identical(full_scalar, full_columnar)

    def test_engine_surfaced_in_metrics(self, full_scalar, full_columnar):
        assert full_scalar.metrics.geoloc_engine == "scalar"
        assert full_columnar.metrics.geoloc_engine == "columnar"
        assert full_scalar.metrics.to_dict()["geoloc_engine"] == "scalar"
        assert " geoloc=columnar " in full_columnar.metrics.render().splitlines()[0] + " "

    def test_verdicts_bit_identical(self, full_scalar, full_columnar):
        # Raw pickle bytes differ across *any* two runs (the memoised
        # ipmap shares claim strings with whichever run came first, and
        # pickle memoises by identity), so byte identity is asserted on
        # a canonical encoding: every field, with floats as bit patterns.
        assert canonical_verdict_bytes(full_scalar.geolocations) == \
            canonical_verdict_bytes(full_columnar.geolocations)

    def test_stripped_journals_byte_identical(self, full_scalar, full_columnar):
        assert full_scalar.journal.dumps(timings=False) == full_columnar.journal.dumps(
            timings=False
        )

    @pytest.mark.parametrize("backend,jobs", [("thread", 4), ("process", 4)])
    def test_scalar_engine_parallel_equivalence(self, scenario, backend, jobs):
        config = StudyConfig(pipeline=PipelineConfig(engine="scalar"))
        serial = run_study(scenario, countries=["CA", "QA", "EG"], config=config)
        parallel = run_study(
            scenario, countries=["CA", "QA", "EG"], config=config,
            jobs=jobs, backend=backend,
        )
        assert parallel.metrics.geoloc_engine == "scalar"
        assert_outcomes_identical(serial, parallel)
