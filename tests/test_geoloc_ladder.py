"""The geolocation constraint ladder against an un-memoised reference.

``GeolocationPipeline`` evaluates the section-4.1 battery one address at
a time, reading its anchors — SOL floors, the 80 %-rule floor, the
claimed country's probe, the strict ceiling — from a per-claimed-city
table it fills once.  The contract: memoising anchors changes nothing.
For any batch the pipeline must return exactly the verdicts a compact
reference ladder returns when it builds fresh constraint instances for
every address and computes every anchor on the spot — same
dataclasses, same evidence floats, same funnel movement, same order,
same pickled bytes.  The suite attacks that contract from four sides:

* **Property-based batches** — hypothesis generates adversarial server
  batches (unlocated/local/foreign claims, missing/unreached/zero-hop
  traceroutes, contradicting PTR records) under every constraint-toggle
  configuration.
* **Exact boundaries** — observed RTTs exactly at (and one ulp past)
  the SOL floor, the 80 %-rule floor and the strict destination
  ceiling, where a single float discrepancy would flip a verdict.
* **Warm tables** — a pipeline whose table was filled by earlier
  batches, or that crossed a pickle, classifies like a fresh one.
* **Study level** — serial, thread and process runs agree.

Stub services live at module level so pipelines stay picklable — the
same property the process-pool backend relies on.
"""

from __future__ import annotations

import math
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import run_study
from repro.atlas.probes import Probe
from repro.core.gamma.parsers import NormalizedHop, NormalizedTraceroute
from repro.core.geoloc.constraints import (
    DestinationConstraint,
    ReverseDNSConstraint,
    SourceConstraint,
    sol_floor_ms,
    source_latency_floor_ms,
)
from repro.core.geoloc.latency_stats import SyntheticStatsProvider
from repro.core.geoloc.validation import (
    calibrate_against_truth,
    misclassified_servers,
    validate_against_truth,
)
from repro.core.geoloc.pipeline import (
    FunnelCounters,
    GeolocationPipeline,
    PipelineConfig,
    ServerStatus,
    ServerVerdict,
    SourceTraces,
)
from repro.geodb.ipmap import GeoClaim
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
#: Nairobi, Marseille), claims in the probe's own city (Marseille,
#: Dubai) and claims whose probe sits in a *different* city of the
#: claimed country (Paris and Al Fujairah City) — so two claimed cities
#: share each of the FR and AE probes with different anchors.
CLAIM_KEYS = [
    "Paris, FR",
    "Marseille, FR",
    "Tokyo, JP",
    "Auckland, NZ",
    "Nairobi, KE",
    "New York, US",
    "Dubai, AE",
    "Al Fujairah City, AE",
]

#: A second vantage for warm-table checks: a FR volunteer in Paris.
OTHER_VANTAGE = ("FR", REG.city("Paris, FR"))

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
    "ladder-test",
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
        self.lookups = 0

    def probe_for_country(self, country_code, near_city=None):
        self.lookups += 1
        return self._probes.get(country_code), country_code


class StubAtlas:
    """Fixed destination traces keyed by target address."""

    def __init__(self, mesh, traces):
        self.mesh = mesh
        self._traces = traces

    def dest_traceroute(self, probe, address):
        return self._traces[address]


class CountingStats:
    """STATS, counting published-statistics lookups."""

    def __init__(self):
        self.lookups = 0

    def published_rtt_ms(self, a, b):
        self.lookups += 1
        return STATS.published_rtt_ms(a, b)


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

BATCH = st.lists(ADDRESS_SPEC, min_size=0, max_size=25)

#: Constraint-toggle grid: the ladder must match the reference under
#: every configuration, not just the study default.
CONFIG_GRID = [
    {},
    {"strict_destination_bound": True},
    {"enable_source": False},
    {"enable_destination": False},
    {"enable_rdns": False},
    {"conservative_threshold": 1.0, "strict_destination_bound": True},
]

_CONFIG_IDS = [",".join(kw) or "default" for kw in CONFIG_GRID]


def build_batch(specs, first_index=0):
    """Expand hypothesis specs into the classify_addresses inputs."""
    claims, addresses, src_traces, dest_traces, rdns = {}, {}, {}, {}, {}
    for i, spec in enumerate(specs, first_index):
        address = f"198.51.{i // 250}.{i % 250 + 1}"
        if spec["claim"] == "local":
            claims[address] = GeoClaim(address, SOURCE_CITY)
        elif spec["claim"] != "unlocated":
            claims[address] = GeoClaim(address, REG.city(spec["claim"]))
        addresses[address] = [f"host-{i}-{h}.example.net" for h in range(spec["hosts"])]
        source = spec["source"]
        trace = make_trace(*source, target=address) if source[0] != "ok" \
            else make_trace("ok", source[1], source[2], target=address)
        if trace is not None:
            src_traces[address] = trace
        dest = spec["dest"]
        dest_traces[address] = make_trace(*dest, target=address) if dest[0] != "ok" \
            else make_trace("ok", dest[1], dest[2], target=address)
        if spec["rdns"] is not None:
            rdns[address] = spec["rdns"]
    return claims, addresses, src_traces, dest_traces, rdns


def build_pipeline(claims, dest_traces, stats=STATS, mesh=None, **config_kwargs):
    return GeolocationPipeline(
        ipmap=StubIPMap(claims),
        atlas=StubAtlas(mesh or StubMesh(PROBES), dest_traces),
        stats=stats,
        latency=MODEL,
        config=PipelineConfig(**config_kwargs),
    )


def classify(pipeline, addresses, src_traces, rdns,
             vantage=(MEASUREMENT_COUNTRY, SOURCE_CITY)):
    country, city = vantage
    funnel = FunnelCounters()
    verdicts = pipeline.classify_addresses(
        addresses, country, SourceTraces(city=city, traces=src_traces), rdns, funnel,
    )
    return verdicts, funnel


def reference_ladder(claims, addresses, src_traces, dest_traces, rdns, **config_kwargs):
    """Section 4.1 per address, with fresh constraints and no memo."""
    config = PipelineConfig(**config_kwargs)
    funnel = FunnelCounters()
    verdicts = {}
    for address, hosts in addresses.items():
        claim = claims.get(address)
        if claim is None:
            verdicts[address] = ServerVerdict(address, hosts, ServerStatus.UNLOCATED)
            continue
        if claim.country_code == MEASUREMENT_COUNTRY:
            verdicts[address] = ServerVerdict(address, hosts, ServerStatus.LOCAL, claim)
            continue
        checks = []

        def decided():
            return bool(checks) and checks[-1].failed

        if config.enable_source:
            source = SourceConstraint(STATS, config.conservative_threshold)
            checks.append(source.check(src_traces.get(address), SOURCE_CITY, claim.city))
        if config.enable_destination and not decided():
            destination = DestinationConstraint(
                MODEL, config.max_inflation, config.destination_slack_ms,
                strict_bound=config.strict_destination_bound,
            )
            probe = PROBES.get(claim.country_code)
            if probe is None:
                checks.append(destination.check(None, None, claim.city))
            else:
                funnel.destination_traceroutes += 1
                checks.append(destination.check(
                    dest_traces[address], probe.city, claim.city))
        if config.enable_rdns and not decided():
            checks.append(ReverseDNSConstraint().check(rdns.get(address), claim.city))
        if decided():
            verdicts[address] = ServerVerdict(
                address, hosts, ServerStatus.DISCARDED, claim,
                discarded_by=checks[-1].constraint, checks=checks,
            )
        else:
            verdicts[address] = ServerVerdict(
                address, hosts, ServerStatus.NONLOCAL_VERIFIED, claim, checks=checks,
            )
    return verdicts, funnel


def assert_batches_identical(expected, actual):
    """Field-by-field and byte-level equality of two classify results."""
    expected_verdicts, expected_funnel = expected
    actual_verdicts, actual_funnel = actual
    assert list(expected_verdicts) == list(actual_verdicts)  # order too
    for address, want in expected_verdicts.items():
        got = actual_verdicts[address]
        assert want == got, address
        for check in got.checks:
            for value in (check.observed_ms, check.expected_ms):
                assert value is None or type(value) is float, address
    assert expected_funnel == actual_funnel
    assert pickle.dumps(expected_verdicts) == pickle.dumps(actual_verdicts)


class TestLadderAgainstReference:
    @pytest.mark.parametrize("config_kwargs", CONFIG_GRID, ids=_CONFIG_IDS)
    @given(specs=BATCH)
    @settings(max_examples=25, deadline=None)
    def test_generated_batches(self, config_kwargs, specs):
        claims, addresses, src_traces, dest_traces, rdns = build_batch(specs)
        pipeline = build_pipeline(claims, dest_traces, **config_kwargs)
        assert_batches_identical(
            reference_ladder(claims, addresses, src_traces, dest_traces, rdns,
                             **config_kwargs),
            classify(pipeline, addresses, src_traces, rdns),
        )

    @pytest.mark.parametrize(
        "config_kwargs", [{}, {"strict_destination_bound": True}],
        ids=["default", "strict"],
    )
    @given(first=BATCH, second=BATCH)
    @settings(max_examples=15, deadline=None)
    def test_warm_pipeline_equals_fresh(self, config_kwargs, first, second):
        claims_a, addresses_a, src_a, dest_a, rdns_a = build_batch(first)
        claims_b, addresses_b, src_b, dest_b, rdns_b = build_batch(
            second, first_index=len(first)
        )
        claims = {**claims_a, **claims_b}
        dest_traces = {**dest_a, **dest_b}
        warm = build_pipeline(claims, dest_traces, **config_kwargs)
        classify(warm, addresses_a, src_a, rdns_a)  # fills the anchor table
        # Same vantage as the warming batch, then another one: anchors
        # must be keyed by vantage as well as by claimed city.
        for vantage in ((MEASUREMENT_COUNTRY, SOURCE_CITY), OTHER_VANTAGE):
            fresh = build_pipeline(claims, dest_traces, **config_kwargs)
            assert_batches_identical(
                classify(fresh, addresses_b, src_b, rdns_b, vantage),
                classify(warm, addresses_b, src_b, rdns_b, vantage),
            )

    @given(specs=st.lists(ADDRESS_SPEC, min_size=1, max_size=15))
    @settings(max_examples=10, deadline=None)
    def test_pipeline_survives_pickling(self, specs):
        claims, addresses, src_traces, dest_traces, rdns = build_batch(specs)
        pipeline = build_pipeline(claims, dest_traces, confidence=True)
        cold_clone = pickle.loads(pickle.dumps(pipeline))
        original = classify(pipeline, addresses, src_traces, rdns)
        warm_clone = pickle.loads(pickle.dumps(pipeline))
        # Equality, not pickle-byte equality: the clones' claims were
        # unpickled, so the identity sharing pickle memoises differs
        # even though every value is equal.
        for clone in (cold_clone, warm_clone):
            assert classify(clone, addresses, src_traces, rdns) == original

    def test_removed_engine_selector(self):
        with pytest.raises(TypeError):
            PipelineConfig(engine="scalar")


class TestAnchorTable:
    def test_anchors_computed_once_per_claimed_city(self):
        paris, tokyo = REG.city("Paris, FR"), REG.city("Tokyo, JP")
        claims, addresses, src_traces, dest_traces = {}, {}, {}, {}
        for i in range(40):
            address = f"203.0.113.{i + 1}"
            claims[address] = GeoClaim(address, paris if i % 2 else tokyo)
            addresses[address] = [f"h{i}.example.net"]
            src_traces[address] = make_trace("ok", None, 390.0, target=address)
            dest_traces[address] = make_trace("ok", None, 390.0, target=address)
        stats, mesh = CountingStats(), StubMesh(PROBES)
        pipeline = build_pipeline(claims, dest_traces, stats=stats, mesh=mesh)
        verdicts, funnel = classify(pipeline, addresses, src_traces, {})
        assert {v.status for v in verdicts.values()} == {ServerStatus.NONLOCAL_VERIFIED}
        assert funnel.destination_traceroutes == 40
        assert (stats.lookups, mesh.lookups) == (2, 2)
        classify(pipeline, addresses, src_traces, {})
        assert (stats.lookups, mesh.lookups) == (2, 2)  # warm: no recompute

    def test_cities_sharing_a_probe_keep_their_own_anchors(self):
        # Marseille and Paris claims are both probed from Marseille; the
        # Paris claim's RTT is one ulp below its own SOL floor, which is
        # far above the Marseille claim's (zero) floor.
        marseille, paris = REG.city("Marseille, FR"), REG.city("Paris, FR")
        paris_sol = sol_floor_ms(PROBES["FR"].city, paris)
        claims = {
            "203.0.113.1": GeoClaim("203.0.113.1", marseille),
            "203.0.113.2": GeoClaim("203.0.113.2", paris),
        }
        rtt = math.nextafter(paris_sol, 0.0)
        dest_traces = {a: make_trace("ok", None, rtt, target=a) for a in claims}
        pipeline = build_pipeline(claims, dest_traces, enable_source=False)
        verdicts, _ = classify(pipeline, {a: [a] for a in claims}, {}, {})
        assert verdicts["203.0.113.1"].discarded_by == ""
        paris_check = verdicts["203.0.113.2"].checks[0]
        assert verdicts["203.0.113.2"].discarded_by == "destination"
        assert paris_check.expected_ms == paris_sol

    def test_anchors_are_keyed_by_vantage(self):
        # One Tokyo claim judged from London, then from Paris, with an
        # RTT one ulp below the Paris -> Tokyo SOL floor (which is above
        # London's): only the Paris judgement is a SOL violation.
        tokyo = REG.city("Tokyo, JP")
        _, paris = OTHER_VANTAGE
        paris_sol = sol_floor_ms(paris, tokyo)
        assert sol_floor_ms(SOURCE_CITY, tokyo) < paris_sol
        address = "203.0.113.1"
        trace = make_trace("ok", None, math.nextafter(paris_sol, 0.0), target=address)
        pipeline = build_pipeline(
            {address: GeoClaim(address, tokyo)}, {address: trace},
        )
        batch = ({address: [address]}, {address: trace}, {})
        from_london = classify(pipeline, *batch)[0][address].checks[0]
        from_paris = classify(pipeline, *batch, OTHER_VANTAGE)[0][address].checks[0]
        assert "speed-of-light" not in from_london.reason
        assert "speed-of-light" in from_paris.reason
        assert from_paris.expected_ms == paris_sol

    def test_disabled_destination_launches_nothing(self):
        paris = REG.city("Paris, FR")
        address = "203.0.113.1"
        mesh = StubMesh(PROBES)
        pipeline = build_pipeline(
            {address: GeoClaim(address, paris)}, {}, mesh=mesh,
            enable_destination=False,
        )
        verdicts, funnel = classify(
            pipeline, {address: ["h.example.net"]},
            {address: make_trace("ok", None, 390.0, target=address)}, {},
        )
        assert [c.constraint for c in verdicts[address].checks] == ["source", "rdns"]
        assert funnel.destination_traceroutes == 0
        assert mesh.lookups == 0


class TestExactBoundaries:
    """Batches pinned to the exact comparison boundaries of every rule."""

    def boundary_batch(self):
        """Addresses whose observed RTTs sit exactly on (or one ulp past)
        the SOL floor, the 80 %-rule floor and the strict destination
        ceiling for a London -> Paris claim."""
        paris = REG.city("Paris, FR")
        sol = sol_floor_ms(SOURCE_CITY, paris)
        floor = source_latency_floor_ms(0.8, STATS.published_rtt_ms(SOURCE_CITY, paris))
        probe = PROBES["FR"]
        dest_sol = sol_floor_ms(probe.city, paris)
        bound = DestinationConstraint(MODEL).plausible_rtt_bound_ms(probe.city, paris)
        specs = {
            "at-sol": (sol, None),
            "below-sol": (math.nextafter(sol, 0.0), None),
            "at-floor": (floor, None),
            "below-floor": (math.nextafter(floor, 0.0), None),
            "dest-at-sol": (floor, dest_sol),
            "dest-below-sol": (floor, math.nextafter(dest_sol, 0.0)),
            "dest-at-bound": (floor, bound),
            "dest-above-bound": (floor, math.nextafter(bound, math.inf)),
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

    def verdicts_by_label(self, **config_kwargs):
        claims, addresses, src_traces, dest_traces = self.boundary_batch()
        verdicts, _ = classify(
            build_pipeline(claims, dest_traces, **config_kwargs),
            addresses, src_traces, {},
        )
        return {v.hosts[0].split(".")[0]: v for v in verdicts.values()}

    @pytest.mark.parametrize("config_kwargs", CONFIG_GRID, ids=_CONFIG_IDS)
    def test_ladder_matches_reference_at_thresholds(self, config_kwargs):
        claims, addresses, src_traces, dest_traces = self.boundary_batch()
        assert_batches_identical(
            reference_ladder(claims, addresses, src_traces, dest_traces, {},
                             **config_kwargs),
            classify(build_pipeline(claims, dest_traces, **config_kwargs),
                     addresses, src_traces, {}),
        )

    def test_boundary_semantics(self):
        """Pin the rules themselves: equality passes, one ulp past fails."""
        by_label = self.verdicts_by_label()
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
        # Without the strict bound no RTT is too high.
        for label in ("at-floor", "dest-at-sol", "dest-at-bound", "dest-above-bound"):
            assert by_label[label].discarded_by == "", label

    def test_strict_bound_semantics(self):
        by_label = self.verdicts_by_label(strict_destination_bound=True)
        assert by_label["dest-at-bound"].discarded_by == ""
        above = by_label["dest-above-bound"]
        assert above.discarded_by == "destination"
        check = above.checks[1]
        assert "too high" in check.reason
        assert check.observed_ms == math.nextafter(check.expected_ms, math.inf)

    def test_disabled_source_lets_fast_claims_through(self):
        by_label = self.verdicts_by_label(enable_source=False)
        for label in ("below-sol", "below-floor", "at-sol"):
            assert by_label[label].discarded_by == "", label
            assert [c.constraint for c in by_label[label].checks] == [
                "destination", "rdns",
            ]
        assert by_label["dest-below-sol"].discarded_by == "destination"


class TestStudyBackends:
    """One engine, every backend: serial, thread and process agree."""

    COUNTRIES = ["CA", "QA", "EG"]
    CONFIG = StudyConfig(pipeline=PipelineConfig(confidence=True))

    @pytest.fixture(scope="class")
    def serial(self, scenario):
        return run_study(
            scenario, countries=self.COUNTRIES, trace=True, config=self.CONFIG,
        )

    @pytest.mark.parametrize("backend,jobs", [("thread", 4), ("process", 4)])
    def test_parallel_outcomes_equal_serial(self, scenario, serial, backend, jobs):
        parallel = run_study(
            scenario, countries=self.COUNTRIES, trace=True, config=self.CONFIG,
            jobs=jobs, backend=backend,
        )
        # Verdict equality covers the confidence scores too.
        assert_outcomes_identical(serial, parallel)
        assert serial.journal.dumps(timings=False) == parallel.journal.dumps(
            timings=False
        )
        truth = scenario.world
        assert validate_against_truth(truth, parallel.geolocations) == \
            validate_against_truth(truth, serial.geolocations)
        assert calibrate_against_truth(truth, parallel.geolocations) == \
            calibrate_against_truth(truth, serial.geolocations)
        assert misclassified_servers(truth, parallel.geolocations) == []


def test_study_never_imports_numpy():
    """The package runs on the standard library alone."""
    src = Path(__file__).resolve().parents[1] / "src"
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import repro.cli\n"
        "from repro import build_scenario, run_study\n"
        "run_study(build_scenario(), countries=['CA']).funnel()\n"
        "print('numpy' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        check=True, timeout=300,
    )
    assert result.stdout.strip() == "False"
