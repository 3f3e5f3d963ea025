"""Cross-module property-based tests on the method's core invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.geoloc.constraints import (
    ConstraintStatus,
    ReverseDNSConstraint,
    SourceConstraint,
    adjusted_latency_ms,
)
from repro.core.geoloc.latency_stats import SyntheticStatsProvider
from repro.netsim.distance import city_distance_km, min_rtt_ms
from repro.netsim.geography import default_registry
from repro.netsim.geohints import CITY_HINT_CODES
from repro.netsim.ip import IPSpace
from repro.netsim.latency import LatencyModel
from repro.netsim.traceroute import TracerouteBlocking, TracerouteEngine
from tests.trace_oracle import (
    parse_linux_traceroute,
    parse_windows_tracert,
    render_linux,
    render_windows,
)

REG = default_registry()
MODEL = LatencyModel()
ALL_CITIES = [city for country in REG.countries for city in country.cities]
_city = st.sampled_from(ALL_CITIES)
_city_key = st.sampled_from(sorted(CITY_HINT_CODES))


def _engine_with_target(dest_city):
    space = IPSpace()
    allocation = space.allocate(9, dest_city, label="Org/x1")
    engine = TracerouteEngine(MODEL, space, TracerouteBlocking(unreachable_rate=0.0))
    return engine, str(allocation.address(1))


class TestTracerouteRoundtripProperties:
    @settings(max_examples=30, deadline=None)
    @given(_city, _city, st.integers(min_value=0, max_value=9))
    def test_both_renderings_parse_back_consistently(self, src, dst, key):
        engine, target = _engine_with_target(dst)
        trace = engine.trace(src, target, f"p{key}")
        linux = parse_linux_traceroute(render_linux(trace))
        windows = parse_windows_tracert(render_windows(trace))
        assert linux.reached == windows.reached == trace.reached
        assert len(linux.hops) == len(trace.hops)
        # Adjusted latency agrees to tracert's integer-ms rounding.
        linux_adj = adjusted_latency_ms(linux)
        windows_adj = adjusted_latency_ms(windows)
        if linux_adj is not None and windows_adj is not None and linux_adj > 5:
            assert abs(linux_adj - windows_adj) <= 2.0


class TestSourceConstraintProperties:
    """The constraint can never discard a *truthful* claim that used
    accurate statistics: physics guarantees observed >= floor, and — for
    pairs whose typical RTT dominates the local-network term — the
    adjusted latency stays above 80 % of typical.

    The adjustment subtracts the gateway hop (up to 3 ms, plus up to
    0.4 ms of per-probe sampling on each end), so for very close pairs
    (typical RTT under 5 × that ~3.8 ms bound, e.g. Brussels–Paris)
    a truthful claim *can* legitimately dip below the 80 % floor — the
    conservative rule trades those for certainty elsewhere, so the
    property is only claimed where the bound holds."""

    #: Worst case removed by the adjustment: 3.0 ms gateway + 2 × 0.4 ms
    #: probe-sample median offset, over the 20 % margin the rule allows.
    MIN_TYPICAL_RTT_MS = (3.0 + 2 * 0.4) / 0.2

    @settings(max_examples=30, deadline=None)
    @given(_city, _city, st.integers(min_value=0, max_value=9))
    def test_truthful_claims_survive(self, src, dst, key):
        if src.key == dst.key:
            return
        if MODEL.typical_rtt_ms(src, dst) < self.MIN_TYPICAL_RTT_MS:
            return
        engine, target = _engine_with_target(dst)
        trace = engine.trace(src, target, f"k{key}")
        linux = parse_linux_traceroute(render_linux(trace))
        stats = SyntheticStatsProvider("exact", MODEL, noise_range=(1.0, 1.0))
        constraint = SourceConstraint(stats, 0.8)
        result = constraint.check(linux, src, dst)
        assert result.passed, (src.key, dst.key, result.reason)

    @settings(max_examples=30, deadline=None)
    @given(_city, _city, _city, st.integers(min_value=0, max_value=4))
    def test_sol_never_flags_physically_reachable_claims(self, src, truth, claim, key):
        """A claim *nearer* than the truth always satisfies SOL (it can
        only be caught by the 80 % rule or other constraints)."""
        if city_distance_km(src, claim) > city_distance_km(src, truth):
            return
        engine, target = _engine_with_target(truth)
        trace = engine.trace(src, target, f"k{key}")
        observed = adjusted_latency_ms(parse_linux_traceroute(render_linux(trace)))
        floor = min_rtt_ms(city_distance_km(src, claim))
        # Gateway subtraction removes at most ~3 ms.
        assert observed >= floor - 3.0


class TestReverseDNSProperties:
    @settings(max_examples=60)
    @given(_city_key, st.integers(min_value=1, max_value=99))
    def test_truthful_hint_never_rejected(self, city_key, serial):
        code = CITY_HINT_CODES[city_key]
        hostname = f"edge-{serial}.{code}01.example.net"
        claim = REG.city(city_key)
        result = ReverseDNSConstraint().check(hostname, claim)
        assert result.status == ConstraintStatus.PASS

    @settings(max_examples=60)
    @given(_city_key, _city_key)
    def test_cross_country_hint_always_rejected(self, hint_key, claim_key):
        hint_country = hint_key.rsplit(", ", 1)[-1]
        claim_country = claim_key.rsplit(", ", 1)[-1]
        if hint_country == claim_country:
            return
        code = CITY_HINT_CODES[hint_key]
        result = ReverseDNSConstraint().check(f"a.{code}02.x.net", REG.city(claim_key))
        assert result.failed


class TestLatencyStatsProperties:
    @settings(max_examples=40)
    @given(_city, _city)
    def test_published_stats_bounded_by_noise_envelope(self, a, b):
        provider = SyntheticStatsProvider("w", MODEL, noise_range=(0.85, 1.25))
        published = provider.published_rtt_ms(a, b)
        typical = MODEL.typical_rtt_ms(a, b)
        if a.key == b.key:
            return
        assert 0.85 * typical - 0.1 <= published <= 1.25 * typical + 0.1

    @settings(max_examples=40)
    @given(_city, _city)
    def test_published_stats_respect_physics(self, a, b):
        provider = SyntheticStatsProvider("w", MODEL, noise_range=(0.9, 1.2))
        published = provider.published_rtt_ms(a, b)
        # Published long-run statistics can never beat the speed of light
        # either (noise floor 0.9 over an inflated-by->=1.25 base).
        assert published >= min_rtt_ms(city_distance_km(a, b)) * 0.9
