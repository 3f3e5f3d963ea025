"""The oracle's traceroute text parsers and the normalised record they build."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gamma.parsers import NormalizedHop, NormalizedTraceroute
from repro.netsim.geography import default_registry
from repro.netsim.ip import IPSpace
from repro.netsim.latency import LatencyModel
from repro.netsim.traceroute import TracerouteBlocking, TracerouteEngine
from tests.trace_oracle import (
    parse_linux_traceroute,
    parse_traceroute_output,
    parse_windows_tracert,
    render_linux,
    render_windows,
)

REG = default_registry()

LINUX_SAMPLE = """traceroute to 5.0.0.1 (5.0.0.1), 30 hops max, 60 byte packets
 1  192.168.1.1 (192.168.1.1)  1.123 ms  1.201 ms  1.304 ms
 2  62.10.20.30 (62.10.20.30)  8.412 ms  8.377 ms  8.598 ms
 3  * * *
 4  5.0.0.1 (5.0.0.1)  42.001 ms  41.876 ms  42.313 ms
"""

WINDOWS_SAMPLE = """
Tracing route to 5.0.0.1 over a maximum of 30 hops

   1     1 ms     1 ms     2 ms  192.168.1.1
   2     8 ms     9 ms     8 ms  62.10.20.30
   3     *        *        *     Request timed out.
   4    42 ms    41 ms    42 ms  5.0.0.1

Trace complete.
"""


class TestLinuxParser:
    def test_parses_target_and_hops(self):
        result = parse_linux_traceroute(LINUX_SAMPLE)
        assert result.target == "5.0.0.1"
        assert result.tool == "traceroute"
        assert len(result.hops) == 4

    def test_reached(self):
        assert parse_linux_traceroute(LINUX_SAMPLE).reached

    def test_star_hop(self):
        result = parse_linux_traceroute(LINUX_SAMPLE)
        assert result.hops[2].address is None
        assert result.hops[2].rtt_ms is None

    def test_rtt_median_of_probes(self):
        result = parse_linux_traceroute(LINUX_SAMPLE)
        assert result.hops[0].rtt_ms == pytest.approx(1.201)

    def test_first_last_hop_rtts(self):
        result = parse_linux_traceroute(LINUX_SAMPLE)
        assert result.first_hop_rtt == pytest.approx(1.201)
        assert result.last_hop_rtt == pytest.approx(42.001)

    def test_unreached_when_last_hop_not_target(self):
        truncated = "\n".join(LINUX_SAMPLE.splitlines()[:3]) + "\n"
        assert not parse_linux_traceroute(truncated).reached

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_linux_traceroute("hello world")


class TestWindowsParser:
    def test_parses_target_and_hops(self):
        result = parse_windows_tracert(WINDOWS_SAMPLE)
        assert result.target == "5.0.0.1"
        assert result.tool == "tracert"
        assert len(result.hops) == 4

    def test_reached_requires_trace_complete(self):
        assert parse_windows_tracert(WINDOWS_SAMPLE).reached
        without = WINDOWS_SAMPLE.replace("Trace complete.", "")
        assert not parse_windows_tracert(without).reached

    def test_timed_out_hop(self):
        result = parse_windows_tracert(WINDOWS_SAMPLE)
        assert result.hops[2].address is None

    def test_sub_millisecond_estimate(self):
        text = WINDOWS_SAMPLE.replace("   1     1 ms     1 ms     2 ms  192.168.1.1",
                                      "   1    <1 ms    <1 ms    <1 ms  192.168.1.1")
        result = parse_windows_tracert(text)
        assert result.hops[0].rtt_ms == pytest.approx(0.5)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_windows_tracert("nonsense")


class TestAutodetect:
    def test_detects_linux(self):
        assert parse_traceroute_output(LINUX_SAMPLE).tool == "traceroute"

    def test_detects_windows(self):
        assert parse_traceroute_output(WINDOWS_SAMPLE).tool == "tracert"

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            parse_traceroute_output("PING 1.2.3.4")


class TestNormalizedStructures:
    def test_hop_dict_roundtrip(self):
        hop = NormalizedHop(hop=3, address="1.2.3.4", rtts_ms=(1.0, 2.0, 3.0))
        assert hop.to_dict() == {"hop": 3, "ip": "1.2.3.4", "rtt_ms": [1.0, 2.0, 3.0]}

    def test_trace_dict_roundtrip(self):
        original = parse_linux_traceroute(LINUX_SAMPLE)
        back = NormalizedTraceroute.from_dict(original.to_dict())
        assert back.target == original.target
        assert back.reached == original.reached
        assert [h.rtt_ms for h in back.hops] == [h.rtt_ms for h in original.hops]


class TestCrossOSEquivalence:
    """Both renderings of the same trace normalise to the same structure.

    This is the heart of Gamma's portability claim: hop count, hop
    reachability and RTTs (to rounding) agree regardless of which OS tool
    produced the text.
    """

    def _engine(self):
        space = IPSpace()
        allocation = space.allocate(1, REG.city("Frankfurt, DE"), label="X/fra1")
        engine = TracerouteEngine(LatencyModel(), space, TracerouteBlocking(unreachable_rate=0.0))
        return engine, str(allocation.address(1))

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(["London, GB", "Bangkok, TH", "Kigali, RW", "Auckland, NZ"]),
           st.integers(min_value=0, max_value=5))
    def test_normalised_equivalence(self, city_key, key):
        engine, target = self._engine()
        trace = engine.trace(REG.city(city_key), target, f"k{key}")
        from_linux = parse_linux_traceroute(render_linux(trace))
        from_windows = parse_windows_tracert(render_windows(trace))
        assert from_linux.target == from_windows.target == target
        assert from_linux.reached == from_windows.reached
        assert len(from_linux.hops) == len(from_windows.hops)
        for linux_hop, windows_hop in zip(from_linux.hops, from_windows.hops):
            assert (linux_hop.address is None) == (windows_hop.address is None)
            if linux_hop.rtt_ms is not None and linux_hop.rtt_ms >= 1.0:
                # tracert prints integer milliseconds.
                assert abs(linux_hop.rtt_ms - windows_hop.rtt_ms) <= 1.0
