"""Oracle tests for direct traceroute normalisation.

The normaliser (:mod:`repro.core.gamma.normalize`) must be
*byte-identical* to the text interface it replaces, rendering each trace
as its OS tool prints it and parsing the text back, for every structured
trace and both text formats — including unresponsive ``* * *`` hops,
traces that never reach the destination, sub-millisecond ``<1 ms``
tracert cells, and the all-star traces a blocked source produces.  The
renderers and parsers live in ``tests/trace_oracle.py`` (the same
pattern ``tests/filter_oracle.py`` serves for the indexed matcher).

The normaliser takes each responded hop's address verbatim and unpacks
exactly three probe samples; :class:`TestEngineInvariants` pins both
facts over the traces a built scenario's engines emit.
"""

from __future__ import annotations

import ipaddress
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gamma.normalize import (
    normalize_direct,
    normalize_linux,
    normalize_windows,
)
from repro.netsim.geography import default_registry
from repro.netsim.ip import IPSpace
from repro.netsim.latency import LatencyModel
from repro.netsim.traceroute import (
    TracerouteBlocking,
    TracerouteEngine,
    TracerouteHop,
    TracerouteResult,
    probe_rtts,
)
from tests.trace_oracle import (
    parse_traceroute_output,
    raw_traceroute,
    render_linux,
    render_windows,
)

REG = default_registry()
MODEL = LatencyModel()
ALL_CITIES = [city for country in REG.countries for city in country.cities]
_city = st.sampled_from(ALL_CITIES)

_octet = st.integers(min_value=0, max_value=255)
_dotted_quad = st.builds("{}.{}.{}.{}".format, _octet, _octet, _octet, _octet)
#: Sub-millisecond values force tracert's "<1 ms" cells; the probe-level
#: jitter (±0.4 ms) makes values near 1.0 straddle the threshold.
_rtt = st.floats(min_value=0.05, max_value=4000.0, allow_nan=False, allow_infinity=False)


@st.composite
def synthetic_results(draw):
    """Arbitrary structured traces, messier than the engine ever emits.

    ``reached`` is drawn independently of the hop list, so the oracle
    also pins down the parsers' *semantics*: Linux infers reachability
    from the final hop alone, tracert additionally requires the
    "Trace complete." trailer the renderer derives from the flag.
    """
    target = draw(_dotted_quad)
    count = draw(st.integers(min_value=0, max_value=12))
    hops = []
    for index in range(1, count + 1):
        kind = draw(st.sampled_from(["star", "transit", "target"]))
        if kind == "star":
            hops.append(TracerouteHop(index, None, None))
        else:
            address = target if kind == "target" else draw(_dotted_quad)
            hops.append(TracerouteHop(index, address, draw(_rtt)))
    return TracerouteResult(
        target=target,
        source_city=draw(_city),
        reached=draw(st.booleans()),
        hops=hops,
    )


def _engine_with_target(dest_city, unreachable_rate=0.0, blocked=frozenset()):
    space = IPSpace()
    allocation = space.allocate(9, dest_city, label="Org/x1")
    engine = TracerouteEngine(
        MODEL,
        space,
        TracerouteBlocking(
            blocked_source_countries=set(blocked), unreachable_rate=unreachable_rate
        ),
    )
    return engine, str(allocation.address(1))


def _assert_byte_identical(direct, roundtrip):
    assert direct == roundtrip
    # Equality on the dataclasses plus equality of the stored JSON bytes
    # — the form the dataset actually persists.
    assert json.dumps(direct.to_dict()) == json.dumps(roundtrip.to_dict())


class TestSyntheticOracle:
    @settings(max_examples=200, deadline=None)
    @given(synthetic_results())
    def test_linux_direct_equals_roundtrip(self, result):
        _assert_byte_identical(
            normalize_linux(result), parse_traceroute_output(render_linux(result))
        )

    @settings(max_examples=200, deadline=None)
    @given(synthetic_results())
    def test_windows_direct_equals_roundtrip(self, result):
        _assert_byte_identical(
            normalize_windows(result), parse_traceroute_output(render_windows(result))
        )


class TestEngineOracle:
    """The same equivalence over traces the engine actually produces."""

    @settings(max_examples=40, deadline=None)
    @given(_city, _city, st.integers(min_value=0, max_value=9),
           st.sampled_from(["linux", "windows", "darwin"]))
    def test_direct_equals_roundtrip(self, src, dst, key, os_name):
        # 30% unreachable: the sample mixes reached traces with failed
        # ones ending in the trailing all-star tail.
        engine, target = _engine_with_target(dst, unreachable_rate=0.3)
        direct = normalize_direct(engine.trace(src, target, f"k{key}"), os_name)
        roundtrip = parse_traceroute_output(
            raw_traceroute(os_name, engine, src, target, f"k{key}")
        )
        _assert_byte_identical(direct, roundtrip)

    def test_blocked_source_all_star_trace(self, registry):
        src = registry.city("Doha, QA")
        dst = registry.city("Auckland, NZ")
        engine, target = _engine_with_target(dst, blocked={"QA"})
        for os_name in ("linux", "windows"):
            direct = normalize_direct(engine.trace(src, target, "blocked"), os_name)
            roundtrip = parse_traceroute_output(
                raw_traceroute(os_name, engine, src, target, "blocked")
            )
            _assert_byte_identical(direct, roundtrip)
            assert not direct.reached
            assert all(hop.address is None for hop in direct.hops)


class TestNormalizeDirect:
    def test_dispatches_by_os_name(self, registry):
        src = registry.city("Toronto, CA")
        dst = registry.city("Paris, FR")
        engine, target = _engine_with_target(dst)
        result = engine.trace(src, target, "fmt")
        assert normalize_direct(result, "linux").tool == "traceroute"
        assert normalize_direct(result, "windows").tool == "tracert"
        # macOS traceroute prints the Linux layout.
        assert normalize_direct(result, "darwin") == normalize_direct(result, "linux")

    def test_rejects_unknown_os(self, registry):
        src = registry.city("Toronto, CA")
        dst = registry.city("Paris, FR")
        engine, target = _engine_with_target(dst)
        result = engine.trace(src, target, "fmt")
        with pytest.raises(ValueError, match="unsupported OS"):
            normalize_direct(result, "solaris")
        with pytest.raises(ValueError, match="unsupported OS"):
            raw_traceroute("solaris", engine, src, target, "fmt")


def _scenario_traces(scenario):
    """Traces a built scenario's engines emit toward the addresses its
    volunteers' DNS answers name: from every volunteer's city on the
    volunteer engine (blocked sources included) and from each country's
    mesh probe on the Atlas engine."""
    world = scenario.world
    hostnames = world.dns.all_registered_domains()[:40]
    for cc, volunteer in sorted(scenario.volunteers.items()):
        probe, _ = scenario.atlas.mesh.probe_for_country(cc, None)
        for i, hostname in enumerate(hostnames):
            try:
                target = world.dns.resolve(hostname, volunteer.city).address
            except LookupError:
                continue
            yield cc, world.traceroute.trace(volunteer.city, target, f"{cc}:{i}")
            if probe is not None:
                yield cc, scenario.atlas.traceroute(probe, target, f"{cc}:{i}")


class TestEngineInvariants:
    """What the normaliser relies on, over every engine a study runs."""

    def test_responded_hops_are_dotted_quads_with_three_samples(self, scenario):
        blocked = scenario.world.traceroute_blocking.blocked_source_countries
        traces = responded = all_star = 0
        for cc, result in _scenario_traces(scenario):
            traces += 1
            if cc in blocked and not any(hop.responded for hop in result.hops):
                all_star += 1
            for hop in result.hops:
                if not hop.responded:
                    assert hop.probes is None
                    continue
                responded += 1
                # The address is the dotted quad the tools print and the
                # parsers extract: a canonical IPv4 address, verbatim.
                assert str(ipaddress.IPv4Address(hop.address)) == hop.address
                assert len(hop.probes) == 3
                assert len(probe_rtts(hop)) == 3
        assert traces > 1000 and responded > 5000
        # The blocked volunteers' traces really are in the sample.
        assert all_star > 0

    def test_probe_rtts_derives_three_samples_for_hand_built_hops(self):
        hop = TracerouteHop(4, "5.0.0.1", 12.5)
        samples = probe_rtts(hop)
        assert len(samples) == 3
        assert samples == probe_rtts(hop)
