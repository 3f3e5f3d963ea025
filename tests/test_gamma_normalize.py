"""Oracle tests for direct traceroute normalisation.

The probe-layer fast path (:mod:`repro.core.gamma.normalize`) must be
*byte-identical* to the historical render → parse round trip for every
structured trace and both OS text formats — including unresponsive
``* * *`` hops, traces that never reach the destination, sub-millisecond
``<1 ms`` tracert cells, and the all-star traces a blocked source
produces.  The round trip itself stays in the tree as the oracle these
properties compare against (the same pattern ``tests/filter_oracle.py``
serves for the indexed matcher).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.gamma.normalize import (
    normalize_direct,
    normalize_linux,
    normalize_windows,
)
from repro.core.gamma.osadapt import adapter_for
from repro.core.gamma.parsers import parse_traceroute_output
from repro.netsim.geography import default_registry
from repro.netsim.ip import IPSpace
from repro.netsim.latency import LatencyModel
from repro.netsim.traceroute import (
    TracerouteBlocking,
    TracerouteEngine,
    TracerouteHop,
    TracerouteResult,
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
    def test_adapter_direct_equals_roundtrip(self, src, dst, key, os_name):
        # 30% unreachable: the sample mixes reached traces with failed
        # ones ending in the trailing all-star tail.
        engine, target = _engine_with_target(dst, unreachable_rate=0.3)
        adapter = adapter_for(os_name)
        direct = adapter.normalized_traceroute(engine, src, target, f"k{key}")
        roundtrip = parse_traceroute_output(
            adapter.raw_traceroute(engine, src, target, f"k{key}")
        )
        _assert_byte_identical(direct, roundtrip)

    def test_blocked_source_all_star_trace(self, registry):
        src = registry.city("Doha, QA")
        dst = registry.city("Auckland, NZ")
        engine, target = _engine_with_target(dst, blocked={"QA"})
        for os_name in ("linux", "windows"):
            adapter = adapter_for(os_name)
            direct = adapter.normalized_traceroute(engine, src, target, "blocked")
            roundtrip = parse_traceroute_output(
                adapter.raw_traceroute(engine, src, target, "blocked")
            )
            _assert_byte_identical(direct, roundtrip)
            assert not direct.reached
            assert all(hop.address is None for hop in direct.hops)


class TestNormalizeDirect:
    def test_dispatches_by_render_format(self, registry):
        src = registry.city("Toronto, CA")
        dst = registry.city("Paris, FR")
        engine, target = _engine_with_target(dst)
        result = engine.trace(src, target, "fmt")
        assert normalize_direct(result, "linux").tool == "traceroute"
        assert normalize_direct(result, "windows").tool == "tracert"

    def test_rejects_unknown_format(self, registry):
        src = registry.city("Toronto, CA")
        dst = registry.city("Paris, FR")
        engine, target = _engine_with_target(dst)
        result = engine.trace(src, target, "fmt")
        with pytest.raises(ValueError, match="unknown render format"):
            normalize_direct(result, "solaris")
