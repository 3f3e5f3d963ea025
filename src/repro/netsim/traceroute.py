"""Traceroute synthesis.

The engine produces a structured :class:`TracerouteResult` for a trace
from a city to an IP: the hops a ``traceroute`` / ``tracert`` run would
print, with three per-probe RTT samples each, unresponsive ``*`` hops
and traces that never reach the destination.  Gamma's normaliser
(:mod:`repro.core.gamma.normalize`) turns a result into the record each
OS tool's printout would normalise to, reproducing that tool's printed
quantisation; ``tests/trace_oracle.py`` holds the text renderers and
parsers it is proven equal to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.determinism import stable_draw_rng, stable_rng
from repro.netsim.geography import City
from repro.netsim.ip import IPSpace
from repro.netsim.latency import LatencyModel
from repro.netsim.routing import path_fractions

__all__ = [
    "TracerouteHop",
    "TracerouteResult",
    "TracerouteBlocking",
    "TracerouteEngine",
    "probe_rtts",
]


@dataclass(frozen=True, slots=True)
class TracerouteHop:
    """One TTL step.  ``address is None`` renders as ``*`` probes.

    ``probes`` holds the three per-probe RTT samples the tool observed.
    The engine always fills it.  Its gateway and destination hops carry
    the samples :func:`probe_rtts` would derive from the hop itself, but
    its transit hops carry samples only the engine can produce (drawn
    from the trace's generator, see :func:`_transit_hop`).  Hops built
    without it (tests, hand-rolled traces) have theirs derived lazily by
    :func:`probe_rtts`.
    """

    index: int
    address: Optional[str]
    rtt_ms: Optional[float]
    #: Not part of equality/repr, which stay on the three identity fields.
    probes: Optional[tuple] = field(default=None, compare=False, repr=False)

    @property
    def responded(self) -> bool:
        return self.address is not None


@dataclass
class TracerouteResult:
    """A completed (or abandoned) trace."""

    target: str
    source_city: City
    reached: bool
    hops: List[TracerouteHop] = field(default_factory=list)

    @property
    def first_hop_rtt(self) -> Optional[float]:
        for hop in self.hops:
            if hop.responded:
                return hop.rtt_ms
        return None

    @property
    def last_hop_rtt(self) -> Optional[float]:
        for hop in reversed(self.hops):
            if hop.responded:
                return hop.rtt_ms
        return None

    @property
    def destination_rtt(self) -> Optional[float]:
        """RTT to the destination itself, only when the trace got there."""
        if not self.reached or not self.hops:
            return None
        last = self.hops[-1]
        return last.rtt_ms if last.address == self.target else None


@dataclass
class TracerouteBlocking:
    """Failure policy.

    *blocked_source_countries* reproduces the paper's observation that
    traceroute probes failed entirely from Australia, India, Qatar and
    Jordan (cause unknown — likely local filtering).  *unreachable_rate*
    is the background probability that any given destination never answers
    the final probes.
    """

    blocked_source_countries: Set[str] = field(default_factory=set)
    unreachable_rate: float = 0.06

    def source_blocked(self, country_code: str) -> bool:
        return country_code in self.blocked_source_countries

    def destination_unreachable(self, source_key: str, target: str) -> bool:
        return stable_draw_rng("trace-unreach", source_key, target).random() < self.unreachable_rate


class TracerouteEngine:
    """Produces hop-by-hop traces consistent with the latency model."""

    _GATEWAY = "192.168.1.1"
    _HOP_LOSS = 0.12  # chance an intermediate router ignores probes

    def __init__(
        self,
        latency: LatencyModel,
        ipspace: IPSpace,
        blocking: Optional[TracerouteBlocking] = None,
    ):
        self._latency = latency
        self._ipspace = ipspace
        self._blocking = blocking or TracerouteBlocking()

    @property
    def blocking(self) -> TracerouteBlocking:
        return self._blocking

    def trace(self, source_city: City, target_ip: str, measurement_key: str = "") -> TracerouteResult:
        if self._blocking.source_blocked(source_city.country_code):
            # Nothing leaves the host, so nothing is drawn.
            return self._failed_trace(source_city, target_ip, None, hops_before_loss=0)
        rng = stable_rng("trace", source_city.key, target_ip, measurement_key)

        destination_city = self._ipspace.true_city(target_ip)
        if destination_city is None or self._blocking.destination_unreachable(
            source_city.key, target_ip
        ):
            return self._failed_trace(source_city, target_ip, rng, hops_before_loss=rng.randint(3, 9))

        total_rtt = self._latency.rtt_ms(source_city, destination_city, measurement_key)
        hops = self._build_hops(source_city, destination_city, target_ip, total_rtt, measurement_key, rng)
        return TracerouteResult(
            target=target_ip, source_city=source_city, reached=True, hops=hops
        )

    def _build_hops(
        self,
        source_city: City,
        destination_city: City,
        target_ip: str,
        total_rtt: float,
        measurement_key: str,
        rng,
    ) -> List[TracerouteHop]:
        hops: List[TracerouteHop] = []
        # Hop 1: the volunteer's home gateway.
        gateway_rtt = rng.uniform(0.4, 3.0)
        hops.append(_responded_hop(1, self._GATEWAY, round(gateway_rtt, 3)))
        # Hop 2: the access ISP's first router; carries the local penalty.
        access_rtt = gateway_rtt + self._latency.access_penalty(source_city) * rng.uniform(0.7, 1.2)
        hops.append(_transit_hop(2, round(access_rtt, 3), rng.random()))

        propagation_budget = max(0.0, total_rtt - access_rtt - 1.0)
        previous_rtt = access_rtt
        for fraction in path_fractions(source_city, destination_city, measurement_key):
            index = len(hops) + 1
            if rng.random() < self._HOP_LOSS:
                hops.append(TracerouteHop(index, None, None))
                continue
            rtt = access_rtt + propagation_budget * fraction
            rtt = max(previous_rtt + 0.05, rtt)  # keep the profile monotone
            previous_rtt = rtt
            hops.append(_transit_hop(index, round(rtt, 3), rng.random()))
        hops.append(_responded_hop(len(hops) + 1, target_ip, round(max(previous_rtt + 0.05, total_rtt), 3)))
        return hops

    def _failed_trace(
        self, source_city: City, target_ip: str, rng, hops_before_loss: int
    ) -> TracerouteResult:
        hops: List[TracerouteHop] = []
        if hops_before_loss > 0:
            hops.append(_responded_hop(1, self._GATEWAY, round(rng.uniform(0.4, 3.0), 3)))
            previous = hops[0].rtt_ms or 1.0
            for i in range(2, hops_before_loss + 1):
                previous = previous + rng.uniform(0.5, 12.0)
                hops.append(_transit_hop(i, round(previous, 3), rng.random()))
        start = len(hops) + 1
        for i in range(start, start + 5):  # trailing all-star hops, then give up
            hops.append(TracerouteHop(i, None, None))
        return TracerouteResult(target=target_ip, source_city=source_city, reached=False, hops=hops)


#: splitmix64 (Steele, Lea & Flood 2014): its Weyl increment and the two
#: multipliers of its output finaliser.
_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
#: ``random()`` draws are multiples of 2**-53; scaling by 2**53 is exact.
_TWO_53 = float(1 << 53)
#: Each probe's noise is a 21-bit field: steps of 0.8 ms / 2**21 (under
#: 1 ns), far finer than the 1 µs the Linux tool prints.
_NOISE_BITS = 21
_NOISE_MASK = (1 << _NOISE_BITS) - 1
_NOISE_STEP = 0.8 / (1 << _NOISE_BITS)


def _splitmix64(n: int) -> int:
    """The *n*-th output of splitmix64 started from state 0 (pure integers)."""
    z = (n * _GOLDEN_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _transit_hop(index: int, rtt_ms: float, u: float) -> TracerouteHop:
    """A responded transit-router hop whose address and samples come from *u*.

    *u* is the one ``random()`` draw the trace's own generator spends on
    the hop.  Integer mixing of it stands in for a reseeded generator:
    the paper's latency constraints read only whether a trace reached its
    target and its first (gateway) and last (destination) hops, so
    transit hops need plausible values, not a SHA-256 seed each.  The
    address is a ``62.a.b.c`` router outside the served space (octets
    0–255, 0–255, 1–254); each probe sample is
    ``max(0.05, rtt_ms + U(-0.4, 0.4))``, as for every other hop.
    """
    n = int(u * _TWO_53) << 1
    bits = _splitmix64(n + 1)
    address = f"62.{bits & 255}.{(bits >> 8) & 255}.{1 + (bits >> 16) % 254}"
    noise = _splitmix64(n + 2)
    return TracerouteHop(index, address, rtt_ms, (
        max(0.05, rtt_ms + ((noise & _NOISE_MASK) * _NOISE_STEP - 0.4)),
        max(0.05, rtt_ms + (((noise >> _NOISE_BITS) & _NOISE_MASK) * _NOISE_STEP - 0.4)),
        max(0.05, rtt_ms + (((noise >> (2 * _NOISE_BITS)) & _NOISE_MASK) * _NOISE_STEP - 0.4)),
    ))


def _sample_probe_rtts(index: int, address: str, rtt_ms: float) -> tuple:
    """Derive the three per-probe samples for a gateway, destination or
    hand-built hop from a generator seeded by the hop itself."""
    # Three draws, consumed before the generator can be reseeded: the
    # single-use shared-generator fast path applies.
    rng = stable_draw_rng("probe-rtts", index, address, rtt_ms)
    return (
        max(0.05, rtt_ms + rng.uniform(-0.4, 0.4)),
        max(0.05, rtt_ms + rng.uniform(-0.4, 0.4)),
        max(0.05, rtt_ms + rng.uniform(-0.4, 0.4)),
    )


def _responded_hop(index: int, address: str, rtt_ms: float) -> TracerouteHop:
    """A gateway or destination hop with its per-hop samples filled in."""
    return TracerouteHop(index, address, rtt_ms, _sample_probe_rtts(index, address, rtt_ms))


def probe_rtts(hop: TracerouteHop) -> List[float]:
    """Three per-probe RTT samples around the hop's canonical RTT.

    The samples the normaliser (:mod:`repro.core.gamma.normalize`)
    quantises as each OS tool would print them.  Engine-built hops carry
    their samples (:attr:`TracerouteHop.probes`), and only the engine
    knows a transit hop's; hops built without them derive theirs here
    from the hop's index, address and RTT.
    """
    assert hop.rtt_ms is not None
    if hop.probes is not None:
        return list(hop.probes)
    return list(_sample_probe_rtts(hop.index, hop.address, hop.rtt_ms))

