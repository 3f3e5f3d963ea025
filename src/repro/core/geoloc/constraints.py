"""The three verification constraints of section 4.1.

Each constraint examines one *location claim* (an IP, a database-claimed
city) and returns a :class:`ConstraintResult`: PASS (consistent), FAIL
(inconsistent — discard the claim), or SKIP (no evidence available; the
paper keeps such servers, since absence of evidence is not evidence of a
wrong location — except for missing/unreached traceroutes, which are
explicit FAILs per the paper's discard rules).

The latency constraints compare evidence against *anchors* — SOL
floors, the 80 %-rule floor, the strict destination ceiling — that
depend only on the cities involved.  ``check`` computes them on the
spot; ``judge`` takes them precomputed, which is how the pipeline reads
them from its per-claimed-city :class:`ClaimAnchors` table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.gamma.parsers import NormalizedTraceroute
from repro.core.geoloc.latency_stats import LatencyStatsProvider
from repro.netsim.distance import city_distance_km, min_rtt_ms
from repro.netsim.geography import City
from repro.netsim.geohints import extract_hint
from repro.netsim.latency import LatencyModel

__all__ = [
    "ClaimAnchors",
    "ConstraintStatus",
    "ConstraintResult",
    "adjusted_latency_ms",
    "round_evidence_ms",
    "sol_floor_ms",
    "source_latency_floor_ms",
    "SourceConstraint",
    "DestinationConstraint",
    "ReverseDNSConstraint",
]


class ConstraintStatus:
    PASS = "pass"
    FAIL = "fail"
    SKIP = "skip"  # no usable evidence; claim retained


@dataclass(frozen=True)
class ConstraintResult:
    """Outcome of one constraint check."""

    constraint: str
    status: str
    reason: str = ""
    observed_ms: Optional[float] = None
    expected_ms: Optional[float] = None

    @property
    def failed(self) -> bool:
        return self.status == ConstraintStatus.FAIL

    @property
    def passed(self) -> bool:
        return self.status == ConstraintStatus.PASS


def round_evidence_ms(value: Optional[float]) -> Optional[float]:
    """Journal-stable form of a (deterministic) evidence latency.

    The single rounding point for every latency the pipeline reports in
    ``geoloc_decision`` events.  Constraints store *raw* floats on
    :class:`ConstraintResult` and round only here, at the journal
    boundary, so rounding can never shift a threshold comparison.
    """
    return None if value is None else round(value, 6)


def source_latency_floor_ms(threshold: float, published_ms: float) -> float:
    """The 80 %-rule floor: the slowest believable RTT for the pair.

    An observed RTT strictly below this value is too fast for the
    claimed location.
    """
    return threshold * published_ms


def sol_floor_ms(a: City, b: City) -> float:
    """Speed-of-light RTT floor between two cities."""
    return min_rtt_ms(city_distance_km(a, b))


def adjusted_latency_ms(trace: NormalizedTraceroute) -> Optional[float]:
    """Latency with local-network delay removed (section 4.1.1).

    Last-hop RTT minus first-hop RTT when the first hop responded and is
    smaller; otherwise the raw last-hop RTT.
    """
    last = trace.last_hop_rtt
    if last is None:
        return None
    first = trace.first_hop_rtt
    if first is not None and first < last:
        return last - first
    return last


class SourceConstraint:
    """Volunteer-side latency checks: reachability, SOL, the 80 % rule."""

    name = "source"

    def __init__(
        self,
        stats: LatencyStatsProvider,
        conservative_threshold: float = 0.8,
    ):
        if not 0.0 < conservative_threshold <= 1.0:
            raise ValueError("conservative threshold must be in (0, 1]")
        self._stats = stats
        self._threshold = conservative_threshold

    def published_floor_ms(self, source_city: City, claimed_city: City) -> Optional[float]:
        """The 80 %-rule floor for the pair (None: no published statistics)."""
        published = self._stats.published_rtt_ms(source_city, claimed_city)
        if published is None:
            return None
        return source_latency_floor_ms(self._threshold, published)

    def check(
        self,
        trace: Optional[NormalizedTraceroute],
        source_city: City,
        claimed_city: City,
    ) -> ConstraintResult:
        """Judge *trace* against anchors computed on the spot."""
        return self.judge(
            trace,
            sol_floor_ms(source_city, claimed_city),
            self.published_floor_ms(source_city, claimed_city),
        )

    def judge(
        self,
        trace: Optional[NormalizedTraceroute],
        sol_floor: float,
        floor: Optional[float],
    ) -> ConstraintResult:
        """The decision ladder against precomputed anchors."""
        if trace is None:
            return ConstraintResult(self.name, ConstraintStatus.FAIL, "no source traceroute")
        if not trace.reached:
            return ConstraintResult(self.name, ConstraintStatus.FAIL, "traceroute did not reach destination")
        observed = adjusted_latency_ms(trace)
        if observed is None:
            return ConstraintResult(self.name, ConstraintStatus.FAIL, "no responding hops")

        if observed < sol_floor:
            return ConstraintResult(
                self.name,
                ConstraintStatus.FAIL,
                "speed-of-light violation for claimed location",
                observed_ms=observed,
                expected_ms=sol_floor,
            )

        if floor is None:
            return ConstraintResult(
                self.name,
                ConstraintStatus.PASS,
                "SOL ok; no published statistics for pair",
                observed_ms=observed,
            )
        if observed < floor:
            return ConstraintResult(
                self.name,
                ConstraintStatus.FAIL,
                f"observed latency below {self._threshold:.0%} of published statistics",
                observed_ms=observed,
                expected_ms=floor,
            )
        return ConstraintResult(self.name, ConstraintStatus.PASS, "consistent", observed_ms=observed, expected_ms=floor)


class DestinationConstraint:
    """Probe-side check (section 4.1.2).

    The paper discards a claim when the traceroute from a probe in the
    claimed country (a) never reaches the server, or (b) violates the
    speed-of-light constraint — the observed RTT is too *small* for the
    server to sit as far from the probe as the claimed city does.  An RTT
    that is merely large is not physical evidence against the claim (paths
    can always be inflated), so by default no upper bound is applied.

    ``strict_bound=True`` additionally enforces a plausibility ceiling on
    the RTT — a deliberately more aggressive variant used by the ablation
    benchmarks to show what an unphysical "upper bound" check would do.
    """

    name = "destination"

    def __init__(
        self,
        latency: LatencyModel,
        max_inflation: float = 1.9,
        slack_ms: float = 12.0,
        strict_bound: bool = False,
    ):
        if max_inflation < 1.0:
            raise ValueError("max inflation must be >= 1")
        if slack_ms < 0:
            raise ValueError("slack must be non-negative")
        self._latency = latency
        self._max_inflation = max_inflation
        self._slack_ms = slack_ms
        self._strict_bound = strict_bound

    def plausible_rtt_bound_ms(self, probe_city: City, claimed_city: City) -> float:
        """Worst-case believable RTT if the claim were true (strict mode)."""
        propagation = sol_floor_ms(probe_city, claimed_city) * self._max_inflation
        penalties = self._latency.access_penalty(probe_city) + self._latency.access_penalty(claimed_city)
        return propagation + penalties + self._slack_ms

    def bound_ms(self, probe_city: City, claimed_city: City) -> Optional[float]:
        """The RTT ceiling this constraint enforces (None unless strict)."""
        if not self._strict_bound:
            return None
        return self.plausible_rtt_bound_ms(probe_city, claimed_city)

    def check(
        self,
        trace: Optional[NormalizedTraceroute],
        probe_city: Optional[City],
        claimed_city: City,
    ) -> ConstraintResult:
        """Judge *trace* against anchors computed on the spot."""
        if probe_city is None:
            return self.judge(None, float("nan"), None)
        return self.judge(
            trace,
            sol_floor_ms(probe_city, claimed_city),
            self.bound_ms(probe_city, claimed_city),
        )

    def judge(
        self,
        trace: Optional[NormalizedTraceroute],
        sol_floor: float,
        bound: Optional[float],
    ) -> ConstraintResult:
        """The decision ladder against precomputed anchors."""
        if trace is None:
            return ConstraintResult(self.name, ConstraintStatus.FAIL, "no destination traceroute")
        if not trace.reached:
            return ConstraintResult(self.name, ConstraintStatus.FAIL, "destination traceroute did not reach")
        observed = adjusted_latency_ms(trace)
        if observed is None:
            return ConstraintResult(self.name, ConstraintStatus.FAIL, "no responding hops")
        if observed < sol_floor:
            return ConstraintResult(
                self.name,
                ConstraintStatus.FAIL,
                "speed-of-light violation for claimed location (destination)",
                observed_ms=observed,
                expected_ms=sol_floor,
            )
        if bound is not None and observed > bound:
            return ConstraintResult(
                self.name,
                ConstraintStatus.FAIL,
                "RTT from in-country probe too high for claimed location",
                observed_ms=observed,
                expected_ms=bound,
            )
        return ConstraintResult(self.name, ConstraintStatus.PASS, "consistent", observed_ms=observed)


class ReverseDNSConstraint:
    """Hostname geo-hint check (section 4.1.3).

    FAIL only on a *contradicting* hint; hostnames without recognisable
    hints (or missing PTR records) are retained.
    """

    name = "rdns"

    def check(self, ptr_hostname: Optional[str], claimed_city: City) -> ConstraintResult:
        if not ptr_hostname:
            return ConstraintResult(self.name, ConstraintStatus.SKIP, "no PTR record")
        hinted_city_key = extract_hint(ptr_hostname)
        if hinted_city_key is None:
            return ConstraintResult(self.name, ConstraintStatus.SKIP, "no geographic hint in hostname")
        hinted_country = hinted_city_key.rsplit(", ", 1)[-1]
        if hinted_country != claimed_city.country_code:
            return ConstraintResult(
                self.name,
                ConstraintStatus.FAIL,
                f"PTR hints {hinted_city_key}, claim is {claimed_city.key}",
            )
        return ConstraintResult(self.name, ConstraintStatus.PASS, f"PTR consistent ({hinted_city_key})")


class ClaimAnchors:
    """Per-claimed-city anchors of the constraint ladder, computed once.

    With services and configuration fixed, every anchor is a pure
    function of its cities, while a study's candidate servers claim only
    a handful of distinct cities.  This table computes each anchor the
    first time a claim needs it and serves it to every later address
    claiming the same city.

    *source* and *destination* supply the 80 %-rule floor and the strict
    ceiling; without them those anchors read as ``None`` and only the
    geometric values (SOL floors, the claimed country's probe) are
    available.
    """

    def __init__(
        self,
        mesh,
        source: Optional[SourceConstraint] = None,
        destination: Optional[DestinationConstraint] = None,
    ):
        self._mesh = mesh
        self._source_constraint = source
        self._destination_constraint = destination
        self._source: Dict[Tuple[str, str], Tuple[float, Optional[float]]] = {}
        self._destination: Dict[str, tuple] = {}

    def source(self, source_city: City, claimed_city: City) -> Tuple[float, Optional[float]]:
        """``(SOL floor, 80 %-rule floor or None)`` for the vantage pair."""
        key = (source_city.key, claimed_city.key)
        anchor = self._source.get(key)
        if anchor is None:
            constraint = self._source_constraint
            anchor = self._source[key] = (
                sol_floor_ms(source_city, claimed_city),
                None if constraint is None
                else constraint.published_floor_ms(source_city, claimed_city),
            )
        return anchor

    def destination(self, claimed_city: City) -> tuple:
        """``(probe or None, SOL floor, strict ceiling or None)``.

        The probe is the claimed country's (or its fallback neighbour's)
        probe nearest the claimed city; without one the SOL floor is NaN.
        """
        anchor = self._destination.get(claimed_city.key)
        if anchor is None:
            probe = self._mesh.probe_for_country(claimed_city.country_code, claimed_city)[0]
            constraint = self._destination_constraint
            if probe is None:
                anchor = (None, float("nan"), None)
            else:
                anchor = (
                    probe,
                    sol_floor_ms(probe.city, claimed_city),
                    None if constraint is None
                    else constraint.bound_ms(probe.city, claimed_city),
                )
            self._destination[claimed_city.key] = anchor
        return anchor
