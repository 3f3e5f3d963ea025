"""Forward-path synthesis between cities.

A path is a sequence of intermediate routers between the two endpoints,
with hop count scaled by distance.  Each router is represented by the
cumulative fraction of the end-to-end propagation delay accrued by the
time a packet reaches it; the traceroute engine converts these
fractions into per-hop RTTs that are consistent with the end-to-end
latency model (monotone non-decreasing, last hop equal to the full RTT).
"""

from __future__ import annotations

from typing import List

from repro.determinism import stable_rng
from repro.netsim.distance import city_distance_km
from repro.netsim.geography import City

__all__ = ["path_fractions"]


def hop_count_for_distance(distance_km: float) -> int:
    """Typical intermediate-router count for a given path length."""
    if distance_km < 0:
        raise ValueError("distance must be non-negative")
    # Short paths still traverse a handful of metro/transit routers; long
    # intercontinental paths rarely exceed ~20 responding hops.
    return max(3, min(20, 3 + int(distance_km / 1200)))


def path_fractions(src: City, dst: City, key: str = "") -> List[float]:
    """Deterministic per-router delay fractions from *src* to *dst*.

    Fractions are strictly increasing and end below 1.0 (the destination
    itself is appended by the traceroute engine at fraction 1.0).
    """
    count = hop_count_for_distance(city_distance_km(src, dst))
    uniform = stable_rng("path", src.key, dst.key, key).uniform
    fractions: List[float] = []
    for i in range(1, count + 1):
        base = i / (count + 1)
        fraction = min(0.99, max(0.01, base + uniform(-0.4, 0.4) / (count + 1)))
        if fractions and fraction <= fractions[-1]:
            fraction = min(0.99, fractions[-1] + 0.005)
        fractions.append(fraction)
    return fractions
