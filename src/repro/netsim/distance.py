"""Great-circle geometry and fibre-propagation physics.

The paper's speed-of-light constraint assumes data moves through fibre at
no more than 2c/3, i.e. roughly 133 km per millisecond of one-way travel
(Katz-Bassett et al., IMC 2006).  All latency synthesis and all constraint
checks in the reproduction share the constants defined here so that the
simulated world can never violate its own physics.
"""

from __future__ import annotations

import math
from typing import Tuple

from repro.exec.cache import ReadThroughCache
from repro.netsim.geography import City

__all__ = [
    "EARTH_RADIUS_KM",
    "FIBER_KM_PER_MS",
    "haversine_km",
    "city_distance_km",
    "distance_cache",
    "min_rtt_ms",
    "max_feasible_distance_km",
    "interpolate",
]

EARTH_RADIUS_KM = 6371.0

#: One-way propagation speed in fibre: (2/3) * c ~= 199,862 km/s ~= 133 km/ms.
FIBER_KM_PER_MS = 133.0


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance between two WGS-84 points, in kilometres."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    a = math.sin(dphi / 2) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2) ** 2
    return 2 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(a)))


#: Process-wide memo for :func:`city_distance_km`.  City pairs recur
#: constantly across GeoDNS serving, probe selection, constraint checks
#: and latency synthesis; the key is the raw coordinates (not city names)
#: so ad-hoc test cities can never collide, and the value is exactly the
#: uncached :func:`haversine_km` result.  Each process fills its own copy.
distance_cache = ReadThroughCache("netsim.distance", maxsize=262144)


def city_distance_km(a: City, b: City) -> float:
    """Great-circle distance between two cities (memoised)."""
    return distance_cache.get(
        (a.lat, a.lon, b.lat, b.lon),
        lambda: haversine_km(a.lat, a.lon, b.lat, b.lon),
    )


def min_rtt_ms(distance_km: float) -> float:
    """The physically minimal round-trip time over *distance_km* of fibre."""
    if distance_km < 0:
        raise ValueError("distance must be non-negative")
    return 2.0 * distance_km / FIBER_KM_PER_MS


def max_feasible_distance_km(rtt_ms: float) -> float:
    """The farthest a responding host can be given an observed RTT."""
    if rtt_ms < 0:
        raise ValueError("RTT must be non-negative")
    return rtt_ms * FIBER_KM_PER_MS / 2.0


def interpolate(lat1: float, lon1: float, lat2: float, lon2: float, fraction: float) -> Tuple[float, float]:
    """A point *fraction* of the way along the great circle from 1 to 2.

    Used to synthesise plausible intermediate traceroute hops.  Falls back
    to the start point for coincident endpoints.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be within [0, 1]")
    phi1, lam1 = math.radians(lat1), math.radians(lon1)
    phi2, lam2 = math.radians(lat2), math.radians(lon2)
    delta = haversine_km(lat1, lon1, lat2, lon2) / EARTH_RADIUS_KM
    if delta < 1e-9:
        return lat1, lon1
    a = math.sin((1 - fraction) * delta) / math.sin(delta)
    b = math.sin(fraction * delta) / math.sin(delta)
    x = a * math.cos(phi1) * math.cos(lam1) + b * math.cos(phi2) * math.cos(lam2)
    y = a * math.cos(phi1) * math.sin(lam1) + b * math.cos(phi2) * math.sin(lam2)
    z = a * math.sin(phi1) + b * math.sin(phi2)
    lat = math.degrees(math.atan2(z, math.sqrt(x * x + y * y)))
    lon = math.degrees(math.atan2(y, x))
    return lat, lon
