"""Round-trip-time synthesis.

RTT between two points is modelled as

    rtt = 2 * distance / FIBER_KM_PER_MS * inflation + access penalties + jitter

where *inflation* (>= 1) captures path indirectness relative to the great
circle, access penalties capture last-mile delay that differs by country
infrastructure tier, and jitter is a small per-measurement term.  The model
can, by construction, never violate the speed-of-light bound the paper's
geolocation pipeline checks — except through the dedicated fault hooks used
in tests to prove the pipeline rejects such measurements.
"""

from __future__ import annotations

from typing import Dict

from repro.determinism import stable_draw_rng
from repro.exec.cache import ReadThroughCache
from repro.netsim.distance import city_distance_km, min_rtt_ms
from repro.netsim.geography import City

__all__ = ["LatencyModel", "ACCESS_PENALTY_MS"]

#: Per-country last-mile penalty (one endpoint, milliseconds).
ACCESS_PENALTY_MS: Dict[str, float] = {
    # Tier 1: dense, well-peered access networks.
    "US": 2.0, "CA": 2.0, "GB": 2.0, "FR": 2.0, "DE": 2.0, "NL": 2.0,
    "IE": 2.0, "CH": 2.0, "BE": 2.0, "FI": 2.5, "SE": 2.0, "ES": 2.5,
    "IT": 2.5, "PL": 2.5, "BG": 3.0, "JP": 2.0, "KR": 2.0, "SG": 2.0,
    "HK": 2.0, "TW": 2.5, "AU": 2.5, "NZ": 2.5,
    # Tier 2.
    "RU": 4.0, "AR": 5.0, "BR": 5.0, "CL": 5.0, "MX": 5.0, "TH": 4.5,
    "MY": 4.0, "IN": 5.0, "SA": 5.0, "QA": 4.5, "AE": 4.0, "TR": 4.5,
    "IL": 3.5, "ZA": 5.5,
    # Tier 3: longer, more congested last miles.
    "EG": 8.0, "DZ": 9.0, "RW": 9.5, "UG": 10.0, "KE": 7.5, "GH": 9.0,
    "PK": 8.5, "LK": 8.0, "JO": 7.5, "LB": 8.5, "AZ": 7.0, "OM": 6.5,
}

_DEFAULT_ACCESS_PENALTY_MS = 6.0


class LatencyModel:
    """Deterministic RTT oracle between cities.

    The *measurement_key* argument lets callers obtain independent jitter
    draws for repeated measurements of the same pair while keeping the
    whole history reproducible.
    """

    def __init__(self, inflation_range=(1.25, 1.85), jitter_ms: float = 2.5, seed: str = "latency"):
        low, high = inflation_range
        if low < 1.0 or high < low:
            raise ValueError("inflation range must satisfy 1.0 <= low <= high")
        self._inflation_range = (low, high)
        self._jitter_ms = jitter_ms
        self._seed = seed
        # The inflation factor is a pure function of the (sorted) pair, so
        # the per-instance memo can never change a value — it only skips
        # re-deriving the SHA-256-seeded draw.
        self._inflation_cache = ReadThroughCache(f"latency.inflation[{seed}]")

    def inflation(self, a: City, b: City) -> float:
        """Path-indirectness factor for a city pair (symmetric, deterministic)."""
        first, second = sorted((a.key, b.key))
        low, high = self._inflation_range
        return self._inflation_cache.get(
            (first, second),
            lambda: stable_draw_rng(self._seed, "inflation", first, second).uniform(low, high),
        )

    @property
    def inflation_cache(self) -> ReadThroughCache:
        return self._inflation_cache

    def access_penalty(self, city: City) -> float:
        return ACCESS_PENALTY_MS.get(city.country_code, _DEFAULT_ACCESS_PENALTY_MS)

    def propagation_rtt_ms(self, a: City, b: City) -> float:
        """RTT floor plus inflation, without access penalties or jitter."""
        return min_rtt_ms(city_distance_km(a, b)) * self.inflation(a, b)

    def rtt_ms(self, a: City, b: City, measurement_key: str = "") -> float:
        """A full, realistic RTT sample for one measurement."""
        jitter = stable_draw_rng(self._seed, "jitter", a.key, b.key, measurement_key).uniform(
            0.0, self._jitter_ms
        )
        base = self.propagation_rtt_ms(a, b)
        return base + self.access_penalty(a) + self.access_penalty(b) + jitter

    def typical_rtt_ms(self, a: City, b: City) -> float:
        """Expected (jitter-free) RTT; used to build reference statistics."""
        return self.propagation_rtt_ms(a, b) + self.access_penalty(a) + self.access_penalty(b)

    def sol_violates(self, a: City, b: City, rtt_ms: float) -> bool:
        """Whether *rtt_ms* is physically impossible for this city pair."""
        return rtt_ms < min_rtt_ms(city_distance_km(a, b))
