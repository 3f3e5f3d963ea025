"""Volunteer-hosted probe mesh with realistic geographic density bias.

The paper's central infrastructure problem is that RIPE-Atlas-style
meshes are dense in Europe and North America and sparse-to-absent in the
Global South.  The mesh model places a per-country probe count derived
from region and development tier — including countries with *zero*
probes, which force the paper's documented fallbacks (Qatar verified via
Saudi Arabia, Jordan via Israel).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.determinism import stable_rng
from repro.netsim.distance import city_distance_km
from repro.netsim.geography import City, Continent, GeoRegistry

__all__ = ["Probe", "ProbeDensityModel", "ProbeMesh"]


@dataclass(frozen=True)
class Probe:
    """One measurement probe."""

    probe_id: int
    city: City
    asn: int = 0

    @property
    def country_code(self) -> str:
        return self.city.country_code


@dataclass
class ProbeDensityModel:
    """Probes per country, by tier.  Explicit overrides win."""

    dense: int = 12  # Europe, North America
    developed_apac: int = 6
    emerging: int = 3
    sparse: int = 1
    overrides: Dict[str, int] = None  # type: ignore[assignment]

    _DEVELOPED_APAC = frozenset({"JP", "AU", "NZ", "SG", "HK", "TW", "KR", "IL"})
    _EMERGING = frozenset({"RU", "BR", "AR", "TR", "IN", "MY", "TH", "ZA", "AE", "SA", "CL", "MX", "KE"})
    #: Countries with no probes at all, forcing cross-border fallbacks.
    DEFAULT_GAPS = {"QA": 0, "JO": 0, "RW": 0, "UG": 0}

    def __post_init__(self) -> None:
        if self.overrides is None:
            self.overrides = dict(self.DEFAULT_GAPS)

    def count_for(self, country_code: str, continent: str) -> int:
        if country_code in self.overrides:
            return self.overrides[country_code]
        if continent in (Continent.EUROPE, Continent.NORTH_AMERICA):
            return self.dense
        if country_code in self._DEVELOPED_APAC:
            return self.developed_apac
        if country_code in self._EMERGING:
            return self.emerging
        return self.sparse


class ProbeMesh:
    """The full mesh: placement, selection, and gap fallbacks."""

    def __init__(self, registry: GeoRegistry, density: Optional[ProbeDensityModel] = None):
        self._registry = registry
        self._density = density or ProbeDensityModel()
        self._by_country: Dict[str, List[Probe]] = {}
        self._place_probes()

    def _place_probes(self) -> None:
        next_id = 10001
        for country in sorted(self._registry.countries, key=lambda c: c.code):
            count = self._density.count_for(country.code, country.continent)
            probes: List[Probe] = []
            rng = stable_rng("atlas-placement", country.code)
            for i in range(count):
                city = country.cities[i % len(country.cities)]
                probes.append(Probe(probe_id=next_id, city=city, asn=rng.randint(1000, 9999)))
                next_id += 1
            self._by_country[country.code] = probes

    def probes_in(self, country_code: str) -> List[Probe]:
        return list(self._by_country.get(country_code, []))

    def has_probes(self, country_code: str) -> bool:
        return bool(self._by_country.get(country_code))

    @property
    def total_probes(self) -> int:
        return sum(len(p) for p in self._by_country.values())

    def nearest_probe_to(self, city: City, country_code: Optional[str] = None) -> Optional[Probe]:
        """Closest probe, optionally restricted to one country."""
        pool: List[Probe] = []
        if country_code is not None:
            pool = self.probes_in(country_code)
        else:
            for probes in self._by_country.values():
                pool.extend(probes)
        if not pool:
            return None
        return min(pool, key=lambda p: (city_distance_km(city, p.city), p.probe_id))

    def probe_for_country(self, country_code: str, near_city: Optional[City] = None) -> Tuple[Optional[Probe], str]:
        """A probe in *country_code*, or the nearest foreign fallback.

        Returns ``(probe, country_used)``.  ``country_used`` differs from
        the request when the mesh has a coverage gap there — the paper's
        Qatar->Saudi Arabia and Jordan->Israel situations.
        """
        anchor = near_city or self._registry.country(country_code).capital
        local = self.nearest_probe_to(anchor, country_code)
        if local is not None:
            return local, country_code
        fallback = self.nearest_probe_to(anchor)
        if fallback is None:
            return None, country_code
        return fallback, fallback.country_code
