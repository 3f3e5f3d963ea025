"""Site catalogue: lookup of the world's websites by country and category.

The catalogue is the synthetic analogue of "the web as reachable from a
country": target-list construction draws from it, and the browser engine
consults it to know what a URL's landing page embeds.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.domains import validate_hostname
from repro.web.website import CATEGORY_GOVERNMENT, CATEGORY_REGIONAL, Website

__all__ = ["SiteCatalog"]


class SiteCatalog:
    """Indexed collection of every website in the world."""

    def __init__(self, websites: Iterable[Website] = ()):
        self._by_domain: Dict[str, Website] = {}
        self._by_country: Dict[str, List[Website]] = {}
        #: Sites listed in other countries' markets, in insertion order.
        self._multinational: List[Website] = []
        for site in websites:
            self.add(site)

    def add(self, site: Website) -> Website:
        if site.domain in self._by_domain:
            raise ValueError(f"website {site.domain!r} already in catalogue")
        self._by_domain[site.domain] = site
        self._by_country.setdefault(site.country_code, []).append(site)
        if site.listed_in:
            self._multinational.append(site)
        return site

    def get(self, domain: str) -> Website:
        domain = validate_hostname(domain)
        try:
            return self._by_domain[domain]
        except KeyError:
            raise KeyError(f"no website {domain!r} in catalogue") from None

    def has(self, domain: str) -> bool:
        """Whether :meth:`get` would find *domain*: names are normalised
        the same way, so ``has("Example.COM")`` finds ``example.com``.
        An invalid name is not in the catalogue."""
        if domain in self._by_domain:
            return True
        try:
            return validate_hostname(domain) in self._by_domain
        except ValueError:
            return False

    def in_country(self, country_code: str, category: Optional[str] = None) -> List[Website]:
        sites = self._by_country.get(country_code, [])
        if category is None:
            return list(sites)
        return [s for s in sites if s.category == category]

    def market(self, country_code: str, category: Optional[str] = None) -> List[Website]:
        """Sites visible in a country's market: its own sites plus any
        multi-national site whose ``listed_in`` includes the country."""
        sites = self.in_country(country_code, category)
        for site in self._multinational:
            if site.country_code != country_code and country_code in site.listed_in:
                if category is None or site.category == category:
                    sites.append(site)
        return sites

    def regional(self, country_code: str) -> List[Website]:
        return self.in_country(country_code, CATEGORY_REGIONAL)

    def government(self, country_code: str) -> List[Website]:
        return self.in_country(country_code, CATEGORY_GOVERNMENT)

    @property
    def countries(self) -> List[str]:
        return sorted(self._by_country)

    def __len__(self) -> int:
        return len(self._by_domain)

    def __iter__(self):
        return iter(self._by_domain.values())
