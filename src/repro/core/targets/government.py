"""Government-website discovery: Tranco filtering plus search top-up.

Section 3.2: government sites are drawn from a Tranco-style global list
filtered on government TLDs (respecting countries with multiple, e.g.
Argentina's ``gob.ar``/``gov.ar``); where fewer than the quota exist the
paper scraped search results — here, a direct catalogue query standing in
for "Google search for the government TLD".
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.domains import validate_hostname
from repro.netsim.geography import Country
from repro.web.catalog import SiteCatalog
from repro.web.website import CATEGORY_GOVERNMENT

__all__ = ["TrancoLikeList", "government_sites_for", "matches_gov_tld"]


class TrancoLikeList:
    """A global popularity-ordered domain list (Tranco analogue)."""

    def __init__(self, domains: Sequence[str]):
        self._domains: List[str] = [validate_hostname(d) for d in domains]
        # Each domain's dot-suffixes (``a.gov.th``: itself, ``gov.th``,
        # ``th``), so a TLD filter is one set test per domain.  Suffixes
        # many domains share are held once.
        shared: Dict[str, str] = {}
        self._suffixes: List[Tuple[str, ...]] = [
            (d, *(shared.setdefault(s, s) for s in _parent_suffixes(d))) for d in self._domains
        ]

    @classmethod
    def from_catalog(cls, catalog: SiteCatalog, coverage: float = 1.0) -> "TrancoLikeList":
        """Build from the catalogue, ordered by true popularity.

        *coverage* < 1 truncates the tail, modelling the reality that a
        global top list misses small government portals — which is what
        triggers the search-scrape top-up path.
        """
        if not 0.0 < coverage <= 1.0:
            raise ValueError("coverage must be in (0, 1]")
        ordered = sorted(catalog, key=lambda s: (-s.popularity, s.domain))
        keep = max(1, int(len(ordered) * coverage))
        return cls([site.domain for site in ordered[:keep]])

    def domains(self) -> List[str]:
        return list(self._domains)

    def filtered_by_tlds(self, tlds: Iterable[str]) -> List[str]:
        wanted = {t.lower().lstrip(".") for t in tlds}
        return [
            d for d, suffixes in zip(self._domains, self._suffixes)
            if not wanted.isdisjoint(suffixes)
        ]

    def __len__(self) -> int:
        return len(self._domains)


def _parent_suffixes(domain: str) -> List[str]:
    labels = domain.split(".")
    return [".".join(labels[i:]) for i in range(1, len(labels))]


def _ends_with_tld(domain: str, suffix: str) -> bool:
    return domain == suffix or domain.endswith("." + suffix)


def matches_gov_tld(domain: str, country: Country) -> bool:
    """Does *domain* sit under any of the country's government TLDs?"""
    domain = validate_hostname(domain)
    return any(_ends_with_tld(domain, tld.lstrip(".")) for tld in country.gov_tlds)


def government_sites_for(
    country: Country,
    tranco: TrancoLikeList,
    catalog: SiteCatalog,
    quota: int = 50,
) -> List[str]:
    """The country's government target list, Tranco-first with top-up."""
    if quota <= 0:
        raise ValueError("quota must be positive")
    from_tranco = [
        d for d in tranco.filtered_by_tlds(country.gov_tlds) if catalog.has(d)
    ][:quota]
    if len(from_tranco) >= quota:
        return from_tranco
    chosen = set(from_tranco)
    # "Scraped Google search results for government TLDs": query the known
    # government sites of the country directly, most popular first.
    extras = sorted(
        (s for s in catalog.in_country(country.code, CATEGORY_GOVERNMENT) if s.domain not in chosen),
        key=lambda s: (-s.popularity, s.domain),
    )
    for site in extras:
        if len(from_tranco) >= quota:
            break
        from_tranco.append(site.domain)
    return from_tranco
