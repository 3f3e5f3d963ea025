"""Organisation directory: who owns which tracking domain.

This is the reproduction's WhoTracksMe analogue — the public knowledge
base the paper consulted manually to attribute tracking domains to
companies and to label domains the filter lists missed.  It is built
from published (world-model) data, *not* from simulation ground truth at
query time, so the identification stage exercises the same lookup the
authors performed.

:meth:`OrganizationDirectory.org_for_host` is memoised per hostname in a
read-through cache the directory owns (``trackers.orgs``): the analyses
ask about the same site and tracker hosts many times over.  ``add``
clears it, so an answer never outlives the entries it came from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.domains import is_subdomain, registrable_domain, validate_hostname
from repro.exec.cache import ReadThroughCache

__all__ = ["OrgEntry", "OrganizationDirectory"]

#: Name of the memoised hostname -> organisation cache.
ORG_CACHE_NAME = "trackers.orgs"


@dataclass(frozen=True)
class OrgEntry:
    """Directory entry for one organisation."""

    name: str
    home_country: str
    domains: tuple  # registrable domains it owns
    is_tracker: bool = False
    category: str = ""  # "advertising", "analytics", "social", "cdn", ...
    #: Domains (registrable or full hostnames) that actually track; an
    #: org's content CDN hosts are deliberately NOT in here.  Empty for
    #: tracker orgs means "all owned domains track".
    tracking_domains: tuple = ()

    def is_tracking_host(self, host: str) -> bool:
        """Does *host* fall under one of this org's tracking domains?"""
        if not self.is_tracker:
            return False
        domains = self.tracking_domains or self.domains
        return any(is_subdomain(host, d) for d in domains)


class OrganizationDirectory:
    """Registrable-domain -> organisation lookups."""

    def __init__(self, entries: Iterable[OrgEntry] = ()):
        self._by_name: Dict[str, OrgEntry] = {}
        self._by_domain: Dict[str, OrgEntry] = {}
        self._owners = ReadThroughCache(ORG_CACHE_NAME)
        for entry in entries:
            self.add(entry)

    def add(self, entry: OrgEntry) -> None:
        if entry.name in self._by_name:
            raise ValueError(f"duplicate organisation {entry.name!r}")
        self._by_name[entry.name] = entry
        for domain in entry.domains:
            domain = validate_hostname(domain)
            if domain in self._by_domain:
                raise ValueError(
                    f"domain {domain} claimed by both {self._by_domain[domain].name} and {entry.name}"
                )
            self._by_domain[domain] = entry
        self._owners.clear()

    @property
    def owner_cache(self) -> ReadThroughCache:
        return self._owners

    def org_for_host(self, host: str) -> Optional[OrgEntry]:
        """Owner of *host*, matched at the registrable-domain level (memoised)."""
        return self._owners.get(host, lambda: self._lookup(host))

    def _lookup(self, host: str) -> Optional[OrgEntry]:
        host = validate_hostname(host)
        if host in self._by_domain:
            return self._by_domain[host]
        base = registrable_domain(host)
        if base is not None and base in self._by_domain:
            return self._by_domain[base]
        return None

    def get(self, name: str) -> OrgEntry:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown organisation {name!r}") from None

    def has(self, name: str) -> bool:
        return name in self._by_name

    def trackers(self) -> List[OrgEntry]:
        return [e for e in self._by_name.values() if e.is_tracker]

    def is_tracking_host(self, host: str) -> bool:
        entry = self.org_for_host(host)
        return bool(entry and entry.is_tracking_host(host))

    def __len__(self) -> int:
        return len(self._by_name)

    def __iter__(self):
        return iter(self._by_name.values())
