"""Tracker identification: filter lists first, manual inspection second.

Mirrors section 4.2 of the paper:

1. match the host against EasyList/EasyPrivacy-style global lists,
2. then against regional ad/tracker lists for the measurement country,
3. finally fall back to "manual inspection" — a lookup in the
   WhoTracksMe-like organisation directory, which catches regional
   trackers the lists miss (the paper labelled 64 domains this way).

Classification is memoised: the ~100 sites per country repeat the same
third-party hosts heavily, so :meth:`TrackerIdentifier.classify` keeps a
read-through verdict cache (``trackers.verdicts``, owned by the
identifier; each study worker records the hits and misses its country
caused, see :mod:`repro.exec.metrics`).  Verdicts are keyed per country only
where a regional list exists — for every other country the verdict is
country-independent, so one cache entry serves them all.  Memoisation
never changes a verdict, only how often it is recomputed; the
uncached path stays reachable as :meth:`classify_uncached` and the
equivalence is locked down in ``tests/test_trackers_core.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.trackers.filterlist import FilterSet
from repro.core.trackers.orgs import OrganizationDirectory
from repro.domains import registrable_domain, validate_hostname
from repro.exec.cache import CacheInfo, ReadThroughCache

__all__ = ["IdentificationMethod", "TrackerVerdict", "TrackerIdentifier"]

#: Name of the memoised verdict cache.
VERDICT_CACHE_NAME = "trackers.verdicts"

#: Verdict-cache bound (FIFO eviction beyond it).
VERDICT_CACHE_SIZE = 65536


class IdentificationMethod:
    GLOBAL_LIST = "global_list"
    REGIONAL_LIST = "regional_list"
    MANUAL = "manual"


@dataclass(frozen=True)
class TrackerVerdict:
    """Outcome of classifying one host."""

    host: str
    is_tracker: bool
    method: Optional[str] = None
    list_name: Optional[str] = None
    org_name: Optional[str] = None

    @property
    def domain(self) -> str:
        """The registrable domain the verdict is attributed to."""
        return registrable_domain(self.host) or self.host


class TrackerIdentifier:
    """Layered tracker classification with a memoised verdict cache."""

    def __init__(
        self,
        global_lists: FilterSet,
        regional_lists: Optional[Dict[str, FilterSet]] = None,
        directory: Optional[OrganizationDirectory] = None,
    ):
        self._global = global_lists
        self._regional = dict(regional_lists or {})
        self._directory = directory
        self._cache = ReadThroughCache(VERDICT_CACHE_NAME, maxsize=VERDICT_CACHE_SIZE)

    @property
    def directory(self) -> Optional[OrganizationDirectory]:
        return self._directory

    @property
    def verdict_cache(self) -> ReadThroughCache:
        return self._cache

    def cache_info(self) -> CacheInfo:
        """Hit/miss snapshot of the verdict cache."""
        return self._cache.info()

    def regional_countries(self) -> List[str]:
        return sorted(self._regional)

    def classify(
        self,
        host: str,
        country_code: Optional[str] = None,
        tracer=None,
    ) -> TrackerVerdict:
        """Classify one requested host observed in *country_code* (memoised).

        With a :class:`repro.obs.Tracer`, a ``tracker_match`` event
        attributes each positive verdict to the list (or manual
        directory entry) that flagged it.  The verdict — and hence the
        event — is identical whether it came from the cache or a fresh
        classification, so journals stay backend-independent.
        """
        host = validate_hostname(host)
        # Regional lists are the only country-dependent layer, so countries
        # without one share a single country-independent cache entry.
        key_country = country_code if country_code in self._regional else None
        verdict = self._cache.get(
            (host, key_country), lambda: self.classify_uncached(host, country_code)
        )
        if tracer is not None and verdict.is_tracker:
            tracer.event(
                "tracker_match",
                host=host,
                method=verdict.method,
                list=verdict.list_name,
                org=verdict.org_name,
            )
        return verdict

    def classify_uncached(
        self, host: str, country_code: Optional[str] = None
    ) -> TrackerVerdict:
        """The uncached reference path (also the cache's compute function)."""
        host = validate_hostname(host)

        match = self._global.match(host)
        if match is not None:
            return self._verdict(host, IdentificationMethod.GLOBAL_LIST, match.list_name)

        if country_code is not None:
            regional = self._regional.get(country_code)
            if regional is not None:
                match = regional.match(host)
                if match is not None:
                    return self._verdict(host, IdentificationMethod.REGIONAL_LIST, match.list_name)

        if self._directory is not None:
            entry = self._directory.org_for_host(host)
            if entry is not None and entry.is_tracking_host(host):
                return TrackerVerdict(
                    host=host,
                    is_tracker=True,
                    method=IdentificationMethod.MANUAL,
                    org_name=entry.name,
                )
        return TrackerVerdict(host=host, is_tracker=False)

    def is_tracker(self, host: str, country_code: Optional[str] = None) -> bool:
        """Convenience: the memoised verdict's boolean."""
        return self.classify(host, country_code).is_tracker

    def _verdict(self, host: str, method: str, list_name: str) -> TrackerVerdict:
        org_name = None
        if self._directory is not None:
            entry = self._directory.org_for_host(host)
            if entry is not None:
                org_name = entry.name
        return TrackerVerdict(
            host=host, is_tracker=True, method=method, list_name=list_name, org_name=org_name
        )

    def classify_many(
        self, hosts: List[str], country_code: Optional[str] = None
    ) -> Dict[str, TrackerVerdict]:
        return {host: self.classify(host, country_code) for host in hosts}
