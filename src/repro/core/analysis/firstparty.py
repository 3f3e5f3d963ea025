"""Section 6.7: first-party vs third-party non-local trackers.

Among all websites with verified non-local trackers, how many embed a
tracker owned by the *same organisation as the site itself* (first-party
cross-border flow)?  The paper found 23 of 575 such sites, about half of
them Google properties under country-code TLDs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.analysis.records import CountryStudyResult
from repro.core.trackers.party import PartyClassifier, PartyKind

__all__ = ["FirstPartySite", "FirstPartyAnalysis"]


@dataclass(frozen=True, slots=True)
class FirstPartySite:
    """A site embedding at least one first-party non-local tracker."""

    url: str
    country_code: str
    owner_org: str
    first_party_hosts: tuple


class FirstPartyAnalysis:
    """First/third-party breakdown over the study results."""

    def __init__(self, results: Sequence[CountryStudyResult], classifier: PartyClassifier):
        self._results = list(results)
        self._classifier = classifier

    def sites_with_nonlocal(self) -> int:
        """Paper: 575 websites with non-local trackers across all sources."""
        return sum(
            1
            for result in self._results
            for site in result.sites
            if site.has_nonlocal_tracker
        )

    def first_party_sites(self) -> List[FirstPartySite]:
        """Sites embedding first-party non-local trackers (paper: 23)."""
        found: List[FirstPartySite] = []
        for result in self._results:
            for site in result.sites:
                if not site.has_nonlocal_tracker:
                    continue
                first_party_hosts = tuple(
                    sorted(
                        tracker.host
                        for tracker in site.trackers
                        if self._classifier.classify(site.url, tracker.host).kind == PartyKind.FIRST
                    )
                )
                if not first_party_hosts:
                    continue
                owner = self._classifier.classify(site.url, first_party_hosts[0]).site_org or ""
                found.append(
                    FirstPartySite(
                        url=site.url,
                        country_code=result.country_code,
                        owner_org=owner,
                        first_party_hosts=first_party_hosts,
                    )
                )
        return found

    def owner_breakdown(self) -> Dict[str, int]:
        """First-party sites per owning organisation (paper: ~50 % Google)."""
        counts: Dict[str, int] = {}
        for site in self.first_party_sites():
            counts[site.owner_org] = counts.get(site.owner_org, 0) + 1
        return dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))

    def first_party_share(self) -> float:
        """Fraction of websites-with-non-local that have first-party flows."""
        total = self.sites_with_nonlocal()
        if total == 0:
            return 0.0
        return len(self.first_party_sites()) / total
