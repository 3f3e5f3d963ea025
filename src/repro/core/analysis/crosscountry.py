"""Cross-country behaviour of the same website (paper section 8).

The paper closes by noting that one site can ship different trackers to
different countries — yahoo.com embeds only Yahoo/Google trackers for
Indian and British visitors but adds Demdex, Bluekai and Taboola for
Australian, Qatari and Emirati ones.  This analysis compares what one
domain's page actually requested from each measurement country and
attributes the differences to organisations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.gamma.output import VolunteerDataset
from repro.core.trackers.identify import TrackerIdentifier
from repro.core.trackers.orgs import OrganizationDirectory

__all__ = ["SiteCountryView", "CrossCountryAnalysis"]


@dataclass(frozen=True, slots=True)
class SiteCountryView:
    """One site's observable behaviour from one country."""

    url: str
    country_code: str
    tracker_hosts: Tuple[str, ...]
    tracker_orgs: Tuple[str, ...]


class CrossCountryAnalysis:
    """Same-site comparison across measurement countries."""

    def __init__(
        self,
        datasets: Dict[str, VolunteerDataset],
        identifier: TrackerIdentifier,
        directory: Optional[OrganizationDirectory] = None,
    ):
        self._datasets = datasets
        self._identifier = identifier
        self._directory = directory or identifier.directory

    def countries_measuring(self, url: str) -> List[str]:
        """Countries whose volunteers loaded *url* successfully."""
        return sorted(
            cc
            for cc, dataset in self._datasets.items()
            if url in dataset.websites and dataset.websites[url].loaded
        )

    def view(self, url: str, country_code: str) -> Optional[SiteCountryView]:
        dataset = self._datasets.get(country_code)
        if dataset is None or url not in dataset.websites:
            return None
        measurement = dataset.websites[url]
        if not measurement.loaded:
            return None
        hosts: List[str] = []
        orgs: Set[str] = set()
        # Batch through the identifier's memoised verdict cache: the same
        # hosts recur across the site's per-country views, so only the
        # first view pays for classification.
        verdicts = self._identifier.classify_many(
            list(measurement.requested_hosts), country_code
        )
        for host, verdict in verdicts.items():
            if not verdict.is_tracker:
                continue
            hosts.append(host)
            org = verdict.org_name
            if org is None and self._directory is not None:
                entry = self._directory.org_for_host(host)
                org = entry.name if entry else None
            if org:
                orgs.add(org)
        return SiteCountryView(
            url=url,
            country_code=country_code,
            tracker_hosts=tuple(sorted(hosts)),
            tracker_orgs=tuple(sorted(orgs)),
        )

    def views(self, url: str) -> List[SiteCountryView]:
        result = []
        for cc in self.countries_measuring(url):
            view = self.view(url, cc)
            if view is not None:
                result.append(view)
        return result

    def org_differences(self, url: str) -> Dict[str, List[str]]:
        """Organisations that only appear for *some* countries.

        Returns ``{org: [countries observing it]}`` for every org not seen
        from every measuring country — the regional-adaptation signal.
        """
        views = self.views(url)
        if not views:
            return {}
        seen_by: Dict[str, List[str]] = {}
        for view in views:
            for org in view.tracker_orgs:
                seen_by.setdefault(org, []).append(view.country_code)
        total = len(views)
        return {
            org: countries
            for org, countries in sorted(seen_by.items())
            if len(countries) < total
        }

    def is_uniform(self, url: str) -> bool:
        """Does the site embed the same tracker orgs everywhere it charts?"""
        return not self.org_differences(url)

    def most_adapted_sites(self, candidates: Sequence[str], top: int = 5) -> List[Tuple[str, int]]:
        """Rank sites by how many orgs vary across countries."""
        scored = [
            (url, len(self.org_differences(url)))
            for url in candidates
            if len(self.countries_measuring(url)) >= 2
        ]
        scored.sort(key=lambda item: (-item[1], item[0]))
        return scored[:top]
