"""Figure 8 / section 6.5: which organisations operate non-local trackers.

Flows from source countries to tracker-operating organisations, the
ownership geography of those organisations (paper: ~70 companies, 50 %
US-based, 10 % UK), country-exclusive trackers (e.g. Jordan-only ad
networks), and the AS-level cloud-hosting attribution (trackers riding
AWS/Google-Cloud infrastructure, including the Nairobi edge case).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.analysis.records import CountryStudyResult
from repro.core.trackers.orgs import OrganizationDirectory
from repro.geodb.ipinfo import IPInfoService

__all__ = ["OrganizationAnalysis"]


class OrganizationAnalysis:
    """Organisation-level views over the study results."""

    def __init__(
        self,
        results: Sequence[CountryStudyResult],
        directory: OrganizationDirectory,
        ipinfo: Optional[IPInfoService] = None,
    ):
        self._results = list(results)
        self._directory = directory
        self._ipinfo = ipinfo

    def flow_edges(self) -> List[Tuple[str, str, int]]:
        """``(source country, organisation, website count)`` edges."""
        weights: Dict[Tuple[str, str], int] = {}
        for result in self._results:
            for site in result.sites:
                for org in site.organizations():
                    key = (result.country_code, org)
                    weights[key] = weights.get(key, 0) + 1
        return [
            (source, org, count)
            for (source, org), count in sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))
        ]

    def observed_organizations(self) -> List[str]:
        """All organisations operating at least one observed non-local tracker."""
        orgs: Set[str] = set()
        for result in self._results:
            for site in result.sites:
                orgs.update(site.organizations())
        return sorted(orgs)

    def top_organizations(self, n: int = 10) -> List[Tuple[str, int]]:
        """Organisations by number of (site, org) embeddings."""
        counts: Dict[str, int] = {}
        for _source, org, count in self.flow_edges():
            counts[org] = counts.get(org, 0) + count
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:n]

    def home_country_distribution(self) -> Dict[str, float]:
        """Share of observed organisations headquartered in each country."""
        observed = self.observed_organizations()
        if not observed:
            return {}
        counts: Dict[str, int] = {}
        for org_name in observed:
            home = self._directory.get(org_name).home_country
            counts[home] = counts.get(home, 0) + 1
        return {
            country: 100.0 * n / len(observed)
            for country, n in sorted(counts.items(), key=lambda kv: -kv[1])
        }

    def country_exclusive_organizations(self) -> Dict[str, List[str]]:
        """Organisations observed from exactly one source country."""
        sources: Dict[str, Set[str]] = {}
        for source, org, _count in self.flow_edges():
            sources.setdefault(org, set()).add(source)
        exclusive: Dict[str, List[str]] = {}
        for org, source_set in sources.items():
            if len(source_set) == 1:
                country = next(iter(source_set))
                exclusive.setdefault(country, []).append(org)
        return {country: sorted(orgs) for country, orgs in sorted(exclusive.items())}

    def cloud_hosted_trackers(self) -> Dict[str, List[str]]:
        """Cloud provider org -> tracker hosts served from its address space.

        Requires an IPinfo-like service; reproduces the paper's AS-level
        lookup finding trackers hosted on AWS/Google Cloud.
        """
        if self._ipinfo is None:
            raise ValueError("cloud attribution needs an IPInfoService")
        hosted: Dict[str, Set[str]] = {}
        for host, address in self._host_address_pairs():
            meta = self._ipinfo.lookup(address)
            if meta is not None and meta.is_cloud_hosted:
                hosted.setdefault(meta.org, set()).add(host)
        return {org: sorted(hosts) for org, hosts in sorted(hosted.items())}

    def _host_address_pairs(self, destination: Optional[str] = None):
        """Distinct (host, address) tracker pairs, one ipinfo probe each."""
        seen: Set[Tuple[str, str]] = set()
        for result in self._results:
            for site in result.sites:
                for tracker in site.trackers:
                    if destination is not None and \
                            tracker.destination_country != destination:
                        continue
                    pair = (tracker.host, tracker.address)
                    if pair not in seen:
                        seen.add(pair)
                        yield pair

    def cloud_hosted_in_country(self, country_code: str) -> List[str]:
        """Tracker hosts cloud-hosted at addresses located in *country_code*.

        The paper's Nairobi observation: trackers from SoundCloud, Spot.im
        etc. on Amazon-owned addresses in Kenya.
        """
        if self._ipinfo is None:
            raise ValueError("cloud attribution needs an IPInfoService")
        hosts: Set[str] = set()
        for host, address in self._host_address_pairs(destination=country_code):
            meta = self._ipinfo.lookup(address)
            if meta is not None and meta.is_cloud_hosted:
                hosts.add(host)
        return sorted(hosts)
