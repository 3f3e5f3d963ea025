"""Figure 7 / section 6.6: non-local tracking domains by hosting country.

Counts distinct (measurement country, tracking hostname) observations per
destination country: the same domain observed from two source countries
counts twice (Figure 7 stacks the distribution "by measurement country"),
but repeated observations within one country count once.  This is the
metric under which Kenya can host more distinct tracked domains than
France even though France serves far more websites.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.core.analysis.records import CountryStudyResult

__all__ = ["HostingAnalysis"]


class HostingAnalysis:
    """Destination-country hosting statistics."""

    def __init__(self, results: Sequence[CountryStudyResult]):
        self._results = list(results)

    def domain_observations(self) -> Set[Tuple[str, str, str]]:
        """All distinct ``(source country, host, destination country)`` triples."""
        observations: Set[Tuple[str, str, str]] = set()
        for result in self._results:
            for site in result.sites:
                for tracker in site.trackers:
                    observations.add(
                        (result.country_code, tracker.host, tracker.destination_country)
                    )
        return observations

    def domains_per_destination(self) -> Dict[str, int]:
        """Figure 7 totals: distinct (source, host) pairs per destination."""
        counts: Dict[str, int] = {}
        for _source, _host, destination in self.domain_observations():
            counts[destination] = counts.get(destination, 0) + 1
        return dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))

    def breakdown_by_source(self, destination: str) -> Dict[str, int]:
        """For one destination: distinct hosted domains per source country."""
        counts: Dict[str, int] = {}
        for source, _host, dest in self.domain_observations():
            if dest == destination:
                counts[source] = counts.get(source, 0) + 1
        return dict(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))

    def unique_domains_per_destination(self) -> Dict[str, int]:
        """Alternative metric: globally-unique hostnames per destination."""
        hosts: Dict[str, Set[str]] = {}
        for _source, host, destination in self.domain_observations():
            hosts.setdefault(destination, set()).add(host)
        return {
            dest: len(host_set)
            for dest, host_set in sorted(
                hosts.items(), key=lambda kv: (-len(kv[1]), kv[0])
            )
        }

    def top_destinations(self, n: int = 5) -> List[Tuple[str, int]]:
        return list(self.domains_per_destination().items())[:n]

    def destinations_hosting_exactly(self, count: int) -> List[str]:
        """Destinations hosting exactly *count* domains (paper: Belgium,
        Ghana, Turkey each hosted one)."""
        return sorted(
            dest for dest, n in self.domains_per_destination().items() if n == count
        )
