"""Visit-to-visit variability measurement (the paper's recommendation).

Section 7 (limitations): "each website was visited once; ... We recommend
that future studies perform multiple runs to mitigate the effects of
such variability."  This module implements that recommendation: visit
each target several times, compare the tracker sets each visit surfaced,
and quantify stability (Jaccard similarity) plus the coverage gained by
unioning multiple visits over using a single one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.browser.engine import BrowserEngine
from repro.core.analysis.stats import mean
from repro.core.trackers.identify import TrackerIdentifier
from repro.worldgen.builder import Scenario

__all__ = ["SiteStability", "VisitVariabilityStudy"]


@dataclass(frozen=True)
class SiteStability:
    """Multi-visit tracker observations for one site from one country."""

    url: str
    country_code: str
    visits: int
    #: Tracker hosts per *successful* visit; failed loads are excluded
    #: (connectivity noise is not tracker variability).
    per_visit_hosts: Tuple[Tuple[str, ...], ...]
    failed_visits: int = 0

    @property
    def union_hosts(self) -> Set[str]:
        return {host for visit in self.per_visit_hosts for host in visit}

    @property
    def intersection_hosts(self) -> Set[str]:
        if not self.per_visit_hosts:
            return set()
        sets = [set(v) for v in self.per_visit_hosts]
        result = sets[0]
        for s in sets[1:]:
            result &= s
        return result

    @property
    def jaccard(self) -> Optional[float]:
        """Similarity of the visit tracker sets (1.0 = perfectly stable)."""
        union = self.union_hosts
        if not union:
            return None
        return len(self.intersection_hosts) / len(union)

    @property
    def single_visit_coverage(self) -> Optional[float]:
        """Average share of the union a single visit observes."""
        union = self.union_hosts
        if not union:
            return None
        return mean([len(set(v)) / len(union) for v in self.per_visit_hosts])


class VisitVariabilityStudy:
    """Run N visits per site and quantify what one visit misses."""

    def __init__(self, scenario: Scenario, identifier: Optional[TrackerIdentifier] = None):
        self._scenario = scenario
        self._identifier = identifier or scenario.identifier
        self._engine = BrowserEngine(
            scenario.world, scenario.catalog, scenario.browser_config
        )

    def measure_site(self, url: str, country_code: str, visits: int = 3) -> SiteStability:
        if visits < 1:
            raise ValueError("need at least one visit")
        volunteer = self._scenario.volunteers[country_code]
        per_visit: List[Tuple[str, ...]] = []
        failed = 0
        for i in range(visits):
            record = self._engine.load(url, volunteer.city, visit_key=f"visit-{i + 1}")
            if not record.loaded:
                failed += 1
                continue
            trackers = tuple(sorted(
                host
                for host in record.requested_hosts(include_background=False)
                if self._identifier.classify(host, country_code).is_tracker
            ))
            per_visit.append(trackers)
        return SiteStability(
            url=url, country_code=country_code, visits=visits,
            per_visit_hosts=tuple(per_visit), failed_visits=failed,
        )

    def measure_country(
        self,
        country_code: str,
        visits: int = 3,
        limit: Optional[int] = None,
    ) -> List[SiteStability]:
        volunteer = self._scenario.volunteers[country_code]
        targets = self._scenario.targets[country_code].without(
            sorted(volunteer.opted_out_sites)
        ).all_sites
        if limit is not None:
            if limit < 0:
                raise ValueError("limit must be >= 0")
            targets = targets[:limit]
        return [self.measure_site(url, country_code, visits) for url in targets]

    def country_summary(
        self, country_code: str, visits: int = 3, limit: Optional[int] = None
    ) -> Dict[str, float]:
        """Aggregate stability for one country.

        Returns the number of sites measured, mean Jaccard, mean
        single-visit coverage, and the share of tracker hosts a one-visit
        crawl (the paper's setup) would miss.
        """
        stabilities = self.measure_country(country_code, visits, limit)
        jaccards = [s.jaccard for s in stabilities if s.jaccard is not None]
        coverages = [s.single_visit_coverage for s in stabilities
                     if s.single_visit_coverage is not None]
        if not jaccards:
            return {"sites": len(stabilities), "mean_jaccard": 1.0,
                    "mean_single_visit_coverage": 1.0, "missed_share": 0.0}
        coverage = mean(coverages)
        return {
            "sites": len(stabilities),
            "mean_jaccard": mean(jaccards),
            "mean_single_visit_coverage": coverage,
            "missed_share": 1.0 - coverage,
        }
