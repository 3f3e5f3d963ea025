"""Figure 5: non-local tracking flows from source to destination countries.

Flow weight = number of websites in the source country with at least one
verified non-local tracker hosted in the destination country.  The
analysis also reproduces the paper's derived observations: destination
shares among websites-with-non-local-trackers (France 43 %...), how many
distinct sources feed each destination, and the single-source
sensitivity test (e.g. Australia's share collapsing without New Zealand).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.analysis.records import CountryStudyResult

__all__ = ["FlowEdge", "FlowAnalysis"]


@dataclass(frozen=True, slots=True)
class FlowEdge:
    """One source->destination edge of the flow diagram."""

    source: str
    destination: str
    website_count: int


class FlowAnalysis:
    """Country-to-country flow computations."""

    def __init__(self, results: Sequence[CountryStudyResult]):
        self._results = list(results)

    # -- core matrices -------------------------------------------------------
    def edges(self, category: Optional[str] = None) -> List[FlowEdge]:
        weights: Dict[Tuple[str, str], int] = {}
        for result in self._results:
            for site in result.sites_in(category):
                for destination in site.destination_countries():
                    key = (result.country_code, destination)
                    weights[key] = weights.get(key, 0) + 1
        return [
            FlowEdge(source=s, destination=d, website_count=n)
            for (s, d), n in sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))
        ]

    def sites_with_nonlocal(self, category: Optional[str] = None) -> int:
        """Denominator: websites (all countries) with >= 1 non-local tracker."""
        return sum(
            1
            for result in self._results
            for site in result.sites_in(category)
            if site.has_nonlocal_tracker
        )

    # -- destination views ---------------------------------------------------
    def destination_shares(
        self, category: Optional[str] = None, exclude_sources: Sequence[str] = ()
    ) -> Dict[str, float]:
        """Per destination: % of websites-with-non-local using it (>= 1 tracker)."""
        skip = set(exclude_sources)
        total = sum(
            1
            for result in self._results
            if result.country_code not in skip
            for site in result.sites_in(category)
            if site.has_nonlocal_tracker
        )
        if total == 0:
            return {}
        counts: Dict[str, int] = {}
        for result in self._results:
            if result.country_code in skip:
                continue
            for site in result.sites_in(category):
                for destination in site.destination_countries():
                    counts[destination] = counts.get(destination, 0) + 1
        return {dest: 100.0 * n / total for dest, n in sorted(counts.items(), key=lambda kv: -kv[1])}

    def source_count_per_destination(self, category: Optional[str] = None) -> Dict[str, int]:
        """How many distinct source countries feed each destination."""
        sources: Dict[str, set] = {}
        for edge in self.edges(category):
            sources.setdefault(edge.destination, set()).add(edge.source)
        return {dest: len(srcs) for dest, srcs in sorted(sources.items(), key=lambda kv: -len(kv[1]))}

    def single_source_effect(self, destination: str, category: Optional[str] = None) -> Dict[str, float]:
        """Destination share with each source excluded in turn.

        Reveals single-source-driven destinations (NZ->Australia,
        Thailand->Malaysia): the share collapses when that source is
        removed.
        """
        effects: Dict[str, float] = {}
        for result in self._results:
            shares = self.destination_shares(category, exclude_sources=[result.country_code])
            effects[result.country_code] = shares.get(destination, 0.0)
        return effects

    def dominant_source(self, destination: str) -> Optional[str]:
        """Source contributing the most websites to *destination*."""
        best: Optional[FlowEdge] = None
        for edge in self.edges():
            if edge.destination != destination:
                continue
            if best is None or edge.website_count > best.website_count:
                best = edge
        return best.source if best else None

    def destinations_of(self, source: str) -> Dict[str, int]:
        """Destination -> website count for one source country."""
        return {
            edge.destination: edge.website_count
            for edge in self.edges()
            if edge.source == source
        }
