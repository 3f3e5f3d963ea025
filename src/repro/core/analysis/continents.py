"""Figure 6: non-local tracking flows aggregated by continent.

Reproduces the paper's continent-level observations: Europe as the sole
large inward hub, Africa receiving no inward flow from other continents,
Oceania's flow staying within Oceania (NZ -> AU), and South America's
flow staying within the continent.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.analysis.flows import FlowAnalysis
from repro.core.analysis.records import CountryStudyResult
from repro.netsim.geography import GeoRegistry

__all__ = ["ContinentFlowAnalysis"]


class ContinentFlowAnalysis:
    """Continent-to-continent aggregation of the Figure-5 flow edges."""

    def __init__(self, results: Sequence[CountryStudyResult], registry: GeoRegistry):
        self._flows = FlowAnalysis(results)
        self._registry = registry

    def matrix(self, category: Optional[str] = None) -> Dict[Tuple[str, str], int]:
        """``(source continent, destination continent) -> website count``."""
        aggregated: Dict[Tuple[str, str], int] = {}
        for edge in self._flows.edges(category):
            key = (
                self._registry.continent_of(edge.source),
                self._registry.continent_of(edge.destination),
            )
            aggregated[key] = aggregated.get(key, 0) + edge.website_count
        return aggregated

    def inward_flow(self, continent: str) -> int:
        """Websites on *other* continents using trackers hosted in *continent*."""
        return sum(
            count
            for (src, dst), count in self.matrix().items()
            if dst == continent and src != continent
        )

    def outward_flow(self, continent: str) -> int:
        return sum(
            count
            for (src, dst), count in self.matrix().items()
            if src == continent and dst != continent
        )

    def intra_flow(self, continent: str) -> int:
        return self.matrix().get((continent, continent), 0)

    def inward_source_continents(self, continent: str) -> List[str]:
        """Which other continents send flow into *continent*."""
        return sorted(
            {src for (src, dst), n in self.matrix().items() if dst == continent and src != continent and n > 0}
        )

    def central_hub(self) -> Optional[str]:
        """The continent with the largest inward flow (paper: Europe)."""
        continents = {dst for (_src, dst) in self.matrix()}
        if not continents:
            return None
        return max(sorted(continents), key=self.inward_flow)

    def share_staying_within(self, continent: str) -> float:
        """Fraction of a continent's outgoing flow that stays on-continent."""
        intra = self.intra_flow(continent)
        total = intra + self.outward_flow(continent)
        if total == 0:
            return 0.0
        return intra / total
