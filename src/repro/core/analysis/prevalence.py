"""Figure 3 / Table 1 column: prevalence of non-local trackers.

Per country: the percentage of regional and of government websites that
embed at least one verified non-local tracker, plus the combined rate
(Table 1's "Non-Local" column) and the cross-country regional/government
Pearson correlation the paper reports as 0.89.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.analysis.records import CountryStudyResult, SiteTrackerRecord
from repro.core.analysis.stats import mean, pearson, stdev

__all__ = ["CountryPrevalence", "PrevalenceAnalysis"]


def _pct_with_trackers(sites: Sequence[SiteTrackerRecord]) -> float:
    if not sites:
        return 0.0
    return 100.0 * sum(1 for s in sites if s.has_nonlocal_tracker) / len(sites)


@dataclass(frozen=True, slots=True)
class CountryPrevalence:
    """One country's Figure-3 bar pair plus the combined Table-1 rate."""

    country_code: str
    regional_pct: float
    government_pct: float
    combined_pct: float
    regional_count: int
    government_count: int


class PrevalenceAnalysis:
    """Computes prevalence rows across all study countries."""

    def __init__(self, results: Sequence[CountryStudyResult]):
        self._results = list(results)

    def per_country(self) -> List[CountryPrevalence]:
        rows: List[CountryPrevalence] = []
        for result in self._results:
            regional = result.regional_sites
            government = result.government_sites
            rows.append(
                CountryPrevalence(
                    country_code=result.country_code,
                    regional_pct=_pct_with_trackers(regional),
                    government_pct=_pct_with_trackers(government),
                    combined_pct=_pct_with_trackers(result.sites),
                    regional_count=len(regional),
                    government_count=len(government),
                )
            )
        return rows

    def combined_pct_by_country(self) -> Dict[str, float]:
        return {row.country_code: row.combined_pct for row in self.per_country()}

    def regional_mean_and_stdev(self) -> Dict[str, float]:
        """The paper's headline: mean 46.16 %, sigma 33.77 % for regional sites."""
        values = [row.regional_pct for row in self.per_country()]
        return {"mean": mean(values), "stdev": stdev(values)}

    def government_mean_and_stdev(self) -> Dict[str, float]:
        values = [row.government_pct for row in self.per_country()]
        return {"mean": mean(values), "stdev": stdev(values)}

    def regional_government_correlation(self) -> float:
        """Pearson r between regional and government rates (paper: 0.89)."""
        rows = self.per_country()
        return pearson([r.regional_pct for r in rows], [r.government_pct for r in rows])

    def countries_with_foreign_trackers(self) -> List[str]:
        """Countries where any site embeds a non-local tracker (paper: 21/23)."""
        return [
            row.country_code for row in self.per_country() if row.combined_pct > 0.0
        ]
