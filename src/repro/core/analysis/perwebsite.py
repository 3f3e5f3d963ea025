"""Figures 4 and 9: distribution of non-local tracker domains per website.

Per-site counts of distinct non-local tracking domains (full hostnames,
per the paper's definition in section 6.2), summarised as box plots per
country/category (Figure 4) and as frequency histograms (Figure 9).
Counts are computed over sites that embed at least one non-local tracker
— the population whose spread the paper's boxes describe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.core.analysis.records import CountryStudyResult
from repro.core.analysis.stats import BoxplotStats, boxplot_stats, skewness

__all__ = ["CountryDistribution", "PerWebsiteAnalysis"]


@dataclass(frozen=True, slots=True)
class CountryDistribution:
    """Distribution summary for one country/category."""

    country_code: str
    category: Optional[str]  # None = combined
    counts: tuple  # per-site tracker counts (sites with >= 1)
    box: Optional[BoxplotStats]
    skew: Optional[float]

    @property
    def sites_with_trackers(self) -> int:
        return len(self.counts)


class PerWebsiteAnalysis:
    """Per-site tracker-count distributions across countries."""

    def __init__(self, results: Sequence[CountryStudyResult]):
        self._results = list(results)

    def counts_for(self, country_code: str, category: Optional[str] = None) -> List[int]:
        result = self._find(country_code)
        return [
            site.tracker_count
            for site in result.sites_in(category)
            if site.has_nonlocal_tracker
        ]

    def distribution(self, country_code: str, category: Optional[str] = None) -> CountryDistribution:
        counts = self.counts_for(country_code, category)
        values = [float(c) for c in counts]
        return CountryDistribution(
            country_code=country_code,
            category=category,
            counts=tuple(counts),
            box=boxplot_stats(values) if values else None,
            skew=skewness(values),
        )

    def all_distributions(self, category: Optional[str] = None) -> List[CountryDistribution]:
        return [self.distribution(r.country_code, category) for r in self._results]

    def histogram(self, country_code: str, max_count: Optional[int] = None) -> Dict[int, int]:
        """Figure 9: frequency of per-site tracker counts for one country."""
        counts = self.counts_for(country_code)
        histogram: Dict[int, int] = {}
        for count in counts:
            if max_count is not None and count > max_count:
                count = max_count
            histogram[count] = histogram.get(count, 0) + 1
        return dict(sorted(histogram.items()))

    def outlier_sites(self, country_code: str) -> List[str]:
        """Sites whose tracker count is a Tukey outlier for their country."""
        distribution = self.distribution(country_code)
        if distribution.box is None or not distribution.box.outliers:
            return []
        outlier_values = set(distribution.box.outliers)
        result = self._find(country_code)
        return sorted(
            site.url
            for site in result.sites
            if site.has_nonlocal_tracker and float(site.tracker_count) in outlier_values
        )

    def _find(self, country_code: str) -> CountryStudyResult:
        for result in self._results:
            if result.country_code == country_code:
                return result
        raise KeyError(f"no study result for {country_code}")
