"""One-object study summary: every headline number, JSON-ready.

Collects the metrics the paper's abstract and evaluation headline into a
single serialisable structure — used by the artifact manifest, the CLI,
and downstream comparisons (e.g. longitudinal before/after diffs).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.analysis.stats import correlation_or_none

__all__ = ["StudySummary", "summarize_study"]


@dataclass
class StudySummary:
    """Headline metrics of one study run."""

    countries: List[str] = field(default_factory=list)
    countries_with_foreign_trackers: int = 0
    regional_mean_pct: float = 0.0
    regional_stdev_pct: float = 0.0
    government_mean_pct: float = 0.0
    government_stdev_pct: float = 0.0
    #: None when the correlation is undefined (fewer than two countries,
    #: or one side constant) — as is ``policy_strictness_spearman``.
    reg_gov_pearson: Optional[float] = 0.0
    combined_pct_by_country: Dict[str, float] = field(default_factory=dict)
    top_destinations: Dict[str, float] = field(default_factory=dict)
    central_hub_continent: Optional[str] = None
    top_hosting_countries: Dict[str, int] = field(default_factory=dict)
    organizations_observed: int = 0
    org_home_distribution: Dict[str, float] = field(default_factory=dict)
    sites_with_nonlocal: int = 0
    first_party_sites: int = 0
    funnel: Dict[str, int] = field(default_factory=dict)
    policy_strictness_spearman: Optional[float] = 0.0
    source_trace_origins: Dict[str, str] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def headline(self) -> str:
        """The abstract, regenerated."""
        share = 100.0 * self.countries_with_foreign_trackers / max(1, len(self.countries))
        top = next(iter(self.top_destinations), "?")
        return (
            f"Websites in {share:.0f}% of examined countries "
            f"({self.countries_with_foreign_trackers}/{len(self.countries)}) embed "
            f"trackers hosted in foreign nations; on average {self.regional_mean_pct:.1f}% "
            f"of regional websites (sigma {self.regional_stdev_pct:.1f}) and "
            f"{self.government_mean_pct:.1f}% of government websites transmit data "
            f"abroad. {top} is the single most common destination and "
            f"{self.central_hub_continent} the central hub for tracking aggregation; "
            f"{self.org_home_distribution.get('US', 0):.0f}% of observed tracking "
            f"organisations are US-based."
        )


def _correlation(compute: Callable[[], float]) -> Optional[float]:
    """*compute*'s coefficient to 3 places, or None where it is undefined."""
    value = correlation_or_none(compute)
    return None if value is None else round(value, 3)


def summarize_study(outcome) -> StudySummary:
    """Build a :class:`StudySummary` from a :class:`~repro.study.StudyOutcome`."""
    prevalence = outcome.prevalence()
    regional = prevalence.regional_mean_and_stdev()
    government = prevalence.government_mean_and_stdev()
    flows = outcome.flows()
    organizations = outcome.organizations()
    first_party = outcome.first_party()
    funnel = outcome.funnel()
    return StudySummary(
        countries=sorted(outcome.datasets),
        countries_with_foreign_trackers=len(prevalence.countries_with_foreign_trackers()),
        regional_mean_pct=round(regional["mean"], 2),
        regional_stdev_pct=round(regional["stdev"], 2),
        government_mean_pct=round(government["mean"], 2),
        government_stdev_pct=round(government["stdev"], 2),
        reg_gov_pearson=_correlation(prevalence.regional_government_correlation),
        combined_pct_by_country={
            cc: round(pct, 2) for cc, pct in prevalence.combined_pct_by_country().items()
        },
        top_destinations={
            cc: round(share, 1)
            for cc, share in list(flows.destination_shares().items())[:8]
        },
        central_hub_continent=outcome.continents().central_hub(),
        top_hosting_countries=dict(list(outcome.hosting().domains_per_destination().items())[:8]),
        organizations_observed=len(organizations.observed_organizations()),
        org_home_distribution={
            cc: round(pct, 1)
            for cc, pct in organizations.home_country_distribution().items()
        },
        sites_with_nonlocal=first_party.sites_with_nonlocal(),
        first_party_sites=len(first_party.first_party_sites()),
        funnel={
            "total_hosts": funnel.total_hosts,
            "nonlocal_candidates": funnel.nonlocal_candidates,
            "after_latency_constraints": funnel.after_latency_constraints,
            "after_rdns": funnel.after_rdns,
        },
        policy_strictness_spearman=_correlation(outcome.policy().strictness_correlation),
        source_trace_origins=dict(outcome.source_trace_origins),
    )
