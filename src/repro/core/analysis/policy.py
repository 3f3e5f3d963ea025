"""Table 1 / section 7: data-localization policy vs non-local tracker rates.

Joins the policy registry with the measured combined non-local rates,
renders Table 1's rows in strictness order, and tests the paper's
conclusion: no obvious impact of policy strictness on non-local rates —
in fact a weak *negative* trend (more permissive countries show fewer
non-local trackers).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.core.analysis.prevalence import PrevalenceAnalysis
from repro.core.analysis.records import CountryStudyResult
from repro.core.analysis.stats import mean, spearman
from repro.policy.registry import PolicyRegistry

__all__ = ["PolicyRow", "PolicyAnalysis"]


@dataclass(frozen=True, slots=True)
class PolicyRow:
    """One Table-1 row."""

    country_code: str
    policy_type: str
    enacted: bool
    nonlocal_pct: float
    strictness_rank: int


class PolicyAnalysis:
    """Policy-vs-measurement correlation."""

    def __init__(self, results: Sequence[CountryStudyResult], registry: PolicyRegistry):
        self._prevalence = PrevalenceAnalysis(results)
        self._registry = registry

    def table_rows(self) -> List[PolicyRow]:
        """Rows in the paper's order: decreasing strictness, then country."""
        rates = self._prevalence.combined_pct_by_country()
        rows: List[PolicyRow] = []
        for record in self._registry.by_strictness():
            if record.country_code not in rates:
                continue
            rows.append(
                PolicyRow(
                    country_code=record.country_code,
                    policy_type=record.policy_type,
                    enacted=record.enacted,
                    nonlocal_pct=rates[record.country_code],
                    strictness_rank=record.strictness_rank,
                )
            )
        return rows

    def mean_rate_by_policy_type(self) -> Dict[str, float]:
        grouped: Dict[str, List[float]] = {}
        for row in self.table_rows():
            grouped.setdefault(row.policy_type, []).append(row.nonlocal_pct)
        return {ptype: mean(values) for ptype, values in grouped.items()}

    def strictness_correlation(self) -> float:
        """Spearman rank correlation of strictness-rank vs non-local rate.

        Strictness rank increases with *permissiveness* (0 = strictest),
        so the paper's "weak negative trend — more permissive countries
        have fewer non-local trackers" appears as a negative coefficient.
        """
        rows = self.table_rows()
        return spearman(
            [float(r.strictness_rank) for r in rows],
            [r.nonlocal_pct for r in rows],
        )

    def enacted_only_correlation(self) -> float:
        """The same correlation restricted to enacted regimes."""
        rows = [r for r in self.table_rows() if r.enacted]
        return spearman(
            [float(r.strictness_rank) for r in rows],
            [r.nonlocal_pct for r in rows],
        )
