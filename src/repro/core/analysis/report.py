"""Plain-text rendering of every figure and table.

The benchmark harness prints these renderings so a run regenerates the
same rows/series the paper reports.  Rendering is deliberately simple
fixed-width text: easy to diff, easy to eyeball against the paper.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.core.analysis.continents import ContinentFlowAnalysis
from repro.core.analysis.flows import FlowAnalysis
from repro.core.analysis.hosting import HostingAnalysis
from repro.core.analysis.organizations import OrganizationAnalysis
from repro.core.analysis.perwebsite import PerWebsiteAnalysis
from repro.core.analysis.policy import PolicyAnalysis
from repro.core.analysis.prevalence import PrevalenceAnalysis
from repro.core.analysis.stats import correlation_or_none

__all__ = [
    "render_table",
    "render_fig3",
    "render_fig4",
    "render_fig5",
    "render_fig6",
    "render_fig7",
    "render_fig8",
    "render_table1",
]


def render_table(headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = "") -> str:
    """Fixed-width table rendering."""
    cells = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _fmt_correlation(compute: Callable[[], float]) -> str:
    value = correlation_or_none(compute)
    return "undefined" if value is None else f"{value:.2f}"


def render_fig3(analysis: PrevalenceAnalysis) -> str:
    rows = [
        (r.country_code, f"{r.regional_pct:.1f}", f"{r.government_pct:.1f}", f"{r.combined_pct:.1f}")
        for r in analysis.per_country()
    ]
    summary_reg = analysis.regional_mean_and_stdev()
    summary_gov = analysis.government_mean_and_stdev()
    body = render_table(
        ["country", "T_reg %", "T_gov %", "combined %"],
        rows,
        title="Figure 3: % of websites with non-local trackers",
    )
    return (
        body
        + f"\nregional mean={summary_reg['mean']:.2f}% sigma={summary_reg['stdev']:.2f}%"
        + f"\ngovernment mean={summary_gov['mean']:.2f}% sigma={summary_gov['stdev']:.2f}%"
        + f"\nreg/gov Pearson r={_fmt_correlation(analysis.regional_government_correlation)}"
    )


def render_fig4(analysis: PerWebsiteAnalysis, category: Optional[str] = None) -> str:
    rows = []
    for dist in analysis.all_distributions(category):
        if dist.box is None:
            rows.append((dist.country_code, 0, "-", "-", "-", "-", "-"))
            continue
        box = dist.box
        rows.append(
            (
                dist.country_code,
                dist.sites_with_trackers,
                f"{box.q1:.1f}",
                f"{box.median:.1f}",
                f"{box.q3:.1f}",
                f"{box.mean:.1f}±{box.stdev:.1f}",
                len(box.outliers),
            )
        )
    label = category or "all"
    return render_table(
        ["country", "sites", "q1", "median", "q3", "mean±sd", "outliers"],
        rows,
        title=f"Figure 4: non-local tracker domains per website ({label})",
    )


def render_fig5(analysis: FlowAnalysis, top: int = 12) -> str:
    shares = analysis.destination_shares()
    source_counts = analysis.source_count_per_destination()
    rows = [
        (dest, f"{share:.1f}", source_counts.get(dest, 0))
        for dest, share in list(shares.items())[:top]
    ]
    return render_table(
        ["destination", "% of sites w/ non-local", "source countries"],
        rows,
        title="Figure 5: destination countries of non-local tracking flows",
    )


def render_fig6(analysis: ContinentFlowAnalysis) -> str:
    matrix = analysis.matrix()
    rows = [
        (src, dst, count)
        for (src, dst), count in sorted(matrix.items(), key=lambda kv: (-kv[1], kv[0]))
    ]
    hub = analysis.central_hub()
    return (
        render_table(
            ["source continent", "destination continent", "websites"],
            rows,
            title="Figure 6: continental tracking flows",
        )
        + f"\ncentral hub: {hub}"
    )


def render_fig7(analysis: HostingAnalysis, top: int = 12) -> str:
    rows = list(analysis.domains_per_destination().items())[:top]
    return render_table(
        ["hosting country", "non-local tracking domains"],
        rows,
        title="Figure 7: hosting-country distribution of non-local tracking domains",
    )


def render_fig8(analysis: OrganizationAnalysis, top: int = 12) -> str:
    rows = analysis.top_organizations(top)
    dist = analysis.home_country_distribution()
    body = render_table(
        ["organisation", "site embeddings"],
        rows,
        title="Figure 8: organisations operating non-local trackers",
    )
    ownership = ", ".join(f"{cc}={pct:.0f}%" for cc, pct in list(dist.items())[:5])
    return body + f"\norganisations observed: {len(analysis.observed_organizations())}\nhome countries: {ownership}"


def render_table1(analysis: PolicyAnalysis) -> str:
    rows = [
        (r.country_code, r.policy_type, "Yes" if r.enacted else "No", f"{r.nonlocal_pct:.2f}")
        for r in analysis.table_rows()
    ]
    body = render_table(
        ["country", "type", "enacted", "non-local %"],
        rows,
        title="Table 1: data localization policy vs non-local tracker rate",
    )
    return body + (
        f"\nstrictness-vs-rate Spearman rho={_fmt_correlation(analysis.strictness_correlation)}"
    )
