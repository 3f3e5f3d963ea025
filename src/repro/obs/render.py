"""Human-readable summaries of a run journal (the ``gamma trace`` view).

Everything here is a pure function of the journal records, so the same
renderers work on live journals (with timings) and stripped ones
(``--no-timings`` — durations display as ``-``).

The funnel drill-down prints the ``country_funnel`` events: the
section-5 counts the geolocation pipeline wrote for each country, the
same numbers as :meth:`repro.study.StudyOutcome.funnel`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.obs.journal import RunJournal

__all__ = [
    "render_journal",
    "render_span_tree",
    "render_funnel",
    "render_slowest_sites",
    "render_faults",
]

#: Drill-down columns: (header, funnel stage, width).
_FUNNEL_COLUMNS = (
    ("total", "total_hosts", 7),
    ("unloc", "unlocated", 6),
    ("local", "local", 6),
    ("nonlocal", "nonlocal_candidates", 8),
    ("-src", "discarded_source", 6),
    ("-dst", "discarded_destination", 6),
    ("-rdns", "discarded_rdns", 6),
    ("verified", "verified_nonlocal", 8),
)


def _fmt_seconds(value: Optional[float], width: int = 8) -> str:
    if value is None:
        return "-".rjust(width)
    return f"{value:{width}.2f}"


def render_span_tree(journal: RunJournal) -> str:
    """Indented span tree with self/total seconds; sites are aggregated."""
    spans = journal.spans()
    children: Dict[str, List[dict]] = {}
    by_path: Dict[str, dict] = {}
    for span in spans:
        by_path[span["span"]] = span
        children.setdefault(span["parent"], []).append(span)

    lines = ["span tree (total / self seconds):"]

    def visit(span: dict, depth: int) -> None:
        kids = children.get(span["span"], [])
        total = span.get("dur")
        child_sum = sum(k.get("dur") or 0.0 for k in kids)
        self_s = None if total is None else max(0.0, total - child_sum)
        site_kids = [k for k in kids if k["kind"] == "site"]
        other_kids = [k for k in kids if k["kind"] != "site"]
        label = f"{'  ' * depth}{span['name']}"
        lines.append(f"  {label:<42} {_fmt_seconds(total)} {_fmt_seconds(self_s)}")
        if site_kids:
            site_total = sum(k.get("dur") or 0.0 for k in site_kids)
            shown = _fmt_seconds(site_total if span.get("dur") is not None else None)
            lines.append(
                f"  {'  ' * (depth + 1)}[{len(site_kids)} site visits]"
                f"{'':<{max(0, 42 - len(f'[{len(site_kids)} site visits]') - 2 * (depth + 1))}}"
                f" {shown}"
            )
        for kid in other_kids:
            visit(kid, depth + 1)

    roots = [span for span in spans if not span["parent"]]
    # Worker buffers close country/phase spans before the study span is
    # recorded, so render from the study root when present, else orphans.
    for root in roots or [s for s in spans if s["parent"] not in by_path]:
        visit(root, 0)
    if len(lines) == 1:
        lines.append("  (no spans recorded)")
    return "\n".join(lines)


def render_funnel(journal: RunJournal) -> str:
    """Per-country + merged funnel drill-down table, from the pipeline's
    ``country_funnel`` events."""
    rows = {
        record["country"]: record["funnel"]
        for record in journal.events("country_funnel")
    }
    merged: Dict[str, int] = {}
    for funnel in rows.values():
        for stage, count in funnel.items():
            merged[stage] = merged.get(stage, 0) + count
    rows = dict(sorted(rows.items()))
    rows["ALL"] = merged
    lines = [
        "funnel drill-down (host observations):",
        f"  {'country':<8}" + "".join(
            f" {header:>{width}}" for header, _, width in _FUNNEL_COLUMNS
        ),
    ]
    for country, funnel in rows.items():
        lines.append(f"  {country:<8}" + "".join(
            f" {funnel.get(stage, 0):>{width}}" for _, stage, width in _FUNNEL_COLUMNS
        ))
    return "\n".join(lines)


def render_slowest_sites(journal: RunJournal, top: int = 10) -> str:
    """Top-N slowest site visits (needs timings in the journal)."""
    sites = [span for span in journal.spans("site") if span.get("dur") is not None]
    lines = [f"top {top} slowest site visits:"]
    if not sites:
        lines.append("  (no site timings in journal)")
        return "\n".join(lines)
    sites.sort(key=lambda span: (-span["dur"], span["span"]))
    for span in sites[:top]:
        country = span["parent"].split("/")[1] if span["parent"].count("/") >= 1 else "?"
        lines.append(f"  {span['dur']:8.4f}s  {country:<3} {span['name']}")
    return "\n".join(lines)


def render_faults(journal: RunJournal) -> str:
    """The fault-tolerance story: failed and resumed countries.

    Resume records are diagnostics (stripped journals lack them);
    ``country_failed`` records survive stripping, so a skipped country
    is always visible here.
    """
    lines = ["fault tolerance (failures / resumes):"]
    for record in journal.events("country_resumed"):
        lines.append(f"  resumed  {record['country']:<3} from checkpoint")
    for record in journal.events("country_failed"):
        lines.append(f"  FAILED   {record['country']:<3} {record['error']}")
    if len(lines) == 1:
        lines.append("  (no faults recorded)")
    return "\n".join(lines)


def render_journal(journal: RunJournal, top: int = 10) -> str:
    """The full ``gamma trace`` report."""
    run = journal.run_record or {}
    headline = [
        f"run journal: {len(journal)} records, schema v{run.get('schema', '?')}, "
        f"{len(run.get('countries', []))} countries"
    ]
    env_bits = []
    if "backend" in run:
        env_bits.append(f"backend={run['backend']}")
    if "jobs" in run:
        env_bits.append(f"jobs={run['jobs']}")
    study = next((span for span in journal.spans("study") if "dur" in span), None)
    if study is not None:
        env_bits.append(f"wall={study['dur']:.2f}s")
    if env_bits:
        headline.append(" ".join(env_bits))
    sections = [
        "\n".join(headline),
        render_span_tree(journal),
        render_funnel(journal),
        render_slowest_sites(journal, top=top),
        render_faults(journal),
    ]
    return "\n\n".join(sections)
