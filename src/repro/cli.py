"""Command-line interface: the ``gamma`` entry point.

Subcommands mirror how the paper's artefacts are used:

* ``gamma volunteer CC``  — run the measurement suite as one volunteer
  (what participants executed), writing the dataset JSON.
* ``gamma study``         — run the full methodology for any set of
  countries and print the headline analyses.
* ``gamma figures``       — regenerate every figure/table of the paper.
* ``gamma audit CC``      — the policymaker audit of one country.
* ``gamma export DIR``    — run the full study and write the artifact
  bundle (datasets, verdicts, rendered figures).
* ``gamma whatif CC``     — longitudinal what-if: a localization law
  takes effect and operators deploy residency PoPs.
* ``gamma stability CC``  — multi-visit variability (the §7 follow-up).
* ``gamma recruitment``   — the volunteer/consent ledger (§3.3-3.5).
* ``gamma trace FILE``    — summarize a run journal written with
  ``--trace`` (span tree, funnel drill-down, slowest sites, faults).
* ``gamma metrics ...``   — inspect run metric snapshots: render one,
  validate it against the schema, diff two runs with regression verdicts.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import List, Optional

import repro
from repro import GammaSuite, StudyConfig, build_scenario, run_study
from repro.artifacts import export_study
from repro.exec.executor import BACKENDS
from repro.exec.resilience import ON_ERROR_POLICIES, FaultInjector
from repro.core.analysis.report import (
    render_fig3,
    render_fig4,
    render_fig5,
    render_fig6,
    render_fig7,
    render_fig8,
    render_table,
    render_table1,
)
from repro.netsim.geography import MEASUREMENT_COUNTRIES

__all__ = ["main", "build_parser"]

#: Seconds from the top of ``repro/__init__.py`` to the CLI being
#: importable: the cold start a ``gamma`` command pays before any work.
_IMPORT_SECONDS = time.perf_counter() - repro._IMPORT_STARTED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gamma",
        description="Reproduction of 'Where in the World Are My Trackers?' (IMC 2025)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    volunteer = sub.add_parser("volunteer", help="run Gamma as one volunteer")
    volunteer.add_argument("country", choices=sorted(MEASUREMENT_COUNTRIES))
    volunteer.add_argument("--output", type=Path, default=None,
                           help="write the dataset JSON here")

    study = sub.add_parser("study", help="run the full methodology")
    study.add_argument("--countries", default=None,
                       help="comma-separated country codes (default: all 23)")
    study.add_argument("--inject-fault", default=None, metavar="CC[,CC...]",
                       help="deterministic fault injection (testing/CI): fail "
                            "each named country every time it runs")
    _add_exec_arguments(study)

    figures = sub.add_parser("figures", help="regenerate every figure and table")
    _add_exec_arguments(figures)

    audit = sub.add_parser("audit", help="data-localization audit for one country")
    audit.add_argument("country", choices=sorted(MEASUREMENT_COUNTRIES))

    export = sub.add_parser("export", help="run the study and export the artifact bundle")
    export.add_argument("directory", type=Path)
    _add_exec_arguments(export)

    whatif = sub.add_parser("whatif", help="longitudinal localization what-if")
    whatif.add_argument("country", choices=sorted(MEASUREMENT_COUNTRIES))
    whatif.add_argument("--adoption", type=_adoption_rate, default=0.7,
                        help="industry compliance rate (0, 1]")

    stability = sub.add_parser("stability", help="multi-visit variability for one country")
    stability.add_argument("country", choices=sorted(MEASUREMENT_COUNTRIES))
    stability.add_argument("--visits", type=_positive_count, default=3,
                           help="visits per site (default 3)")
    stability.add_argument("--limit", type=_positive_count, default=30,
                           help="number of target sites to revisit")

    sub.add_parser("recruitment", help="print the volunteer/consent ledger")

    report = sub.add_parser("report", help="full markdown report for one country")
    report.add_argument("country", choices=sorted(MEASUREMENT_COUNTRIES))
    report.add_argument("--output", type=Path, default=None)

    metrics = sub.add_parser(
        "metrics", help="show, validate, and diff run metric snapshots"
    )
    msub = metrics.add_subparsers(dest="metrics_command", required=True)
    mshow = msub.add_parser("show", help="render a metrics.json snapshot")
    mshow.add_argument("snapshot", type=Path)
    mshow.add_argument("--runtime", action="store_true",
                       help="include runtime-class families (timings, cache "
                            "traffic) alongside the deterministic study series")
    mvalidate = msub.add_parser(
        "validate", help="validate a snapshot against the schema (exit 1 on problems)"
    )
    mvalidate.add_argument("snapshot", type=Path)
    mdiff = msub.add_parser(
        "diff", help="compare two run snapshots with regression verdicts"
    )
    mdiff.add_argument("old", type=Path, help="baseline run snapshot")
    mdiff.add_argument("new", type=Path, help="candidate run snapshot")
    mdiff.add_argument("--threshold", type=float, default=0.25, metavar="R",
                       help="relative tolerance for runtime families "
                            "(default 0.25); deterministic families must "
                            "match exactly regardless")
    mdiff.add_argument("--runtime", action="store_true",
                       help="also compare runtime-class families "
                            "(threshold-based, noisy across machines)")

    trace = sub.add_parser("trace", help="summarize a structured run journal")
    trace.add_argument("journal", type=Path, help="JSONL journal from --trace")
    trace.add_argument("--top", type=int, default=10,
                       help="how many slowest site visits to list (default 10)")
    trace.add_argument("--validate", action="store_true",
                       help="only validate every line against the event schema "
                            "(exit 1 on any problem)")

    sub.add_parser("selfcheck", help="validate the built scenario's consistency")
    return parser


def _job_count(raw: str) -> int:
    jobs = int(raw)
    if jobs < 0:
        raise argparse.ArgumentTypeError("must be >= 0 (0 = one per CPU)")
    return jobs


def _positive_count(raw: str) -> int:
    count = int(raw)
    if count < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return count


def _adoption_rate(raw: str) -> float:
    rate = float(raw)
    if not 0.0 < rate <= 1.0:
        raise argparse.ArgumentTypeError("must be in (0, 1]")
    return rate


def _add_exec_arguments(parser: argparse.ArgumentParser) -> None:
    """``--jobs``/``--backend``: the parallel execution layer (repro.exec)."""
    parser.add_argument("--jobs", type=_job_count, default=1, metavar="N",
                        help="per-country workers: 1 = serial (default), "
                             "N > 1 = parallel, 0 = one per CPU")
    parser.add_argument("--backend", choices=BACKENDS, default="auto",
                        help="execution backend (default: auto — serial for "
                             "--jobs 1, process pool otherwise)")
    parser.add_argument("--trace", type=Path, default=None, metavar="FILE",
                        help="write the structured run journal (JSONL) here; "
                             "summarize it with 'gamma trace FILE'")
    parser.add_argument("--no-timings", action="store_true",
                        help="strip timing/runtime fields from the journal so "
                             "it is byte-identical across backends and runs")
    parser.add_argument("--on-error", choices=list(ON_ERROR_POLICIES),
                        default="raise",
                        help="per-country failure policy: raise = fail fast "
                             "(default), skip = record the failure and keep "
                             "going")
    parser.add_argument("--checkpoint-dir", type=Path, default=None,
                        metavar="DIR",
                        help="persist each completed country here (atomic, "
                             "one file per country) as it lands")
    parser.add_argument("--resume", action="store_true",
                        help="skip countries already persisted in "
                             "--checkpoint-dir and merge their stored runs")
    progress = parser.add_mutually_exclusive_group()
    progress.add_argument("--progress", dest="progress", action="store_true",
                          default=None,
                          help="stream per-country completion lines to stderr "
                               "(default: only when stderr is a TTY)")
    progress.add_argument("--no-progress", dest="progress", action="store_false",
                          help="suppress the live progress line")
    parser.add_argument("--profile", action="store_true",
                        help="record per-country resource usage (CPU seconds "
                             "per phase, GC collections, peak RSS) into the "
                             "run snapshot")
    parser.add_argument("--metrics-out", type=Path, default=None, metavar="PATH",
                        help="write the run metrics snapshot (a metrics.json "
                             "document) here")


def _check_countries(countries) -> None:
    unknown = set(countries) - set(MEASUREMENT_COUNTRIES)
    if unknown:
        raise SystemExit(f"unknown measurement countries: {sorted(unknown)}")


def _parse_countries(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    countries = [c.strip().upper() for c in raw.split(",") if c.strip()]
    _check_countries(countries)
    return countries


def _parse_fault_injector(
    raw: Optional[str], countries: Optional[List[str]]
) -> Optional[FaultInjector]:
    """The ``--inject-fault`` countries, each one the study measures
    (*countries*, or every measurement country when None)."""
    if raw is None:
        return None
    try:
        injector = FaultInjector.parse(raw)
    except ValueError as error:
        raise SystemExit(str(error))
    _check_countries(injector.countries)
    outside = set(injector.countries) - set(countries or MEASUREMENT_COUNTRIES)
    if outside:
        raise SystemExit(
            f"--inject-fault names countries outside the study: {sorted(outside)}"
        )
    return injector


def _cmd_volunteer(args: argparse.Namespace) -> int:
    scenario = build_scenario()
    volunteer = scenario.volunteers[args.country]
    suite = GammaSuite(scenario.world, scenario.catalog, scenario.browser_config)
    print(f"Running Gamma for {volunteer.name} ({volunteer.city.key}, {volunteer.os_name})")
    dataset = suite.run(volunteer, scenario.targets[args.country])
    counts = dataset.traceroute_counts()
    print(f"Loaded {dataset.loaded_count}/{dataset.attempted_count} sites "
          f"({dataset.load_success_pct():.0f}%), "
          f"{counts['attempted']} traceroutes ({counts['reached']} reached)")
    if args.output is not None:
        args.output.write_text(dataset.to_json(), encoding="utf-8")
        print(f"Dataset written to {args.output}")
    return 0


def _run_kwargs(args: argparse.Namespace) -> dict:
    """``run_study`` keyword arguments shared by study/figures/export:
    one :class:`StudyConfig` plus the per-run I/O."""
    if args.resume and args.checkpoint_dir is None:
        raise SystemExit("--resume requires --checkpoint-dir")
    progress = args.progress
    if progress is None:  # default: live line only on an interactive stderr
        progress = sys.stderr.isatty()
    config = StudyConfig(
        jobs=args.jobs,
        backend=args.backend,
        on_error=args.on_error,
        profile=args.profile,
    )
    return {
        "config": config,
        "trace": args.trace,
        "trace_timings": not args.no_timings,
        "checkpoint_dir": args.checkpoint_dir,
        "resume": args.resume,
        "progress": progress,
        "metrics_out": args.metrics_out,
    }


def _print_failures(outcome) -> None:
    if not outcome.failures:
        return
    print()
    print(render_table(
        ["country", "error"],
        [(f.country_code, f"{f.error_type}: {f.message}")
         for f in outcome.failures],
        title="Failed countries (excluded from the analyses above)",
    ))


def _cold_start_lines(build_seconds: float, render_seconds: float) -> str:
    """The phases outside the fan-out ``wall``, as lines of the
    ``execution:`` block."""
    phases = (("import", _IMPORT_SECONDS), ("build", build_seconds), ("render", render_seconds))
    return "\n".join(f"  {phase:<14} {seconds:8.2f}s" for phase, seconds in phases)


def _cmd_study(args: argparse.Namespace) -> int:
    countries = _parse_countries(args.countries)
    injector = _parse_fault_injector(args.inject_fault, countries)
    started = time.perf_counter()
    scenario = build_scenario()
    build_seconds = time.perf_counter() - started
    outcome = run_study(
        scenario, countries=countries, fault_injector=injector,
        **_run_kwargs(args),
    )
    started = time.perf_counter()
    rows = [
        (r.country_code, f"{r.regional_pct:.1f}", f"{r.government_pct:.1f}",
         f"{r.combined_pct:.1f}", outcome.source_trace_origins[r.country_code])
        for r in outcome.prevalence().per_country()
    ]
    print(render_table(
        ["country", "T_reg %", "T_gov %", "combined %", "source traces"], rows,
        title="Non-local tracker prevalence",
    ))
    funnel = outcome.funnel()
    print(f"\nfunnel: {funnel.total_hosts} observations -> "
          f"{funnel.nonlocal_candidates} non-local -> "
          f"{funnel.after_latency_constraints} after latency -> "
          f"{funnel.after_rdns} verified")
    render_seconds = time.perf_counter() - started
    print(f"\n{outcome.metrics.render()}")
    print(_cold_start_lines(build_seconds, render_seconds))
    _print_failures(outcome)
    if args.trace is not None:
        print(f"\nrun journal written to {args.trace} "
              f"(summarize with: gamma trace {args.trace})")
    if args.metrics_out is not None:
        print(f"metrics snapshot written to {args.metrics_out} "
              f"(inspect with: gamma metrics show {args.metrics_out})")
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    scenario = build_scenario()
    outcome = run_study(scenario, **_run_kwargs(args))
    sections = [
        render_fig3(outcome.prevalence()),
        render_fig4(outcome.per_website()),
        render_fig5(outcome.flows()),
        render_fig6(outcome.continents()),
        render_fig7(outcome.hosting()),
        render_fig8(outcome.organizations()),
        render_table1(outcome.policy()),
    ]
    print(("\n\n" + "=" * 72 + "\n\n").join(sections))
    _print_failures(outcome)
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    scenario = build_scenario()
    outcome = run_study(scenario, countries=[args.country])
    record = scenario.policy.get(args.country)
    result = outcome.result_for(args.country)
    tracked = sum(1 for s in result.sites if s.has_nonlocal_tracker)
    destinations = {}
    for site in result.sites:
        for tracker in site.trackers:
            destinations[tracker.destination_country] = (
                destinations.get(tracker.destination_country, 0) + 1
            )
    print(f"{scenario.world.geo.country(args.country).name}: policy {record.policy_type} "
          f"({'enacted' if record.enacted else 'not in effect'})")
    print(f"{tracked}/{len(result.sites)} sites transmit data abroad "
          f"({100 * tracked / max(1, len(result.sites)):.1f}%)")
    print(render_table(
        ["destination", "tracker observations"],
        sorted(destinations.items(), key=lambda kv: -kv[1])[:10],
        title="Destinations",
    ))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    scenario = build_scenario()
    outcome = run_study(scenario, **_run_kwargs(args))
    files = export_study(outcome, args.directory)
    print(f"Wrote {len(files)} files under {args.directory}")
    _print_failures(outcome)
    return 0


def _cmd_whatif(args: argparse.Namespace) -> int:
    from repro.longitudinal import LongitudinalStudy

    scenario = build_scenario(seed=f"whatif-{args.country}")
    study = LongitudinalStudy(scenario)
    report = study.measure_effect(args.country, adoption=args.adoption)
    print(f"{args.country}: non-local rate {report.before_pct:.1f}% -> "
          f"{report.after_pct:.1f}% after {len(report.localized_orgs)} operators "
          f"deployed residency PoPs ({args.adoption:.0%} adoption)")
    return 0


def _cmd_stability(args: argparse.Namespace) -> int:
    from repro.stability import VisitVariabilityStudy

    scenario = build_scenario()
    study = VisitVariabilityStudy(scenario)
    summary = study.country_summary(args.country, visits=args.visits, limit=args.limit)
    print(f"{args.country} over {summary['sites']} sites x {args.visits} visits: "
          f"tracker-set Jaccard {summary['mean_jaccard']:.2f}; a single visit "
          f"misses {summary['missed_share']:.1%} of observable trackers")
    return 0


def _cmd_recruitment(_args: argparse.Namespace) -> int:
    from repro.recruitment import build_recruitment_log

    scenario = build_scenario()
    log = build_recruitment_log(scenario.volunteers)
    rows = []
    for participant in log.active_participants:
        consent = log.consents[participant.participant_id]
        notes = []
        if consent.opted_out_components:
            notes.append(f"opted out of {','.join(consent.opted_out_components)}")
        if consent.opted_out_sites:
            notes.append(f"{len(consent.opted_out_sites)} site opt-outs")
        rows.append((participant.participant_id, ",".join(participant.country_codes),
                     participant.channel, "; ".join(notes) or "-"))
    print(render_table(
        ["participant", "countries", "recruited via", "accommodations"], rows,
        title=f"{len(log.active_participants)} volunteers covering "
              f"{len(log.covered_countries)} countries (paper: 22 / 23)",
    ))
    problems = log.validate_against_volunteers(scenario.volunteers)
    if problems:
        print(f"\nINCONSISTENCIES: {problems}")
    else:
        print("\nconsent ledger consistent with volunteer configuration")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.core.analysis.country_report import render_country_report

    scenario = build_scenario()
    outcome = run_study(scenario, countries=[args.country])
    report = render_country_report(outcome, args.country)
    if args.output is not None:
        args.output.write_text(report)
        print(f"Report written to {args.output}")
    else:
        print(report)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import RunJournal, render_journal, validate_journal

    try:
        journal = RunJournal.read(args.journal)
    except (OSError, ValueError) as error:
        print(f"cannot read journal: {error}")
        return 1
    if args.validate:
        problems = validate_journal(journal.records)
        if problems:
            for problem in problems:
                print(f"SCHEMA: {problem}")
            return 1
        print(f"journal OK: {len(journal)} records conform to the event schema")
        return 0
    print(render_journal(journal, top=args.top))
    return 0


def _render_metric_families(snapshot, include_runtime: bool) -> str:
    from repro.obs.metrics import _metric_families

    lines = []
    families = _metric_families(snapshot)
    for name in sorted(families):
        entry = families[name]
        if entry.get("runtime", False) and not include_runtime:
            continue
        tag = " (runtime)" if entry.get("runtime", False) else ""
        lines.append(f"{name} [{entry['type']}]{tag} — {entry.get('help', '')}")
        for record in entry.get("series", []):
            labels = record.get("labels", {})
            label_str = ", ".join(f"{k}={v}" for k, v in labels.items())
            prefix = f"  {{{label_str}}}" if label_str else "  (no labels)"
            if entry["type"] == "histogram":
                lines.append(
                    f"{prefix}: count={record['count']} sum={record['sum']:g}"
                )
            else:
                lines.append(f"{prefix}: {record['value']:g}")
    return "\n".join(lines)


class _UnreadableSnapshot(Exception):
    """A snapshot path that does not hold a readable metrics.json document."""


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as error:
        raise _UnreadableSnapshot(f"{path}: {error.strerror or error}") from error
    except UnicodeDecodeError as error:
        raise _UnreadableSnapshot(f"{path}: not UTF-8 text: {error}") from error


def _read_snapshot(path: Path) -> dict:
    """The metrics.json document at ``path``, or :class:`_UnreadableSnapshot`."""
    import json

    try:
        snapshot = json.loads(_read_text(path))
    except ValueError as error:
        raise _UnreadableSnapshot(f"{path}: not valid JSON: {error}") from error
    if not isinstance(snapshot, dict):
        raise _UnreadableSnapshot(f"{path}: not a JSON object")
    return snapshot


def _schema_problems(documents) -> bool:
    """Print one ``SCHEMA:`` line per problem of each ``(path, snapshot)``;
    True when any document is malformed.  ``show``/``diff`` take a study
    snapshot or a bare registry snapshot (top-level ``families``)."""
    from repro.obs.metrics import validate_metrics_snapshot, validate_study_snapshot

    found = False
    for path, snapshot in documents:
        validate = (validate_metrics_snapshot if "families" in snapshot
                    else validate_study_snapshot)
        for problem in validate(snapshot):
            print(f"SCHEMA: {path}: {problem}")
            found = True
    return found


def _cmd_metrics(args: argparse.Namespace) -> int:
    try:
        return _run_metrics_command(args)
    except _UnreadableSnapshot as error:
        print(f"cannot read snapshot: {error}")
        return 1


def _run_metrics_command(args: argparse.Namespace) -> int:
    from repro.obs.metrics import diff_snapshots, validate_study_snapshot

    if args.metrics_command == "show":
        snapshot = _read_snapshot(args.snapshot)
        if _schema_problems([(args.snapshot, snapshot)]):
            return 1
        meta = snapshot.get("meta", {})
        if meta:
            line = f"run: backend={meta.get('backend')} jobs={meta.get('jobs')} "
            if meta.get("cpus"):
                line += f"cpus={meta['cpus']} "
            print(line + f"countries={len(meta.get('countries', []))}")
        print(_render_metric_families(snapshot, include_runtime=args.runtime))
        resources = snapshot.get("resources")
        if resources:
            print("\nresources (per country):")
            for country, usage in sorted(resources.items()):
                line = f"  {country}: cpu={usage.get('cpu_seconds', 0):g}s"
                if "peak_rss_kb" in usage:
                    line += f" peak_rss={usage['peak_rss_kb']}kB"
                line += f" gc={usage.get('gc_collections', 0)}"
                print(line)
        return 0

    if args.metrics_command == "validate":
        snapshot = _read_snapshot(args.snapshot)
        problems = validate_study_snapshot(snapshot)
        if problems:
            for problem in problems:
                print(f"SCHEMA: {problem}")
            return 1
        families = snapshot.get("metrics", {}).get("families", {})
        print(f"snapshot OK: {len(families)} metric families conform to the schema")
        return 0

    # diff
    old, new = _read_snapshot(args.old), _read_snapshot(args.new)
    if _schema_problems([(args.old, old), (args.new, new)]):
        return 1
    findings = diff_snapshots(
        old, new, threshold=args.threshold, include_runtime=args.runtime
    )
    for finding in findings:
        print(finding.render())
    bad = [f for f in findings if f.severity in ("regression", "drift")]
    if bad:
        print(f"\n{len(bad)} regression(s) out of {len(findings)} finding(s)")
        return 1
    print(f"no regressions ({len(findings)} informational finding(s))"
          if findings else "no regressions (snapshots agree)")
    return 0


def _cmd_selfcheck(_args: argparse.Namespace) -> int:
    from repro.worldgen.selfcheck import check_scenario

    scenario = build_scenario()
    problems = check_scenario(scenario)
    if problems:
        for problem in problems:
            print(f"PROBLEM: {problem}")
        return 1
    print(f"scenario healthy: {len(scenario.catalog)} sites, "
          f"{len(scenario.world.deployments)} deployments, "
          f"{len(scenario.world.ips)} prefixes, 23 volunteers")
    return 0


_COMMANDS = {
    "volunteer": _cmd_volunteer,
    "study": _cmd_study,
    "figures": _cmd_figures,
    "audit": _cmd_audit,
    "export": _cmd_export,
    "whatif": _cmd_whatif,
    "stability": _cmd_stability,
    "recruitment": _cmd_recruitment,
    "report": _cmd_report,
    "trace": _cmd_trace,
    "metrics": _cmd_metrics,
    "selfcheck": _cmd_selfcheck,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like any
        # well-behaved filter.  Reopen stdout on devnull so the
        # interpreter's shutdown flush does not raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
