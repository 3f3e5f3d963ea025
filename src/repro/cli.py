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
  ``--trace`` (span tree, funnel drill-down, slowest sites, caches).
* ``gamma metrics ...``   — inspect run metric snapshots: render one,
  diff two runs with regression verdicts, derive/check baselines.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro import GammaConfig, GammaSuite, StudyConfig, build_scenario, run_study
from repro.artifacts import export_study
from repro.core.geoloc.pipeline import PipelineConfig
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
    study.add_argument("--cache-stats", action="store_true",
                       help="print hit/miss counters for every memo cache "
                            "(verdicts, distance, traces, ...) after the summary")
    study.add_argument("--confidence", action="store_true",
                       help="score every geolocation verdict with a "
                            "calibrated confidence (annotation only: binary "
                            "verdicts, funnels, summaries and stripped "
                            "journals are byte-identical either way); "
                            "inspect with 'gamma confidence'")
    study.add_argument("--inject-fault", default=None, metavar="CC[:N]",
                       help="deterministic fault injection (testing/CI): fail "
                            "country CC on its first N attempts (omit :N for "
                            "a permanent fault); comma-separate entries")
    _add_exec_arguments(study)

    confidence = sub.add_parser(
        "confidence",
        help="per-country verdict confidence, with calibration validation",
    )
    confidence.add_argument("--countries", default=None,
                            help="comma-separated country codes (default: all 23)")
    confidence.add_argument("--low", type=int, default=5, metavar="N",
                            help="lowest-confidence verdicts tracked per "
                                 "country (default 5)")
    confidence.add_argument("--validate", action="store_true",
                            help="measure calibration against the seeded "
                                 "ground truth (reliability bins, Brier, ECE) "
                                 "and exit 1 when the targets are missed")
    confidence.add_argument("--report-only", action="store_true",
                            help="with --validate: print the report but "
                                 "always exit 0 (CI advisory mode)")
    confidence.add_argument("--json", type=Path, default=None, metavar="PATH",
                            help="write the per-country and calibration "
                                 "reports as JSON here")
    _add_exec_arguments(confidence)

    figures = sub.add_parser("figures", help="regenerate every figure and table")
    _add_exec_arguments(figures)

    audit = sub.add_parser("audit", help="data-localization audit for one country")
    audit.add_argument("country", choices=sorted(MEASUREMENT_COUNTRIES))

    export = sub.add_parser("export", help="run the study and export the artifact bundle")
    export.add_argument("directory", type=Path)
    _add_exec_arguments(export)

    whatif = sub.add_parser("whatif", help="longitudinal localization what-if")
    whatif.add_argument("country", choices=sorted(MEASUREMENT_COUNTRIES))
    whatif.add_argument("--adoption", type=float, default=0.7,
                        help="industry compliance rate (0, 1]")

    stability = sub.add_parser("stability", help="multi-visit variability for one country")
    stability.add_argument("country", choices=sorted(MEASUREMENT_COUNTRIES))
    stability.add_argument("--visits", type=int, default=3)
    stability.add_argument("--limit", type=int, default=30,
                           help="number of target sites to revisit")

    sub.add_parser("recruitment", help="print the volunteer/consent ledger")

    report = sub.add_parser("report", help="full markdown report for one country")
    report.add_argument("country", choices=sorted(MEASUREMENT_COUNTRIES))
    report.add_argument("--output", type=Path, default=None)

    metrics = sub.add_parser(
        "metrics", help="inspect, diff, and check run metric snapshots"
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
    mbaseline = msub.add_parser(
        "baseline", help="derive a baseline from a reference snapshot + BENCH files"
    )
    mbaseline.add_argument("snapshot", type=Path, nargs="?", default=None)
    mbaseline.add_argument("--bench", type=Path, action="append", default=[],
                           metavar="FILE", help="BENCH_*.json file (repeatable)")
    mbaseline.add_argument("--margin", type=float, default=0.5,
                           help="slack below each BENCH number before the "
                                "floor trips (default 0.5)")
    mbaseline.add_argument("--output", type=Path, default=None,
                           help="write the baseline JSON here (default: stdout)")
    mcheck = msub.add_parser(
        "check", help="check a run snapshot and/or BENCH files against a baseline"
    )
    mcheck.add_argument("baseline", type=Path)
    mcheck.add_argument("--snapshot", type=Path, default=None)
    mcheck.add_argument("--bench", type=Path, action="append", default=[],
                        metavar="FILE", help="BENCH_*.json file (repeatable)")
    mcheck.add_argument("--report-only", action="store_true",
                        help="print findings but always exit 0 (CI advisory mode)")

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


def _add_exec_arguments(parser: argparse.ArgumentParser) -> None:
    """``--jobs``/``--backend``: the parallel execution layer (repro.exec)."""
    parser.add_argument("--jobs", type=_job_count, default=1, metavar="N",
                        help="per-country workers: 1 = serial (default), "
                             "N > 1 = parallel, 0 = one per CPU")
    parser.add_argument("--backend", choices=["auto"] + list(BACKENDS), default="auto",
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
                             "going, retry = deterministic exponential "
                             "backoff, then skip")
    parser.add_argument("--max-retries", type=int, default=2, metavar="N",
                        help="retries per country under --on-error retry "
                             "(default 2)")
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
    parser.add_argument("--profile-mem", action="store_true",
                        help="additionally track allocations with tracemalloc "
                             "(slower; implies --profile)")
    parser.add_argument("--metrics-out", type=Path, default=None, metavar="PATH",
                        help="write the run metrics snapshot here: .prom "
                             "suffix = Prometheus text exposition, anything "
                             "else = metrics.json document")


def _parse_countries(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    countries = [c.strip().upper() for c in raw.split(",") if c.strip()]
    unknown = set(countries) - set(MEASUREMENT_COUNTRIES)
    if unknown:
        raise SystemExit(f"unknown measurement countries: {sorted(unknown)}")
    return countries


def _cmd_volunteer(args: argparse.Namespace) -> int:
    scenario = build_scenario()
    volunteer = scenario.volunteers[args.country]
    targets = scenario.targets[args.country].without(sorted(volunteer.opted_out_sites))
    suite = GammaSuite(
        scenario.world, scenario.catalog,
        GammaConfig.study_defaults(os_name=volunteer.os_name),
        browser_config=scenario.browser_config,
        ipinfo=scenario.ipinfo,
    )
    print(f"Running Gamma for {volunteer.name} ({volunteer.city.key}, {volunteer.os_name})")
    dataset = suite.run(volunteer, targets)
    counts = dataset.traceroute_counts()
    print(f"Loaded {dataset.loaded_count}/{dataset.attempted_count} sites "
          f"({dataset.load_success_pct():.0f}%), "
          f"{counts['attempted']} traceroutes ({counts['reached']} reached)")
    if args.output is not None:
        args.output.write_text(dataset.to_json(indent=2))
        print(f"Dataset written to {args.output}")
    return 0


def _run_kwargs(args: argparse.Namespace) -> dict:
    """``run_study`` keyword arguments shared by study/figures/export."""
    if args.resume and args.checkpoint_dir is None:
        raise SystemExit("--resume requires --checkpoint-dir")
    progress = args.progress
    if progress is None:  # default: live line only on an interactive stderr
        progress = sys.stderr.isatty()
    return {
        "jobs": args.jobs,
        "backend": args.backend,
        "trace": args.trace,
        "trace_timings": not args.no_timings,
        "on_error": args.on_error,
        "max_retries": args.max_retries,
        "checkpoint_dir": args.checkpoint_dir,
        "resume": args.resume,
        "progress": progress,
        "profile": args.profile or args.profile_mem,
        "profile_mem": args.profile_mem,
        "metrics_out": args.metrics_out,
    }


def _print_failures(outcome) -> None:
    if not outcome.failures:
        return
    print()
    print(render_table(
        ["country", "attempts", "error"],
        [(f.country_code, f.attempts, f"{f.error_type}: {f.message}")
         for f in outcome.failures],
        title="Failed countries (excluded from the analyses above)",
    ))


def _cmd_study(args: argparse.Namespace) -> int:
    countries = _parse_countries(args.countries)
    scenario = build_scenario()
    config = StudyConfig(pipeline=PipelineConfig(confidence=args.confidence))
    try:
        injector = (FaultInjector.parse(args.inject_fault)
                    if args.inject_fault else None)
    except ValueError as error:
        raise SystemExit(str(error))
    outcome = run_study(scenario, countries=countries, config=config,
                        fault_injector=injector, **_run_kwargs(args))
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
    print(f"\n{outcome.metrics.render()}")
    if args.cache_stats:
        # Read the merged run metrics, not the coordinator's registry:
        # under the process backend only the metrics include the
        # worker-side hits/misses shipped back with each country.
        print(render_table(
            ["cache", "hits", "misses", "hit %", "size"],
            [
                (name, info["hits"], info["misses"],
                 f"{100 * info['hit_rate']:.1f}", info["size"])
                for name, info in sorted(outcome.metrics.cache_infos.items())
            ],
            title="Memo-cache statistics",
        ))
    _print_failures(outcome)
    if args.trace is not None:
        print(f"\nrun journal written to {args.trace} "
              f"(summarize with: gamma trace {args.trace})")
    if args.metrics_out is not None:
        hint = ("" if args.metrics_out.suffix == ".prom"
                else f" (inspect with: gamma metrics show {args.metrics_out})")
        print(f"metrics snapshot written to {args.metrics_out}{hint}")
    return 0


def _cmd_confidence(args: argparse.Namespace) -> int:
    from repro.core.geoloc import (
        BRIER_TARGET,
        ECE_TARGET,
        ConfidenceReport,
        calibrate_against_truth,
        round_confidence,
    )

    fmt = lambda value: "-" if value is None else f"{value:.4f}"  # noqa: E731
    countries = _parse_countries(args.countries)
    scenario = build_scenario()
    config = StudyConfig(
        pipeline=PipelineConfig(confidence=True),
    )
    outcome = run_study(scenario, countries=countries, config=config,
                        **_run_kwargs(args))
    reports = [
        ConfidenceReport.from_geolocation(
            outcome.geolocations[result.country_code], low_n=args.low
        )
        for result in outcome.results
    ]
    flows = outcome.tracker_confidence() or {}
    rows = []
    for report in reports:
        flow_rows, flow_mean = flows.get(report.country_code, (0, None))
        lowest = report.low_confidence[0][1] if report.low_confidence else None
        rows.append((
            report.country_code, report.scored, fmt(report.mean_confidence),
            fmt(lowest), flow_rows, fmt(flow_mean),
        ))
    print(render_table(
        ["country", "scored", "mean conf", "lowest", "flow rows", "flow conf"],
        rows, title="Geolocation verdict confidence",
    ))

    exit_code = 0
    calibration = None
    if args.validate:
        calibration = calibrate_against_truth(
            scenario.world, outcome.geolocations
        )
        print()
        print(render_table(
            ["confidence bin", "verdicts", "accuracy", "mean conf"],
            [(f"[{row.lower:.1f}, {row.upper:.1f})", row.count,
              fmt(row.accuracy), fmt(row.mean_confidence))
             for row in calibration.bins if row.count],
            title="Reliability against seeded ground truth",
        ))
        print(f"\nscored {calibration.total} verdicts "
              f"({calibration.skipped} skipped): "
              f"accuracy {fmt(calibration.accuracy)}, "
              f"Brier {fmt(calibration.brier)} (target <= {BRIER_TARGET}), "
              f"ECE {fmt(calibration.ece)} (target <= {ECE_TARGET})")
        ok = (calibration.total > 0
              and calibration.brier <= BRIER_TARGET
              and calibration.ece <= ECE_TARGET)
        print("calibration within targets" if ok
              else "CALIBRATION MISSED TARGETS")
        if not ok and not args.report_only:
            exit_code = 1

    if args.json is not None:
        import json

        payload = {
            "countries": [report.as_dict() for report in reports],
            "flows": {
                country: {"rows": count, "mean": round_confidence(mean)}
                for country, (count, mean) in sorted(flows.items())
            },
        }
        if calibration is not None:
            payload["calibration"] = calibration.as_dict()
        args.json.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )
        print(f"\nconfidence report written to {args.json}")
    _print_failures(outcome)
    return exit_code


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
    print(f"{args.country} over {args.limit} sites x {args.visits} visits: "
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


def _load_bench_files(paths):
    """``{stem: payload}`` for BENCH_*.json paths (stem keys the checks)."""
    import json

    return {path.stem: json.loads(path.read_text()) for path in paths}


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


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from repro.obs.metrics import (
        check_baseline,
        derive_baseline,
        diff_snapshots,
        load_snapshot,
        validate_study_snapshot,
    )

    if args.metrics_command == "show":
        snapshot = load_snapshot(args.snapshot)
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
        path = Path(args.snapshot)
        if path.suffix == ".prom":
            from repro.obs.metrics import validate_exposition

            problems = validate_exposition(path.read_text(encoding="utf-8"))
            if problems:
                for problem in problems:
                    print(f"SCHEMA: {problem}")
                return 1
            print("exposition OK: Prometheus text format parses")
            return 0
        snapshot = load_snapshot(path)
        problems = validate_study_snapshot(snapshot)
        if problems:
            for problem in problems:
                print(f"SCHEMA: {problem}")
            return 1
        families = snapshot.get("metrics", {}).get("families", {})
        print(f"snapshot OK: {len(families)} metric families conform to the schema")
        return 0

    if args.metrics_command == "diff":
        findings = diff_snapshots(
            load_snapshot(args.old), load_snapshot(args.new),
            threshold=args.threshold, include_runtime=args.runtime,
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

    if args.metrics_command == "baseline":
        snapshot = None if args.snapshot is None else load_snapshot(args.snapshot)
        baseline = derive_baseline(
            snapshot, _load_bench_files(args.bench), margin=args.margin
        )
        text = json.dumps(baseline, indent=2, sort_keys=True) + "\n"
        if args.output is not None:
            args.output.write_text(text)
            print(f"baseline with {len(baseline['checks'])} check(s) "
                  f"written to {args.output}")
        else:
            print(text, end="")
        return 0

    # check
    baseline = load_snapshot(args.baseline)
    snapshot = None if args.snapshot is None else load_snapshot(args.snapshot)
    findings = check_baseline(baseline, snapshot, _load_bench_files(args.bench))
    for finding in findings:
        print(finding.render())
    failures = [f for f in findings if not f.ok]
    print(f"{len(findings) - len(failures)}/{len(findings)} baseline check(s) passed")
    if failures and not args.report_only:
        return 1
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
    "confidence": _cmd_confidence,
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
