"""End-to-end study driver.

``run_study`` executes the paper's whole methodology over a scenario:
run Gamma from each volunteer's machine, fall back to Atlas-style probes
where volunteer traceroutes failed (or were opted out of), geolocate
every responding server through the multi-constraint pipeline, identify
trackers, and expose every figure/table analysis over the joined results.

Per-country work is independent, so the study fans out across the
backends of :mod:`repro.exec` (``jobs``/``backend`` on
:class:`StudyConfig` or ``run_study``).  Results are merged in input
country order, making the outcome byte-identical for every backend and
worker count — the equivalence the test harness in
``tests/test_exec_equivalence.py`` locks down.

The fan-out is fault tolerant (docs/robustness.md): a per-country
failure policy (``on_error="raise"|"skip"|"retry"`` with deterministic
exponential backoff) lets a failing country be retried or recorded on
:attr:`StudyOutcome.failures` while the rest of the study completes,
and a checkpoint directory (``checkpoint_dir=``/``resume=``) persists
each completed country as it lands so an interrupted study resumes
where it stopped — mirroring, at study level, Gamma's own per-site
resume from section 3.3 of the paper.
"""

from __future__ import annotations

import os
import time
from collections.abc import Mapping as _MappingABC
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.analysis.continents import ContinentFlowAnalysis
from repro.core.analysis.crosscountry import CrossCountryAnalysis
from repro.core.analysis.firstparty import FirstPartyAnalysis
from repro.core.analysis.flows import FlowAnalysis
from repro.core.analysis.hosting import HostingAnalysis
from repro.core.analysis.infrastructure import InfrastructureAnalysis
from repro.core.analysis.localtrackers import LocalTrackerAnalysis
from repro.core.analysis.organizations import OrganizationAnalysis
from repro.core.analysis.perwebsite import PerWebsiteAnalysis
from repro.core.analysis.policy import PolicyAnalysis
from repro.core.analysis.prevalence import PrevalenceAnalysis
from repro.core.analysis.records import CountryStudyResult
from repro.core.gamma.output import VolunteerDataset
from repro.core.gamma.volunteer import Volunteer
from repro.core.geoloc.pipeline import (
    DatasetGeolocation,
    FunnelCounters,
    PipelineConfig,
    SourceTraces,
)
from repro.core.geoloc.verdicts import merge_funnels
from repro.exec.cache import cache_registry
from repro.exec.checkpoint import StudyCheckpoint
from repro.exec.executor import create_executor
from repro.exec.metrics import ExecMetrics
from repro.exec.resilience import ON_ERROR_POLICIES, CountryFailure, ResilientWorker
from repro.exec.transport import PickledCountryRun, TransportWorker
from repro.exec.worker import CountryRun, StudyWorker
from repro.obs.journal import SCHEMA_VERSION, RunJournal
from repro.obs.metrics import build_study_snapshot, merge_snapshots, write_snapshot
from repro.obs.progress import ProgressReporter
from repro.worldgen.builder import Scenario

__all__ = ["StudyConfig", "StudyOutcome", "run_study", "build_source_traces"]


@dataclass
class StudyConfig:
    """Knobs for a full study run."""

    #: Geolocation tunables (constraint thresholds and toggles, confidence).
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    visit_key: str = "visit-1"
    #: Anonymise volunteer IPs after analysis (section 3.5).
    anonymize_ips: bool = True
    #: Per-country workers: 1 = serial, N > 1 = parallel, 0 = one per CPU.
    jobs: int = 1
    #: Execution backend: "auto", "serial", "thread", or "process".
    backend: str = "auto"
    #: Memoise each volunteer's first trace per address across sites.
    memo_traces: bool = True
    #: What a failing country does to the study: "raise" fails fast (the
    #: historical contract), "skip" records it on ``outcome.failures``
    #: and keeps the rest, "retry" re-attempts with deterministic
    #: exponential backoff before skipping (docs/robustness.md).
    on_error: str = "raise"
    #: Retries per country under ``on_error="retry"`` (attempts = 1 + retries).
    max_retries: int = 2
    #: Base of the deterministic exponential backoff schedule, seconds.
    #: ``0`` disables sleeping while keeping the schedule observable.
    retry_base_delay: float = 0.1
    #: Record the labelled metrics registry (:mod:`repro.obs.metrics`)
    #: inside every worker and merge the per-country deltas at the
    #: coordinator.  Purely a measurement side channel: summaries,
    #: exports, and stripped journals are byte-identical either way.
    collect_metrics: bool = True
    #: Profile per-country resource usage (CPU seconds per phase, GC
    #: collections, peak RSS) into ``CountryRun.resources`` and the
    #: study snapshot (``gamma study --profile``).
    profile: bool = False
    #: Additionally track allocations with :mod:`tracemalloc` (slower;
    #: ``gamma study --profile-mem``).  Implies ``profile``.
    profile_mem: bool = False


class _RunMap(_MappingABC):
    """Read-only country-ordered view of one :class:`CountryRun` field.

    Key iteration and ``len`` never unpickle; item access unpickles just
    that country's run, once (process backend).
    """

    __slots__ = ("_runs", "_attr")

    def __init__(self, runs: Dict[str, object], attr: str):
        self._runs = runs
        self._attr = attr

    def __getitem__(self, country_code: str):
        return getattr(self._runs[country_code], self._attr)

    def __iter__(self):
        return iter(self._runs)

    def __len__(self) -> int:
        return len(self._runs)


@dataclass
class StudyOutcome:
    """Everything a study run produced, with analysis accessors."""

    scenario: Scenario
    datasets: Dict[str, VolunteerDataset] = field(default_factory=dict)
    geolocations: Dict[str, DatasetGeolocation] = field(default_factory=dict)
    results: List[CountryStudyResult] = field(default_factory=list)
    #: per country: "volunteer" or "atlas:<country the probe sat in>".
    source_trace_origins: Dict[str, str] = field(default_factory=dict)
    #: Execution-layer accounting (backend, jobs, per-phase wall time).
    #: Deliberately excluded from summaries/exports: timings vary run to
    #: run while every study artefact above stays bit-identical.
    metrics: ExecMetrics = field(default_factory=ExecMetrics)
    #: The structured run journal (``run_study(..., trace=...)``), or
    #: None when tracing was off.  Like ``metrics``, a measurement
    #: artefact: never part of summaries or exported bundles.
    journal: Optional[RunJournal] = None
    #: Countries that stayed down under ``on_error="skip"``/``"retry"``,
    #: in input country order: who failed, after how many attempts, with
    #: the worker-side traceback.  Every analysis accessor degrades
    #: gracefully to the surviving countries in ``results``.
    failures: List[CountryFailure] = field(default_factory=list)
    #: The persistent run snapshot (``metrics.json`` shape, see
    #: docs/data-formats.md): merged per-country metric deltas plus the
    #: exec accounting and any resource profiles.  None when
    #: ``StudyConfig.collect_metrics`` is off.  A measurement artefact
    #: like ``metrics``/``journal`` — never part of summaries or exports.
    metrics_snapshot: Optional[dict] = None
    #: Per-country geolocation funnels in merge (input-country) order,
    #: letting :meth:`funnel` aggregate without unpickling
    #: ``geolocations`` on the process backend.  None for hand-built
    #: outcomes, which fall back to the geolocations walk.
    _funnels: Optional[List[FunnelCounters]] = field(default=None, repr=False)

    def failed_countries(self) -> List[str]:
        return [failure.country_code for failure in self.failures]

    def funnel(self) -> FunnelCounters:
        if self._funnels is not None:
            return merge_funnels(self._funnels)
        return merge_funnels(
            geolocation.funnel for geolocation in self.geolocations.values()
        )

    # -- analysis accessors (one per paper artefact) -------------------------
    def prevalence(self) -> PrevalenceAnalysis:
        return PrevalenceAnalysis(self.results)

    def per_website(self) -> PerWebsiteAnalysis:
        return PerWebsiteAnalysis(self.results)

    def flows(self) -> FlowAnalysis:
        return FlowAnalysis(self.results)

    def continents(self) -> ContinentFlowAnalysis:
        return ContinentFlowAnalysis(self.results, self.scenario.world.geo)

    def organizations(self) -> OrganizationAnalysis:
        return OrganizationAnalysis(
            self.results, self.scenario.directory, self.scenario.ipinfo
        )

    def hosting(self) -> HostingAnalysis:
        return HostingAnalysis(self.results)

    def first_party(self) -> FirstPartyAnalysis:
        return FirstPartyAnalysis(self.results, self.scenario.party_classifier)

    def policy(self) -> PolicyAnalysis:
        return PolicyAnalysis(self.results, self.scenario.policy)

    def cross_country(self) -> CrossCountryAnalysis:
        """Same-site behaviour comparison across countries (section 8)."""
        return CrossCountryAnalysis(
            self.datasets, self.scenario.identifier, self.scenario.directory
        )

    def infrastructure(self) -> InfrastructureAnalysis:
        """Cable/geography alignment of the flows (section 7 discussion)."""
        return InfrastructureAnalysis(self.results, self.scenario.world.geo)

    def local_trackers(self) -> LocalTrackerAnalysis:
        """In-country tracker analysis (section 8 future work)."""
        return LocalTrackerAnalysis(
            self.datasets, self.geolocations, self.scenario.identifier,
            self.scenario.directory,
        )

    def tracker_confidence(self):
        """Confidence-weighted flow view: ``{country: (rows, mean)}``.

        Per country, how many non-local tracker rows carry a verdict
        confidence and their mean score, joining tracker rows to
        verdicts by address.  None when the study ran without
        ``PipelineConfig.confidence``.
        """
        weighted = {}
        any_scored = False
        for result in self.results:
            geolocation = self.geolocations.get(result.country_code)
            verdicts = geolocation.verdicts if geolocation is not None else {}
            total = 0.0
            count = 0
            for site in result.sites:
                for tracker in site.trackers:
                    verdict = verdicts.get(tracker.address)
                    if verdict is None or verdict.confidence is None:
                        continue
                    total += verdict.confidence
                    count += 1
            if count:
                any_scored = True
            weighted[result.country_code] = (
                count, total / count if count else None
            )
        return weighted if any_scored else None

    def summary(self):
        """Headline metrics as one JSON-ready object."""
        from repro.core.analysis.summary import summarize_study

        return summarize_study(self)

    def result_for(self, country_code: str) -> CountryStudyResult:
        for result in self.results:
            if result.country_code == country_code:
                return result
        for failure in self.failures:
            if failure.country_code == country_code:
                raise KeyError(
                    f"no result for {country_code}: country failed after "
                    f"{failure.attempts} attempt(s) ({failure.error_type})"
                )
        raise KeyError(f"no result for {country_code}")


def build_source_traces(
    scenario: Scenario, volunteer: Volunteer, dataset: VolunteerDataset
) -> SourceTraces:
    """Source-side traces for the geolocation pipeline.

    Prefers the volunteer's own traceroutes; when the volunteer opted out
    (Egypt) or every probe failed (Australia/India/Qatar/Jordan), launches
    traceroutes from the nearest Atlas-style probe — possibly in a
    neighbouring country, as the paper did for Qatar and Jordan.
    """
    merged: Dict[str, object] = {}
    for measurement in dataset.websites.values():
        for address, trace in measurement.traceroutes.items():
            merged.setdefault(address, trace)
    any_reached = any(getattr(t, "reached", False) for t in merged.values())
    if merged and any_reached:
        return SourceTraces(city=volunteer.city, traces=merged, origin="volunteer")

    probe, used_country = scenario.atlas.mesh.probe_for_country(
        volunteer.country_code, volunteer.city
    )
    if probe is None:
        return SourceTraces(city=volunteer.city, traces={}, origin="none")
    addresses = sorted({
        address
        for measurement in dataset.websites.values()
        for address in measurement.dns.values()
    })
    traces = {
        address: scenario.atlas.traceroute(probe, address, f"src-fallback:{address}")
        for address in addresses
    }
    return SourceTraces(city=probe.city, traces=traces, origin=f"atlas:{used_country}")


def _merge_accounting(
    outcome: StudyOutcome, run, funnels: List[FunnelCounters],
    resumed: bool = False,
) -> None:
    """Fold one completed country's side channels into the outcome.

    *run* is a :class:`CountryRun` or a :class:`PickledCountryRun`;
    both carry the same accounting attributes, so nothing here unpickles.
    """
    outcome.source_trace_origins[run.country_code] = run.source_trace_origin
    outcome.metrics.record_country(run.timings, resumed=resumed)
    if isinstance(run, PickledCountryRun):
        outcome.metrics.record_transport(
            run.country_code, run.nbytes, run.encode_seconds
        )
        run.on_load = outcome.metrics.record_decode
    funnels.append(run.funnel)


def run_study(
    scenario: Scenario,
    countries: Optional[List[str]] = None,
    config: Optional[StudyConfig] = None,
    jobs: Optional[int] = None,
    backend: Optional[str] = None,
    trace: Union[None, bool, str, Path] = None,
    trace_timings: bool = True,
    on_error: Optional[str] = None,
    max_retries: Optional[int] = None,
    checkpoint_dir: Union[None, str, Path] = None,
    resume: bool = False,
    fault_injector=None,
    progress: Union[bool, ProgressReporter] = False,
    profile: Optional[bool] = None,
    profile_mem: Optional[bool] = None,
    collect_metrics: Optional[bool] = None,
    metrics_out: Union[None, str, Path] = None,
) -> StudyOutcome:
    """Run the full methodology over *countries* (default: all volunteers).

    *jobs*/*backend* override the corresponding :class:`StudyConfig`
    fields; ``jobs=1`` (the default) reproduces the historical serial
    run exactly, and any other setting produces the identical outcome
    in parallel (results are merged in input country order, so neither
    worker count nor completion order is observable in the artefacts).

    *trace* enables the structured run journal: pass a path to write it
    as JSONL, or ``True`` to only attach it as ``outcome.journal``.
    Per-country buffers recorded inside workers are merged in input
    country order, so — after :func:`repro.obs.strip_timings` (or with
    ``trace_timings=False``) — the journal bytes are identical for
    every backend and worker count.  The default (``trace=None``) skips
    all event collection; study artefacts never include the journal.

    *on_error*/*max_retries* override the :class:`StudyConfig` failure
    policy.  Under ``"skip"``/``"retry"`` a country that stays down is
    recorded on :attr:`StudyOutcome.failures` while every other country
    completes; retry backoff is deterministic (seeded per country and
    attempt), so a transient fault under ``"retry"`` leaves the outcome
    byte-identical to a fault-free run.

    *checkpoint_dir* persists each completed country the moment it
    lands (atomic write, one file per country); with *resume* the
    persisted countries are loaded instead of re-measured and merge
    byte-identically with the fresh ones.  *fault_injector* is the
    deterministic test hook (:class:`repro.exec.FaultInjector`).

    On the process backend each country comes back pickled
    (:mod:`repro.exec.transport`) and is unpickled only when its dataset
    or geolocation is read — ``summary()``, ``funnel()`` and every
    figure accessor never do.

    *progress* streams one status line per completed country to stderr
    (pass a preconfigured :class:`repro.obs.ProgressReporter` to control
    the stream/clock); with tracing enabled the same completions land as
    diagnostic ``progress`` journal events.  *profile*/*profile_mem*
    and *collect_metrics* override the matching :class:`StudyConfig`
    fields.  *metrics_out* writes the run snapshot to a path
    (``.prom`` suffix → Prometheus text exposition, otherwise JSON);
    with a *checkpoint_dir* the snapshot is also written there as
    ``metrics.json``.  None of these change any study artefact.
    """
    config = config or StudyConfig()
    overrides = {}
    if profile is not None:
        overrides["profile"] = profile
    if profile_mem is not None:
        overrides["profile_mem"] = profile_mem
        if profile_mem:
            overrides.setdefault("profile", True)
    if collect_metrics is not None:
        overrides["collect_metrics"] = collect_metrics
    if overrides:
        config = replace(config, **overrides)
    countries = countries or scenario.countries
    effective_jobs = config.jobs if jobs is None else jobs
    effective_backend = config.backend if backend is None else backend
    policy = config.on_error if on_error is None else on_error
    if policy not in ON_ERROR_POLICIES:
        raise ValueError(
            f"unknown on_error policy {policy!r}; expected one of {ON_ERROR_POLICIES}"
        )
    retries = config.max_retries if max_retries is None else max_retries
    executor = create_executor(backend=effective_backend, jobs=effective_jobs)

    checkpoint = None if checkpoint_dir is None else StudyCheckpoint(checkpoint_dir)
    if resume and checkpoint is None:
        raise ValueError("resume=True requires checkpoint_dir")

    tracing = trace is not None and trace is not False
    worker = StudyWorker(
        scenario, config, trace=tracing, fault_injector=fault_injector
    )
    call = ResilientWorker(
        worker,
        on_error=policy,
        max_retries=retries,
        base_delay=config.retry_base_delay,
        checkpoint=checkpoint,
        trace=tracing,
    )
    if executor.name == "process":
        # Pickle each finished run once in the pool worker; the
        # coordinator keeps the bytes and unpickles a country only when
        # its dataset or geolocation is read (docs/performance.md).
        call = TransportWorker(call)

    resumed: Dict[str, CountryRun] = {}
    if resume:
        for country_code in countries:
            run = checkpoint.load(country_code)
            if run is not None:
                resumed[country_code] = run
    pending = [cc for cc in countries if cc not in resumed]

    reporter: Optional[ProgressReporter] = None
    if progress:
        reporter = (
            progress
            if isinstance(progress, ProgressReporter)
            else ProgressReporter(len(countries), record_events=tracing)
        )
        reporter.start()
        for country_code in countries:
            if country_code in resumed:
                run = resumed[country_code]
                reporter.country_done(
                    country_code, sites=run.site_count, resumed=True
                )
    on_result = None
    if reporter is not None:
        def on_result(country_code: str, item: object) -> None:
            # Fires in completion order — observation only, the merge
            # below still walks input country order.
            sites, phase_seconds = 0, None
            if isinstance(item, (CountryRun, PickledCountryRun)):
                sites = item.site_count
                phase_seconds = item.timings.phase_seconds
            reporter.country_done(
                country_code, sites=sites, phase_seconds=phase_seconds,
                failed=isinstance(item, CountryFailure),
            )

    started = time.perf_counter()
    produced = (
        executor.map_countries(call, pending, on_result=on_result)
        if pending else []
    )
    by_country = dict(zip(pending, produced))
    wall_seconds = time.perf_counter() - started
    if reporter is not None:
        reporter.finish()

    outcome = StudyOutcome(
        scenario=scenario,
        metrics=ExecMetrics(
            backend=executor.name, jobs=executor.jobs, wall_seconds=wall_seconds
        ),
    )
    # CountryRun | PickledCountryRun per completed country, input order.
    runs: Dict[str, object] = {}
    funnels: List[FunnelCounters] = []
    buffers: List[List[dict]] = []  # input country order: deterministic merge
    for country_code in countries:
        if country_code in resumed:
            run = resumed[country_code]
            runs[country_code] = run
            _merge_accounting(outcome, run, funnels, resumed=True)
            events = list(run.events or [])
            if tracing:
                events.append({
                    "ev": "country_resumed",
                    "span": f"study/{country_code}",
                    "country": country_code,
                })
            buffers.append(events)
            continue
        item = by_country[country_code]
        if isinstance(item, CountryFailure):
            outcome.failures.append(item)
            buffers.append(list(item.events or []))
            continue
        runs[country_code] = item
        _merge_accounting(outcome, item, funnels)
        buffers.append(item.events or [])
    # Country-ordered views over the runs: a pickled run stays bytes
    # until something reads its dataset or geolocation.
    outcome.datasets = _RunMap(runs, "dataset")
    outcome.geolocations = _RunMap(runs, "geolocation")
    outcome.results = [run.result for run in runs.values()]
    outcome._funnels = funnels
    # Memo-cache counters (verdicts, distance, ...): the coordinator's
    # registry sees serial/thread lookups directly; process-pool workers
    # count in their own interpreters, so their per-country deltas are
    # shipped back with each CountryRun and merged on top.
    outcome.metrics.record_caches(cache_registry())
    if executor.name == "process":
        outcome.metrics.merge_worker_caches(
            run.cache_deltas for cc, run in runs.items() if cc not in resumed
        )

    if getattr(config, "collect_metrics", True):
        # Merge the per-country registry deltas in input country order —
        # fixed order is what keeps float sums (histogram totals) exact
        # across backends and worker counts.
        deltas = []
        resources_by_country: Dict[str, dict] = {}
        for country_code, run in runs.items():
            if run.metrics_delta is not None:
                deltas.append(run.metrics_delta)
            if run.resources is not None:
                resources_by_country[country_code] = run.resources
        meta = {
            "countries": list(countries),
            "backend": executor.name,
            "jobs": executor.jobs,
            "cpus": os.cpu_count(),
        }
        if resumed:
            meta["resumed"] = [cc for cc in countries if cc in resumed]
        if outcome.failures:
            meta["failed"] = outcome.failed_countries()
        outcome.metrics_snapshot = build_study_snapshot(
            meta,
            outcome.metrics.to_dict(),
            merge_snapshots(deltas + [outcome.metrics.registry_snapshot()]),
            resources_by_country or None,
        )
        if checkpoint is not None:
            write_snapshot(
                Path(checkpoint_dir) / "metrics.json", outcome.metrics_snapshot
            )
        if metrics_out is not None:
            write_snapshot(metrics_out, outcome.metrics_snapshot)

    if tracing:
        run_record = {
            "ev": "run",
            "schema": SCHEMA_VERSION,
            "countries": list(countries),
            "backend": executor.name,
            "jobs": executor.jobs,
            "wall_seconds": round(wall_seconds, 6),
        }
        # Environment fields (stripped with the timings): how this
        # particular execution unfolded, not what the study measured.
        if resumed:
            run_record["resumed"] = [cc for cc in countries if cc in resumed]
        if outcome.failures:
            run_record["failed"] = outcome.failed_countries()
        study_span = {
            "ev": "span",
            "kind": "study",
            "name": "study",
            "span": "study",
            "parent": "",
            "t": 0.0,
            "dur": round(wall_seconds, 6),
        }
        if reporter is not None:
            # Diagnostic tail before the study span; stripped with the
            # timings, so journal byte-equality is progress-independent.
            buffers.append(reporter.events())
        outcome.journal = RunJournal.assemble(
            run_record,
            buffers,
            [study_span],
        )
        if not isinstance(trace, bool):
            outcome.journal.write(trace, timings=trace_timings)
    return outcome
