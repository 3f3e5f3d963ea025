"""End-to-end study driver.

``run_study`` executes the paper's whole methodology over a scenario:
run Gamma from each volunteer's machine, fall back to Atlas-style probes
where volunteer traceroutes failed (or were opted out of), geolocate
every responding server through the multi-constraint pipeline, identify
trackers, and expose every figure/table analysis over the joined results.

Every study option is a :class:`StudyConfig` field; ``run_study``'s
keywords are only the per-run I/O (tracing, checkpoints, progress,
metrics output).  Per-country work is independent, so the study fans
out across the serial or process-pool backend of :mod:`repro.exec`
(``StudyConfig.jobs``/``backend``).  Results are merged in input
country order, making the outcome byte-identical for every backend and
worker count — the equivalence the test harness in
``tests/test_exec_equivalence.py`` locks down.

The fan-out is fault tolerant (docs/robustness.md): a per-country
failure policy (``StudyConfig.on_error="raise"|"skip"``) either fails
fast or records a failing country on :attr:`StudyOutcome.failures`
while the rest of the study completes, and a checkpoint directory
(``checkpoint_dir=``/``resume=``)
persists each completed country as it lands so an interrupted study
resumes where it stopped — mirroring, at study level, Gamma's own per-site
resume from section 3.3 of the paper.
"""

from __future__ import annotations

import os
import time
from collections.abc import Mapping as _MappingABC
from dataclasses import dataclass, field
from functools import partial
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
from repro.exec.checkpoint import StudyCheckpoint
from repro.exec.executor import check_backend, create_executor
from repro.exec.metrics import ExecMetrics, record_decode, record_transport, record_wall
from repro.exec.resilience import CountryFailure, check_on_error
from repro.exec.transport import PickledCountryRun, TransportWorker
from repro.exec.worker import CountryRun, StudyWorker, _record_study_metrics
from repro.obs.journal import DIAGNOSTIC_EVENTS, SCHEMA_VERSION, RunJournal
from repro.obs.metrics import MetricsRegistry, build_study_snapshot, write_snapshot
from repro.obs.progress import ProgressReporter
from repro.obs.schema import EVENT_FIELDS
from repro.worldgen.builder import Scenario

__all__ = ["StudyConfig", "StudyOutcome", "run_study", "build_source_traces"]


@dataclass
class StudyConfig:
    """Knobs for a full study run."""

    #: Geolocation tunables (constraint thresholds and toggles).
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    visit_key: str = "visit-1"
    #: Per-country workers: 1 = serial, N > 1 = parallel, 0 = one per CPU.
    jobs: int = 1
    #: Execution backend: "auto", "serial", or "process".
    backend: str = "auto"
    #: What a failing country does to the study: "raise" fails fast (the
    #: historical contract), "skip" records it on ``outcome.failures``
    #: and keeps the rest (docs/robustness.md).
    on_error: str = "raise"
    #: Profile per-country resource usage (CPU seconds per phase, GC
    #: collections, peak RSS) into ``CountryRun.resources`` and the
    #: study snapshot (``gamma study --profile``).
    profile: bool = False

    def __post_init__(self) -> None:
        check_backend(self.backend, self.jobs)
        check_on_error(self.on_error)


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
    #: Countries that failed under ``on_error="skip"``, in input country
    #: order: who failed and with what error, with the worker-side
    #: traceback.  Every analysis accessor degrades
    #: gracefully to the surviving countries in ``results``.
    failures: List[CountryFailure] = field(default_factory=list)
    #: The persistent run snapshot (``metrics.json`` shape, see
    #: docs/data-formats.md): the run registry ``metrics`` reads (merged
    #: per-country deltas plus the coordinator's accounting) and the
    #: resource profiles of the countries this run measured.  None only
    #: for hand-built outcomes.  A measurement artefact like
    #: ``metrics``/``journal`` — never part of summaries or exports.
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
                    f"no result for {country_code}: country failed "
                    f"({failure.error_type})"
                )
        raise KeyError(f"no result for {country_code}")


def build_source_traces(
    scenario: Scenario, volunteer: Volunteer, dataset: VolunteerDataset
) -> SourceTraces:
    """Source-side traces for the geolocation pipeline.

    Prefers the volunteer's own traceroutes; when the volunteer opted out
    (Egypt) or every probe failed (Australia/India/Qatar/Jordan), launches
    traceroutes from the nearest Atlas-style probe — possibly in a
    neighbouring country, as the paper did for Qatar and Jordan.  The
    fallback traces come from the measurement service's
    ``atlas.source_traces`` memo, so a revisit launches none again.
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
        address: scenario.atlas.source_traceroute(probe, address)
        for address in addresses
    }
    return SourceTraces(city=probe.city, traces=traces, origin=f"atlas:{used_country}")


def _merge_accounting(
    outcome: StudyOutcome, run, funnels: List[FunnelCounters],
    resumed: bool = False,
) -> None:
    """Fold one completed country's accounting into the outcome.

    *run* is a :class:`CountryRun` or a :class:`PickledCountryRun`;
    both carry the same accounting attributes, so nothing here unpickles.
    A *resumed* country was measured by an earlier process: its
    study-class families are recomputed from the loaded run and its
    stored delta is not read, so every runtime number in the registry
    describes this run, whatever families the earlier version recorded.
    """
    outcome.source_trace_origins[run.country_code] = run.source_trace_origin
    registry = outcome.metrics.registry
    if resumed:
        study = MetricsRegistry()
        _record_study_metrics(study, run.dataset, run.geolocation, run.result)
        registry.merge_snapshot(study.snapshot())
    elif run.metrics_delta is not None:
        registry.merge_snapshot(run.metrics_delta)
    if isinstance(run, PickledCountryRun):
        record_transport(registry, run)
        run.on_load = partial(record_decode, registry)
    funnels.append(run.funnel)


def run_study(
    scenario: Scenario,
    countries: Optional[List[str]] = None,
    config: Optional[StudyConfig] = None,
    trace: Union[None, bool, str, Path] = None,
    trace_timings: bool = True,
    checkpoint_dir: Union[None, str, Path] = None,
    resume: bool = False,
    fault_injector=None,
    progress: Union[bool, ProgressReporter] = False,
    metrics_out: Union[None, str, Path] = None,
) -> StudyOutcome:
    """Run the full methodology over *countries* (default: all volunteers).

    Every study option lives on *config* (default ``StudyConfig()``);
    the keywords below are per-run I/O only.  ``config.jobs=1`` (the
    default) reproduces the historical serial run exactly, and any
    other worker count or backend produces the identical outcome in
    parallel (results are merged in input country order, so neither
    worker count nor completion order is observable in the artefacts).

    *trace* enables the structured run journal: pass a path to write it
    as JSONL, or ``True`` to only attach it as ``outcome.journal``.
    Per-country buffers recorded inside workers are merged in input
    country order, so — after :func:`repro.obs.strip_timings` (or with
    ``trace_timings=False``) — the journal bytes are identical for
    every backend and worker count.  The default (``trace=None``) skips
    all event collection; study artefacts never include the journal.

    Under ``config.on_error="skip"`` a failing country is recorded on
    :attr:`StudyOutcome.failures` while every other country completes.

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
    the stream/clock).  The run snapshot is always
    built (``outcome.metrics_snapshot``); *metrics_out* writes it to a
    path as a JSON document; with a *checkpoint_dir* the snapshot is
    also written there as ``metrics.json``.  None of these change any
    study artefact.
    """
    config = config or StudyConfig()
    countries = countries or scenario.countries
    executor = create_executor(backend=config.backend, jobs=config.jobs)

    checkpoint = None if checkpoint_dir is None else StudyCheckpoint(checkpoint_dir)
    if resume and checkpoint is None:
        raise ValueError("resume=True requires checkpoint_dir")

    tracing = trace is not None and trace is not False
    call = StudyWorker(
        scenario, config, trace=tracing, fault_injector=fault_injector,
        checkpoint=checkpoint,
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
            else ProgressReporter(len(countries))
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
            sites = 0
            if isinstance(item, (CountryRun, PickledCountryRun)):
                sites = item.site_count
            reporter.country_done(
                country_code, sites=sites,
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

    # The run registry: per-country deltas merged in input country order
    # — fixed order is what keeps float sums exact — plus the coordinator's own
    # accounting.  ``outcome.metrics`` reads every number from it.
    registry = MetricsRegistry()
    outcome = StudyOutcome(
        scenario=scenario,
        metrics=ExecMetrics(
            backend=executor.name, jobs=executor.jobs, registry=registry
        ),
    )
    # CountryRun | PickledCountryRun per completed country, input order.
    runs: Dict[str, object] = {}
    resources_by_country: Dict[str, dict] = {}
    funnels: List[FunnelCounters] = []
    buffers: List[List[dict]] = []  # input country order: deterministic merge
    for country_code in countries:
        if country_code in resumed:
            run = resumed[country_code]
            runs[country_code] = run
            _merge_accounting(outcome, run, funnels, resumed=True)
            # Replay what the earlier process measured, not how its run
            # unfolded: diagnostics, and event types this version no
            # longer writes, stay behind with its runtime families.
            events = [
                event for event in run.events or ()
                if event.get("ev") in EVENT_FIELDS
                and event.get("ev") not in DIAGNOSTIC_EVENTS
            ]
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
        if item.resources is not None:
            resources_by_country[country_code] = item.resources
        buffers.append(item.events or [])
    record_wall(registry, wall_seconds)
    # Country-ordered views over the runs: a pickled run stays bytes
    # until something reads its dataset or geolocation.
    outcome.datasets = _RunMap(runs, "dataset")
    outcome.geolocations = _RunMap(runs, "geolocation")
    outcome.results = [run.result for run in runs.values()]
    outcome._funnels = funnels

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
        meta, registry.snapshot(), resources_by_country or None
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
        outcome.journal = RunJournal.assemble(
            run_record,
            buffers,
            [study_span],
        )
        if not isinstance(trace, bool):
            outcome.journal.write(trace, timings=trace_timings)
    return outcome
