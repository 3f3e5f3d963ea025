"""The per-country unit of study work.

:class:`StudyWorker` bundles everything one country's measurement needs
(the scenario and the study configuration) behind a plain callable:
``worker(cc)`` runs the Gamma suite, picks source traces, geolocates the
dataset, and joins the analysis records — exactly the body of the old
serial ``run_study`` loop.  Both the instance and its
:class:`CountryRun` result pickle, so the same worker drives the serial
and process-pool backends unchanged.

Observability rides along on :class:`CountryRun`:

* ``metrics_delta`` — the snapshot of a **fresh per-country**
  :class:`repro.obs.MetricsRegistry` the worker recorded into (rather
  than a before/after diff of shared state), so the delta holds exactly
  this country's series: its study-class counters, and its whole
  runtime accounting — each phase's wall seconds, the country's total
  and CPU seconds, and the hit/miss movement and size of every memo
  cache it touched (those the scenario lists in ``Scenario.caches``,
  snapshotted around the work, and the trace memo of its own Gamma run,
  which starts empty).  This is the only accounting channel: the
  coordinator merges the deltas in input country order into the run
  registry that :class:`repro.exec.ExecMetrics` reads.
* ``events`` — the country's span/event buffer when tracing is enabled
  (``StudyWorker(..., trace=True)``), recorded by a private
  :class:`repro.obs.Tracer` whose paths root under ``study/<CC>``.
* ``resources`` — a :class:`repro.obs.ResourceProfiler` snapshot
  (per-phase CPU seconds, GC collections, peak RSS) when profiling is
  enabled via ``StudyConfig.profile``.

One per-phase context (:func:`_phase`) times the phase into the
registry, opens its tracer span and its profiler phase.
"""

from __future__ import annotations

import time
import traceback
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Union

from repro.core.analysis.records import CountryStudyResult, build_country_result
from repro.core.gamma.output import VolunteerDataset, anonymize
from repro.core.gamma.suite import GammaSuite
from repro.core.geoloc.pipeline import DatasetGeolocation, GeolocationPipeline
from repro.exec.cache import ReadThroughCache
from repro.exec.metrics import close_country, observe_phase
from repro.exec.resilience import CountryFailure
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiling import ResourceProfiler, maybe_phase
from repro.obs.tracer import Tracer, maybe_span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.study import StudyConfig
    from repro.worldgen.builder import Scenario

__all__ = ["CountryRun", "StudyWorker"]


def _counters(caches: Iterable[ReadThroughCache]) -> Dict[str, Dict[str, int]]:
    return {
        info.name: {"hits": info.hits, "misses": info.misses, "size": info.size}
        for info in (cache.info() for cache in caches)
    }


def _cache_deltas(
    before: Dict[str, Dict[str, int]], after: Dict[str, Dict[str, int]]
) -> Dict[str, Dict[str, int]]:
    """Per-cache counter movement between two snapshots (a cache absent
    from *before* started empty)."""
    deltas: Dict[str, Dict[str, int]] = {}
    for name, counters in after.items():
        base = before.get(name, {"hits": 0, "misses": 0})
        delta_hits = counters["hits"] - base["hits"]
        delta_misses = counters["misses"] - base["misses"]
        if delta_hits or delta_misses:
            deltas[name] = {
                "hits": delta_hits,
                "misses": delta_misses,
                "size": counters["size"],
            }
    return deltas


def _record_study_metrics(
    metrics: MetricsRegistry,
    dataset: VolunteerDataset,
    geolocation: DatasetGeolocation,
    result: CountryStudyResult,
) -> None:
    """Deterministic (study-class) series derived from the artefacts.

    Everything here is a function of the dataset, its geolocation and
    the joined result — *not* of how classification was scheduled or
    memoised — so the counters land on identical totals for every
    backend and worker count (which all produce byte-identical artefacts
    by contract).  This is the one place the study families are defined.
    """
    metrics.counter("study_countries_total", help="countries measured").inc()
    loaded = dataset.loaded_count
    metrics.counter(
        "study_sites_total", {"outcome": "loaded"}, help="site visits by outcome"
    ).inc(loaded)
    metrics.counter(
        "study_sites_total", {"outcome": "failed"}, help="site visits by outcome"
    ).inc(dataset.attempted_count - loaded)
    traceroutes = dataset.traceroute_counts()
    attempted = traceroutes.get("attempted", 0)
    reached = traceroutes.get("reached", 0)
    metrics.counter(
        "study_traceroutes_total", {"outcome": "reached"},
        help="source traceroutes by outcome",
    ).inc(reached)
    metrics.counter(
        "study_traceroutes_total", {"outcome": "unreached"},
        help="source traceroutes by outcome",
    ).inc(attempted - reached)
    tracked_sites = sum(1 for site in result.sites if site.has_nonlocal_tracker)
    metrics.counter(
        "tracker_sites_total", {"tracked": "yes"},
        help="loaded sites by non-local tracker presence",
    ).inc(tracked_sites)
    metrics.counter(
        "tracker_sites_total", {"tracked": "no"},
        help="loaded sites by non-local tracker presence",
    ).inc(len(result.sites) - tracked_sites)
    metrics.counter(
        "tracker_observations_total", help="per-site non-local tracker observations"
    ).inc(sum(len(site.trackers) for site in result.sites))
    methods = Counter(
        verdict.method or "unknown"
        for verdict in result.tracker_verdicts.values()
        if verdict.is_tracker
    )
    for method, count in methods.items():
        metrics.counter(
            "tracker_hosts_total", {"method": method},
            help="unique flagged hosts by identification method",
        ).inc(count)

    # Each series is looked up once: counters are tallied here and added
    # after the loop.
    status_counts: Counter = Counter()
    discard_counts: Counter = Counter()
    check_counts: Counter = Counter()
    for verdict in geolocation.verdicts.values():
        status_counts[verdict.status] += 1
        if verdict.discarded_by:
            discard_counts[verdict.discarded_by] += 1
        for check in verdict.checks:
            check_counts[check.constraint, check.status] += 1
    for status, count in status_counts.items():
        metrics.counter(
            "geoloc_verdicts_total", {"status": status},
            help="server verdicts by final status",
        ).inc(count)
    for constraint, count in discard_counts.items():
        metrics.counter(
            "geoloc_discards_total", {"constraint": constraint},
            help="servers discarded, by the constraint that fired",
        ).inc(count)
    for (constraint, status), count in check_counts.items():
        metrics.counter(
            "geoloc_constraint_checks_total",
            {"constraint": constraint, "status": status},
            help="constraint evaluations by outcome",
        ).inc(count)
    metrics.counter("geoloc_countries_total", help="datasets classified").inc()
    for stage, count in geolocation.funnel.stages().items():
        metrics.counter(
            "geoloc_funnel_total", {"stage": stage},
            help="section-5 funnel, host observations per stage",
        ).inc(count)


@contextmanager
def _phase(
    name: str,
    metrics: MetricsRegistry,
    tracer: Optional[Tracer],
    profiler: Optional[ResourceProfiler],
):
    """Run one pipeline phase: its wall seconds land in *metrics*, inside
    its tracer span and its profiler phase."""
    started = time.perf_counter()
    with maybe_span(tracer, "phase", name), maybe_phase(profiler, name):
        yield
    observe_phase(metrics, name, time.perf_counter() - started)


@dataclass
class CountryRun:
    """Everything one country's worker produced."""

    country_code: str
    dataset: VolunteerDataset
    geolocation: DatasetGeolocation
    result: CountryStudyResult
    source_trace_origin: str
    #: Span/event buffer for the run journal (None when tracing is off).
    events: Optional[List[dict]] = None
    #: Snapshot of the per-country metrics registry, the country's
    #: accounting included (None only for hand-built runs).  Merged at
    #: the coordinator in input country order — see ``repro.obs.metrics``.
    metrics_delta: Optional[dict] = None
    #: Resource-profiler snapshot (None unless profiling is enabled).
    resources: Optional[dict] = None

    @property
    def funnel(self):
        return self.geolocation.funnel

    @property
    def site_count(self) -> int:
        return len(self.dataset.websites)


class StudyWorker:
    """Run the full methodology for single countries of one scenario.

    The worker is constructed once per study (and shipped once per
    process-pool worker); calling it with a country code is free of
    cross-country state, which is what makes out-of-order parallel
    execution safe.  It also applies the study's failure policy and
    persists each finished country to the checkpoint store, if any.
    """

    def __init__(
        self,
        scenario: "Scenario",
        config: "StudyConfig",
        trace: bool = False,
        fault_injector=None,
        checkpoint=None,
    ):
        self._scenario = scenario
        self._config = config
        self._trace = trace
        #: Deterministic test hook (:class:`repro.exec.resilience.FaultInjector`):
        #: fail selected countries before any work runs.
        self._fault_injector = fault_injector
        #: :class:`repro.exec.checkpoint.StudyCheckpoint` every finished
        #: run is stored to the moment it lands, or None.
        self._checkpoint = checkpoint

    @property
    def scenario(self) -> "Scenario":
        return self._scenario

    def __call__(self, country_code: str) -> Union[CountryRun, CountryFailure]:
        """The country's run; under ``on_error="skip"`` a failure comes
        back as its :class:`CountryFailure` instead of raising."""
        try:
            if self._fault_injector is not None:
                self._fault_injector.check(country_code)
            run = self._run(country_code)
        except Exception as error:
            # Pickled exceptions lose __traceback__ crossing the process
            # boundary; the formatted text rides on the instance (plain
            # attribute, preserved by pickle) for the failure manifest.
            error.worker_traceback = traceback.format_exc()
            if self._config.on_error == "raise":
                raise
            return CountryFailure.of(
                country_code, error, error.worker_traceback, trace=self._trace
            )
        # Stored from inside the worker: the study can die at any point
        # and lose at most the countries still in flight.
        if self._checkpoint is not None:
            self._checkpoint.store(run)
        return run

    def _run(self, country_code: str) -> CountryRun:
        from repro.study import build_source_traces

        scenario = self._scenario
        config = self._config
        volunteer = scenario.volunteers[country_code]
        cpu_started = time.thread_time()
        tracer = Tracer(root="study") if self._trace else None
        # Fresh per-country registry: its snapshot ships back as the
        # country's metrics delta and merges exactly at the coordinator.
        metrics = MetricsRegistry()
        profiler = ResourceProfiler() if config.profile else None
        caches_before = _counters(scenario.caches)

        with maybe_span(tracer, "country", country_code):
            with _phase("gamma", metrics, tracer, profiler):
                gamma = GammaSuite(
                    scenario.world, scenario.catalog, scenario.browser_config,
                    carry=scenario.trace_carry,
                )
                dataset = gamma.run(
                    volunteer,
                    scenario.targets[country_code],
                    visit_key=config.visit_key,
                    tracer=tracer,
                )

            with _phase("source_traces", metrics, tracer, profiler):
                source_traces = build_source_traces(scenario, volunteer, dataset)

            with _phase("geoloc", metrics, tracer, profiler):
                pipeline = GeolocationPipeline.for_scenario(scenario, config.pipeline)
                geolocation = pipeline.classify_dataset(dataset, source_traces, tracer=tracer)

            with _phase("join", metrics, tracer, profiler):
                result = build_country_result(
                    dataset, geolocation, scenario.identifier, scenario.directory,
                    tracer=tracer,
                )
                anonymize(dataset)

        cpu_seconds = time.thread_time() - cpu_started
        caches = scenario.caches
        if gamma.trace_cache is not None:
            caches += (gamma.trace_cache,)
        cache_deltas = _cache_deltas(caches_before, _counters(caches))
        _record_study_metrics(metrics, dataset, geolocation, result)
        # Runtime-class accounting: wall-clock seconds and which country
        # paid each cache miss depend on scheduling.
        close_country(metrics, country_code, cpu_seconds, cache_deltas)

        return CountryRun(
            country_code=country_code,
            dataset=dataset,
            geolocation=geolocation,
            result=result,
            source_trace_origin=source_traces.origin,
            events=tracer.events() if tracer is not None else None,
            metrics_delta=metrics.snapshot(),
            resources=profiler.snapshot() if profiler is not None else None,
        )
