"""The per-country unit of study work.

:class:`StudyWorker` bundles everything one country's measurement needs
(the scenario and the study configuration) behind a plain callable:
``worker(cc)`` runs the Gamma suite, picks source traces, geolocates the
dataset, and joins the analysis records — exactly the body of the old
serial ``run_study`` loop.  Both the instance and its
:class:`CountryRun` result pickle, so the same worker drives the serial,
thread-pool, and process-pool backends unchanged.

Observability rides along in picklable side channels on
:class:`CountryRun`:

* ``cache_deltas`` — the hit/miss deltas this country caused in the
  process-wide memo caches, snapshotted around the work.  For the
  process backend these are the *only* view of in-worker cache
  activity, so the coordinator merges them into ``ExecMetrics``.
* ``events`` — the country's span/event buffer when tracing is enabled
  (``StudyWorker(..., trace=True)``), recorded by a private
  :class:`repro.obs.Tracer` whose paths root under ``study/<CC>``.
* ``metrics_delta`` — the snapshot of a **fresh per-country**
  :class:`repro.obs.MetricsRegistry` the worker recorded into.  A fresh
  registry (rather than a before/after diff of shared state, the cache
  pattern) is what keeps deltas exact under the thread backend, where
  countries interleave inside one process; the coordinator merges the
  deltas in input country order.
* ``timings`` — per-phase wall seconds and the country's CPU seconds
  (its thread's CPU time, so thread-pool siblings are not counted).
* ``resources`` — a :class:`repro.obs.ResourceProfiler` snapshot
  (per-phase CPU seconds, GC collections, peak RSS) when profiling is
  enabled via ``StudyConfig.profile`` / ``profile_mem``.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.core.analysis.records import CountryStudyResult, build_country_result
from repro.core.gamma.config import GammaConfig
from repro.core.gamma.output import VolunteerDataset, anonymize
from repro.core.gamma.suite import GammaSuite
from repro.core.geoloc.pipeline import DatasetGeolocation, GeolocationPipeline
from repro.exec.cache import cache_registry, record_cache_deltas
from repro.exec.metrics import CountryTimings
from repro.obs.metrics import SECONDS_BUCKETS, MetricsRegistry
from repro.obs.profiling import ResourceProfiler, maybe_phase
from repro.obs.tracer import Tracer, maybe_span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.study import StudyConfig
    from repro.worldgen.builder import Scenario

__all__ = ["CountryRun", "StudyWorker"]


def _registry_counters() -> Dict[str, Dict[str, int]]:
    return {
        info.name: {"hits": info.hits, "misses": info.misses, "size": info.size}
        for info in cache_registry()
    }


def _cache_deltas(
    before: Dict[str, Dict[str, int]], after: Dict[str, Dict[str, int]]
) -> Dict[str, Dict[str, int]]:
    """Per-cache counter movement between two registry snapshots."""
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
    metrics: MetricsRegistry, dataset: VolunteerDataset, result: CountryStudyResult
) -> None:
    """Deterministic (study-class) series derived from the artefacts.

    Everything here is a function of the dataset and the joined result —
    *not* of how classification was scheduled or memoised — so the
    counters land on identical totals for every backend and worker
    count (which all produce byte-identical artefacts by contract).
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
    for verdict in result.tracker_verdicts.values():
        if verdict.is_tracker:
            metrics.counter(
                "tracker_hosts_total", {"method": verdict.method or "unknown"},
                help="unique flagged hosts by identification method",
            ).inc()


@dataclass
class CountryRun:
    """Everything one country's worker produced."""

    country_code: str
    dataset: VolunteerDataset
    geolocation: DatasetGeolocation
    result: CountryStudyResult
    source_trace_origin: str
    timings: CountryTimings = field(default_factory=lambda: CountryTimings(""))
    #: Memo-cache counter deltas caused by this country (in the worker's
    #: own process — the coordinator merges these for the process backend).
    cache_deltas: Dict[str, Dict[str, int]] = field(default_factory=dict)
    #: Span/event buffer for the run journal (None when tracing is off).
    events: Optional[List[dict]] = None
    #: Snapshot of the per-country metrics registry (None when metrics
    #: collection is disabled).  Merged at the coordinator in input
    #: country order — see ``repro.obs.metrics``.
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
    execution safe.
    """

    def __init__(
        self,
        scenario: "Scenario",
        config: "StudyConfig",
        trace: bool = False,
        fault_injector=None,
    ):
        self._scenario = scenario
        self._config = config
        self._trace = trace
        #: Deterministic test hook (:class:`repro.exec.resilience.FaultInjector`):
        #: fail selected countries on selected attempts before any work runs.
        self._fault_injector = fault_injector

    @property
    def scenario(self) -> "Scenario":
        return self._scenario

    def __call__(self, country_code: str, attempt: int = 1) -> CountryRun:
        try:
            if self._fault_injector is not None:
                self._fault_injector.check(country_code, attempt)
            return self._run(country_code)
        except Exception as error:
            # Pickled exceptions lose __traceback__ crossing the process
            # boundary; the formatted text rides on the instance (plain
            # attribute, preserved by pickle) for the failure manifest.
            error.worker_traceback = traceback.format_exc()
            raise

    def _run(self, country_code: str) -> CountryRun:
        from repro.study import build_source_traces

        scenario = self._scenario
        config = self._config
        volunteer = scenario.volunteers[country_code]
        targets = scenario.targets[country_code].without(sorted(volunteer.opted_out_sites))
        timings = CountryTimings(country_code)
        cpu_started = time.thread_time()
        tracer = Tracer(root="study") if self._trace else None
        # Fresh per-country registry: its snapshot ships back as the
        # country's metrics delta and merges exactly at the coordinator.
        metrics = MetricsRegistry() if getattr(config, "collect_metrics", True) else None
        profiler = None
        if getattr(config, "profile", False) or getattr(config, "profile_mem", False):
            profiler = ResourceProfiler(
                track_malloc=getattr(config, "profile_mem", False)
            )
            profiler.start()
        caches_before = _registry_counters()

        with maybe_span(tracer, "country", country_code):
            with timings.timer("gamma"), maybe_span(tracer, "phase", "gamma"), \
                    maybe_phase(profiler, "gamma"):
                gamma = GammaSuite(
                    scenario.world,
                    scenario.catalog,
                    GammaConfig.study_defaults(
                        os_name=volunteer.os_name,
                        memo_traces=config.memo_traces,
                    ),
                    browser_config=scenario.browser_config,
                    ipinfo=scenario.ipinfo,
                )
                dataset = gamma.run(
                    volunteer, targets, visit_key=config.visit_key, tracer=tracer
                )

            with timings.timer("source_traces"), maybe_span(tracer, "phase", "source_traces"), \
                    maybe_phase(profiler, "source_traces"):
                source_traces = build_source_traces(scenario, volunteer, dataset)

            with timings.timer("geoloc"), maybe_span(tracer, "phase", "geoloc"), \
                    maybe_phase(profiler, "geoloc"):
                pipeline = GeolocationPipeline.for_scenario(scenario, config.pipeline)
                geolocation = pipeline.classify_dataset(
                    dataset, source_traces, tracer=tracer, metrics=metrics
                )

            with timings.timer("join"), maybe_span(tracer, "phase", "join"), \
                    maybe_phase(profiler, "join"):
                result = build_country_result(
                    dataset, geolocation, scenario.identifier, scenario.directory,
                    tracer=tracer, metrics=metrics,
                )
                if config.anonymize_ips:
                    anonymize(dataset)

        timings.cpu_seconds = time.thread_time() - cpu_started
        cache_deltas = _cache_deltas(caches_before, _registry_counters())
        if metrics is not None:
            _record_study_metrics(metrics, dataset, result)
            # Runtime-class accounting: wall-clock phase durations and
            # which country paid each cache miss depend on scheduling.
            for phase, seconds in timings.phase_seconds.items():
                metrics.histogram(
                    "worker_phase_duration_seconds", {"phase": phase},
                    buckets=SECONDS_BUCKETS, unit="seconds",
                    help="per-country phase wall time", runtime=True,
                ).observe(seconds)
            record_cache_deltas(metrics, cache_deltas)
        resources = profiler.snapshot() if profiler is not None else None
        if tracer is not None:
            tracer.event("country_caches", country=country_code, caches=cache_deltas)
            if resources is not None:
                tracer.event(
                    "country_resources", country=country_code, resources=resources
                )

        return CountryRun(
            country_code=country_code,
            dataset=dataset,
            geolocation=geolocation,
            result=result,
            source_trace_origin=source_traces.origin,
            timings=timings,
            cache_deltas=cache_deltas,
            events=tracer.events() if tracer is not None else None,
            metrics_delta=metrics.snapshot() if metrics is not None else None,
            resources=resources,
        )
