"""Execution-layer accounting: one read-only view over the run registry.

Each country is accounted for once, by its worker, in the fresh
per-country :class:`repro.obs.metrics.MetricsRegistry` it ships back as
``CountryRun.metrics_delta``: every phase's wall seconds, the country's
total seconds, its thread CPU seconds, and each memo cache's hits,
misses and size (:func:`observe_phase`, :func:`close_country`).  The
coordinator merges those deltas in input country order into one
registry — a country resumed from a checkpoint contributes only its
study-class families, so every runtime number describes the process
that produced the snapshot — and records the fan-out wall time and the
transport accounting there (:func:`record_wall`,
:func:`record_transport`, :func:`record_decode`).  :class:`ExecMetrics`
reads every number it reports from that one registry; nothing is
recorded twice.

``cpu_seconds / wall_seconds`` — the CPU the countries actually got per
second of fan-out — is the observed parallel speedup: at most about 1.0
for a serial run, and at most ``min(jobs, CPUs)`` for a parallel one.
(Summed per-country *wall* time would count a country waiting for a CPU
as work, so ``--jobs 4`` on two CPUs would report close to 4x.)

All series here are **runtime** class: wall/CPU seconds, cache hits and
transport bytes depend on scheduling, so they are excluded from the
cross-backend determinism contract (see ``repro.obs.metrics``).

Timings are measurement artefacts, not study artefacts: they are kept
off :class:`~repro.core.analysis.summary.StudySummary` and out of the
exported bundle so those stay bit-identical across runs and backends.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "ExecMetrics",
    "close_country",
    "observe_phase",
    "record_decode",
    "record_transport",
    "record_wall",
]

#: Canonical phase names, in pipeline order.
PHASES = ("gamma", "source_traces", "geoloc", "join")

# Registry family names for the execution layer.  Everything is
# runtime-class: these describe how the run was scheduled, not the study.
# Recorded per country by the worker:
PHASE_SECONDS = "worker_phase_duration_seconds"
COUNTRY_SECONDS = "exec_country_seconds_total"
CPU_SECONDS = "exec_cpu_seconds_total"
CACHE_OPERATIONS = "cache_delta_operations_total"
CACHE_SIZE = "exec_cache_size"
# Recorded by the coordinator:
WALL_SECONDS = "exec_wall_seconds"
TRANSPORT_BYTES = "exec_transport_bytes_total"
TRANSPORT_ENCODE_SECONDS = "exec_transport_encode_seconds_total"
TRANSPORT_DECODE_SECONDS = "exec_transport_decode_seconds_total"


# -- worker side ------------------------------------------------------
def observe_phase(registry: MetricsRegistry, phase: str, seconds: float) -> None:
    """Record one phase's wall seconds for the worker's country."""
    registry.counter(
        PHASE_SECONDS, {"phase": phase}, unit="seconds",
        help="per-country phase wall time", runtime=True,
    ).inc(seconds)


def close_country(
    registry: MetricsRegistry,
    country_code: str,
    cpu_seconds: float,
    cache_deltas: Dict[str, Dict[str, int]],
) -> None:
    """Record a finished country's totals into its worker registry.

    The country's seconds are the sum of its phase seconds, rounded to
    6 places; *cache_deltas* maps each memo cache the country moved to
    the ``hits``/``misses`` it caused and the ``size`` it left.  Merged
    across countries, lookups add and size takes the largest population
    any one country saw — for the per-run ``gamma.traces`` memo, the
    per-country peak.
    """
    total = sum(counter.value for _, counter in registry.series(PHASE_SECONDS))
    registry.counter(
        COUNTRY_SECONDS, {"country": country_code},
        help="per-country worker seconds", runtime=True,
    ).inc(round(total, 6))
    registry.counter(
        CPU_SECONDS, help="summed per-country CPU seconds", unit="seconds",
        runtime=True,
    ).inc(cpu_seconds)
    for name in sorted(cache_deltas):
        counters = cache_deltas[name]
        for op, key in (("hit", "hits"), ("miss", "misses")):
            registry.counter(
                CACHE_OPERATIONS, {"cache": name, "op": op},
                help="memo-cache lookups attributed to one country", runtime=True,
            ).inc(counters[key])
        registry.gauge(
            CACHE_SIZE, {"cache": name}, help="memo-cache population (max seen)",
            runtime=True,
        ).set(counters["size"])


# -- coordinator side -------------------------------------------------
def record_wall(registry: MetricsRegistry, seconds: float) -> None:
    """Record the end-to-end wall time of the country fan-out."""
    registry.gauge(
        WALL_SECONDS, help="end-to-end fan-out wall time", unit="seconds",
        runtime=True,
    ).set(seconds)


def record_transport(registry: MetricsRegistry, shipped) -> None:
    """Record one :class:`~repro.exec.transport.PickledCountryRun`'s
    payload bytes and worker-side pickling seconds."""
    registry.counter(
        TRANSPORT_BYTES, {"country": shipped.country_code},
        help="pickled run payload bytes", runtime=True,
    ).inc(shipped.nbytes)
    registry.counter(
        TRANSPORT_ENCODE_SECONDS, help="worker-side pickling seconds",
        unit="seconds", runtime=True,
    ).inc(shipped.encode_seconds)


def record_decode(registry: MetricsRegistry, seconds: float) -> None:
    """Count one on-demand unpickle of a shipped run."""
    registry.counter(
        TRANSPORT_DECODE_SECONDS, help="coordinator-side unpickling seconds",
        unit="seconds", runtime=True,
    ).inc(seconds)


class ExecMetrics:
    """Execution-layer accounting for one study run, read from *registry*
    (the merged run registry; an empty one by default)."""

    def __init__(
        self,
        backend: str = "serial",
        jobs: int = 1,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.backend = backend
        self.jobs = jobs
        self.registry = registry if registry is not None else MetricsRegistry()

    def _scalar(self, name: str) -> float:
        value = self.registry.value(name)
        return float(value) if value is not None else 0.0

    def _by_label(self, name: str, label: str) -> Dict[str, float]:
        return {labels[label]: metric.value for labels, metric in self.registry.series(name)}

    # -- scalar series ------------------------------------------------
    @property
    def wall_seconds(self) -> float:
        """End-to-end wall time of the country fan-out."""
        return self._scalar(WALL_SECONDS)

    @property
    def aggregate_seconds(self) -> float:
        """Sum of per-country wall times (what a serial run would pay)."""
        return sum(self.country_seconds.values(), 0.0)

    @property
    def cpu_seconds(self) -> float:
        """Sum of per-country CPU seconds (worker thread CPU time)."""
        return self._scalar(CPU_SECONDS)

    @property
    def transport_encode_seconds(self) -> float:
        """Worker-side pickling seconds, summed across countries."""
        return self._scalar(TRANSPORT_ENCODE_SECONDS)

    @property
    def transport_decode_seconds(self) -> float:
        """Coordinator-side unpickling seconds so far: a pickled run is
        unpickled only when its dataset or geolocation is first read."""
        return self._scalar(TRANSPORT_DECODE_SECONDS)

    # -- labeled series -----------------------------------------------
    @property
    def phase_seconds(self) -> Dict[str, float]:
        """Phase name -> seconds summed across countries."""
        return self._by_label(PHASE_SECONDS, "phase")

    @property
    def country_seconds(self) -> Dict[str, float]:
        """Country code -> that country's total seconds."""
        return self._by_label(COUNTRY_SECONDS, "country")

    @property
    def transport_bytes(self) -> Dict[str, int]:
        """Country code -> pickled run payload bytes (process backend
        only; empty when results never crossed a process boundary)."""
        return self._by_label(TRANSPORT_BYTES, "country")

    @property
    def cache_infos(self) -> Dict[str, dict]:
        """Cache name -> hit/miss counter snapshot (memoised lookup
        layers), summed over the countries measured in this run."""
        infos: Dict[str, dict] = {}

        def _entry(name: str) -> dict:
            return infos.setdefault(
                name, {"name": name, "hits": 0, "misses": 0, "size": 0, "hit_rate": 0.0}
            )

        for labels, metric in self.registry.series(CACHE_OPERATIONS):
            entry = _entry(labels["cache"])
            entry["hits" if labels["op"] == "hit" else "misses"] = metric.value
        for labels, metric in self.registry.series(CACHE_SIZE):
            _entry(labels["cache"])["size"] = metric.value
        for entry in infos.values():
            lookups = entry["hits"] + entry["misses"]
            entry["hit_rate"] = round(entry["hits"] / lookups, 4) if lookups else 0.0
        return infos

    @property
    def speedup(self) -> float:
        """Summed per-country CPU seconds divided by fan-out wall time."""
        if self.wall_seconds <= 0.0:
            return 1.0
        return self.cpu_seconds / self.wall_seconds

    def render(self) -> str:
        """One human-readable block for the CLI study summary."""
        aggregate = self.aggregate_seconds
        lines = [
            f"execution: backend={self.backend} jobs={self.jobs} "
            f"wall={self.wall_seconds:.2f}s aggregate={aggregate:.2f}s "
            f"cpu={self.cpu_seconds:.2f}s speedup={self.speedup:.2f}x"
        ]
        phase_seconds = self.phase_seconds

        def _phase_line(phase: str) -> str:
            seconds = phase_seconds[phase]
            share = 100.0 * seconds / aggregate if aggregate else 0.0
            return f"  {phase:<14} {seconds:8.2f}s {share:5.1f}%"

        for phase in PHASES:
            if phase in phase_seconds:
                lines.append(_phase_line(phase))
        for phase in sorted(set(phase_seconds) - set(PHASES)):
            lines.append(_phase_line(phase))
        transport_bytes = self.transport_bytes
        if transport_bytes:
            total_bytes = sum(transport_bytes.values())
            lines.append(
                f"  {'transport':<14} {total_bytes:8,d}B "
                f"(pickle {self.transport_encode_seconds:.3f}s, "
                f"unpickle {self.transport_decode_seconds:.3f}s)"
            )
            for country, nbytes in sorted(transport_bytes.items()):
                lines.append(f"    {country:<12} {nbytes:8,d}B")
        for name, info in sorted(self.cache_infos.items()):
            lines.append(
                f"  cache {name}: hits={info['hits']} misses={info['misses']} "
                f"hit_rate={100 * info['hit_rate']:.1f}% size={info['size']}"
            )
        return "\n".join(lines)
