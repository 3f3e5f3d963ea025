"""Execution-layer accounting, backed by the metrics registry.

Workers time each phase of their country (Gamma run, source-trace
selection, geolocation, analysis join) with a :class:`PhaseTimer`; the
executor folds the per-country timings into one :class:`ExecMetrics`
attached to the study outcome, alongside the end-to-end wall time of the
fan-out itself.  ``cpu_seconds / wall_seconds`` — the CPU the countries
actually got per second of fan-out — is then the observed parallel
speedup: at most about 1.0 for a serial run, and at most
``min(jobs, CPUs)`` for a parallel one.  (Summed per-country *wall*
time would count a country waiting for a CPU as work, so ``--jobs 4``
on two CPUs would report close to 4x.)

Since PR 8 the numbers live in a :class:`repro.obs.metrics.MetricsRegistry`
rather than ad-hoc dicts: every accessor below (``phase_seconds``,
``country_seconds``, ``transport_bytes``, ``cache_infos``, …) is a live
view over labeled registry series, so the same data feeds the
``metrics.json`` run snapshot and the Prometheus export without a second
bookkeeping path.  The dict-shaped API — and the exact ``to_dict()`` /
``render()`` output — is unchanged.

All series here are **runtime** class: wall/CPU seconds, cache hits and
transport bytes depend on scheduling, so they are excluded from the
cross-backend determinism contract (see ``repro.obs.metrics``).

Timings are measurement artefacts, not study artefacts: they are kept
off :class:`~repro.core.analysis.summary.StudySummary` and out of the
exported bundle so those stay bit-identical across runs and backends.
"""

from __future__ import annotations

import time
from collections.abc import MutableMapping
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, Optional

from repro.obs.metrics import MetricsRegistry

__all__ = ["PhaseTimer", "CountryTimings", "ExecMetrics"]

#: Canonical phase names, in pipeline order.
PHASES = ("gamma", "source_traces", "geoloc", "join")

# Registry family names for the execution layer.  Everything is
# runtime-class: these describe how the run was scheduled, not the study.
WALL_SECONDS = "exec_wall_seconds"
AGGREGATE_SECONDS = "exec_aggregate_seconds_total"
CPU_SECONDS = "exec_cpu_seconds_total"
PHASE_SECONDS = "exec_phase_seconds_total"
COUNTRY_SECONDS = "exec_country_seconds_total"
TRANSPORT_BYTES = "exec_transport_bytes_total"
TRANSPORT_ENCODE_SECONDS = "exec_transport_encode_seconds_total"
TRANSPORT_DECODE_SECONDS = "exec_transport_decode_seconds_total"
CACHE_OPERATIONS = "exec_cache_operations_total"
CACHE_SIZE = "exec_cache_size"


class PhaseTimer:
    """Context-manager timer writing into a per-country timing dict."""

    def __init__(self, sink: Dict[str, float], phase: str):
        self._sink = sink
        self._phase = phase
        self._started: Optional[float] = None

    def __enter__(self) -> "PhaseTimer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        assert self._started is not None
        elapsed = time.perf_counter() - self._started
        self._sink[self._phase] = self._sink.get(self._phase, 0.0) + elapsed


@dataclass
class CountryTimings:
    """Wall-clock seconds spent on one country, split by phase, and the
    CPU seconds the country's worker thread used."""

    country_code: str
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    cpu_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        return sum(self.phase_seconds.values())

    def timer(self, phase: str) -> PhaseTimer:
        return PhaseTimer(self.phase_seconds, phase)


class _SeriesView(MutableMapping):
    """Live dict view over one single-label registry family.

    Keys are the label values in first-registration order; reading
    returns the series value, assignment overwrites it.  This keeps the
    historic ``metrics.phase_seconds["gamma"] += …``-style API working
    while the registry stays the single source of truth.
    """

    def __init__(self, registry: MetricsRegistry, family: str, label: str, help_: str):
        self._registry = registry
        self._family = family
        self._label = label
        self._help = help_

    def _counter(self, key: str):
        return self._registry.counter(
            self._family, {self._label: key}, help=self._help, runtime=True
        )

    def __getitem__(self, key: str):
        value = self._registry.value(self._family, {self._label: key})
        if value is None:
            raise KeyError(key)
        return value

    def __setitem__(self, key: str, value) -> None:
        self._counter(key).reset_to(value)

    def __delitem__(self, key: str) -> None:  # pragma: no cover - unused
        raise TypeError("metric series cannot be deleted")

    def __iter__(self) -> Iterator[str]:
        return (labels[self._label] for labels, _ in self._registry.series(self._family))

    def __len__(self) -> int:
        return sum(1 for _ in self._registry.series(self._family))

    def add(self, key: str, amount) -> None:
        self._counter(key).inc(amount)

    def __eq__(self, other) -> bool:
        if isinstance(other, (dict, MutableMapping)):
            return dict(self) == dict(other)
        return NotImplemented  # pragma: no cover

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_SeriesView({dict(self)!r})"


class ExecMetrics:
    """Execution-layer accounting for one study run.

    The constructor signature and every public attribute predate the
    registry; they are preserved exactly so call sites and rendered
    output cannot drift.  ``registry`` may be passed to share a registry
    created elsewhere (the coordinator does this to fold worker deltas
    and execution accounting into one snapshot).
    """

    def __init__(
        self,
        backend: str = "serial",
        jobs: int = 1,
        wall_seconds: float = 0.0,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.backend = backend
        self.jobs = jobs
        self.registry = registry if registry is not None else MetricsRegistry()
        if wall_seconds:
            self.wall_seconds = wall_seconds

    # -- scalar series ------------------------------------------------
    @property
    def wall_seconds(self) -> float:
        """End-to-end wall time of the country fan-out."""
        value = self.registry.value(WALL_SECONDS)
        return float(value) if value is not None else 0.0

    @wall_seconds.setter
    def wall_seconds(self, value: float) -> None:
        self.registry.gauge(
            WALL_SECONDS, help="end-to-end fan-out wall time", unit="seconds",
            runtime=True,
        ).set(value)

    @property
    def aggregate_seconds(self) -> float:
        """Sum of per-country wall times (what a serial run would pay)."""
        value = self.registry.value(AGGREGATE_SECONDS)
        return float(value) if value is not None else 0.0

    @property
    def cpu_seconds(self) -> float:
        """Sum of per-country CPU seconds (worker thread CPU time)."""
        value = self.registry.value(CPU_SECONDS)
        return float(value) if value is not None else 0.0

    @property
    def transport_encode_seconds(self) -> float:
        """Worker-side pickling seconds, summed across countries."""
        value = self.registry.value(TRANSPORT_ENCODE_SECONDS)
        return float(value) if value is not None else 0.0

    @property
    def transport_decode_seconds(self) -> float:
        """Coordinator-side unpickling seconds so far: a pickled run is
        unpickled only when its dataset or geolocation is first read."""
        value = self.registry.value(TRANSPORT_DECODE_SECONDS)
        return float(value) if value is not None else 0.0

    # -- labeled series (live views) ----------------------------------
    @property
    def phase_seconds(self) -> _SeriesView:
        """Phase name -> seconds summed across countries."""
        return _SeriesView(
            self.registry, PHASE_SECONDS, "phase", "per-phase worker seconds"
        )

    @property
    def country_seconds(self) -> _SeriesView:
        """Country code -> that country's total seconds."""
        return _SeriesView(
            self.registry, COUNTRY_SECONDS, "country", "per-country worker seconds"
        )

    @property
    def transport_bytes(self) -> _SeriesView:
        """Country code -> pickled run payload bytes (process backend
        only; empty when results never crossed a process boundary)."""
        return _SeriesView(
            self.registry, TRANSPORT_BYTES, "country", "pickled run payload bytes"
        )

    # -- recording ----------------------------------------------------
    def record_country(self, timings: CountryTimings, resumed: bool = False) -> None:
        """Fold one country's timings in.  A *resumed* country (loaded
        from a checkpoint) spent its CPU before this fan-out started, so
        it adds nothing to ``cpu_seconds`` and hence to ``speedup``."""
        # Accumulate the *rounded* total so that, with series preserving
        # insertion order, ``sum(country_seconds.values())`` replays the
        # exact float additions behind ``aggregate_seconds`` — the
        # invariant the metrics tests lock down.
        total = round(timings.total_seconds, 6)
        self.country_seconds[timings.country_code] = total
        self.registry.counter(
            AGGREGATE_SECONDS, help="summed per-country worker seconds",
            unit="seconds", runtime=True,
        ).inc(total)
        self.registry.counter(
            CPU_SECONDS, help="summed per-country CPU seconds",
            unit="seconds", runtime=True,
        ).inc(0.0 if resumed else timings.cpu_seconds)
        phases = self.phase_seconds
        for phase, seconds in timings.phase_seconds.items():
            phases.add(phase, seconds)

    def record_transport(
        self, country_code: str, nbytes: int, encode_seconds: float
    ) -> None:
        """Fold one country's pickled-run accounting into the metrics."""
        self.transport_bytes[country_code] = nbytes
        self.registry.counter(
            TRANSPORT_ENCODE_SECONDS, help="worker-side pickling seconds",
            unit="seconds", runtime=True,
        ).inc(encode_seconds)

    def record_decode(self, seconds: float) -> None:
        """Count one on-demand unpickle of a shipped run."""
        self.registry.counter(
            TRANSPORT_DECODE_SECONDS, help="coordinator-side unpickling seconds",
            unit="seconds", runtime=True,
        ).inc(seconds)

    def _cache_series(self, name: str, op: str):
        return self.registry.counter(
            CACHE_OPERATIONS, {"cache": name, "op": op},
            help="memo-cache lookups by outcome", runtime=True,
        )

    def _cache_size(self, name: str):
        return self.registry.gauge(
            CACHE_SIZE, {"cache": name}, help="memo-cache population (max seen)",
            runtime=True,
        )

    def merge_worker_caches(self, deltas: Iterable[Dict[str, dict]]) -> None:
        """Fold per-country cache counter deltas into the run's metrics.

        Each country ships back the hit/miss deltas it caused, in
        whichever process ran it; their sum is the study's lookups on
        every backend.  ``size`` is the largest population observed
        after any one country (cache contents cannot be unioned from
        counters alone) — for the per-run ``gamma.traces`` memo, the
        per-country peak.
        """
        for delta in deltas:
            for name, counters in delta.items():
                self._cache_series(name, "hit").inc(counters.get("hits", 0))
                self._cache_series(name, "miss").inc(counters.get("misses", 0))
                size = self._cache_size(name)
                size.set(max(size.value, counters.get("size", 0)))

    @property
    def cache_infos(self) -> Dict[str, dict]:
        """Cache name -> hit/miss counter snapshot (memoised lookup
        layers), rebuilt from the registry series that
        :meth:`merge_worker_caches` filled from the per-country deltas
        shipped back with each ``CountryRun``."""
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

    def registry_snapshot(self) -> dict:
        """The underlying registry's plain-data snapshot."""
        return self.registry.snapshot()

    def to_dict(self) -> dict:
        payload = {
            "backend": self.backend,
            "jobs": self.jobs,
            "wall_seconds": round(self.wall_seconds, 4),
            "aggregate_seconds": round(self.aggregate_seconds, 4),
            "cpu_seconds": round(self.cpu_seconds, 4),
            "speedup": round(self.speedup, 3),
            "phase_seconds": {
                phase: round(seconds, 4)
                for phase, seconds in sorted(self.phase_seconds.items())
            },
            "country_seconds": dict(sorted(self.country_seconds.items())),
            "caches": dict(sorted(self.cache_infos.items())),
        }
        if self.transport_bytes:
            payload["transport_bytes"] = dict(sorted(self.transport_bytes.items()))
            payload["transport_encode_seconds"] = round(self.transport_encode_seconds, 4)
            payload["transport_decode_seconds"] = round(self.transport_decode_seconds, 4)
        return payload

    def render(self) -> str:
        """One human-readable block for the CLI study summary."""
        lines = [
            f"execution: backend={self.backend} jobs={self.jobs} "
            f"wall={self.wall_seconds:.2f}s aggregate={self.aggregate_seconds:.2f}s "
            f"cpu={self.cpu_seconds:.2f}s speedup={self.speedup:.2f}x"
        ]
        phase_seconds = dict(self.phase_seconds)

        def _phase_line(phase: str) -> str:
            seconds = phase_seconds[phase]
            share = 100.0 * seconds / self.aggregate_seconds if self.aggregate_seconds else 0.0
            return f"  {phase:<14} {seconds:8.2f}s {share:5.1f}%"

        for phase in PHASES:
            if phase in phase_seconds:
                lines.append(_phase_line(phase))
        for phase in sorted(set(phase_seconds) - set(PHASES)):
            lines.append(_phase_line(phase))
        transport_bytes = dict(self.transport_bytes)
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
