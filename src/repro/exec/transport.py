"""How a finished country crosses the process-pool boundary.

On the process backend, :class:`TransportWorker` pickles each finished
:class:`~repro.exec.worker.CountryRun` once (protocol 5) inside the pool
worker and returns a :class:`PickledCountryRun` instead.  That
descriptor carries what the coordinator merges and what every figure
reads — the accounting fields (funnel, timings, cache deltas, events,
metrics delta, resources, site count) and the joined ``result.sites``
and ``tracker_verdicts`` — plus the payload bytes of the whole run.

The coordinator keeps the bytes and unpickles a country only when its
dataset or geolocation is read (``outcome.datasets[cc]``,
``outcome.geolocations[cc]``, ``outcome.results[i].dataset``), so a
study, its summary and its figures never rebuild the per-site
measurement graph in the coordinator.  Serial and thread runs never
cross a process boundary and stay plain objects.  See
``docs/performance.md``.
"""

from __future__ import annotations

import pickle
import time
from functools import cached_property
from typing import Callable, Optional

from repro.core.analysis.records import CountryStudyResult

__all__ = ["PickledCountryRun", "TransportWorker"]


class PickledCountryRun:
    """One country's run as shipped back by a pool worker.

    Reads like a :class:`~repro.exec.worker.CountryRun`: everything but
    ``dataset`` and ``geolocation`` is available without touching
    ``payload``; those two unpickle the full run on first use
    (:meth:`load`, cached).
    """

    def __init__(self, run, payload: bytes, encode_seconds: float):
        self.country_code = run.country_code
        self.source_trace_origin = run.source_trace_origin
        self.funnel = run.funnel
        self.timings = run.timings
        self.cache_deltas = run.cache_deltas
        self.events = run.events
        self.metrics_delta = run.metrics_delta
        self.resources = run.resources
        self.site_count = run.site_count
        self.sites = run.result.sites
        self.tracker_verdicts = run.result.tracker_verdicts
        self.nbytes = len(payload)
        self.encode_seconds = encode_seconds
        self.payload: Optional[bytes] = payload
        #: Called with the unpickle seconds when :meth:`load` runs (the
        #: coordinator points it at its ``ExecMetrics``).
        self.on_load: Optional[Callable[[float], None]] = None
        self._run = None

    @classmethod
    def of(cls, run) -> "PickledCountryRun":
        started = time.perf_counter()
        payload = pickle.dumps(run, protocol=5)
        return cls(run, payload, time.perf_counter() - started)

    def load(self):
        """The full :class:`~repro.exec.worker.CountryRun` (unpickled once)."""
        if self._run is None:
            started = time.perf_counter()
            self._run = pickle.loads(self.payload)
            self.payload = None
            if self.on_load is not None:
                self.on_load(time.perf_counter() - started)
        return self._run

    @property
    def dataset(self):
        return self.load().dataset

    @property
    def geolocation(self):
        return self.load().geolocation

    @cached_property
    def result(self) -> CountryStudyResult:
        """The joined result; its dataset and geolocation load on demand."""
        return _ShippedResult(self)


class _ShippedResult(CountryStudyResult):
    """A :class:`CountryStudyResult` whose sites and verdicts came with the
    descriptor; ``dataset``/``geolocation`` unpickle the payload."""

    def __init__(self, shipped: PickledCountryRun):
        self.country_code = shipped.country_code
        self.tracker_verdicts = shipped.tracker_verdicts
        self.sites = shipped.sites
        self._shipped = shipped

    @property
    def dataset(self):
        return self._shipped.dataset

    @property
    def geolocation(self):
        return self._shipped.geolocation


class TransportWorker:
    """Pickle successful runs at the worker side of the pool boundary.

    Wraps the (already resilient) per-country callable: a ``CountryRun``
    comes back as a :class:`PickledCountryRun`; a ``CountryFailure``
    manifest passes through untouched.
    """

    def __init__(self, call):
        self._call = call

    def __call__(self, country_code: str):
        from repro.exec.worker import CountryRun

        result = self._call(country_code)
        if not isinstance(result, CountryRun):
            return result
        return PickledCountryRun.of(result)
