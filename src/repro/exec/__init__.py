"""Parallel study execution.

``repro.exec`` fans :func:`repro.run_study` out per country across a
serial or process-pool backend (``StudyConfig.jobs`` /
``gamma study --jobs N``), merges results in stable country order so the
outcome is byte-identical regardless of worker count, memoises the hot
cross-country lookups, and accounts per-phase
wall time so the speedup is observable.  Each ``CountryRun`` ships
back its country's accounting — phase, CPU and memo-cache numbers — in
its per-country metrics delta (merged into the run registry that
``ExecMetrics`` reads, the same way on both backends) and, when tracing
is on, the country's span/event buffer for the run journal
(:mod:`repro.obs`).  The fan-out is fault
tolerant: a per-country raise/skip failure policy
(:mod:`repro.exec.resilience`) and study-level checkpoint/resume
(:mod:`repro.exec.checkpoint`).  On the process backend, each finished
country crosses the pool boundary pickled once, and the coordinator
unpickles it only when its dataset or geolocation is read
(:mod:`repro.exec.transport`).  See ``docs/parallel-execution.md``,
``docs/observability.md``, ``docs/performance.md``, and
``docs/robustness.md``.
"""

from repro.exec.cache import CacheInfo, ReadThroughCache, cache_registry
from repro.exec.checkpoint import StudyCheckpoint
from repro.exec.resilience import (
    ON_ERROR_POLICIES,
    CountryFailure,
    FaultInjector,
    InjectedFaultError,
)
from repro.exec.executor import (
    BACKENDS,
    CountryExecutionError,
    ProcessPoolStudyExecutor,
    SerialStudyExecutor,
    StudyExecutor,
    create_executor,
)
from repro.exec.metrics import ExecMetrics

_LAZY = {
    "CountryRun": "worker",
    "StudyWorker": "worker",
    "PickledCountryRun": "transport",
    "TransportWorker": "transport",
}


def __getattr__(name: str):
    # The worker and the transport pull in the measurement and analysis
    # stack, whose low-level modules (netsim.distance, ...) themselves
    # import repro.exec.cache — importing them lazily keeps this package
    # cycle-free.
    if name in _LAZY:
        import importlib

        return getattr(importlib.import_module(f"repro.exec.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "BACKENDS",
    "ON_ERROR_POLICIES",
    "CacheInfo",
    "CountryExecutionError",
    "CountryFailure",
    "CountryRun",
    "ExecMetrics",
    "FaultInjector",
    "InjectedFaultError",
    "PickledCountryRun",
    "ProcessPoolStudyExecutor",
    "ReadThroughCache",
    "SerialStudyExecutor",
    "StudyCheckpoint",
    "StudyExecutor",
    "StudyWorker",
    "TransportWorker",
    "cache_registry",
    "create_executor",
]
