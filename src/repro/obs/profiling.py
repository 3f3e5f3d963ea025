"""Per-phase resource profiling: CPU seconds, peak RSS, GC collections.

A :class:`ResourceProfiler` is created per country inside the worker
(so process-backend numbers describe the worker interpreter that did
the work) and snapshotted into ``CountryRun.resources``.  Everything it
measures is wall-clock/OS state — runtime by definition — so snapshots
live outside every determinism contract: they are recorded only in the
study metrics snapshot's ``resources`` section, never in the journal or
the exported bundle.
"""

from __future__ import annotations

import gc
import os
import sys
from contextlib import contextmanager, nullcontext
from typing import Any, Dict, Optional

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    _resource = None

__all__ = ["ResourceProfiler", "maybe_phase", "peak_rss_kb"]


def _gc_collections() -> int:
    return sum(stat.get("collections", 0) for stat in gc.get_stats())


def peak_rss_kb() -> Optional[int]:
    """Peak resident set size of this process in KiB (None if unknown)."""
    if _resource is None:
        return None
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # ru_maxrss is bytes on macOS, KiB on Linux
        peak //= 1024
    return int(peak)


class ResourceProfiler:
    """Accumulates per-phase CPU and GC deltas for one unit of work."""

    def __init__(self) -> None:
        self._phases: Dict[str, Dict[str, Any]] = {}

    @contextmanager
    def phase(self, name: str):
        """Measure one pipeline phase; nests/repeats accumulate."""
        before = os.times()
        gc_before = _gc_collections()
        try:
            yield
        finally:
            after = os.times()
            entry = self._phases.setdefault(
                name, {"cpu_seconds": 0.0, "gc_collections": 0}
            )
            entry["cpu_seconds"] += (after.user - before.user) + (
                after.system - before.system
            )
            entry["gc_collections"] += _gc_collections() - gc_before

    def snapshot(self) -> Dict[str, Any]:
        """Plain-data summary of every phase measured so far."""
        phases = {
            name: {
                "cpu_seconds": round(entry["cpu_seconds"], 6),
                "gc_collections": entry["gc_collections"],
            }
            for name, entry in sorted(self._phases.items())
        }
        data: Dict[str, Any] = {
            "cpu_seconds": round(
                sum(entry["cpu_seconds"] for entry in self._phases.values()), 6
            ),
            "gc_collections": sum(
                entry["gc_collections"] for entry in self._phases.values()
            ),
            "phases": phases,
        }
        peak = peak_rss_kb()
        if peak is not None:
            data["peak_rss_kb"] = peak
        return data


def maybe_phase(profiler: Optional[ResourceProfiler], name: str):
    """Context manager helper mirroring :func:`repro.obs.maybe_span`."""
    if profiler is None:
        return nullcontext()
    return profiler.phase(name)
