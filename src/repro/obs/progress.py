"""Live study progress: country completions, sites/sec, ETA.

The reporter is a *consumer* of executor completion callbacks — it
never touches results, only counts them — so enabling it cannot change
what a study produces.  Completion callbacks fire from pool threads in
completion order, which is scheduling-dependent; everything the
reporter emits (stderr lines, journal ``progress`` events) is therefore
diagnostic and stripped by :func:`repro.obs.strip_timings`.
"""

from __future__ import annotations

import sys
import threading
import time
from typing import Any, Dict, List, Optional

__all__ = ["ProgressReporter"]

_BAR_WIDTH = 20


class ProgressReporter:
    """Streams one status line per completed country.

    On a TTY the line is redrawn in place (``\\r``); otherwise each
    completion appends a full line, which keeps piped stderr readable.
    When ``record_events`` is set the reporter also buffers journal
    ``progress`` event dicts for the study tail.
    """

    def __init__(
        self,
        total: int,
        stream=None,
        record_events: bool = False,
        clock=None,
    ) -> None:
        self._total = max(int(total), 0)
        self._stream = stream if stream is not None else sys.stderr
        self._clock = clock or time.perf_counter
        self._isatty = bool(getattr(self._stream, "isatty", lambda: False)())
        self._lock = threading.Lock()
        self._events: Optional[List[Dict[str, Any]]] = [] if record_events else None
        self._started: Optional[float] = None
        self._done = 0
        self._failed = 0
        self._sites = 0
        self._dirty_line = False

    # -- lifecycle ----------------------------------------------------
    def start(self) -> None:
        self._started = self._clock()

    def country_done(
        self,
        country_code: str,
        sites: int = 0,
        failed: bool = False,
        resumed: bool = False,
    ) -> None:
        """Record one finished country; thread-safe (pool callbacks)."""
        with self._lock:
            if self._started is None:
                self.start()
            self._done += 1
            self._sites += int(sites)
            if failed:
                self._failed += 1
            elapsed = max(self._clock() - self._started, 1e-9)
            rate = self._sites / elapsed
            remaining = self._total - self._done
            eta = (elapsed / self._done) * remaining if self._done else 0.0
            self._emit_line(country_code, elapsed, rate, eta, failed, resumed)
            if self._events is not None:
                event: Dict[str, Any] = {
                    "ev": "progress",
                    "span": "study",
                    "t": round(elapsed, 6),
                    "country": country_code,
                    "done": self._done,
                    "total": self._total,
                    "sites": self._sites,
                    "failed": self._failed,
                    "sites_per_second": round(rate, 3),
                    "eta_seconds": round(eta, 3),
                }
                if resumed:
                    event["resumed"] = True
                self._events.append(event)

    def finish(self) -> None:
        with self._lock:
            if self._dirty_line:
                self._stream.write("\n")
                self._stream.flush()
                self._dirty_line = False
            if self._started is None:
                return
            elapsed = max(self._clock() - self._started, 1e-9)
            summary = (
                f"progress: {self._done}/{self._total} countries, "
                f"{self._sites} sites in {elapsed:.1f}s "
                f"({self._sites / elapsed:.1f} sites/s)"
            )
            if self._failed:
                summary += f", {self._failed} failed"
            self._write(summary + "\n")

    # -- journal ------------------------------------------------------
    def events(self) -> List[Dict[str, Any]]:
        """Buffered ``progress`` journal events (diagnostic, stripped)."""
        return list(self._events or ())

    # -- rendering ----------------------------------------------------
    def _emit_line(
        self,
        country_code: str,
        elapsed: float,
        rate: float,
        eta: float,
        failed: bool,
        resumed: bool,
    ) -> None:
        filled = int(_BAR_WIDTH * self._done / self._total) if self._total else _BAR_WIDTH
        bar = "#" * filled + "-" * (_BAR_WIDTH - filled)
        tag = " FAILED" if failed else (" (resumed)" if resumed else "")
        line = (
            f"[{bar}] {self._done}/{self._total} {country_code}{tag} | "
            f"{self._sites} sites | {rate:.1f} sites/s | ETA {eta:.0f}s"
        )
        if self._isatty:
            self._write("\r\x1b[2K" + line)
            self._dirty_line = True
        else:
            self._write(line + "\n")

    def _write(self, text: str) -> None:
        try:
            self._stream.write(text)
            self._stream.flush()
        except (OSError, ValueError):  # closed/broken stderr must not kill a study
            pass
