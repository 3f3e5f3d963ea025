"""Live study progress: country completions, sites/sec, ETA.

The reporter is a *consumer* of executor completion callbacks — it
never touches results, only counts them — so enabling it cannot change
what a study produces.  Callbacks arrive on the coordinator's thread in
completion order, which is scheduling-dependent, so the reporter writes
to stderr only; a country's completion is journalled once, as its
``country`` span.
"""

from __future__ import annotations

import sys
import time
from typing import Optional

__all__ = ["ProgressReporter"]

_BAR_WIDTH = 20


class ProgressReporter:
    """Streams one status line per completed country.

    On a TTY the line is redrawn in place (``\\r``); otherwise each
    completion appends a full line, which keeps piped stderr readable.
    """

    def __init__(self, total: int, stream=None, clock=None) -> None:
        self._total = max(int(total), 0)
        self._stream = stream if stream is not None else sys.stderr
        self._clock = clock or time.perf_counter
        self._isatty = bool(getattr(self._stream, "isatty", lambda: False)())
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
        """Record one finished country."""
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
        self._emit_line(country_code, rate, eta, failed, resumed)

    def finish(self) -> None:
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

    # -- rendering ----------------------------------------------------
    def _emit_line(
        self,
        country_code: str,
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
