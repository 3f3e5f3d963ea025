"""The machine's speed while an operation runs, sampled from inside it.

A shared virtual machine does not run at one speed: the same fixed loop
takes 1.5-1.8 times longer in slow spells that last from a second to
several minutes, and the process's CPU time grows with its wall time, so
the slowdown is not time spent waiting for a CPU.  A timing taken in a
slow spell says more about the spell than about the program.

:class:`SpeedProbe` measures the spells while the program runs.  A
``SIGALRM`` interval timer interrupts the interpreter every
``PERIOD_S``; the handler times a fixed loop of the benchmark's own
(:func:`reference_loop`, 0.15-0.3 ms, so about 1% of the time) and
keeps the duration.  :meth:`SpeedProbe.slowdown` is the mean duration
over a window divided by ``REFERENCE_S``, the loop's duration in the
machine's fast state, and an operation's *reference time* is its wall
time divided by that slowdown: the seconds it would have taken had the
whole window run at the fast speed.

The loop allocates no object the garbage collector tracks, so it does
not move the program's collections.  The handler runs between the
program's bytecodes; a sample that was preempted by another process
(more than ``PREEMPTED`` times the window's median) measures the
scheduler rather than the machine and is left out.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

#: Seconds between two samples.
PERIOD_S = 0.025
#: :func:`reference_loop`'s duration in the fast state of the 2-CPU
#: virtual machine (Intel Xeon, 2.1 GHz, Python 3.11) the benchmark was
#: written on.  Only ratios of reference times matter; this constant
#: keeps them near the wall seconds of a fast run.
REFERENCE_S = 0.00016
#: A sample this many times the window's median was preempted.
PREEMPTED = 4.0


def reference_loop(table: List[int]) -> None:
    """A fixed pure-Python loop over a 128-entry *table*: indexing and
    small-int arithmetic."""
    for i in range(2000):
        table[i & 127] = (table[i & 127] + i) % 1009


class SpeedProbe:
    """Samples :func:`reference_loop` on a timer until :meth:`stop`."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._table = [0] * 128
        self._previous = None

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        reference_loop(self._table)
        self.samples.append(time.perf_counter() - started)

    def start(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        """A window's start: pass it to :meth:`slowdown` at the end."""
        return len(self.samples)

    def slowdown(self, since: int = 0) -> float:
        """How much slower than its fast state the machine ran since
        *since*: the mean sample over ``REFERENCE_S`` (1.0 without
        samples)."""
        window = self.samples[since:]
        if not window:
            return 1.0
        limit = PREEMPTED * statistics.median(window)
        kept = [sample for sample in window if sample <= limit]
        return statistics.fmean(kept) / REFERENCE_S
