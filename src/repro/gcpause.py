"""Pause CPython's cyclic garbage collector around bulk, acyclic builds.

Writing or reloading a bundle allocates hundreds of thousands of
container objects in one go.  Each allocation burst trips the
collector's generation thresholds, and every full pass walks the whole
live heap — the study already in memory plus the half-built payloads or
datasets — only to find nothing: the bundle writers and loaders create
no reference cycles, so reference counting frees everything they
drop.  Pausing the collector for the build skips those passes; the
objects stay tracked, and the next pass after the block sees them as
usual.

The pause is scoped to one call: it restores the caller's state (a
collector the caller had switched off stays off), on exceptions too.
Process-wide knobs such as ``gc.freeze`` or ``gc.set_threshold``
outlive the call and are not used.  See ``docs/performance.md``.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

__all__ = ["collector_paused"]


@contextmanager
def collector_paused() -> Iterator[None]:
    """Disable the cyclic collector for the block, then restore its state."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
