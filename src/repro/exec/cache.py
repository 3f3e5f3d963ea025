"""Concurrent read-through memoisation for hot, pure lookups.

The hottest cross-country lookups — great-circle distance, city-pair
latency statistics, reverse DNS, GeoDNS resolution — are pure functions
of their keys.  :class:`ReadThroughCache` memoises such lookups.  Each
cache is a plain attribute of the object that fills it (the GeoDNS
resolver, the tracker identifier, the measurement service, one
country's probe runner); nothing registers it anywhere, so a cache
lives and dies with its owner.  Entries are published behind a lock —
concurrent readers never observe a half-written entry and hit/miss
counters stay exact — and first-time computes run *outside* the lock
under per-key single-flight coordination: two threads missing different
keys compute concurrently, two threads missing the same key compute it
once.

The common paths stay lean.  A hit is one dictionary probe under the
lock.  A miss records a bare claim; the :class:`threading.Event` its
waiters block on is created only when a second caller finds the key
already in flight, so an uncontended miss allocates no wait primitive.
``clear()`` and ``invalidate(key)`` drop in-flight claims along with
entries: a compute that straddles either call still answers its own
caller and its waiters, but its value — possibly derived from the state
the call discarded — is not memoised.

Because every cached value is deterministic in its key, memoisation can
never change a result — only how often it is recomputed.  The
cache-correctness tests in ``tests/test_exec_cache.py`` verify exactly
that property against the uncached code paths.

Caches are picklable (the lock is dropped and re-created), so services
holding one can travel to process-pool workers with the scenario.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Hashable, Iterator, Optional, Tuple

__all__ = ["CacheInfo", "ReadThroughCache", "cache_registry"]


class CacheInfo:
    """Immutable snapshot of one cache's counters."""

    __slots__ = ("name", "hits", "misses", "size")

    def __init__(self, name: str, hits: int, misses: int, size: int):
        self.name = name
        self.hits = hits
        self.misses = misses
        self.size = size

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.lookups
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "hits": self.hits,
            "misses": self.misses,
            "size": self.size,
            "hit_rate": round(self.hit_rate, 4),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"CacheInfo(name={self.name!r}, hits={self.hits}, "
            f"misses={self.misses}, size={self.size})"
        )


class _InFlight:
    """Coordination record for one in-progress compute.

    ``event`` stays ``None`` until a second caller finds the key in
    flight: an uncontended miss never allocates a wait primitive.
    """

    __slots__ = ("event", "value", "error")

    def __init__(self):
        self.event: Optional[threading.Event] = None
        self.value: object = None
        self.error = False


#: Sentinel for "no entry"; cached values may legitimately be ``None``.
_MISSING = object()


class ReadThroughCache:
    """A keyed memo safe for concurrent readers.

    ``get(key, compute)`` returns the cached value for *key* or calls
    ``compute()`` and stores the result.  Computes run *outside* the
    lock: the first thread to miss a key claims ownership of it (that
    claim is the recorded miss) and computes while the lock is free, so
    misses on distinct keys proceed in parallel.  Threads missing the
    same key wait on the owner's flight and count a hit once the value
    lands — each key is still computed exactly once, and counters stay
    exact.  If the owner's ``compute()`` raises, the exception
    propagates to the owner and one waiter takes over ownership and
    retries.  :meth:`clear` and :meth:`invalidate` drop in-flight claims
    as well as entries: an owner whose claim was dropped still returns
    its value to its caller and its waiters, but does not memoise it, so
    a value computed from the old state never outlives the reset.  An
    optional ``maxsize`` evicts the oldest entry FIFO-style so unbounded
    key spaces cannot grow without limit.
    """

    def __init__(self, name: str, maxsize: Optional[int] = None):
        if maxsize is not None and maxsize <= 0:
            raise ValueError("maxsize must be positive when given")
        self.name = name
        self._maxsize = maxsize
        self._data: Dict[Hashable, object] = {}
        self._inflight: Dict[Hashable, _InFlight] = {}
        self._hits = 0
        self._misses = 0
        self._lock = threading.Lock()

    def get(self, key: Hashable, compute: Callable[[], object]) -> object:
        while True:
            with self._lock:
                value = self._data.get(key, _MISSING)
                if value is not _MISSING:
                    self._hits += 1
                    return value
                flight = self._inflight.get(key)
                if flight is None:
                    flight = self._inflight[key] = _InFlight()
                    self._misses += 1
                    owner = True
                else:
                    # A second caller: only now is a wait primitive needed.
                    event = flight.event
                    if event is None:
                        event = flight.event = threading.Event()
                    owner = False
            if owner:
                return self._compute_as_owner(key, compute, flight)
            event.wait()
            if not flight.error:
                with self._lock:
                    self._hits += 1
                return flight.value
            # The owner's compute raised; loop and race to become the
            # new owner (or find the value a faster retrier stored).

    def _compute_as_owner(
        self, key: Hashable, compute: Callable[[], object], flight: _InFlight
    ) -> object:
        try:
            value = compute()
        except BaseException:
            with self._lock:
                if self._inflight.get(key) is flight:
                    del self._inflight[key]
                flight.error = True
                event = flight.event
            if event is not None:
                event.set()
            raise
        with self._lock:
            # Memoise only while the claim stands: clear() or
            # invalidate() since the miss means *value* may be stale.
            if self._inflight.get(key) is flight:
                del self._inflight[key]
                if self._maxsize is not None and len(self._data) >= self._maxsize:
                    self._data.pop(next(iter(self._data)))
                self._data[key] = value
            flight.value = value
            # Waiters create the event under this lock, so once the
            # claim is gone no further waiter can attach to *flight*.
            event = flight.event
        if event is not None:
            event.set()
        return value

    def peek(self, key: Hashable) -> Tuple[bool, object]:
        """``(present, value)`` without touching the counters."""
        with self._lock:
            if key in self._data:
                return True, self._data[key]
            return False, None

    def invalidate(self, key: Hashable) -> None:
        """Drop *key*'s entry and any in-flight claim on it."""
        with self._lock:
            self._data.pop(key, None)
            self._inflight.pop(key, None)

    def clear(self) -> None:
        """Drop every entry and in-flight claim, and zero the counters."""
        with self._lock:
            self._data.clear()
            self._inflight.clear()
            self._hits = 0
            self._misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(self.name, self._hits, self._misses, len(self._data))

    # -- pickling: drop the lock, keep the memo ------------------------------
    def __getstate__(self) -> dict:
        with self._lock:
            return {
                "name": self.name,
                "_maxsize": self._maxsize,
                "_data": dict(self._data),
                "_hits": self._hits,
                "_misses": self._misses,
            }

    def __setstate__(self, state: dict) -> None:
        self.name = state["name"]
        self._maxsize = state["_maxsize"]
        self._data = state["_data"]
        self._hits = state["_hits"]
        self._misses = state["_misses"]
        self._inflight = {}
        self._lock = threading.Lock()


def cache_registry() -> Iterator[CacheInfo]:
    """Snapshot of the one process-wide memo, ``netsim.distance``.

    Every other cache belongs to the object that fills it; a study's
    share of those is reported in ``outcome.metrics.cache_infos``.
    """
    from repro.netsim.distance import distance_cache  # imports this module

    return iter([distance_cache.info()])
