"""Read-through memoisation for hot, pure lookups.

The hottest cross-country lookups — great-circle distance, city-pair
latency statistics, reverse DNS, GeoDNS resolution — are pure functions
of their keys.  :class:`ReadThroughCache` memoises such lookups.  Each
cache is a plain attribute of the object that fills it (the GeoDNS
resolver, the tracker identifier, the measurement service, one
country's probe runner); nothing registers it anywhere, so a cache
lives and dies with its owner.

A cache is a plain dictionary with exact hit/miss counters and no lock:
a study runs serially or on a process pool, so each process has one
thread calling into its own copy of every cache.  A hit is one
dictionary probe; a miss calls ``compute()`` and stores its value.

Because every cached value is deterministic in its key, memoisation can
never change a result — only how often it is recomputed.  The
cache-correctness tests in ``tests/test_exec_cache.py`` verify exactly
that property against the uncached code paths.

Caches pickle by default (entries and counters travel), so services
holding one can travel to process-pool workers with the scenario.
"""

from __future__ import annotations

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


#: Sentinel for "no entry"; cached values may legitimately be ``None``.
_MISSING = object()


class ReadThroughCache:
    """A keyed memo with exact hit/miss counters.

    ``get(key, compute)`` returns the cached value for *key* (a hit) or
    calls ``compute()`` and stores the result (a miss).  A compute that
    raises stores nothing, so the next lookup of that key computes
    again.  An optional ``maxsize`` evicts the oldest entry FIFO-style
    so unbounded key spaces cannot grow without limit.
    """

    def __init__(self, name: str, maxsize: Optional[int] = None):
        if maxsize is not None and maxsize <= 0:
            raise ValueError("maxsize must be positive when given")
        self.name = name
        self._maxsize = maxsize
        self._data: Dict[Hashable, object] = {}
        self._hits = 0
        self._misses = 0

    def get(self, key: Hashable, compute: Callable[[], object]) -> object:
        value = self._data.get(key, _MISSING)
        if value is not _MISSING:
            self._hits += 1
            return value
        self._misses += 1
        value = compute()
        if self._maxsize is not None and len(self._data) >= self._maxsize:
            self._data.pop(next(iter(self._data)))
        self._data[key] = value
        return value

    def peek(self, key: Hashable) -> Tuple[bool, object]:
        """``(present, value)`` without touching the counters."""
        if key in self._data:
            return True, self._data[key]
        return False, None

    def invalidate(self, key: Hashable) -> None:
        """Drop *key*'s entry; the counters keep counting."""
        self._data.pop(key, None)

    def clear(self) -> None:
        """Drop every entry and zero the counters."""
        self._data.clear()
        self._hits = 0
        self._misses = 0

    def __len__(self) -> int:
        return len(self._data)

    def info(self) -> CacheInfo:
        return CacheInfo(self.name, self._hits, self._misses, len(self._data))


def cache_registry() -> Iterator[CacheInfo]:
    """Snapshot of the one process-wide memo, ``netsim.distance``.

    Every other cache belongs to the object that fills it; a study's
    share of those is reported in ``outcome.metrics.cache_infos``.
    """
    from repro.netsim.distance import distance_cache  # imports this module

    return iter([distance_cache.info()])
