"""A caching stub resolver in front of GeoDNS.

Volunteer machines do not query authoritative servers directly; their
stub resolver caches answers for the record TTL and caches NXDOMAIN
negatively.  This matters for measurement fidelity: within one Gamma
run, repeated requests to the same host observe one consistent answer —
which is why each country's dataset maps each host to exactly one
address even though GeoDNS could, over time, rotate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.domains import validate_hostname
from repro.netsim.dns import DNSAnswer, GeoDNSResolver, NXDomain
from repro.netsim.geography import City

__all__ = ["StubResolver"]


@dataclass
class _CacheEntry:
    answer: Optional[DNSAnswer]  # None = cached NXDOMAIN
    expires_at: float


@dataclass
class StubResolver:
    """TTL-honouring cache over a :class:`GeoDNSResolver`.

    Time is logical (caller-supplied seconds), keeping the component
    deterministic: the clock only advances when the caller says so.
    """

    upstream: GeoDNSResolver
    client_city: City
    negative_ttl: int = 60
    _clock: float = 0.0
    _cache: Dict[str, _CacheEntry] = field(default_factory=dict)
    _stats: Dict[str, int] = field(default_factory=lambda: {"hits": 0, "misses": 0})

    @property
    def now(self) -> float:
        return self._clock

    def advance(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("time flows forward")
        self._clock += seconds

    def resolve(self, hostname: str) -> DNSAnswer:
        """Resolve through the cache; raises :class:`NXDomain` as upstream."""
        hostname = validate_hostname(hostname)
        entry = self._cache.get(hostname)
        if entry is not None and entry.expires_at > self._clock:
            self._stats["hits"] += 1
            if entry.answer is None:
                raise NXDomain(hostname)
            return entry.answer
        self._stats["misses"] += 1
        try:
            answer = self.upstream.resolve(hostname, self.client_city)
        except NXDomain:
            self._cache[hostname] = _CacheEntry(None, self._clock + self.negative_ttl)
            raise
        self._cache[hostname] = _CacheEntry(answer, self._clock + answer.ttl)
        return answer

    def resolve_address(self, hostname: str) -> str:
        return self.resolve(hostname).address

    def flush(self) -> None:
        self._cache.clear()

    @property
    def stats(self) -> Tuple[int, int]:
        """``(hits, misses)`` since construction."""
        return self._stats["hits"], self._stats["misses"]

    def cached_hosts(self) -> int:
        """Entries currently within TTL."""
        return sum(1 for e in self._cache.values() if e.expires_at > self._clock)
