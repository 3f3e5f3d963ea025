"""Component C3: active measurement probes.

Launches traceroutes (and pings) through the OS adapter so the stored
record is the normalised JSON schema regardless of platform.  Two fast
paths keep C3 — the scaling bottleneck of a study — off the profile:

* **Direct normalisation**: the adapter constructs the
  :class:`NormalizedTraceroute` straight from the structured trace via
  :mod:`repro.core.gamma.normalize`, reproducing its platform's lossy
  text quantisation exactly.  The historical *render text → parse text*
  round trip (``OSAdapter.raw_traceroute`` +
  :func:`~repro.core.gamma.parsers.parse_traceroute_output`) stays
  public and serves the tests as the correctness oracle.
* **Per-country trace memo**: within one run the same third-party
  address is embedded by many sites, and downstream consumers
  (:func:`repro.study.build_source_traces`) only ever keep the *first*
  trace per address.  ``traceroute_many(..., memo=True)`` memoises that
  first observation in the registered ``gamma.traces`` cache and reuses
  it for subsequent sites instead of recomputing a trace that would be
  thrown away.  Entries are namespaced per runner, so concurrent
  per-country workers (and distinct scenarios) never share state.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Optional

from repro.core.gamma.osadapt import OSAdapter, PingResult, adapter_for
from repro.core.gamma.parsers import NormalizedTraceroute
from repro.exec.cache import ReadThroughCache, register_cache
from repro.netsim.geography import City
from repro.netsim.network import World
from repro.netsim.tls import TLSEndpointInfo, TLSInspector

__all__ = ["ProbeRunner", "TRACE_CACHE_NAME"]

#: Registry name of the memoised first-observation trace cache.
TRACE_CACHE_NAME = "gamma.traces"

#: One process-wide cache; keys carry a per-runner namespace token, so
#: hit/miss counters accumulate on a single registered cache (surfacing
#: in ``ExecMetrics``/``--cache-stats``) while runners stay isolated.
_TRACE_CACHE = register_cache(ReadThroughCache(TRACE_CACHE_NAME, maxsize=131072))
_RUNNER_TOKENS = itertools.count()


class ProbeRunner:
    """Runs OS-native probes from a vantage city."""

    def __init__(self, world: World, os_name: str = "linux"):
        self._world = world
        self._adapter: OSAdapter = adapter_for(os_name)
        self._tls = TLSInspector(world)
        self._memo_namespace = next(_RUNNER_TOKENS)

    @property
    def adapter(self) -> OSAdapter:
        return self._adapter

    def traceroute(self, source_city: City, target_ip: str, key: str = "") -> NormalizedTraceroute:
        """One traceroute, via the platform tool, normalised."""
        return self._adapter.normalized_traceroute(
            self._world.traceroute, source_city, target_ip, key
        )

    def traceroute_many(
        self,
        source_city: City,
        target_ips: Iterable[str],
        key_prefix: str = "",
        memo: bool = False,
    ) -> Dict[str, NormalizedTraceroute]:
        """Traceroutes for *target_ips*, optionally memoised per address.

        With ``memo=True``, the first trace this runner launched toward
        an address is replayed for every later request (across calls —
        i.e. across sites), matching the first-observation-wins rule the
        geolocation pipeline applies anyway.  ``key_prefix`` still names
        the *launching* measurement, so the first observation is
        byte-identical to the unmemoised run's.
        """
        results: Dict[str, NormalizedTraceroute] = {}
        for i, target_ip in enumerate(target_ips):
            if memo:
                results[target_ip] = _TRACE_CACHE.get(
                    (self._memo_namespace, source_city.key, target_ip),
                    lambda ip=target_ip, key=f"{key_prefix}:{i}": self.traceroute(
                        source_city, ip, key
                    ),
                )
            else:
                results[target_ip] = self.traceroute(source_city, target_ip, f"{key_prefix}:{i}")
        return results

    def ping(
        self, source_city: City, target_ip: str, count: int = 4
    ) -> Optional[PingResult]:
        """ICMP echo probe; ``None`` for addresses outside the served space."""
        target_city = self._world.ips.true_city(target_ip)
        if target_city is None:
            return None
        return self._adapter.ping(self._world.latency, source_city, target_city, target_ip, count)

    def tls(self, target_ip: str, sni: Optional[str] = None) -> Optional[TLSEndpointInfo]:
        """testssl.sh-style TLS parameter probe (section 3, component C3)."""
        return self._tls.probe(target_ip, sni)
