"""Component C3: active measurement probes.

Launches traceroutes through the OS adapter so the stored
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
  trace per address.  :meth:`ProbeRunner.traceroute_many` memoises that
  first observation in the runner's own ``gamma.traces`` cache and
  reuses it for subsequent sites instead of recomputing a trace that
  would be thrown away.  The Gamma suite builds one runner per run, so
  the memo dies with its country's run and no two runs share entries.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.core.gamma.osadapt import OSAdapter, adapter_for
from repro.core.gamma.parsers import NormalizedTraceroute
from repro.exec.cache import ReadThroughCache
from repro.netsim.geography import City
from repro.netsim.network import World

__all__ = ["ProbeRunner", "TRACE_CACHE_NAME"]

#: Name of the memoised first-observation trace cache.
TRACE_CACHE_NAME = "gamma.traces"


class ProbeRunner:
    """Runs OS-native probes from a vantage city."""

    def __init__(self, world: World, os_name: str = "linux"):
        self._world = world
        self._adapter: OSAdapter = adapter_for(os_name)
        self._traces = ReadThroughCache(TRACE_CACHE_NAME)

    @property
    def adapter(self) -> OSAdapter:
        return self._adapter

    @property
    def trace_cache(self) -> ReadThroughCache:
        """This runner's first-observation memo."""
        return self._traces

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
    ) -> Dict[str, NormalizedTraceroute]:
        """Traceroutes for *target_ips*, memoised per address.

        The first trace this runner launched toward an address is
        replayed for every later request (across calls — i.e. across
        sites), matching the first-observation-wins rule the geolocation
        pipeline applies anyway.  ``key_prefix`` still names the
        *launching* measurement, so the first observation is
        byte-identical to an unmemoised :meth:`traceroute` loop's.
        """
        results: Dict[str, NormalizedTraceroute] = {}
        for i, target_ip in enumerate(target_ips):
            results[target_ip] = self._traces.get(
                (source_city.key, target_ip),
                lambda ip=target_ip, key=f"{key_prefix}:{i}": self.traceroute(
                    source_city, ip, key
                ),
            )
        return results
