"""Component C3: active measurement probes.

Launches traceroutes from the volunteer's city and stores each as the
normalised JSON schema, whatever the volunteer's OS.  Three fast paths
keep C3 — the scaling bottleneck of a study — off the profile:

* **Direct normalisation**: the runner builds the
  :class:`NormalizedTraceroute` straight from the engine's structured
  trace with its OS's normaliser (:mod:`repro.core.gamma.normalize`),
  which reproduces the quantisation that OS's tool prints.  The text
  renderers and parsers it is proven equal to live in
  ``tests/trace_oracle.py``.
* **Per-run trace memo**: within one run the same third-party
  address is embedded by many sites, and downstream consumers
  (:func:`repro.study.build_source_traces`) only ever keep the *first*
  trace per address.  :meth:`ProbeRunner.traceroute_many` memoises that
  first observation in the runner's own ``gamma.traces`` cache and
  reuses it for subsequent sites instead of recomputing a trace that
  would be thrown away.  The Gamma suite builds one runner per run, so
  the memo dies with its country's run.
* **Revisit carry**: a volunteer measures the same sites again on every
  visit, and most first observations repeat the previous visit's
  launch exactly — same city, address and measurement key (the key
  names the volunteer, site and position, not the visit).  A trace is a
  pure function of those three and the OS normaliser, so on a memo miss
  the runner replays the trace the volunteer's previous run launched
  under the same key from the scenario's :class:`TraceCarry`
  (``gamma.carry``), and launches it otherwise.  When the run ends its
  own launches replace the volunteer's previous run in the carry, which
  therefore holds at most one run per volunteer.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

from repro.core.gamma.normalize import _NORMALIZERS
from repro.core.gamma.parsers import NormalizedTraceroute
from repro.exec.cache import CacheInfo, ReadThroughCache
from repro.netsim.geography import City
from repro.netsim.network import World

__all__ = ["CARRY_CACHE_NAME", "ProbeRunner", "TRACE_CACHE_NAME", "TraceCarry"]

#: Name of the memoised first-observation trace cache.
TRACE_CACHE_NAME = "gamma.traces"
#: Name of the store of each volunteer's previous-run traces.
CARRY_CACHE_NAME = "gamma.carry"

#: One run's launches: address → (source city key, key prefix, index,
#: trace), the trace launched under measurement key
#: ``f"{key prefix}:{index}"``.  The address and city strings are the
#: run's own and one prefix serves all of a site's addresses, so an entry
#: costs about its tuple.
Launches = Dict[str, Tuple[str, str, int, NormalizedTraceroute]]


class TraceCarry:
    """Each volunteer's last run of first-observation traces.

    :meth:`replay` serves a run's memo miss from the volunteer's previous
    run when that run launched the address from the same city under the
    same measurement key on the same OS; :meth:`keep` installs a
    finished run's launches in place of the previous run's, which are
    released then.  Hits, misses and the number of traces held read
    like a :class:`~repro.exec.cache.ReadThroughCache`'s (:meth:`info`).
    """

    def __init__(self):
        self.name = CARRY_CACHE_NAME
        #: volunteer name → (OS name, that volunteer's last run's launches)
        self._runs: Dict[str, Tuple[str, Launches]] = {}
        self._hits = 0
        self._misses = 0

    def replay(
        self,
        volunteer: str,
        os_name: str,
        address: str,
        city_key: str,
        prefix: str,
        index: int,
    ) -> Optional[NormalizedTraceroute]:
        """The trace *volunteer*'s previous run launched toward *address*
        from *city_key* under measurement key ``f"{prefix}:{index}"``,
        or ``None``.

        A run asks once per address, so the entry leaves the previous
        run on the way out: a replayed trace moves to the new run, and a
        mismatched one is freed at once.
        """
        run = self._runs.get(volunteer)
        if run is not None and run[0] == os_name:
            entry = run[1].pop(address, None)
            if (
                entry is not None
                and entry[2] == index
                and entry[1] == prefix
                and entry[0] == city_key
            ):
                self._hits += 1
                return entry[3]
        self._misses += 1
        return None

    def keep(self, volunteer: str, os_name: str, launches: Launches) -> None:
        """Make *launches* the volunteer's carried run."""
        self._runs[volunteer] = (os_name, launches)

    def __len__(self) -> int:
        return sum(len(launches) for _, launches in self._runs.values())

    def info(self) -> CacheInfo:
        return CacheInfo(self.name, self._hits, self._misses, len(self))


class ProbeRunner:
    """Runs OS-native probes from a vantage city.

    The runner serves memo misses from *volunteer*'s previous run in
    *carry* (by default a new, empty one, which always misses) and
    :meth:`carry_forward` hands its own launches on.
    """

    def __init__(
        self,
        world: World,
        os_name: str = "linux",
        carry: Optional[TraceCarry] = None,
        volunteer: str = "",
    ):
        self._world = world
        try:
            self._normalize = _NORMALIZERS[os_name]
        except KeyError:
            raise ValueError(f"unsupported OS {os_name!r}") from None
        self._os_name = os_name
        self._traces = ReadThroughCache(TRACE_CACHE_NAME)
        self._carry = carry if carry is not None else TraceCarry()
        self._volunteer = volunteer
        self._launches: Launches = {}

    @property
    def trace_cache(self) -> ReadThroughCache:
        """This runner's first-observation memo."""
        return self._traces

    def traceroute(self, source_city: City, target_ip: str, key: str = "") -> NormalizedTraceroute:
        """One traceroute, normalised as the volunteer's OS tool prints it."""
        return self._normalize(self._world.traceroute.trace(source_city, target_ip, key))

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
                lambda ip=target_ip, i=i: self._first_trace(source_city, ip, key_prefix, i),
            )
        return results

    def _first_trace(
        self, source_city: City, target_ip: str, key_prefix: str, index: int
    ) -> NormalizedTraceroute:
        """A memo miss: the carried trace if it was launched the same
        way, else a new launch under ``f"{key_prefix}:{index}"``."""
        trace = self._carry.replay(
            self._volunteer, self._os_name, target_ip, source_city.key, key_prefix, index
        )
        if trace is None:
            trace = self.traceroute(source_city, target_ip, f"{key_prefix}:{index}")
        self._launches[target_ip] = (source_city.key, key_prefix, index, trace)
        return trace

    def carry_forward(self) -> None:
        """Install this run's launches as the volunteer's carried run."""
        self._carry.keep(self._volunteer, self._os_name, self._launches)
