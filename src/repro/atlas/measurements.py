"""Measurement API over the probe mesh.

Probes run on well-connected networks, so unlike volunteer machines they
are never subject to the local traceroute blocking some volunteers hit;
the measurement service therefore uses its own permissive traceroute
engine over the same latency/address substrate.
"""

from __future__ import annotations

from typing import Optional

from repro.atlas.probes import Probe, ProbeMesh
from repro.exec.cache import ReadThroughCache
from repro.netsim.network import World
from repro.netsim.traceroute import TracerouteBlocking, TracerouteEngine, TracerouteResult

__all__ = ["AtlasMeasurementService", "DEST_TRACE_CACHE_NAME", "SOURCE_TRACE_CACHE_NAME"]

#: Name of the memoised destination-probe trace cache.
DEST_TRACE_CACHE_NAME = "atlas.dest_traces"
#: Name of the memoised fallback source-trace cache.
SOURCE_TRACE_CACHE_NAME = "atlas.source_traces"


class AtlasMeasurementService:
    """Launch traceroutes from mesh probes toward arbitrary addresses."""

    def __init__(self, world: World, mesh: Optional[ProbeMesh] = None):
        self._world = world
        self.mesh = mesh or ProbeMesh(world.geo)
        # Probes sit in datacentres/exchanges: no source-side blocking and a
        # slightly lower background unreachable rate than home connections.
        self._engine = TracerouteEngine(
            world.latency,
            world.ips,
            TracerouteBlocking(blocked_source_countries=set(), unreachable_rate=0.10),
        )
        # Owned by this service, so two scenarios alive in one process
        # never serve each other's traces.
        self._dest_cache = ReadThroughCache(DEST_TRACE_CACHE_NAME, maxsize=65536)
        self._source_cache = ReadThroughCache(SOURCE_TRACE_CACHE_NAME, maxsize=65536)

    @property
    def dest_trace_cache(self) -> ReadThroughCache:
        return self._dest_cache

    @property
    def source_trace_cache(self) -> ReadThroughCache:
        return self._source_cache

    def traceroute(self, probe: Probe, target_ip: str, measurement_key: str = "") -> TracerouteResult:
        return self._engine.trace(probe.city, target_ip, f"atlas:{probe.probe_id}:{measurement_key}")

    def dest_traceroute(self, probe: Probe, target_ip: str) -> TracerouteResult:
        """Destination-bound trace, memoised across countries.

        The destination constraint always launches ``dest:{address}``
        from the claimed country's probe, so the measurement key — and
        therefore the trace — is a pure function of ``(probe,
        address)``.  Many countries interrogating the same tracker
        address share the result instead of re-launching it; the study
        funnel keeps counting *logical* launches.
        """
        return self._dest_cache.get(
            (probe.probe_id, target_ip),
            lambda: self.traceroute(probe, target_ip, f"dest:{target_ip}"),
        )

    def source_traceroute(self, probe: Probe, target_ip: str) -> TracerouteResult:
        """Fallback source-side trace, memoised across visits.

        A country without usable volunteer traces launches
        ``src-fallback:{address}`` from its nearest probe.  The key names
        no visit, so the trace is a pure function of ``(probe,
        address)``: a revisit is served the traces the first visit
        launched instead of re-launching them.
        """
        return self._source_cache.get(
            (probe.probe_id, target_ip),
            lambda: self.traceroute(probe, target_ip, f"src-fallback:{target_ip}"),
        )
