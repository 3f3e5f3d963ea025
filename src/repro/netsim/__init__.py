"""Synthetic-Internet substrate: geography, addressing, DNS, latency, paths.

This package is the reproduction's stand-in for the real Internet.  It
provides ground truth (where every server actually is) plus the noisy
observation channels the paper's method consumes: GeoDNS answers,
round-trip times bounded by fibre physics, traceroute output in
OS-specific formats, and reverse-DNS records with operator naming
conventions.
"""

from repro.netsim.asn import ASRegistry, AutonomousSystem
from repro.netsim.cables import CableMap, SubmarineCable, default_cable_map
from repro.netsim.distance import (
    FIBER_KM_PER_MS,
    city_distance_km,
    haversine_km,
    max_feasible_distance_km,
    min_rtt_ms,
)
from repro.netsim.dns import DNSAnswer, GeoDNSResolver, NXDomain
from repro.netsim.geography import (
    MEASUREMENT_COUNTRIES,
    City,
    Continent,
    Country,
    GeoRegistry,
    default_registry,
)
from repro.netsim.geohints import city_for_hint, extract_hint, hint_for_city
from repro.netsim.ip import IPSpace, PrefixAllocation
from repro.netsim.latency import LatencyModel
from repro.netsim.network import World
from repro.netsim.rdns import RDNSStyle, ReverseDNSService
from repro.netsim.servers import Deployment, Organization, PoP, ServingPolicy
from repro.netsim.traceroute import (
    TracerouteBlocking,
    TracerouteEngine,
    TracerouteHop,
    TracerouteResult,
)

__all__ = [
    "ASRegistry",
    "AutonomousSystem",
    "CableMap",
    "City",
    "Continent",
    "Country",
    "DNSAnswer",
    "Deployment",
    "FIBER_KM_PER_MS",
    "GeoDNSResolver",
    "GeoRegistry",
    "IPSpace",
    "LatencyModel",
    "MEASUREMENT_COUNTRIES",
    "NXDomain",
    "Organization",
    "PoP",
    "PrefixAllocation",
    "RDNSStyle",
    "ReverseDNSService",
    "ServingPolicy",
    "TracerouteBlocking",
    "TracerouteEngine",
    "TracerouteHop",
    "TracerouteResult",
    "World",
    "city_distance_km",
    "city_for_hint",
    "SubmarineCable",
    "default_cable_map",
    "default_registry",
    "extract_hint",
    "haversine_km",
    "hint_for_city",
    "max_feasible_distance_km",
    "min_rtt_ms",
]
