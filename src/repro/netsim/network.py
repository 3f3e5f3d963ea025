"""The :class:`World` container: one object holding the whole substrate.

A ``World`` is the simulation's ground truth.  Measurement code (Gamma,
the geolocation pipeline, RIPE-Atlas-like probes) only ever sees the
world through narrow observation interfaces — DNS answers, RTT samples,
traceroute output, PTR records, geolocation-database responses — exactly
as the paper's tooling sees the real Internet.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.netsim.asn import ASRegistry
from repro.netsim.dns import GeoDNSResolver
from repro.netsim.geography import GeoRegistry, default_registry
from repro.netsim.ip import IPSpace
from repro.netsim.latency import LatencyModel
from repro.netsim.rdns import ReverseDNSService
from repro.netsim.servers import Deployment, Organization
from repro.netsim.traceroute import TracerouteBlocking, TracerouteEngine

__all__ = ["World"]


@dataclass
class World:
    """Aggregate of every substrate service, plus org/deployment indexes."""

    geo: GeoRegistry = field(default_factory=default_registry)
    asns: ASRegistry = field(default_factory=ASRegistry)
    ips: IPSpace = field(default_factory=IPSpace)
    latency: LatencyModel = field(default_factory=LatencyModel)
    dns: GeoDNSResolver = field(default_factory=GeoDNSResolver)
    organizations: Dict[str, Organization] = field(default_factory=dict)
    deployments: Dict[str, Deployment] = field(default_factory=dict)
    rdns: Optional[ReverseDNSService] = None
    traceroute: Optional[TracerouteEngine] = None
    traceroute_blocking: TracerouteBlocking = field(default_factory=TracerouteBlocking)

    def __post_init__(self) -> None:
        if self.rdns is None:
            self.rdns = ReverseDNSService(self.ips)
        if self.traceroute is None:
            self.traceroute = TracerouteEngine(self.latency, self.ips, self.traceroute_blocking)

    # -- organisation management -------------------------------------------
    def add_organization(self, org: Organization) -> Organization:
        if org.name in self.organizations:
            raise ValueError(f"organization {org.name!r} already exists")
        self.organizations[org.name] = org
        return org

    def add_deployment(self, deployment: Deployment) -> Deployment:
        name = deployment.org.name
        if name not in self.organizations:
            self.add_organization(deployment.org)
        self.deployments[name] = deployment
        for domain in deployment.org.domains:
            self.dns.register(domain, deployment)
        return deployment
