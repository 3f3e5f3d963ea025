"""Component C2: network information gathering.

Enriches the hosts captured during browser interaction with forward DNS
(from the volunteer's own vantage — essential, since GeoDNS answers are
location-dependent), reverse DNS for every resolved address, and
optional ASN/organisation annotation via an IPinfo-like service.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.geodb.ipinfo import IPInfoService, IPMetadata
from repro.netsim.dns import NXDomain
from repro.netsim.geography import City
from repro.netsim.network import World

__all__ = ["NetInfoResult", "NetworkInfoGatherer"]


@dataclass
class NetInfoResult:
    """C2 output for one website's host set."""

    dns: Dict[str, str]  # host -> address (hosts that resolved)
    failures: Dict[str, str]  # host -> reason
    rdns: Dict[str, Optional[str]]  # address -> PTR hostname (or None)
    metadata: Dict[str, IPMetadata]  # address -> annotation


class NetworkInfoGatherer:
    """Resolves, reverse-resolves, and annotates captured hosts."""

    def __init__(self, world: World, ipinfo: Optional[IPInfoService] = None):
        self._world = world
        self._ipinfo = ipinfo

    def gather(self, hosts: Iterable[str], vantage_city: City) -> NetInfoResult:
        dns: Dict[str, str] = {}
        failures: Dict[str, str] = {}
        for host in hosts:
            try:
                dns[host] = self._world.dns.resolve_address(host, vantage_city)
            except NXDomain:
                failures[host] = "nxdomain"
            except LookupError:
                failures[host] = "refused"

        rdns: Dict[str, Optional[str]] = {}
        metadata: Dict[str, IPMetadata] = {}
        for address in dict.fromkeys(dns.values()):
            rdns[address] = self._world.rdns.lookup(address)
            if self._ipinfo is not None:
                annotation = self._ipinfo.lookup(address)
                if annotation is not None:
                    metadata[address] = annotation
        return NetInfoResult(dns=dns, failures=failures, rdns=rdns, metadata=metadata)
