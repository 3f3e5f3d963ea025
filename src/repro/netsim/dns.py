"""GeoDNS: location-dependent name resolution.

The paper stresses that measurements must be taken *from within* the
country of interest because GeoDNS and CDNs answer differently depending
on where the client sits.  Our resolver reproduces that: the same
hostname resolves to different PoP addresses for clients in different
cities, routed by each organisation's :class:`~repro.netsim.servers.Deployment`.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import Dict, List

from repro.determinism import stable_hash
from repro.domains import registrable_domain, validate_hostname
from repro.exec.cache import ReadThroughCache
from repro.netsim.geography import City
from repro.netsim.servers import Deployment, PoP

__all__ = ["NXDomain", "DNSAnswer", "GeoDNSResolver"]


class NXDomain(LookupError):
    """Raised when a hostname has no authoritative data."""


@dataclass(frozen=True)
class DNSAnswer:
    """Result of resolving one hostname from one vantage point."""

    hostname: str
    addresses: tuple  # tuple[str, ...]
    org_name: str
    pop: PoP

    @property
    def address(self) -> str:
        return self.addresses[0]


class GeoDNSResolver:
    """Authoritative resolver over the world's deployments.

    Hostnames are matched exactly first, then by registrable domain, so
    ``stats.g.doubleclick.net`` finds the ``doubleclick.net`` deployment
    without per-subdomain registration.

    Answers are a pure function of ``(hostname, client city)`` for as
    long as the registrations and deployments stand, so :meth:`resolve`
    memoises them — refusals and NXDOMAIN included — in
    :attr:`answer_cache`.  :meth:`register` clears the memo; code that
    mutates a registered :class:`Deployment` (new PoPs, policy edits)
    must clear it too.
    """

    def __init__(self) -> None:
        self._exact: Dict[str, Deployment] = {}
        self._by_registrable: Dict[str, Deployment] = {}
        self._answers = ReadThroughCache("netsim.geodns")

    @property
    def answer_cache(self) -> ReadThroughCache:
        return self._answers

    def register(self, domain: str, deployment: Deployment, exact: bool = False) -> None:
        domain = validate_hostname(domain)
        self._answers.clear()
        if exact:
            self._exact[domain] = deployment
            return
        base = registrable_domain(domain) or domain
        existing = self._by_registrable.get(base)
        if existing is not None and existing.org.name != deployment.org.name:
            raise ValueError(
                f"{base} already registered to {existing.org.name}; "
                f"cannot re-register to {deployment.org.name}"
            )
        self._by_registrable[base] = deployment

    def deployment_for(self, hostname: str) -> Deployment:
        hostname = validate_hostname(hostname)
        if hostname in self._exact:
            return self._exact[hostname]
        base = registrable_domain(hostname) or hostname
        deployment = self._by_registrable.get(base)
        if deployment is None:
            raise NXDomain(hostname)
        return deployment

    def knows(self, hostname: str) -> bool:
        try:
            self.deployment_for(hostname)
            return True
        except NXDomain:
            return False

    def resolve(self, hostname: str, client_city: City) -> DNSAnswer:
        """GeoDNS resolution of *hostname* as seen from *client_city* (memoised).

        Raises :class:`NXDomain` for unknown names and ``LookupError``
        when the owner refuses the client's country, with the same
        arguments on a memo hit as on the first lookup.  A malformed
        hostname raises ``ValueError`` and is never memoised.
        """
        outcome = self._answers.get(
            (hostname, client_city.key), lambda: self._outcome(hostname, client_city)
        )
        if type(outcome) is DNSAnswer:
            return outcome
        error_type, args = outcome
        raise error_type(*args)

    def _outcome(self, hostname: str, client_city: City):
        """The answer, or the refusal as ``(exception type, args)``."""
        try:
            return self._resolve_uncached(hostname, client_city)
        except LookupError as error:
            return type(error), error.args

    def _resolve_uncached(self, hostname: str, client_city: City) -> DNSAnswer:
        hostname = validate_hostname(hostname)
        deployment = self.deployment_for(hostname)
        pop = deployment.serve(client_city)  # may raise LookupError
        host_index = stable_hash("dns-host", hostname, pop.name) % 254 + 1
        address = str(pop.allocation.address(host_index))
        return DNSAnswer(
            hostname=hostname,
            addresses=(address,),
            org_name=deployment.org.name,
            pop=pop,
        )

    def resolve_address(self, hostname: str, client_city: City) -> str:
        return self.resolve(hostname, client_city).address

    def all_registered_domains(self) -> List[str]:
        return sorted(set(self._by_registrable) | set(self._exact))

    @staticmethod
    def is_ip_literal(value: str) -> bool:
        try:
            ipaddress.IPv4Address(value)
            return True
        except (ipaddress.AddressValueError, ValueError):
            return False
