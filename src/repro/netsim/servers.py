"""Organisations, points of presence, and serving policies.

An :class:`Organization` owns registrable domains (``doubleclick.net``),
operates :class:`PoP` deployments in datacenter cities, and serves each
client from a PoP chosen by its :class:`ServingPolicy`.  The policy is the
synthetic stand-in for GeoDNS + CDN request routing: it picks the PoP with
the lowest *effective* distance, where per-country preference weights and
hard exclusion pairs reproduce the real-world routing quirks the paper
reports (e.g. Pakistani clients never being served from India, Egyptian
Google traffic landing in Germany).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.netsim.distance import city_distance_km
from repro.netsim.geography import City
from repro.netsim.ip import PrefixAllocation

__all__ = ["Organization", "PoP", "ServingPolicy", "Deployment"]


@dataclass(frozen=True)
class Organization:
    """A company that owns domains and (possibly) tracking infrastructure."""

    name: str
    home_country: str
    domains: Tuple[str, ...] = ()
    is_tracker: bool = False
    #: True for infrastructure providers (clouds/CDNs) that host others.
    is_cloud: bool = False


@dataclass(frozen=True)
class PoP:
    """A point of presence: one org's servers in one city, one /24."""

    org_name: str
    name: str  # short site name, e.g. "fra1"
    city: City
    allocation: PrefixAllocation
    #: ASN announcing the prefix; may differ from the org's own AS when the
    #: PoP is hosted on a cloud provider (the AWS-in-Nairobi pattern).
    hosting_asn: int = 0

    @property
    def country_code(self) -> str:
        return self.city.country_code


@dataclass
class ServingPolicy:
    """How an organisation maps a client to one of its PoPs.

    *exclusions* maps a client country to PoP countries that must never
    serve it.  *restricted* maps a PoP country to the only client countries
    it will serve (an in-country cache like Google's Russian nodes, or the
    Africa-only Nairobi edge).  *preferences* maps PoP countries to a
    weight > 0; the policy minimises ``distance / weight``, so a weight of
    2.0 makes a PoP look half as far.  *pinned* maps a client country
    directly to a PoP country, bypassing distance entirely (used for
    contractual/peering oddities).
    """

    exclusions: Dict[str, Set[str]] = field(default_factory=dict)
    restricted: Dict[str, Set[str]] = field(default_factory=dict)
    preferences: Dict[str, float] = field(default_factory=dict)
    pinned: Dict[str, str] = field(default_factory=dict)

    def allowed(self, client_country: str, pop_country: str) -> bool:
        if pop_country in self.exclusions.get(client_country, set()):
            return False
        allowed_clients = self.restricted.get(pop_country)
        if allowed_clients is not None and client_country not in allowed_clients:
            return False
        return True

    def weight(self, pop_country: str) -> float:
        weight = self.preferences.get(pop_country, 1.0)
        if weight <= 0:
            raise ValueError(f"preference weight for {pop_country} must be positive")
        return weight


@dataclass
class Deployment:
    """An organisation's global footprint plus its serving policy."""

    org: Organization
    pops: List[PoP]
    policy: ServingPolicy = field(default_factory=ServingPolicy)

    def __post_init__(self) -> None:
        if not self.pops:
            raise ValueError(f"deployment for {self.org.name} has no PoPs")

    @property
    def pop_countries(self) -> Set[str]:
        return {pop.country_code for pop in self.pops}

    def candidate_pops(self, client_country: str) -> List[PoP]:
        return [pop for pop in self.pops if self.policy.allowed(client_country, pop.country_code)]

    def serve(self, client_city: City) -> PoP:
        """Choose the PoP that serves a client at *client_city*.

        Deterministic: ties are broken by PoP name.  Raises ``LookupError``
        if exclusions eliminate every PoP (callers treat this as the org
        refusing service, which browsers observe as a failed request).
        """
        client_country = client_city.country_code
        pinned_country = self.policy.pinned.get(client_country)
        candidates = self.candidate_pops(client_country)
        if pinned_country is not None:
            pinned = [pop for pop in candidates if pop.country_code == pinned_country]
            if pinned:
                candidates = pinned
        if not candidates:
            raise LookupError(
                f"{self.org.name} has no PoP willing to serve clients in {client_country}"
            )
        return min(
            candidates,
            key=lambda pop: (
                city_distance_km(client_city, pop.city) / self.policy.weight(pop.country_code),
                pop.name,
            ),
        )

    def pop_named(self, name: str) -> Optional[PoP]:
        for pop in self.pops:
            if pop.name == name:
                return pop
        return None


def nearest_pop(pops: Sequence[PoP], city: City) -> PoP:
    """Utility: geographically nearest PoP, ignoring policy."""
    if not pops:
        raise ValueError("no PoPs supplied")
    return min(pops, key=lambda pop: (city_distance_km(city, pop.city), pop.name))
