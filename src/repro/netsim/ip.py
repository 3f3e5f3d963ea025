"""IPv4 address-space management for the world model.

Prefixes are handed out as /24 blocks from conventionally-public space,
skipping reserved ranges, so that every simulated address behaves like a
routable unicast address under :mod:`ipaddress`.  Each allocation records
the owning AS and the physical city the block is deployed in; the
:class:`IPSpace` is therefore the simulation's ground truth that
geolocation databases approximate (with injected error).
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from repro.netsim.geography import City

__all__ = ["PrefixAllocation", "IPSpace"]


@dataclass(frozen=True)
class PrefixAllocation:
    """A /24 block assigned to an AS at a physical location."""

    network: ipaddress.IPv4Network
    asn: int
    city: City
    label: str = ""  # free-form, e.g. "google pop fra1"

    def address(self, host: int) -> ipaddress.IPv4Address:
        """Return the host-th usable address of the block (1-based)."""
        if not 1 <= host <= 254:
            raise ValueError("host index must be in [1, 254]")
        return self.network.network_address + host


def _head(address: ipaddress.IPv4Address) -> str:
    """The ``"a.b.c"`` text of the /24 holding *address*."""
    return str(address).rpartition(".")[0]


def _is_canonical_octet(text: str) -> bool:
    """True for ``"0"``..``"255"`` written the way ``ipaddress`` prints them."""
    return (
        0 < len(text) <= 3
        and text.isascii()
        and text.isdigit()
        and (text[0] != "0" or text == "0")
        and int(text) <= 255
    )


class IPSpace:
    """Allocator plus reverse lookup over all allocated blocks."""

    #: First /24 considered for allocation.
    _FIRST = ipaddress.IPv4Network("5.0.0.0/24")

    def __init__(self) -> None:
        #: Allocations keyed by their network's ``"a.b.c"`` text, so
        #: :meth:`lookup` can answer a canonical dotted quad unparsed.
        self._allocations: Dict[str, PrefixAllocation] = {}
        self._cursor = int(self._FIRST.network_address)

    def allocate(self, asn: int, city: City, label: str = "") -> PrefixAllocation:
        """Allocate the next free public /24 for *asn* located at *city*."""
        network = self._next_public_slash24()
        allocation = PrefixAllocation(network=network, asn=asn, city=city, label=label)
        self._allocations[_head(network.network_address)] = allocation
        return allocation

    def _next_public_slash24(self) -> ipaddress.IPv4Network:
        while True:
            candidate = ipaddress.IPv4Network((self._cursor, 24))
            self._cursor += 256
            if self._cursor >= int(ipaddress.IPv4Address("224.0.0.0")):
                raise RuntimeError("IPv4 allocation space exhausted")
            if candidate.is_global and not candidate.is_multicast:
                return candidate

    def lookup(self, address) -> Optional[PrefixAllocation]:
        """Return the allocation covering *address*, or ``None``.

        A canonical dotted-quad string inside an allocated /24 is
        answered from the prefix index; every other input is parsed by
        :mod:`ipaddress`, which also raises for malformed addresses.
        """
        if type(address) is str:
            head, _, last = address.rpartition(".")
            allocation = self._allocations.get(head)
            if allocation is not None and _is_canonical_octet(last):
                return allocation
        return self._allocations.get(_head(ipaddress.IPv4Address(str(address))))

    def owner_asn(self, address) -> Optional[int]:
        allocation = self.lookup(address)
        return allocation.asn if allocation else None

    def true_city(self, address) -> Optional[City]:
        """Ground-truth location of *address* (what geo DBs try to guess)."""
        allocation = self.lookup(address)
        return allocation.city if allocation else None

    def true_country(self, address) -> Optional[str]:
        city = self.true_city(address)
        return city.country_code if city else None

    def __len__(self) -> int:
        return len(self._allocations)

    def __iter__(self) -> Iterator[PrefixAllocation]:
        return iter(self._allocations.values())
