"""Reverse DNS with operator-style naming conventions.

Each organisation gets an :class:`RDNSStyle` describing how it names its
servers: the apex under which PTR records live, how often PTR records
exist at all, and whether hostnames embed a geographic hint code.  The
generated names follow the conventions the reverse-DNS constraint decodes
(see :mod:`repro.netsim.geohints`), including the deliberate *absence* of
hints for some providers — the paper retains such servers because an
uninformative PTR record is not evidence of a wrong location.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.determinism import stable_rng
from repro.exec.cache import ReadThroughCache
from repro.netsim.geohints import hint_for_city
from repro.netsim.ip import IPSpace

__all__ = ["RDNSStyle", "ReverseDNSService"]


@dataclass(frozen=True)
class RDNSStyle:
    """PTR-record conventions for one organisation."""

    apex: str  # e.g. "1e100.net"
    coverage: float = 0.85  # fraction of addresses with PTR records
    hinted: bool = True  # embed a city hint code in the hostname
    role: str = "edge"  # hostname prefix ("edge", "srv", "cache", ...)

    def __post_init__(self) -> None:
        if not 0.0 <= self.coverage <= 1.0:
            raise ValueError("coverage must be in [0, 1]")


_DEFAULT_STYLE = RDNSStyle(apex="hosted.example.net", coverage=0.5, hinted=False, role="srv")


class ReverseDNSService:
    """PTR lookups over the allocated address space."""

    def __init__(self, ipspace: IPSpace, styles: Optional[Dict[str, RDNSStyle]] = None):
        self._ipspace = ipspace
        self._styles: Dict[str, RDNSStyle] = dict(styles or {})
        #: Overrides let the world builder plant specific PTR records, e.g.
        #: the Google-in-Fujairah-but-PTR-says-Amsterdam cases of §4.1.3.
        self._overrides: Dict[str, Optional[str]] = {}
        # PTR generation is deterministic per address, so lookups memoise;
        # style/override writers invalidate.
        self._cache = ReadThroughCache("netsim.rdns")

    @property
    def lookup_cache(self) -> ReadThroughCache:
        return self._cache

    def set_style(self, org_name: str, style: RDNSStyle) -> None:
        self._styles[org_name] = style
        self._cache.clear()

    def style_for(self, org_name: str) -> RDNSStyle:
        return self._styles.get(org_name, _DEFAULT_STYLE)

    def override(self, address: str, hostname: Optional[str]) -> None:
        """Force the PTR record for one address (``None`` = no record)."""
        self._overrides[str(address)] = hostname
        self._cache.invalidate(str(address))

    def lookup(self, address) -> Optional[str]:
        """Return the PTR hostname for *address*, or ``None`` if absent (memoised)."""
        key = str(address)
        if key in self._overrides:
            return self._overrides[key]
        return self._cache.get(key, lambda: self._lookup_uncached(key))

    def _lookup_uncached(self, key: str) -> Optional[str]:
        allocation = self._ipspace.lookup(key)
        if allocation is None:
            return None
        org_name = allocation.label.split("/", 1)[0] if allocation.label else ""
        style = self.style_for(org_name)
        rng = stable_rng("rdns", key)
        if rng.random() >= style.coverage:
            return None
        serial = rng.randint(1, 99)
        if style.hinted:
            hint = hint_for_city(allocation.city.key)
            if hint is not None:
                site = f"{hint}{rng.randint(1, 4):02d}"
                return f"{style.role}-{serial}.{site}.{style.apex}"
        return f"{style.role}-{serial}.{style.apex}"
