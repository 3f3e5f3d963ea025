"""Volunteer description: who runs Gamma, from where, with what consent.

The volunteer owns every per-person setting of a Gamma run: the machine's
OS (which picks ``traceroute`` or ``tracert``), the sites they declined
to visit and whether they declined active probes (C3) altogether.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Set

from repro.core.gamma.normalize import _NORMALIZERS
from repro.netsim.geography import City

__all__ = ["Volunteer"]


@dataclass
class Volunteer:
    """One participant's vantage point and accommodations."""

    name: str  # pseudonymous label, e.g. "vol-TH-01"
    city: City
    ip: str  # the one identifying datum Gamma logs (later anonymised)
    os_name: str = "linux"
    #: Websites this volunteer declined to visit.
    opted_out_sites: Set[str] = field(default_factory=set)
    #: True when the volunteer declined active probes entirely (the
    #: Egyptian volunteer in the paper).
    traceroute_opt_out: bool = False

    def __post_init__(self) -> None:
        if self.os_name not in _NORMALIZERS:
            raise ValueError(f"unsupported OS {self.os_name!r}")

    @property
    def country_code(self) -> str:
        return self.city.country_code
