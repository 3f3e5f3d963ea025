"""Verdict and funnel records of the geolocation pipeline.

They live in their own module so validation and the study can use them
without importing the pipeline and the services it is built on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, List, Optional

from repro.core.geoloc.constraints import ConstraintResult
from repro.geodb.ipmap import GeoClaim

__all__ = [
    "ServerStatus",
    "ServerVerdict",
    "FunnelCounters",
    "DatasetGeolocation",
    "merge_funnels",
]


class ServerStatus:
    LOCAL = "local"
    NONLOCAL_VERIFIED = "nonlocal_verified"
    DISCARDED = "discarded"
    UNLOCATED = "unlocated"


@dataclass
class ServerVerdict:
    """Final ruling for one address."""

    address: str
    hosts: List[str]
    status: str
    claim: Optional[GeoClaim] = None
    discarded_by: str = ""  # constraint name when status == DISCARDED
    checks: List[ConstraintResult] = field(default_factory=list)

    @property
    def is_verified_nonlocal(self) -> bool:
        return self.status == ServerStatus.NONLOCAL_VERIFIED

    @property
    def claimed_country(self) -> Optional[str]:
        return self.claim.country_code if self.claim else None


@dataclass
class FunnelCounters:
    """Section-5 accounting, at unique-host granularity per country."""

    total_hosts: int = 0
    unlocated: int = 0
    local: int = 0
    nonlocal_candidates: int = 0
    discarded_source: int = 0
    discarded_destination: int = 0
    discarded_rdns: int = 0
    verified_nonlocal: int = 0
    destination_traceroutes: int = 0

    @property
    def after_latency_constraints(self) -> int:
        """Candidates surviving source+destination (the paper's ~6.1 K stage)."""
        return self.nonlocal_candidates - self.discarded_source - self.discarded_destination

    @property
    def after_rdns(self) -> int:
        """...and surviving reverse DNS too (the paper's ~4.7 K stage)."""
        return self.after_latency_constraints - self.discarded_rdns

    def stages(self) -> Dict[str, int]:
        """Every stage count by name, in field order: the one list the
        ``country_funnel`` event, ``geoloc_funnel_total`` and
        :meth:`merged_with` all read."""
        return {stage.name: getattr(self, stage.name) for stage in fields(self)}

    def merged_with(self, other: "FunnelCounters") -> "FunnelCounters":
        theirs = other.stages()
        return FunnelCounters(
            **{stage: count + theirs[stage] for stage, count in self.stages().items()}
        )


def merge_funnels(funnels: Iterable[FunnelCounters]) -> FunnelCounters:
    """Sum per-country funnels into one study-wide :class:`FunnelCounters`."""
    merged = FunnelCounters()
    for funnel in funnels:
        merged = merged.merged_with(funnel)
    return merged


@dataclass
class DatasetGeolocation:
    """Pipeline output for one volunteer dataset."""

    country_code: str
    verdicts: Dict[str, ServerVerdict] = field(default_factory=dict)  # by address
    host_to_address: Dict[str, str] = field(default_factory=dict)
    funnel: FunnelCounters = field(default_factory=FunnelCounters)

    def verdict_for_host(self, host: str) -> Optional[ServerVerdict]:
        address = self.host_to_address.get(host)
        if address is None:
            return None
        return self.verdicts.get(address)

    def nonlocal_hosts(self) -> List[str]:
        # .get, not [], for the same reason verdict_for_host uses it: a
        # host may map to an address the pipeline never ruled on (e.g.
        # hand-filtered datasets), which is "not verified", not an error.
        verdicts_get = self.verdicts.get
        return [
            host
            for host, address in self.host_to_address.items()
            if (verdict := verdicts_get(address)) is not None
            and verdict.is_verified_nonlocal
        ]
