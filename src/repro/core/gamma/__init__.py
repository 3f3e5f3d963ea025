"""Gamma: the portable browser + IP-level measurement suite (section 3)."""

from repro.core.gamma.netinfo import NetInfoResult, NetworkInfoGatherer
from repro.core.gamma.output import (
    ANONYMIZED_IP,
    VolunteerDataset,
    WebsiteMeasurement,
    anonymize,
)
from repro.core.gamma.parsers import NormalizedHop, NormalizedTraceroute
from repro.core.gamma.probes import ProbeRunner
from repro.core.gamma.suite import GammaSuite
from repro.core.gamma.volunteer import Volunteer

__all__ = [
    "ANONYMIZED_IP",
    "GammaSuite",
    "NetInfoResult",
    "NetworkInfoGatherer",
    "NormalizedHop",
    "NormalizedTraceroute",
    "ProbeRunner",
    "Volunteer",
    "VolunteerDataset",
    "WebsiteMeasurement",
    "anonymize",
]
