"""Gamma: the portable browser + IP-level measurement suite (section 3)."""

from repro.core.gamma.netinfo import NetInfoResult, NetworkInfoGatherer
from repro.core.gamma.osadapt import (
    DarwinAdapter,
    LinuxAdapter,
    OSAdapter,
    WindowsAdapter,
    adapter_for,
)
from repro.core.gamma.output import (
    ANONYMIZED_IP,
    VolunteerDataset,
    WebsiteMeasurement,
    anonymize,
)
from repro.core.gamma.parsers import (
    NormalizedHop,
    NormalizedTraceroute,
    parse_linux_traceroute,
    parse_traceroute_output,
    parse_windows_tracert,
)
from repro.core.gamma.probes import ProbeRunner
from repro.core.gamma.suite import GammaSuite
from repro.core.gamma.volunteer import Volunteer

__all__ = [
    "ANONYMIZED_IP",
    "DarwinAdapter",
    "GammaSuite",
    "LinuxAdapter",
    "NetInfoResult",
    "NetworkInfoGatherer",
    "NormalizedHop",
    "NormalizedTraceroute",
    "OSAdapter",
    "ProbeRunner",
    "Volunteer",
    "VolunteerDataset",
    "WebsiteMeasurement",
    "WindowsAdapter",
    "adapter_for",
    "anonymize",
    "parse_linux_traceroute",
    "parse_traceroute_output",
    "parse_windows_tracert",
]
