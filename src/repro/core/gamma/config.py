"""Gamma configuration: browsers, timing, components, volunteer accommodations.

Gamma is "lightweight and highly configurable" (section 3): users pick a
browser, the number of simultaneous instances, render wait and hard
timeout; volunteers may opt out of individual websites or of whole
measurement components (one Egyptian volunteer opted out of traceroutes).
The study configuration in section 3.1 is captured by
:meth:`GammaConfig.study_defaults`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import FrozenSet, Set

from repro.browser.engine import BrowserKind

__all__ = ["GammaComponents", "GammaConfig"]


class GammaComponents:
    """The three functional components of the suite."""

    BROWSER = "C1"  # browser-level interaction
    NETINFO = "C2"  # DNS / reverse DNS / metadata annotation
    PROBES = "C3"  # active measurement probes (traceroute, ping, TLS)

    ALL = frozenset({BROWSER, NETINFO, PROBES})


@dataclass
class GammaConfig:
    """Everything a volunteer's Gamma run is parameterised by."""

    browser: str = BrowserKind.CHROME
    instances: int = 1  # simultaneous browser instances (study: single-thread)
    wait_time_s: float = 20.0  # full-render wait
    hard_timeout_s: float = 180.0  # kill non-responsive instances
    components: FrozenSet[str] = GammaComponents.ALL
    #: Sites this volunteer chose not to visit.
    opted_out_sites: Set[str] = field(default_factory=set)
    #: Operating system of the volunteer machine ("linux"/"windows"/"darwin").
    os_name: str = "linux"
    #: Probes per traceroute hop (traceroute/tracert default).
    probes_per_hop: int = 3
    #: Save full page sources and scrape them for hardcoded domains
    #: (section 3: C1 saves webpages; C2 resolves hardcoded domains too).
    save_pages: bool = False

    def __post_init__(self) -> None:
        if self.browser not in BrowserKind.ALL:
            raise ValueError(f"unsupported browser {self.browser!r}")
        if self.instances < 1:
            raise ValueError("instances must be >= 1")
        if self.wait_time_s <= 0 or self.hard_timeout_s <= 0:
            raise ValueError("timeouts must be positive")
        if self.hard_timeout_s < self.wait_time_s:
            raise ValueError("hard timeout must not be shorter than the render wait")
        unknown = set(self.components) - GammaComponents.ALL
        if unknown:
            raise ValueError(f"unknown components: {sorted(unknown)}")
        if GammaComponents.BROWSER not in self.components:
            raise ValueError("C1 (browser interaction) is required; C2/C3 build on it")
        if self.os_name not in ("linux", "windows", "darwin"):
            raise ValueError(f"unsupported OS {self.os_name!r}")
        if self.probes_per_hop < 1:
            raise ValueError("probes_per_hop must be >= 1")

    @classmethod
    def study_defaults(cls, os_name: str = "linux", **overrides) -> "GammaConfig":
        """The tuned configuration of section 3.1."""
        params = dict(
            browser=BrowserKind.CHROME,
            instances=1,
            wait_time_s=20.0,
            hard_timeout_s=180.0,
            os_name=os_name,
        )
        params.update(overrides)
        return cls(**params)

    @property
    def traceroutes_enabled(self) -> bool:
        return GammaComponents.PROBES in self.components

    @property
    def netinfo_enabled(self) -> bool:
        return GammaComponents.NETINFO in self.components

    def without_traceroutes(self) -> "GammaConfig":
        """Accommodate a volunteer opting out of active probes."""
        return replace(
            self,
            components=frozenset(self.components - {GammaComponents.PROBES}),
            opted_out_sites=set(self.opted_out_sites),
        )
