"""Headless-browser page-load engine.

The engine models what the paper's Selenium-driven Chrome instance does
observably: resolve and fetch the landing document, expand its resource
graph, record every request, occasionally fail to load (connection
instability, render timeout), and emit webdriver *background* requests to
Google services — noise the paper explicitly strips before analysis
(Cassel et al. observed the same artefact).

Chrome, Firefox and Brave are supported; Brave additionally blocks
requests matching a supplied blocklist, mirroring its shields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Optional, Set

from repro.determinism import stable_rng
from repro.domains import registrable_domain
from repro.netsim.dns import NXDomain
from repro.netsim.geography import City
from repro.netsim.network import World
from repro.browser.har import NetworkRequest, PageLoadRecord, RequestStatus
from repro.web.catalog import SiteCatalog

__all__ = ["BrowserKind", "BrowserConfig", "BrowserEngine", "CHROMEDRIVER_BACKGROUND_HOSTS"]


class BrowserKind:
    CHROME = "chrome"
    FIREFOX = "firefox"
    BRAVE = "brave"

    ALL = (CHROME, FIREFOX, BRAVE)


#: Hosts the Chrome webdriver contacts on its own during page loads.
CHROMEDRIVER_BACKGROUND_HOSTS = (
    "update.googleapis.com",
    "safebrowsing.googleapis.com",
    "optimizationguide-pa.googleapis.com",
    "accounts.google.com",
)


@dataclass
class BrowserConfig:
    """Per-session browser behaviour."""

    browser: str = BrowserKind.CHROME
    wait_time_s: float = 20.0  # render wait (paper: double typical render time)
    hard_timeout_s: float = 180.0  # kill hung instances after this long
    #: country code -> probability a page visit fails outright; models the
    #: connection quality differences behind Figure 2(b).
    failure_rates: Dict[str, float] = field(default_factory=dict)
    default_failure_rate: float = 0.08
    #: Brave-only: hosts whose requests the shields block.
    blocklist: Set[str] = field(default_factory=set)

    def __post_init__(self) -> None:
        if self.browser not in BrowserKind.ALL:
            raise ValueError(f"unsupported browser {self.browser!r}")
        if self.wait_time_s <= 0 or self.hard_timeout_s <= 0:
            raise ValueError("timeouts must be positive")
        for country, rate in self.failure_rates.items():
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"failure rate for {country} must be in [0, 1)")

    def failure_rate(self, country_code: str) -> float:
        return self.failure_rates.get(country_code, self.default_failure_rate)


class BrowserEngine:
    """Loads pages from a vantage city and records what happened."""

    def __init__(self, world: World, catalog: SiteCatalog, config: Optional[BrowserConfig] = None):
        self._world = world
        self._catalog = catalog
        self._config = config or BrowserConfig()

    @property
    def config(self) -> BrowserConfig:
        return self._config

    def load(self, url: str, vantage_city: City, visit_key: str = "visit-1") -> PageLoadRecord:
        """Visit *url* from *vantage_city* and return the full record.

        A catalogued site is seeded, rendered and recorded under its
        canonical ``domain``, so differently-cased URLs of one site load
        alike; an unknown name records a ``dns_error`` under *url*.
        """
        country = vantage_city.country_code
        record = PageLoadRecord(
            url=url,
            country_code=country,
            browser=self._config.browser,
            loaded=False,
            render_time_s=0.0,
        )
        if not self._catalog.has(url):
            record.failure_reason = "dns_error"
            record.requests.append(NetworkRequest(url, "document", RequestStatus.DNS_ERROR))
            return record
        site = self._catalog.get(url)
        url = site.domain
        record.url = url
        rng = stable_rng("pageload", url, vantage_city.key, visit_key, self._config.browser)

        if rng.random() < self._config.failure_rate(country):
            record.failure_reason = "connection_failure"
            return record

        render_time = self._render_time(site.complexity, vantage_city, url, rng)
        record.render_time_s = render_time
        if render_time > self._config.hard_timeout_s:
            record.failure_reason = "hard_timeout"
            return record

        for host, kind in site.requested_hosts(visit_key, country):
            record.requests.append(self._fetch(host, kind, vantage_city))
        if self._config.browser == BrowserKind.CHROME:
            for host in CHROMEDRIVER_BACKGROUND_HOSTS:
                record.requests.append(self._fetch(host, "background", vantage_city, background=True))
        record.loaded = True
        return record

    def load_many(
        self,
        urls: Iterable[str],
        vantage_city: City,
        visit_key: str = "visit-1",
        progress: Optional[Callable[[str, PageLoadRecord], None]] = None,
    ) -> Dict[str, PageLoadRecord]:
        """Load each URL in order (Gamma's single-thread mode)."""
        records: Dict[str, PageLoadRecord] = {}
        for url in urls:
            record = self.load(url, vantage_city, visit_key)
            records[url] = record
            if progress is not None:
                progress(url, record)
        return records

    # -- internals -----------------------------------------------------------
    def _fetch(self, host: str, kind: str, vantage_city: City, background: bool = False) -> NetworkRequest:
        if self._config.browser == BrowserKind.BRAVE and self._blocked(host):
            return NetworkRequest(host, kind, RequestStatus.BLOCKED, background=background)
        try:
            answer = self._world.dns.resolve(host, vantage_city)
        except NXDomain:
            return NetworkRequest(host, kind, RequestStatus.DNS_ERROR, background=background)
        except LookupError:
            return NetworkRequest(host, kind, RequestStatus.REFUSED, background=background)
        return NetworkRequest(host, kind, RequestStatus.OK, address=answer.address, background=background)

    def _blocked(self, host: str) -> bool:
        if host in self._config.blocklist:
            return True
        base = registrable_domain(host)
        return base is not None and base in self._config.blocklist

    def _render_time(self, complexity: float, vantage_city: City, url: str, rng) -> float:
        """Seconds until the page settles; scales with RTT to the origin."""
        try:
            answer = self._world.dns.resolve(url, vantage_city)
            origin_rtt_ms = self._world.latency.rtt_ms(vantage_city, answer.pop.city, f"render:{url}")
        except LookupError:
            origin_rtt_ms = 300.0
        base = rng.uniform(1.5, 8.0) * complexity
        # Dozens of sequential round trips dominate render time on slow paths.
        network_term = origin_rtt_ms / 1000.0 * rng.uniform(15, 40)
        return base + network_term
