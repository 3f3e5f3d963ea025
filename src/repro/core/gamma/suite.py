"""The Gamma suite orchestrator.

For each target website (minus the volunteer's opt-outs, in list order)
the suite runs C1 -> C2 -> C3 in sequence — each component building on
the previous, as in section 3.1.  Each setting has one owner: the
browser session (browser, hard timeout, failure rates) comes from the
:class:`~repro.browser.engine.BrowserConfig`, the OS, site opt-outs and
C3 opt-out from the :class:`~repro.core.gamma.volunteer.Volunteer`.
Resuming an interrupted study is per country
(:class:`repro.exec.checkpoint.StudyCheckpoint`).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.browser.engine import BrowserConfig, BrowserEngine
from repro.core.gamma.netinfo import NetworkInfoGatherer
from repro.core.gamma.output import VolunteerDataset, WebsiteMeasurement
from repro.core.gamma.probes import ProbeRunner
from repro.core.gamma.volunteer import Volunteer
from repro.core.targets.builder import TargetList
from repro.exec.cache import ReadThroughCache
from repro.netsim.network import World
from repro.web.catalog import SiteCatalog
from repro.web.html import extract_domains_from_html, render_page_html
from repro.web.website import CATEGORY_GOVERNMENT, CATEGORY_REGIONAL

__all__ = ["GammaSuite"]


class GammaSuite:
    """One volunteer's end-to-end measurement run."""

    def __init__(
        self,
        world: World,
        catalog: SiteCatalog,
        browser_config: Optional[BrowserConfig] = None,
        save_pages: bool = False,
    ):
        self._world = world
        self._catalog = catalog
        self._browser = BrowserEngine(world, catalog, browser_config)
        #: Save full page sources and scrape them for hardcoded domains
        #: (section 3: C1 saves webpages; C2 resolves hardcoded domains too).
        self._save_pages = save_pages
        # The suite records only DNS and reverse DNS, so C2 runs without
        # ASN annotation.
        self._netinfo = NetworkInfoGatherer(world)
        self._prober: Optional[ProbeRunner] = None

    @property
    def trace_cache(self) -> Optional[ReadThroughCache]:
        """The trace memo of the latest :meth:`run` (``None`` before any
        run, or when that run launched no traceroutes)."""
        return self._prober.trace_cache if self._prober is not None else None

    def run(
        self,
        volunteer: Volunteer,
        targets: TargetList,
        visit_key: str = "visit-1",
        tracer=None,
    ) -> VolunteerDataset:
        """Execute the full run and return the volunteer's dataset.

        With a :class:`repro.obs.Tracer`, each site gets its own span
        plus ``site_visit``/``site_traceroutes`` events, so per-site wall
        time and load failures are auditable from the run journal.
        """
        targets = targets.without(sorted(volunteer.opted_out_sites))
        dataset = VolunteerDataset(
            country_code=volunteer.country_code,
            city_key=volunteer.city.key,
            volunteer_ip=volunteer.ip,
            os_name=volunteer.os_name,
            browser=self._browser.config.browser,
        )
        # One runner per run: its trace memo dies with the run.
        self._prober = prober = (
            None
            if volunteer.traceroute_opt_out
            else ProbeRunner(self._world, volunteer.os_name)
        )

        categories: Dict[str, str] = {}
        for url in targets.regional:
            categories[url] = CATEGORY_REGIONAL
        for url in targets.government:
            categories[url] = CATEGORY_GOVERNMENT

        for url in targets.all_sites:
            if tracer is None:
                measurement = self._measure_site(
                    url, categories[url], volunteer, prober, visit_key
                )
            else:
                with tracer.span("site", url):
                    measurement = self._measure_site(
                        url, categories[url], volunteer, prober, visit_key
                    )
                    self._emit_site_events(tracer, measurement)
            dataset.add(measurement)
        return dataset

    @staticmethod
    def _emit_site_events(tracer, measurement: WebsiteMeasurement) -> None:
        tracer.event(
            "site_visit",
            url=measurement.url,
            category=measurement.category,
            loaded=measurement.loaded,
            failure_reason=measurement.failure_reason or None,
            requested_hosts=len(measurement.requested_hosts),
            background_hosts=len(measurement.background_hosts),
            hardcoded_domains=len(measurement.hardcoded_domains),
        )
        if measurement.traceroutes:
            tracer.event(
                "site_traceroutes",
                url=measurement.url,
                attempted=len(measurement.traceroutes),
                reached=sum(
                    1 for trace in measurement.traceroutes.values() if trace.reached
                ),
            )

    # -- internals -----------------------------------------------------------
    def _measure_site(
        self,
        url: str,
        category: str,
        volunteer: Volunteer,
        prober: Optional[ProbeRunner],
        visit_key: str,
    ) -> WebsiteMeasurement:
        record = self._browser.load(url, volunteer.city, visit_key)
        measurement = WebsiteMeasurement(
            url=url,
            category=category,
            loaded=record.loaded,
            failure_reason=record.failure_reason,
        )
        if not record.loaded:
            return measurement

        measurement.requested_hosts = record.requested_hosts(include_background=False)
        measurement.background_hosts = [
            r.host for r in record.successful_requests() if r.background
        ]
        if self._save_pages and self._catalog.has(url):
            site = self._catalog.get(url)
            measurement.page_html = render_page_html(site, visit_key, volunteer.country_code)
            mentioned = extract_domains_from_html(measurement.page_html)
            measurement.hardcoded_domains = sorted(
                mentioned - set(measurement.requested_hosts)
            )
        hosts = list(measurement.requested_hosts) + measurement.hardcoded_domains
        info = self._netinfo.gather(hosts, volunteer.city)
        measurement.dns = info.dns
        measurement.rdns = info.rdns

        if prober is not None:
            addresses = measurement.resolved_addresses
            measurement.traceroutes = prober.traceroute_many(
                volunteer.city, addresses, key_prefix=f"{volunteer.name}:{url}"
            )
        return measurement
