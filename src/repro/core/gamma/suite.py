"""The Gamma suite orchestrator.

For each target website (minus the volunteer's opt-outs) the suite runs
C1 -> C2 -> C3 in sequence — each component building on the previous, as
in section 3.1 — checkpointing after every site so interrupted runs
resume where they stopped.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Optional

from repro.browser.engine import BrowserConfig, BrowserEngine
from repro.core.gamma.checkpoint import Checkpoint
from repro.core.gamma.config import GammaConfig
from repro.core.gamma.netinfo import NetworkInfoGatherer
from repro.core.gamma.output import VolunteerDataset, WebsiteMeasurement
from repro.core.gamma.probes import ProbeRunner
from repro.core.gamma.volunteer import Volunteer
from repro.core.targets.builder import TargetList
from repro.geodb.ipinfo import IPInfoService
from repro.netsim.network import World
from repro.web.catalog import SiteCatalog
from repro.web.html import extract_domains_from_html, render_page_html
from repro.web.website import CATEGORY_GOVERNMENT, CATEGORY_REGIONAL

__all__ = ["GammaSuite"]

ProgressCallback = Callable[[str, WebsiteMeasurement], None]


class GammaSuite:
    """One volunteer's end-to-end measurement run."""

    def __init__(
        self,
        world: World,
        catalog: SiteCatalog,
        config: Optional[GammaConfig] = None,
        browser_config: Optional[BrowserConfig] = None,
        ipinfo: Optional[IPInfoService] = None,
    ):
        self._world = world
        self._catalog = catalog
        self._config = config or GammaConfig.study_defaults()
        browser_config = browser_config or BrowserConfig()
        if browser_config.browser != self._config.browser:
            raise ValueError(
                f"browser mismatch: Gamma configured for {self._config.browser}, "
                f"engine for {browser_config.browser}"
            )
        if browser_config.hard_timeout_s != self._config.hard_timeout_s:
            # Align on a private copy: the caller's config may be shared by
            # concurrently-running suites (one per country under repro.exec).
            browser_config = dataclasses.replace(
                browser_config, hard_timeout_s=self._config.hard_timeout_s
            )
        self._browser = BrowserEngine(world, catalog, browser_config)
        self._netinfo = NetworkInfoGatherer(world, ipinfo)

    @property
    def config(self) -> GammaConfig:
        return self._config

    def run(
        self,
        volunteer: Volunteer,
        targets: TargetList,
        checkpoint: Optional[Checkpoint] = None,
        progress: Optional[ProgressCallback] = None,
        visit_key: str = "visit-1",
        tracer=None,
    ) -> VolunteerDataset:
        """Execute the full run and return the volunteer's dataset.

        With a :class:`repro.obs.Tracer`, each site gets its own span
        plus ``site_visit``/``site_skip``/``site_traceroutes`` events,
        so per-site wall time and load failures are auditable from the
        run journal.
        """
        config = self._effective_config(volunteer)
        dataset = self._resume_or_start(volunteer, checkpoint)
        prober = (
            ProbeRunner(self._world, config.os_name)
            if config.traceroutes_enabled
            else None
        )

        categories: Dict[str, str] = {}
        for url in targets.regional:
            categories[url] = CATEGORY_REGIONAL
        for url in targets.government:
            categories[url] = CATEGORY_GOVERNMENT

        for url in self._visit_order(targets.all_sites, config.instances):
            if volunteer.opted_out(url):
                if tracer is not None:
                    tracer.event("site_skip", url=url, reason="opted_out")
                continue
            if checkpoint is not None and checkpoint.is_done(url):
                if tracer is not None:
                    tracer.event("site_skip", url=url, reason="checkpointed")
                continue
            if tracer is None:
                measurement = self._measure_site(
                    url, categories[url], volunteer, config, prober, visit_key
                )
            else:
                with tracer.span("site", url):
                    measurement = self._measure_site(
                        url, categories[url], volunteer, config, prober, visit_key
                    )
                    self._emit_site_events(tracer, measurement)
            dataset.add(measurement)
            if checkpoint is not None:
                checkpoint.mark_done(url, dataset)
            if progress is not None:
                progress(url, measurement)
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
    @staticmethod
    def _visit_order(urls, instances: int):
        """Deterministic visit order for N simultaneous browser instances.

        With one instance (the study configuration) sites are visited in
        list order.  With N instances, each instance works one stripe of
        the list and the recorded order interleaves their progress —
        the observable effect of Gamma's concurrency on the dataset.
        """
        if instances <= 1:
            return list(urls)
        stripes = [list(urls[i::instances]) for i in range(instances)]
        order = []
        for step in range(max((len(s) for s in stripes), default=0)):
            for stripe in stripes:
                if step < len(stripe):
                    order.append(stripe[step])
        return order

    def _effective_config(self, volunteer: Volunteer) -> GammaConfig:
        config = self._config
        if volunteer.traceroute_opt_out and config.traceroutes_enabled:
            config = config.without_traceroutes()
        return config

    def _resume_or_start(
        self, volunteer: Volunteer, checkpoint: Optional[Checkpoint]
    ) -> VolunteerDataset:
        if checkpoint is not None:
            partial = checkpoint.partial_dataset()
            if partial is not None:
                if partial.country_code != volunteer.country_code:
                    raise ValueError(
                        "checkpoint belongs to a different country: "
                        f"{partial.country_code} vs {volunteer.country_code}"
                    )
                return partial
        return VolunteerDataset(
            country_code=volunteer.country_code,
            city_key=volunteer.city.key,
            volunteer_ip=volunteer.ip,
            os_name=volunteer.os_name,
            browser=self._config.browser,
        )

    def _measure_site(
        self,
        url: str,
        category: str,
        volunteer: Volunteer,
        config: GammaConfig,
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
        if config.save_pages and self._catalog.has(url):
            site = self._catalog.get(url)
            measurement.page_html = render_page_html(site, visit_key, volunteer.country_code)
            mentioned = extract_domains_from_html(measurement.page_html)
            measurement.hardcoded_domains = sorted(
                mentioned - set(measurement.requested_hosts)
            )
        if config.netinfo_enabled:
            hosts = list(measurement.requested_hosts) + measurement.hardcoded_domains
            info = self._netinfo.gather(hosts, volunteer.city)
            measurement.dns = info.dns
            measurement.rdns = info.rdns
        else:
            measurement.dns = record.host_addresses(include_background=False)

        if prober is not None:
            addresses = measurement.resolved_addresses
            measurement.traceroutes = prober.traceroute_many(
                volunteer.city, addresses, key_prefix=f"{volunteer.name}:{url}",
                memo=config.memo_traces,
            )
        return measurement
