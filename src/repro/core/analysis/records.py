"""Joined per-site analysis records.

The analysis stage consumes one :class:`SiteTrackerRecord` per loaded
target website: which of its requested hosts are verified non-local
trackers, where each is hosted, and which organisation operates it.
``build_country_result`` performs the join between Gamma's dataset, the
geolocation verdicts, and tracker identification — including stripping
the webdriver's own background requests (section 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.gamma.output import VolunteerDataset
from repro.core.geoloc.pipeline import DatasetGeolocation
from repro.core.slotstate import install_slot_state
from repro.core.trackers.identify import TrackerIdentifier, TrackerVerdict
from repro.core.trackers.orgs import OrganizationDirectory
from repro.web.website import CATEGORY_GOVERNMENT, CATEGORY_REGIONAL

__all__ = ["NonLocalTracker", "SiteTrackerRecord", "CountryStudyResult", "build_country_result"]


@dataclass(frozen=True, slots=True)
class NonLocalTracker:
    """One verified non-local tracking host observed on one site."""

    host: str
    address: str
    destination_country: str
    destination_city_key: str
    org_name: Optional[str] = None


@dataclass(slots=True)
class SiteTrackerRecord:
    """Analysis view of one loaded website.

    Derived aggregates (distinct host count, sorted destination and
    organisation sets) are memoised once the tracker list stops growing;
    the memo is keyed on ``len(trackers)``, so the builder path — which
    only ever appends — invalidates it naturally, and it is excluded
    from pickle state and equality.
    """

    url: str
    country_code: str
    category: str
    trackers: List[NonLocalTracker] = field(default_factory=list)
    _derived: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

    def _derive(self) -> tuple:
        derived = getattr(self, "_derived", None)
        n = len(self.trackers)
        if derived is None or derived[0] != n:
            derived = (
                n,
                len({t.host for t in self.trackers}),
                sorted({t.destination_country for t in self.trackers}),
                sorted({t.org_name for t in self.trackers if t.org_name}),
            )
            self._derived = derived
        return derived

    @property
    def has_nonlocal_tracker(self) -> bool:
        return bool(self.trackers)

    @property
    def tracker_count(self) -> int:
        """Number of distinct non-local tracking domains (full hostnames)."""
        return self._derive()[1]

    def destination_countries(self) -> List[str]:
        return self._derive()[2]

    def organizations(self) -> List[str]:
        return self._derive()[3]


install_slot_state(
    NonLocalTracker,
    ("host", "address", "destination_country", "destination_city_key",
     "org_name"),
)
install_slot_state(
    SiteTrackerRecord,
    ("url", "country_code", "category", "trackers"),
)


@dataclass
class CountryStudyResult:
    """Everything the per-figure analyses need for one country."""

    country_code: str
    dataset: VolunteerDataset
    geolocation: DatasetGeolocation
    tracker_verdicts: Dict[str, TrackerVerdict] = field(default_factory=dict)
    sites: List[SiteTrackerRecord] = field(default_factory=list)

    def sites_in(self, category: Optional[str] = None) -> List[SiteTrackerRecord]:
        if category is None:
            return list(self.sites)
        return [s for s in self.sites if s.category == category]

    @property
    def regional_sites(self) -> List[SiteTrackerRecord]:
        return self.sites_in(CATEGORY_REGIONAL)

    @property
    def government_sites(self) -> List[SiteTrackerRecord]:
        return self.sites_in(CATEGORY_GOVERNMENT)

    def nonlocal_tracker_hosts(self) -> List[str]:
        hosts: Dict[str, None] = {}
        for site in self.sites:
            for tracker in site.trackers:
                hosts.setdefault(tracker.host, None)
        return list(hosts)


def build_country_result(
    dataset: VolunteerDataset,
    geolocation: DatasetGeolocation,
    identifier: TrackerIdentifier,
    directory: Optional[OrganizationDirectory] = None,
    tracer=None,
) -> CountryStudyResult:
    """Join dataset + geolocation + identification into analysis records.

    Each distinct foreground host is judged once, on first sight: one
    verdict lookup and, if verified non-local, one classification — so
    ``tracker_verdicts`` keeps first-sight order.  Per-site rows keep
    every occurrence, within-site repeats included.  With a
    :class:`repro.obs.Tracer`, that first classification emits the
    host's ``tracker_match`` event for this country.
    """
    directory = directory or identifier.directory
    country_code = dataset.country_code
    result = CountryStudyResult(
        country_code=country_code, dataset=dataset, geolocation=geolocation
    )
    verdicts: Dict[str, TrackerVerdict] = {}
    # host -> (destination country, city key, org) for verified non-local
    # trackers, None for every other judged host.
    judged: Dict[str, Optional[tuple]] = {}

    def judge(host: str) -> Optional[tuple]:
        server = geolocation.verdict_for_host(host)
        if server is None or not server.is_verified_nonlocal:
            return None
        # classify() memoises engine-wide, so hosts shared across
        # countries are classified once and counted as cache hits.
        verdict = identifier.classify(host, country_code, tracer=tracer)
        verdicts[host] = verdict
        if not verdict.is_tracker:
            return None
        org_name = verdict.org_name
        if org_name is None and directory is not None:
            entry = directory.org_for_host(host)
            org_name = entry.name if entry else None
        assert server.claim is not None  # verified non-local implies a claim
        return server.claim.country_code, server.claim.city_key, org_name

    for measurement in dataset.websites.values():
        if not measurement.loaded:
            continue
        site = SiteTrackerRecord(
            url=measurement.url,
            country_code=country_code,
            category=measurement.category,
        )
        background = set(measurement.background_hosts)
        for host in measurement.requested_hosts:
            if host in background:
                continue  # webdriver noise, stripped before analysis
            if host not in judged:
                judged[host] = judge(host)
            tracker = judged[host]
            if tracker is None:
                continue
            site.trackers.append(
                NonLocalTracker(
                    host=host,
                    address=measurement.dns[host],
                    destination_country=tracker[0],
                    destination_city_key=tracker[1],
                    org_name=tracker[2],
                )
            )
        result.sites.append(site)

    result.tracker_verdicts = verdicts
    return result
