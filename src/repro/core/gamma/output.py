"""Gamma's on-disk data model.

One :class:`VolunteerDataset` is what a volunteer mails back after a run:
per-website request records, forward/reverse DNS, normalised traceroutes,
plus the minimal volunteer context the analysis needs (city, network).
``anonymize`` implements the ethics-section commitment to strip volunteer
IPs from the dataset once analysis completes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.gamma.parsers import NormalizedTraceroute
from repro.core.slotstate import install_slot_state

__all__ = ["WebsiteMeasurement", "VolunteerDataset", "anonymize"]

ANONYMIZED_IP = "0.0.0.0"


@dataclass(slots=True)
class WebsiteMeasurement:
    """Everything recorded for one target website."""

    url: str
    category: str  # "regional" or "government"
    loaded: bool
    requested_hosts: List[str] = field(default_factory=list)
    background_hosts: List[str] = field(default_factory=list)
    dns: Dict[str, str] = field(default_factory=dict)  # host -> IP
    rdns: Dict[str, Optional[str]] = field(default_factory=dict)  # IP -> PTR
    traceroutes: Dict[str, NormalizedTraceroute] = field(default_factory=dict)  # IP -> trace
    failure_reason: Optional[str] = None

    @property
    def resolved_addresses(self) -> List[str]:
        """Unique resolved IPs in first-seen order."""
        seen: Dict[str, None] = {}
        for host in self.requested_hosts:
            address = self.dns.get(host)
            if address is not None:
                seen.setdefault(address, None)
        return list(seen)


# Pickle state is a field-ordered dict of exactly these fields.  A
# checkpoint written while measurements still carried the saved-page
# fields (``page_html``, ``hardcoded_domains``) fails to load and is
# quarantined, and its country is measured again.
install_slot_state(
    WebsiteMeasurement,
    ("url", "category", "loaded", "requested_hosts", "background_hosts",
     "dns", "rdns", "traceroutes", "failure_reason"),
)


@dataclass
class VolunteerDataset:
    """One volunteer's complete recorded run."""

    country_code: str
    city_key: str
    volunteer_ip: str
    os_name: str
    browser: str
    websites: Dict[str, WebsiteMeasurement] = field(default_factory=dict)

    def add(self, measurement: WebsiteMeasurement) -> None:
        self.websites[measurement.url] = measurement

    @property
    def loaded_count(self) -> int:
        return sum(1 for m in self.websites.values() if m.loaded)

    @property
    def attempted_count(self) -> int:
        return len(self.websites)

    def load_success_pct(self) -> float:
        if not self.websites:
            return 0.0
        return 100.0 * self.loaded_count / self.attempted_count

    def traceroute_counts(self) -> Dict[str, int]:
        """``{"attempted": n, "reached": m}`` across all websites."""
        attempted = reached = 0
        for measurement in self.websites.values():
            for trace in measurement.traceroutes.values():
                attempted += 1
                if trace.reached:
                    reached += 1
        return {"attempted": attempted, "reached": reached}

    @property
    def traceroutes_all_failed(self) -> bool:
        """True when probes were launched but none ever reached a target.

        This is the condition that forced the paper to fall back to RIPE
        Atlas for Australia, India, Qatar and Jordan.
        """
        counts = self.traceroute_counts()
        return counts["attempted"] > 0 and counts["reached"] == 0

    def all_requested_hosts(self) -> List[str]:
        hosts: Dict[str, None] = {}
        for measurement in self.websites.values():
            for host in measurement.requested_hosts:
                hosts.setdefault(host, None)
        return list(hosts)

    def to_json(self) -> str:
        """Compact JSON with sorted keys and one trace table.

        ``"traces"`` holds each distinct trace object once, in the order
        the file first references it (sites by URL, addresses in sorted
        order); each site's ``"traceroutes"`` maps an address to its
        index there.  The per-run trace memo hands one trace object to
        every site that embeds the same address, so the table is as long
        as the dataset has trace objects.
        """
        table: List[dict] = []
        slots: Dict[int, int] = {}
        websites = {}
        for url in sorted(self.websites):
            measurement = self.websites[url]
            references = {}
            for ip in sorted(measurement.traceroutes):
                trace = measurement.traceroutes[ip]
                slot = slots.get(id(trace))
                if slot is None:
                    slot = slots[id(trace)] = len(table)
                    table.append(trace.to_dict())
                references[ip] = slot
            websites[url] = {
                "url": measurement.url,
                "category": measurement.category,
                "loaded": measurement.loaded,
                "failure_reason": measurement.failure_reason,
                "requested_hosts": measurement.requested_hosts,
                "background_hosts": measurement.background_hosts,
                "dns": measurement.dns,
                "rdns": measurement.rdns,
                "traceroutes": references,
            }
        return json.dumps(
            {
                "country": self.country_code,
                "city": self.city_key,
                "volunteer_ip": self.volunteer_ip,
                "os": self.os_name,
                "browser": self.browser,
                "traces": table,
                "websites": websites,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "VolunteerDataset":
        """Parse :meth:`to_json` output (indented or compact).

        Each ``"traces"`` entry becomes one :class:`NormalizedTraceroute`
        that every site referencing it shares, as in the live dataset.
        A dataset without the table (the older layout, traces inline per
        site) or with a reference outside it raises ``ValueError``.
        """
        payload = json.loads(text)
        if "traces" not in payload:
            raise ValueError(
                'dataset has no "traces" table (inline per-site traces '
                "are an older layout; re-export it)"
            )
        traces = [NormalizedTraceroute.from_dict(entry) for entry in payload["traces"]]
        dataset = cls(
            country_code=payload["country"],
            city_key=payload["city"],
            volunteer_ip=payload["volunteer_ip"],
            os_name=payload["os"],
            browser=payload["browser"],
        )
        count = len(traces)
        for url, entry in payload["websites"].items():
            references = entry["traceroutes"]
            if not all(
                type(slot) is int and 0 <= slot < count for slot in references.values()
            ):
                raise ValueError(f"site {url!r} references a trace outside the table")
            dataset.websites[url] = WebsiteMeasurement(
                url=entry["url"],
                category=entry["category"],
                loaded=entry["loaded"],
                failure_reason=entry["failure_reason"],
                requested_hosts=entry["requested_hosts"],
                background_hosts=entry["background_hosts"],
                dns=entry["dns"],
                rdns=entry["rdns"],
                traceroutes={ip: traces[slot] for ip, slot in references.items()},
            )
        return dataset


def anonymize(dataset: VolunteerDataset) -> VolunteerDataset:
    """Strip the volunteer's IP (done after analysis, per section 3.5)."""
    dataset.volunteer_ip = ANONYMIZED_IP
    return dataset
