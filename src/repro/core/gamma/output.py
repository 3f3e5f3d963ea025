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
from typing import Callable, Dict, List, Optional, Tuple

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
    #: Saved page source (only when the run enables page saving).
    page_html: Optional[str] = None
    #: Domains found hardcoded in the page markup but never requested.
    hardcoded_domains: List[str] = field(default_factory=list)

    @property
    def resolved_addresses(self) -> List[str]:
        """Unique resolved IPs in first-seen order."""
        seen: Dict[str, None] = {}
        for host in self.requested_hosts:
            address = self.dns.get(host)
            if address is not None:
                seen.setdefault(address, None)
        return list(seen)

    def to_dict(self) -> dict:
        return self._payload(NormalizedTraceroute.to_dict)

    def _payload(self, trace_payload: Callable[[NormalizedTraceroute], dict]) -> dict:
        return {
            "url": self.url,
            "category": self.category,
            "loaded": self.loaded,
            "failure_reason": self.failure_reason,
            "requested_hosts": list(self.requested_hosts),
            "background_hosts": list(self.background_hosts),
            "dns": dict(self.dns),
            "rdns": dict(self.rdns),
            "traceroutes": {ip: trace_payload(tr) for ip, tr in self.traceroutes.items()},
            "page_html": self.page_html,
            "hardcoded_domains": list(self.hardcoded_domains),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "WebsiteMeasurement":
        return cls._from_payload(payload, lambda ip, entry: NormalizedTraceroute.from_dict(entry))

    @classmethod
    def _from_payload(
        cls,
        payload: dict,
        trace_from: Callable[[str, dict], NormalizedTraceroute],
    ) -> "WebsiteMeasurement":
        return cls(
            url=payload["url"],
            category=payload["category"],
            loaded=payload["loaded"],
            failure_reason=payload.get("failure_reason"),
            requested_hosts=list(payload.get("requested_hosts", [])),
            background_hosts=list(payload.get("background_hosts", [])),
            dns=dict(payload.get("dns", {})),
            rdns=dict(payload.get("rdns", {})),
            traceroutes={
                ip: trace_from(ip, entry)
                for ip, entry in payload.get("traceroutes", {}).items()
            },
            page_html=payload.get("page_html"),
            hardcoded_domains=list(payload.get("hardcoded_domains", [])),
        )


# Pickle state stays the historical field-ordered dict so pre-slots
# checkpoints load and fresh pickle bytes are unchanged.
install_slot_state(
    WebsiteMeasurement,
    ("url", "category", "loaded", "requested_hosts", "background_hosts",
     "dns", "rdns", "traceroutes", "failure_reason", "page_html",
     "hardcoded_domains"),
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
        """Compact JSON with sorted keys.

        The per-run trace memo hands one trace object to every site that
        embeds the same address, so each distinct object's dict is built
        once and shared; the encoded text is the same either way.
        """
        built: Dict[int, dict] = {}

        def trace_payload(trace: NormalizedTraceroute) -> dict:
            payload = built.get(id(trace))
            if payload is None:
                payload = built[id(trace)] = trace.to_dict()
            return payload

        return json.dumps(
            {
                "country": self.country_code,
                "city": self.city_key,
                "volunteer_ip": self.volunteer_ip,
                "os": self.os_name,
                "browser": self.browser,
                "websites": {
                    url: m._payload(trace_payload) for url, m in self.websites.items()
                },
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "VolunteerDataset":
        """Parse :meth:`to_json` output (indented or compact).

        Sites that stored the same trace for an address share one
        :class:`NormalizedTraceroute`, as in the live dataset.  A later
        site's entry is reused only when it equals the address's first
        entry, so a bundle edited by hand keeps each distinct trace.
        """
        payload = json.loads(text)
        dataset = cls(
            country_code=payload["country"],
            city_key=payload["city"],
            volunteer_ip=payload["volunteer_ip"],
            os_name=payload["os"],
            browser=payload["browser"],
        )
        first: Dict[str, Tuple[dict, NormalizedTraceroute]] = {}

        def trace_from(ip: str, entry: dict) -> NormalizedTraceroute:
            seen = first.get(ip)
            if seen is not None and seen[0] == entry:
                return seen[1]
            trace = NormalizedTraceroute.from_dict(entry)
            first.setdefault(ip, (entry, trace))
            return trace

        for url, entry in payload.get("websites", {}).items():
            dataset.websites[url] = WebsiteMeasurement._from_payload(entry, trace_from)
        return dataset


def anonymize(dataset: VolunteerDataset) -> VolunteerDataset:
    """Strip the volunteer's IP (done after analysis, per section 3.5)."""
    dataset.volunteer_ip = ANONYMIZED_IP
    return dataset
