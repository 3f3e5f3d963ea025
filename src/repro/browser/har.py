"""HAR-style page-load records.

Gamma's browser component (C1) records every network request a page load
generates.  These structures are the normalised form of that recording:
one :class:`PageLoadRecord` per attempted page visit, each holding the
ordered list of :class:`NetworkRequest` entries, load success, and timing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = ["RequestStatus", "NetworkRequest", "PageLoadRecord"]


class RequestStatus:
    """Terminal states of one network request."""

    OK = "ok"
    DNS_ERROR = "dns_error"
    BLOCKED = "blocked"  # blocked by the browser (e.g. Brave's shields)
    REFUSED = "refused"  # server refused to serve this client region

    ALL = (OK, DNS_ERROR, BLOCKED, REFUSED)


@dataclass(frozen=True)
class NetworkRequest:
    """One request observed during a page load."""

    host: str
    kind: str  # document/script/image/stylesheet/xhr/frame/background
    status: str
    address: Optional[str] = None  # resolved IP when status == OK
    #: True for requests the webdriver itself generates (browser telemetry,
    #: safe-browsing updates...), which the paper strips before analysis.
    background: bool = False

    @property
    def succeeded(self) -> bool:
        return self.status == RequestStatus.OK


@dataclass
class PageLoadRecord:
    """Everything Gamma's C1 component records for one page visit."""

    url: str  # landing hostname
    country_code: str  # measurement country
    browser: str
    loaded: bool
    render_time_s: float
    requests: List[NetworkRequest] = field(default_factory=list)
    failure_reason: Optional[str] = None

    def successful_requests(self, include_background: bool = True) -> List[NetworkRequest]:
        return [
            r
            for r in self.requests
            if r.succeeded and (include_background or not r.background)
        ]

    def requested_hosts(self, include_background: bool = False) -> List[str]:
        """Unique hosts with successful requests, in first-seen order."""
        seen: Dict[str, None] = {}
        for request in self.successful_requests(include_background=include_background):
            seen.setdefault(request.host, None)
        return list(seen)

    def host_addresses(self, include_background: bool = False) -> Dict[str, str]:
        """Map of host -> resolved address for successful requests."""
        addresses: Dict[str, str] = {}
        for request in self.successful_requests(include_background=include_background):
            if request.address is not None:
                addresses.setdefault(request.host, request.address)
        return addresses
