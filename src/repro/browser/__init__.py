"""Headless-browser simulation: page loads, request records, failures."""

from repro.browser.engine import (
    CHROMEDRIVER_BACKGROUND_HOSTS,
    BrowserConfig,
    BrowserEngine,
    BrowserKind,
)
from repro.browser.har import NetworkRequest, PageLoadRecord, RequestStatus

__all__ = [
    "CHROMEDRIVER_BACKGROUND_HOSTS",
    "BrowserConfig",
    "BrowserEngine",
    "BrowserKind",
    "NetworkRequest",
    "PageLoadRecord",
    "RequestStatus",
]
