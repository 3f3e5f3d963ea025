"""Synthetic web: websites, embedded resources, and the site catalogue."""

from repro.web.catalog import SiteCatalog
from repro.web.website import (
    CATEGORY_GOVERNMENT,
    CATEGORY_REGIONAL,
    EmbeddedResource,
    ResourceKind,
    Website,
)

__all__ = [
    "CATEGORY_GOVERNMENT",
    "CATEGORY_REGIONAL",
    "EmbeddedResource",
    "ResourceKind",
    "SiteCatalog",
    "Website",
]
