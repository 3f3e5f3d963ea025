"""Reference linear-scan filter matching: the oracle for the index.

``FilterSet.match`` runs on the suffix/fragment index in
:mod:`repro.core.trackers.filterindex`.  These plain functions keep the
original O(lists × rules) scan so ``tests/test_filterindex.py``,
``tests/test_filterlist.py`` and the filter-match benchmark can check
the index against it, verdict for verdict and rule for rule.
"""

from __future__ import annotations

from typing import Optional

from repro.core.trackers.filterlist import FilterList, FilterMatch, FilterRule, FilterSet
from repro.domains import validate_hostname

__all__ = ["block_match", "match_naive"]


def block_match(filter_list: FilterList, host: str) -> Optional[FilterRule]:
    """First blocking rule of *filter_list* matching *host*, unless an
    exception in the same list covers it."""
    host = validate_hostname(host)
    blocking: Optional[FilterRule] = None
    for rule in filter_list.rules:
        if rule.is_exception:
            if rule.matches_host(host):
                return None
        elif blocking is None and rule.matches_host(host):
            blocking = rule
    return blocking


def match_naive(filter_set: FilterSet, host: str) -> Optional[FilterMatch]:
    """First list (in order) that blocks *host*; an exception in any list
    suppresses every list's blocking match."""
    host = validate_hostname(host)
    filter_lists = filter_set.lists
    for filter_list in filter_lists:
        for rule in filter_list.rules:
            if rule.is_exception and rule.matches_host(host):
                return None
    for filter_list in filter_lists:
        rule = block_match(filter_list, host)
        if rule is not None:
            return FilterMatch(list_name=filter_list.name, rule=rule)
    return None
