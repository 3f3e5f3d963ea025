"""Indexed ABP host matching: suffix maps plus compiled fragment gates.

The naive matcher (kept as the test oracle in ``tests/filter_oracle.py``)
scans every rule of every list per lookup — O(lists × rules) with a full exception
rescan, which dominates per-country study work at EasyList scale
(tens of thousands of rules).  This module replaces the scan with an
index that answers the same question in O(host labels):

* **Suffix index** — ``||domain^`` block and exception rules live in a
  hash map keyed by their (normalised) domain.  A lookup walks the
  host's label suffixes (``a.b.c.com`` → ``a.b.c.com``, ``b.c.com``,
  ``c.com``, ``com``) and probes the map once per suffix, which is
  exactly the ``is_subdomain`` relation the naive scan evaluates per
  rule.
* **Fragment gate** — substring rules whose pattern is a bare domain
  fragment are folded into one compiled alternation regex per rule
  group.  Most hosts fail the gate in a single C-level scan; only on a
  gate hit does an ordered scan of the (typically few) fragment rules
  run to recover the first-matching rule.
* **List-global exception index** — exception rules from *all* lists are
  pooled into one suffix set + fragment gate checked first, mirroring
  the ad-blocker semantics of the naive scan.

Equivalence with the naive scan is the load-bearing property: verdicts
must be byte-identical, including *which* rule object is attributed
(the first matching rule in list order, then rule order).  The suffix
map therefore stores the earliest rule position per domain, and the
fragment scan stops at the first fragment hit or once positions pass
the best domain hit.  ``tests/test_filterindex.py`` locks this down
against generated rule sets.

The index is immutable after :meth:`FilterSetIndex.build`, deterministic
in the list contents (fragments are sorted before the alternation is
compiled), and picklable — compiled patterns, rules and maps all
round-trip, so a lazily-built index travels to process-pool workers
with the scenario.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Pattern, Sequence, Set, Tuple

from repro.core.trackers.filterlist import (
    FilterList,
    FilterMatch,
    FilterRule,
    RuleKind,
    host_fragment,
)
from repro.domains import validate_hostname

__all__ = ["FilterListIndex", "FilterSetIndex", "host_suffixes"]


def host_suffixes(host: str) -> List[str]:
    """All label suffixes of *host*, longest first (host itself included)."""
    labels = host.split(".")
    return [".".join(labels[i:]) for i in range(len(labels))]


def _compile_gate(fragments: Sequence[str]) -> Optional[Pattern[str]]:
    """One alternation matching any of *fragments* (sorted: determinism)."""
    unique = sorted(set(fragments))
    if not unique:
        return None
    return re.compile("|".join(re.escape(fragment) for fragment in unique))


class FilterListIndex:
    """Blocking-rule index for one list (exceptions are set-global)."""

    __slots__ = ("name", "_domains", "_fragment_rules", "_fragment_gate")

    def __init__(
        self,
        name: str,
        domains: Dict[str, Tuple[int, FilterRule]],
        fragment_rules: List[Tuple[int, str, FilterRule]],
    ):
        self.name = name
        self._domains = domains
        self._fragment_rules = fragment_rules
        self._fragment_gate = _compile_gate([f for _, f, _ in fragment_rules])

    @classmethod
    def build(cls, filter_list: FilterList) -> "FilterListIndex":
        domains: Dict[str, Tuple[int, FilterRule]] = {}
        fragment_rules: List[Tuple[int, str, FilterRule]] = []
        for position, rule in enumerate(filter_list.rules):
            if rule.kind == RuleKind.DOMAIN_BLOCK:
                assert rule.domain is not None
                domain = validate_hostname(rule.domain)
                if domain not in domains:  # earliest rule wins attribution
                    domains[domain] = (position, rule)
            elif rule.kind == RuleKind.SUBSTRING:
                fragment = host_fragment(rule)
                if fragment is not None:
                    fragment_rules.append((position, fragment, rule))
        return cls(filter_list.name, domains, fragment_rules)

    @property
    def rule_count(self) -> int:
        return len(self._domains) + len(self._fragment_rules)

    def first_block(self, host: str, suffixes: Sequence[str]) -> Optional[FilterRule]:
        """The earliest-positioned blocking rule matching *host*, if any."""
        best: Optional[Tuple[int, FilterRule]] = None
        for suffix in suffixes:
            hit = self._domains.get(suffix)
            if hit is not None and (best is None or hit[0] < best[0]):
                best = hit
        if self._fragment_gate is not None and self._fragment_gate.search(host):
            for position, fragment, rule in self._fragment_rules:
                if best is not None and position >= best[0]:
                    break  # the domain hit already precedes every remaining rule
                if fragment in host:
                    best = (position, rule)
                    break
        return best[1] if best is not None else None

    # -- pickling: the gate regex recompiles from the rule fragments ---------
    def __getstate__(self) -> dict:
        return {
            "name": self.name,
            "domains": self._domains,
            "fragment_rules": self._fragment_rules,
        }

    def __setstate__(self, state: dict) -> None:
        self.name = state["name"]
        self._domains = state["domains"]
        self._fragment_rules = state["fragment_rules"]
        self._fragment_gate = _compile_gate([f for _, f, _ in self._fragment_rules])


class FilterSetIndex:
    """The full indexed matching engine for an ordered set of lists."""

    __slots__ = ("_list_indexes", "_exception_domains", "_exception_gate")

    def __init__(
        self,
        list_indexes: List[FilterListIndex],
        exception_domains: Set[str],
        exception_fragments: List[str],
    ):
        self._list_indexes = list_indexes
        self._exception_domains = exception_domains
        self._exception_gate = _compile_gate(exception_fragments)

    @classmethod
    def build(cls, lists: Sequence[FilterList]) -> "FilterSetIndex":
        exception_domains: Set[str] = set()
        exception_fragments: List[str] = []
        list_indexes: List[FilterListIndex] = []
        for filter_list in lists:
            for rule in filter_list.rules:
                if rule.kind == RuleKind.DOMAIN_EXCEPTION:
                    assert rule.domain is not None
                    exception_domains.add(validate_hostname(rule.domain))
                elif rule.kind == RuleKind.SUBSTRING_EXCEPTION:
                    fragment = host_fragment(rule)
                    if fragment is not None:
                        exception_fragments.append(fragment)
            list_indexes.append(FilterListIndex.build(filter_list))
        return cls(list_indexes, exception_domains, exception_fragments)

    def is_excepted(self, host: str, suffixes: Optional[Sequence[str]] = None) -> bool:
        """Does any list carry an exception covering *host*?"""
        if suffixes is None:
            suffixes = host_suffixes(host)
        if any(suffix in self._exception_domains for suffix in suffixes):
            return True
        return self._exception_gate is not None and bool(self._exception_gate.search(host))

    def match(self, host: str) -> Optional[FilterMatch]:
        """Byte-identical to the naive scan in O(labels)."""
        host = validate_hostname(host)
        suffixes = host_suffixes(host)
        if self.is_excepted(host, suffixes):
            return None
        for list_index in self._list_indexes:
            rule = list_index.first_block(host, suffixes)
            if rule is not None:
                return FilterMatch(list_name=list_index.name, rule=rule)
        return None

    def stats(self) -> dict:
        """Index shape, for docs/benchmarks (not a study artefact)."""
        return {
            "lists": len(self._list_indexes),
            "indexed_rules": sum(li.rule_count for li in self._list_indexes),
            "exception_domains": len(self._exception_domains),
            "has_exception_gate": self._exception_gate is not None,
        }

    # -- pickling ------------------------------------------------------------
    def __getstate__(self) -> dict:
        pattern = self._exception_gate.pattern if self._exception_gate else None
        return {
            "list_indexes": self._list_indexes,
            "exception_domains": self._exception_domains,
            "exception_gate_pattern": pattern,
        }

    def __setstate__(self, state: dict) -> None:
        self._list_indexes = state["list_indexes"]
        self._exception_domains = state["exception_domains"]
        pattern = state["exception_gate_pattern"]
        self._exception_gate = re.compile(pattern) if pattern is not None else None
