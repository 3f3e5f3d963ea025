"""Adblock-Plus-syntax filter-list parsing and host matching.

Implements the subset of ABP syntax the paper's identification stage
relies on (EasyList / EasyPrivacy and regional lists are ABP-format):

* comments (``!``) and section headers (``[Adblock Plus 2.0]``),
* domain-anchored network rules ``||example.com^`` with options
  (``$third-party``, ``$script``, ...),
* exception rules ``@@||example.com^`` and ``@@<pattern>``,
* plain substring rules (parsed; matched against hostnames only when the
  pattern is a bare domain fragment),
* element-hiding rules (``##``, ``#@#``) — parsed and retained but never
  matched against hosts, since they target page DOM, not requests.

Matching is host-based because Gamma records request hostnames; an
exception rule suppresses any blocking match from the same list set.

``FilterSet.match`` runs on the indexed engine in
:mod:`repro.core.trackers.filterindex` (a reversed-label suffix index
plus a compiled fragment matcher, O(host labels) per lookup).  The
original linear scan is kept in ``tests/filter_oracle.py``, and the
equivalence suite in ``tests/test_filterindex.py`` holds the index
byte-identical to it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from repro.domains import is_subdomain, validate_hostname

__all__ = ["RuleKind", "FilterRule", "FilterList", "FilterMatch", "FilterSet", "parse_filter_text"]


class RuleKind:
    DOMAIN_BLOCK = "domain_block"  # ||example.com^
    DOMAIN_EXCEPTION = "domain_exception"  # @@||example.com^
    SUBSTRING = "substring"  # /ads/banner.
    SUBSTRING_EXCEPTION = "substring_exception"  # @@/ads/banner. or @@||bad host^
    ELEMENT_HIDING = "element_hiding"  # ##.ad-box
    COMMENT = "comment"
    HEADER = "header"


@dataclass(frozen=True)
class FilterRule:
    """One parsed line of a filter list."""

    raw: str
    kind: str
    domain: Optional[str] = None  # for domain rules
    pattern: Optional[str] = None  # for substring rules
    options: Tuple[str, ...] = ()

    @property
    def is_network_rule(self) -> bool:
        return self.kind in (
            RuleKind.DOMAIN_BLOCK,
            RuleKind.DOMAIN_EXCEPTION,
            RuleKind.SUBSTRING,
            RuleKind.SUBSTRING_EXCEPTION,
        )

    @property
    def is_exception(self) -> bool:
        return self.kind in (RuleKind.DOMAIN_EXCEPTION, RuleKind.SUBSTRING_EXCEPTION)

    def matches_host(self, host: str) -> bool:
        """Does this rule apply to a request to *host*?"""
        if self.kind in (RuleKind.DOMAIN_BLOCK, RuleKind.DOMAIN_EXCEPTION):
            assert self.domain is not None
            return is_subdomain(host, self.domain)
        if self.kind in (RuleKind.SUBSTRING, RuleKind.SUBSTRING_EXCEPTION):
            fragment = host_fragment(self)
            if fragment is not None:
                return fragment in host
        return False


_DOMAIN_RE = re.compile(r"^[a-z0-9.-]+$")


def _looks_like_domain_fragment(text: str) -> bool:
    return bool(text) and "." in text and bool(_DOMAIN_RE.match(text))


def host_fragment(rule: FilterRule) -> Optional[str]:
    """The hostname substring a SUBSTRING(_EXCEPTION) rule matches, if any.

    Substring rules target URLs; for host-level matching we only honour
    patterns that look like a bare domain fragment.  Returns ``None`` for
    path patterns, which never match hosts.
    """
    if not rule.pattern:
        return None
    fragment = rule.pattern.strip("*")
    if _looks_like_domain_fragment(fragment):
        return fragment
    return None


def _parse_line(line: str) -> Optional[FilterRule]:
    stripped = line.strip()
    if not stripped:
        return None
    if stripped.startswith("!"):
        return FilterRule(raw=line, kind=RuleKind.COMMENT)
    if stripped.startswith("[") and stripped.endswith("]"):
        return FilterRule(raw=line, kind=RuleKind.HEADER)
    if "##" in stripped or "#@#" in stripped or "#?#" in stripped:
        return FilterRule(raw=line, kind=RuleKind.ELEMENT_HIDING)

    exception = stripped.startswith("@@")
    body = stripped[2:] if exception else stripped
    options: Tuple[str, ...] = ()
    if "$" in body:
        body, _, option_text = body.partition("$")
        options = tuple(opt.strip() for opt in option_text.split(",") if opt.strip())

    substring_kind = RuleKind.SUBSTRING_EXCEPTION if exception else RuleKind.SUBSTRING
    if body.startswith("||"):
        anchor = body[2:].rstrip("^/").strip()
        # ``||example.com/ads^`` anchors a *URL* path, not a hostname: the
        # hostname part ends at the first ``/`` (or interior ``^``
        # separator).  Such rules fall back to substring rules and, as
        # patterns carrying a path, never match bare hosts.
        if "/" in anchor or "^" in anchor:
            return FilterRule(raw=line, kind=substring_kind, pattern=body, options=options)
        try:
            domain = validate_hostname(anchor)
        except ValueError:
            return FilterRule(raw=line, kind=substring_kind, pattern=body, options=options)
        kind = RuleKind.DOMAIN_EXCEPTION if exception else RuleKind.DOMAIN_BLOCK
        return FilterRule(raw=line, kind=kind, domain=domain, options=options)
    return FilterRule(raw=line, kind=substring_kind, pattern=body.strip(), options=options)


def parse_filter_text(text: str) -> List[FilterRule]:
    """Parse a full list body, skipping blanks."""
    rules: List[FilterRule] = []
    for line in text.splitlines():
        rule = _parse_line(line)
        if rule is not None:
            rules.append(rule)
    return rules


@dataclass
class FilterList:
    """A named filter list (EasyList, EasyPrivacy, a regional list...)."""

    name: str
    rules: List[FilterRule] = field(default_factory=list)

    @classmethod
    def parse(cls, name: str, text: str) -> "FilterList":
        return cls(name=name, rules=parse_filter_text(text))

    @property
    def network_rules(self) -> List[FilterRule]:
        return [r for r in self.rules if r.is_network_rule]


@dataclass(frozen=True)
class FilterMatch:
    """Which list and rule flagged a host."""

    list_name: str
    rule: FilterRule


class FilterSet:
    """An ordered collection of filter lists queried together."""

    def __init__(self, lists: Iterable[FilterList] = ()):
        self._lists: List[FilterList] = list(lists)
        self._index = None  # built lazily, dropped on mutation

    def add(self, filter_list: FilterList) -> None:
        self._lists.append(filter_list)
        self._index = None

    @property
    def lists(self) -> List[FilterList]:
        return list(self._lists)

    @property
    def list_names(self) -> List[str]:
        return [fl.name for fl in self._lists]

    @property
    def index(self):
        """The indexed matching engine, built on first use.

        The build is deterministic in the list contents, so lazily
        building in one process and shipping the built index to another
        (or rebuilding there) yields identical verdicts.  Call
        :meth:`invalidate_index` after mutating a member list in place.
        """
        if self._index is None:
            from repro.core.trackers.filterindex import FilterSetIndex

            self._index = FilterSetIndex.build(self._lists)
        return self._index

    def invalidate_index(self) -> None:
        self._index = None

    def match(self, host: str) -> Optional[FilterMatch]:
        """First list (in order) that blocks *host*.

        Exceptions are list-global: an exception in *any* list suppresses
        blocking matches from every list, mirroring ad-blocker semantics.
        Runs on the suffix/fragment index; byte-identical to the
        linear-scan oracle in ``tests/filter_oracle.py``.
        """
        return self.index.match(host)

    def __len__(self) -> int:
        return len(self._lists)
