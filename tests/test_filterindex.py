"""Indexed filter matching: equivalence with the naive scan, and the
memoised verdict cache.

The load-bearing property is byte-identical verdicts: ``FilterSet.match``
(suffix index + fragment gates) must return exactly what
``tests.filter_oracle.match_naive`` (the original O(lists × rules) scan,
kept as the reference oracle) returns — same ``FilterMatch``, same attributed
rule object — over arbitrary rule sets and hostnames.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.trackers.filterindex import FilterListIndex, FilterSetIndex, host_suffixes
from repro.core.trackers.filterlist import (
    FilterList,
    FilterSet,
    RuleKind,
    parse_filter_text,
)
from repro.core.trackers.identify import TrackerIdentifier
from repro.core.trackers.orgs import OrganizationDirectory, OrgEntry
from tests.filter_oracle import match_naive

# ---------------------------------------------------------------------------
# Generators: ABP-ish rule lines and hostnames drawn from a shared pool of
# base domains, so generated hosts actually collide with generated rules.

_BASES = [
    "ads.example", "track.example", "cdn.example", "pixel.example",
    "metrics.example", "doubleclick.net", "stats.co.uk", "banner.org",
]
_SUBS = ["", "a", "x.y", "telemetry", "stats.g"]

_base = st.sampled_from(_BASES)
_option = st.sampled_from(["", "$third-party", "$script,third-party", "$document"])


@st.composite
def _rule_line(draw) -> str:
    base = draw(_base)
    option = draw(_option)
    shape = draw(st.integers(0, 9))
    if shape <= 2:
        return f"||{base}^{option}"
    if shape == 3:
        return f"@@||{base}^{option}"
    if shape == 4:
        sub = draw(st.sampled_from(_SUBS))
        prefix = f"{sub}." if sub else ""
        return f"||{prefix}{base}^{option}"
    if shape == 5:
        return f"{base}."  # bare domain-fragment substring rule
    if shape == 6:
        return f"@@{base}."  # substring exception
    if shape == 7:
        return f"||{base}/ads/banner^{option}"  # path part: URL rule
    if shape == 8:
        return "/banner/ads/*"  # path substring, never matches hosts
    return "! a comment line"


@st.composite
def _hostname(draw) -> str:
    sub = draw(st.sampled_from(_SUBS))
    base = draw(st.one_of(_base, st.sampled_from(["innocent.org", "unrelated.example"])))
    return f"{sub}.{base}" if sub else base


@st.composite
def _filter_set(draw) -> FilterSet:
    n_lists = draw(st.integers(1, 3))
    lists = []
    for i in range(n_lists):
        lines = draw(st.lists(_rule_line(), min_size=0, max_size=12))
        lists.append(FilterList.parse(f"list-{i}", "\n".join(lines)))
    return FilterSet(lists)


class TestEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(_filter_set(), _hostname())
    def test_indexed_matches_naive(self, fset, host):
        assert fset.match(host) == match_naive(fset, host)

    @settings(max_examples=100, deadline=None)
    @given(_filter_set(), st.lists(_hostname(), min_size=1, max_size=8))
    def test_equivalence_over_host_batches(self, fset, hosts):
        for host in hosts:
            indexed = fset.match(host)
            naive = match_naive(fset, host)
            assert indexed == naive
            if indexed is not None:
                # Byte-identical attribution: the very same rule line.
                assert indexed.rule.raw == naive.rule.raw
                assert indexed.list_name == naive.list_name

    def test_host_suffixes(self):
        assert host_suffixes("a.b.c.com") == ["a.b.c.com", "b.c.com", "c.com", "com"]


class TestPrecedence:
    def test_earlier_rule_wins_attribution(self):
        text = "||sub.ads.example^\n||ads.example^\n"
        fset = FilterSet([FilterList.parse("t", text)])
        match = fset.match("x.sub.ads.example")
        assert match.rule.raw == "||sub.ads.example^"
        assert match == match_naive(fset, "x.sub.ads.example")

    def test_fragment_rule_before_domain_rule_wins(self):
        text = "ads.example.\n||cdn.ads.example.net^\n"
        fset = FilterSet([FilterList.parse("t", text)])
        match = fset.match("cdn.ads.example.net")
        assert match.rule.kind == RuleKind.SUBSTRING
        assert match == match_naive(fset, "cdn.ads.example.net")

    def test_domain_rule_before_fragment_rule_wins(self):
        text = "||cdn.ads.example.net^\nads.example.\n"
        fset = FilterSet([FilterList.parse("t", text)])
        match = fset.match("cdn.ads.example.net")
        assert match.rule.kind == RuleKind.DOMAIN_BLOCK
        assert match == match_naive(fset, "cdn.ads.example.net")

    def test_exception_is_list_global(self):
        blocker = FilterList.parse("a", "||cdn.example^\n")
        excepter = FilterList.parse("b", "@@||cdn.example^\n")
        fset = FilterSet([blocker, excepter])
        assert fset.match("x.cdn.example") is None

    def test_substring_exception_suppresses_domain_block(self):
        text = "||telemetry.example.net^\n@@telemetry.example.\n"
        fset = FilterSet([FilterList.parse("t", text)])
        assert fset.match("telemetry.example.net") is None
        assert match_naive(fset, "telemetry.example.net") is None

    def test_first_list_wins(self):
        fset = FilterSet([
            FilterList.parse("easylist", "||ads.example^\n"),
            FilterList.parse("easyprivacy", "||ads.example^\n"),
        ])
        assert fset.match("x.ads.example").list_name == "easylist"

    def test_option_rules_still_match(self):
        fset = FilterSet([FilterList.parse("t", "||ads.example^$third-party\n")])
        match = fset.match("ads.example")
        assert match is not None
        assert match.rule.options == ("third-party",)


class TestIndexMechanics:
    def test_lazy_build_and_invalidation(self):
        fset = FilterSet([FilterList.parse("a", "||ads.example^\n")])
        assert fset._index is None  # not built yet
        assert fset.match("ads.example") is not None
        first = fset.index
        assert fset.index is first  # cached
        fset.add(FilterList.parse("b", "@@||ads.example^\n"))
        assert fset._index is None  # invalidated by mutation
        assert fset.match("ads.example") is None

    def test_deterministic_rebuild(self):
        text = "||ads.example^\ntrack.example.\n@@||safe.example^\n"
        a = FilterSet([FilterList.parse("l", text)])
        b = FilterSet([FilterList.parse("l", text)])
        hosts = ["ads.example", "x.track.example.net", "safe.example", "other.org"]
        assert [a.match(h) for h in hosts] == [b.match(h) for h in hosts]
        assert a.index.stats() == b.index.stats()

    def test_index_pickles(self):
        text = "||ads.example^\ntrack.example.\n@@optout.example.\n@@||safe.example^\n"
        fset = FilterSet([FilterList.parse("l", text)])
        _ = fset.index  # force the build before pickling
        restored = pickle.loads(pickle.dumps(fset))
        for host in ["ads.example", "x.track.example.net", "safe.example",
                     "a.optout.example.org", "other.org"]:
            assert restored.match(host) == match_naive(fset, host)

    def test_standalone_index_pickles(self):
        lists = [FilterList.parse("l", "||ads.example^\ntrack.example.\n")]
        index = FilterSetIndex.build(lists)
        restored = pickle.loads(pickle.dumps(index))
        assert restored.match("sub.ads.example") == index.match("sub.ads.example")
        assert restored.match("x.track.example.org") == index.match("x.track.example.org")

    def test_empty_set(self):
        fset = FilterSet()
        assert fset.match("anything.example") is None
        assert fset.index.stats()["indexed_rules"] == 0

    def test_list_index_first_block_takes_the_earliest_rule(self):
        host = "ads.track.example.org"
        fragment_first = FilterList.parse("l", "track.example.\n||ads.track.example.org^\n")
        domain_first = FilterList.parse("l", "||ads.track.example.org^\ntrack.example.\n")
        for flist in (fragment_first, domain_first):
            index = FilterListIndex.build(flist)
            assert index.rule_count == 2
            assert index.first_block(host, host_suffixes(host)) is flist.rules[0]
        index = FilterListIndex.build(domain_first)
        assert index.first_block("other.org", host_suffixes("other.org")) is None

    def test_set_index_exceptions_by_domain_and_fragment(self):
        index = FilterSetIndex.build(
            [FilterList.parse("l", "||ads.example^\n@@||safe.example^\n@@optout.example.\n")]
        )
        assert index.is_excepted("cdn.safe.example")
        assert index.is_excepted("a.optout.example.org")
        assert not index.is_excepted("ads.example")
        assert index.is_excepted("safe.example", host_suffixes("safe.example"))

    def test_stats_shape(self):
        text = "||ads.example^\n||ads.example^\ntrack.example.\n@@||safe.example^\n"
        fset = FilterSet([FilterList.parse("l", text)])
        stats = fset.index.stats()
        # Duplicate domains collapse to one entry; earliest wins.
        assert stats == {
            "lists": 1,
            "indexed_rules": 2,
            "exception_domains": 1,
            "has_exception_gate": False,
        }


# ---------------------------------------------------------------------------
# The memoised verdict cache: classification through the cache must be
# byte-identical to the uncached reference path, with exact accounting.


@pytest.fixture()
def identifier():
    directory = OrganizationDirectory([
        OrgEntry("ManualAds", "JO", ("manualads.example",), is_tracker=True),
    ])
    global_lists = FilterSet([FilterList.parse("easylist", "||doubleclick.net^\n")])
    regional = {"IN": FilterSet([FilterList.parse("regional-IN", "||admobi.in^\n")])}
    return TrackerIdentifier(global_lists, regional, directory)


class TestVerdictCache:
    def test_cached_equals_uncached(self, identifier):
        for host in ["ad.doubleclick.net", "px.manualads.example", "innocent.org"]:
            for cc in [None, "IN", "TH"]:
                assert identifier.classify(host, cc) == identifier.classify_uncached(host, cc)

    def test_hit_miss_accounting(self, identifier):
        before = identifier.cache_info()
        identifier.classify("ad.doubleclick.net", "TH")
        identifier.classify("ad.doubleclick.net", "TH")
        after = identifier.cache_info()
        assert after.misses - before.misses == 1
        assert after.hits - before.hits == 1

    def test_countries_without_regional_list_share_entries(self, identifier):
        identifier.classify("ad.doubleclick.net", "TH")
        before = identifier.cache_info()
        # JP has no regional list either -> same cache key as TH.
        identifier.classify("ad.doubleclick.net", "JP")
        after = identifier.cache_info()
        assert after.hits - before.hits == 1
        assert after.misses == before.misses

    def test_regional_country_gets_own_entry(self, identifier):
        identifier.classify("ads.admobi.in", "TH")
        before = identifier.cache_info()
        identifier.classify("ads.admobi.in", "IN")  # regional list exists
        after = identifier.cache_info()
        assert after.misses - before.misses == 1
        # And the verdicts genuinely differ across that key split.
        assert identifier.classify("ads.admobi.in", "IN").is_tracker
        assert not identifier.classify("ads.admobi.in", "TH").is_tracker

    def test_identifier_pickles_with_cache(self, identifier):
        verdict = identifier.classify("ad.doubleclick.net", "TH")
        restored = pickle.loads(pickle.dumps(identifier))
        assert restored.classify("ad.doubleclick.net", "TH") == verdict
        # The memo travelled: the first lookup after unpickling is a hit.
        info = restored.cache_info()
        assert info.hits >= 1

    @settings(max_examples=60, deadline=None)
    @given(_hostname(), st.sampled_from([None, "IN", "TH", "JP"]))
    def test_property_cached_equals_uncached(self, host, cc):
        directory = OrganizationDirectory([
            OrgEntry("Ads", "US", ("ads.example",), is_tracker=True),
        ])
        fresh = TrackerIdentifier(
            FilterSet([FilterList.parse("l", "||doubleclick.net^\ntrack.example.\n")]),
            {"IN": FilterSet([FilterList.parse("r", "||metrics.example^\n")])},
            directory,
        )
        assert fresh.classify(host, cc) == fresh.classify_uncached(host, cc)
