"""ABP filter-list parsing and host matching."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.trackers.filterlist import (
    FilterList,
    FilterSet,
    RuleKind,
    parse_filter_text,
)
from tests.filter_oracle import block_match

SAMPLE = """[Adblock Plus 2.0]
! Title: test list
||doubleclick.net^
||google-analytics.com^$third-party
@@||allowlisted.net^
/banner/ads/*
##.ad-box
#@#.not-an-ad
||tracker.example^$script,third-party
bad-pattern-no-domain
"""


class TestParsing:
    def test_counts_by_kind(self):
        rules = parse_filter_text(SAMPLE)
        kinds = [r.kind for r in rules]
        assert kinds.count(RuleKind.HEADER) == 1
        assert kinds.count(RuleKind.COMMENT) == 1
        assert kinds.count(RuleKind.DOMAIN_BLOCK) == 3
        assert kinds.count(RuleKind.DOMAIN_EXCEPTION) == 1
        assert kinds.count(RuleKind.ELEMENT_HIDING) == 2
        assert kinds.count(RuleKind.SUBSTRING) == 2

    def test_options_parsed(self):
        rules = [r for r in parse_filter_text(SAMPLE) if r.domain == "tracker.example"]
        assert rules[0].options == ("script", "third-party")

    def test_blank_lines_skipped(self):
        assert parse_filter_text("\n\n\n") == []

    def test_domain_normalised(self):
        (rule,) = parse_filter_text("||EXAMPLE.COM^")
        assert rule.domain == "example.com"

    def test_exception_flag(self):
        (rule,) = parse_filter_text("@@||ok.example^")
        assert rule.kind == RuleKind.DOMAIN_EXCEPTION

    def test_exception_without_anchor_is_substring_exception(self):
        # Regression: these used to parse as DOMAIN_EXCEPTION with
        # domain=None and explode in matches_host.
        (rule,) = parse_filter_text("@@/telemetry/opt-out/*")
        assert rule.kind == RuleKind.SUBSTRING_EXCEPTION
        assert rule.domain is None
        assert rule.pattern == "/telemetry/opt-out/*"
        assert not rule.matches_host("telemetry.example.com")  # no AssertionError

    def test_exception_fragment_matches_hosts(self):
        (rule,) = parse_filter_text("@@optout.example.")
        assert rule.kind == RuleKind.SUBSTRING_EXCEPTION
        assert rule.is_exception
        assert rule.matches_host("a.optout.example.net")
        assert not rule.matches_host("other.example.net")

    def test_domain_rule_with_path_falls_back_to_substring(self):
        # Regression: ``||example.com/ads^`` used to become a DOMAIN_BLOCK
        # whose "domain" contained a slash.  The hostname part of a
        # path-anchored rule ends at the first "/": the rule targets URLs,
        # so it is kept as a substring rule that never matches bare hosts.
        (rule,) = parse_filter_text("||example.com/ads^")
        assert rule.kind == RuleKind.SUBSTRING
        assert rule.domain is None
        assert not rule.matches_host("example.com")
        assert not rule.matches_host("ads.example.com")

    def test_domain_exception_with_path_falls_back(self):
        (rule,) = parse_filter_text("@@||example.com/ads^")
        assert rule.kind == RuleKind.SUBSTRING_EXCEPTION
        assert not rule.matches_host("example.com")

    def test_interior_separator_is_not_a_domain_rule(self):
        (rule,) = parse_filter_text("||ads.example^script^")
        assert rule.kind == RuleKind.SUBSTRING

    def test_trailing_slash_still_domain_rule(self):
        (rule,) = parse_filter_text("||example.com/")
        assert rule.kind == RuleKind.DOMAIN_BLOCK
        assert rule.domain == "example.com"


class TestRuleMatching:
    def test_domain_block_matches_subdomains(self):
        (rule,) = parse_filter_text("||doubleclick.net^")
        assert rule.matches_host("stats.g.doubleclick.net")
        assert rule.matches_host("doubleclick.net")
        assert not rule.matches_host("notdoubleclick.net")

    def test_fqdn_entry_matches_only_that_branch(self):
        (rule,) = parse_filter_text("||analytics.yahoo.com^")
        assert rule.matches_host("analytics.yahoo.com")
        assert rule.matches_host("px.analytics.yahoo.com")
        assert not rule.matches_host("www.yahoo.com")

    def test_substring_domain_fragment(self):
        (rule,) = parse_filter_text("adserver.example.")
        assert rule.kind == RuleKind.SUBSTRING
        assert rule.matches_host("cdn.adserver.example.net")

    def test_path_substring_never_matches_hosts(self):
        (rule,) = parse_filter_text("/banner/ads/*")
        assert not rule.matches_host("banner.example.com")

    def test_element_hiding_never_matches(self):
        rules = parse_filter_text("##.ad-box")
        assert not rules[0].matches_host("ad-box.example.com")


class TestFilterList:
    def test_block_match(self):
        flist = FilterList.parse("test", SAMPLE)
        match = block_match(flist, "ad.doubleclick.net")
        assert match is not None and match.domain == "doubleclick.net"

    def test_exception_suppresses(self):
        text = "||allowlisted.net^\n@@||allowlisted.net^\n"
        flist = FilterList.parse("test", text)
        assert block_match(flist, "x.allowlisted.net") is None

    def test_substring_exception_suppresses(self):
        text = "||telemetry.example.net^\n@@telemetry.example.\n"
        flist = FilterList.parse("test", text)
        assert block_match(flist, "telemetry.example.net") is None

    def test_no_match(self):
        flist = FilterList.parse("test", SAMPLE)
        assert block_match(flist, "innocent.example.org") is None

    def test_network_rules_property(self):
        flist = FilterList.parse("test", SAMPLE)
        assert all(r.is_network_rule for r in flist.network_rules)
        assert len(flist.network_rules) == 6


class TestFilterSet:
    def test_first_list_wins_attribution(self):
        easylist = FilterList.parse("easylist", "||ads.example^\n")
        easyprivacy = FilterList.parse("easyprivacy", "||ads.example^\n||track.example^\n")
        fset = FilterSet([easylist, easyprivacy])
        assert fset.match("x.ads.example").list_name == "easylist"
        assert fset.match("x.track.example").list_name == "easyprivacy"

    def test_cross_list_exception(self):
        blocker = FilterList.parse("a", "||cdn.example^\n")
        excepter = FilterList.parse("b", "@@||cdn.example^\n")
        fset = FilterSet([blocker, excepter])
        assert fset.match("x.cdn.example") is None

    def test_no_lists_no_match(self):
        assert FilterSet().match("anything.example") is None

    def test_add_and_names(self):
        fset = FilterSet()
        fset.add(FilterList.parse("x", ""))
        assert fset.list_names == ["x"]
        assert len(fset) == 1


_domain = st.from_regex(r"[a-z]{3,10}\.(com|net|org)", fullmatch=True)


class TestProperties:
    @given(_domain)
    def test_block_rule_always_matches_own_domain(self, domain):
        flist = FilterList.parse("t", f"||{domain}^\n")
        assert block_match(flist, domain) is not None
        assert block_match(flist, f"sub.{domain}") is not None

    @given(_domain, _domain)
    def test_exception_beats_block(self, d1, d2):
        text = f"||{d1}^\n@@||{d1}^\n||{d2}^\n"
        flist = FilterList.parse("t", text)
        assert block_match(flist, d1) is None
