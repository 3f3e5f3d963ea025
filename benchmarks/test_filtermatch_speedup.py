"""Filter-list matching: naive scan vs the indexed engine.

Generates an EasyList-scale synthetic ABP list (tens of thousands of
``||domain^`` rules plus fragment and exception rules — the shape
WhoTracks.Me-style deployments report), then measures host-match
throughput for the naive O(rules) scan against the suffix/fragment
index, and the memoised verdict cache's hit rate over a repeating host
stream like the one a per-country study produces.

Emits ``BENCH_filtermatch.json`` at the repo root (uploaded as a CI
artifact) — the first entry of the benchmark trajectory.  Set
``BENCH_REPORT_ONLY=1`` to record numbers without asserting the
speedup floor (CI does, to stay robust on noisy shared runners).
"""

from __future__ import annotations

import json
import os
import random
import time
from functools import partial
from pathlib import Path

from repro.core.trackers.filterlist import FilterList, FilterSet
from repro.core.trackers.identify import TrackerIdentifier
from benchmarks._emit import emit, record_history
from tests.filter_oracle import match_naive

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_filtermatch.json"

#: EasyList-scale: EasyList+EasyPrivacy carry tens of thousands of
#: network rules; 20k domain rules keeps the naive scan measurable.
DOMAIN_RULES = 20_000
FRAGMENT_RULES = 400
EXCEPTION_RULES = 300

#: Matching workload: unique hosts probed against the list.
PROBE_HOSTS = 4_000
#: The naive scan is ~3 orders slower; sample it and scale ops/sec.
NAIVE_SAMPLE = 60

SPEEDUP_FLOOR = 10.0


def _synthetic_easylist(rng: random.Random) -> FilterSet:
    tlds = ["com", "net", "org", "io", "co.uk", "in"]
    lines = ["[Adblock Plus 2.0]", "! Title: EasyList-scale synthetic"]
    for i in range(DOMAIN_RULES):
        option = "$third-party" if i % 3 == 0 else ""
        lines.append(f"||ad{i}.tracker{i % 977}.{tlds[i % len(tlds)]}^{option}")
    for i in range(FRAGMENT_RULES):
        lines.append(f"pixel{i}.metrics.")
    for i in range(EXCEPTION_RULES):
        if i % 2:
            lines.append(f"@@||allow{i}.tracker{i % 977}.com^")
        else:
            lines.append(f"@@optout{i}.safe.")
    body = lines[2:]
    rng.shuffle(body)  # interleave exceptions with blocks, like real lists
    return FilterSet([FilterList.parse("easylist-scale", "\n".join(lines[:2] + body))])


def _probe_hosts(rng: random.Random) -> list:
    hosts = []
    for _ in range(PROBE_HOSTS):
        roll = rng.random()
        i = rng.randrange(DOMAIN_RULES)
        if roll < 0.4:  # listed tracker (often via a subdomain)
            tld = ["com", "net", "org", "io", "co.uk", "in"][i % 6]
            prefix = rng.choice(["", "cdn.", "stats.g."])
            hosts.append(f"{prefix}ad{i}.tracker{i % 977}.{tld}")
        elif roll < 0.5:  # fragment hit
            hosts.append(f"x.pixel{rng.randrange(FRAGMENT_RULES)}.metrics.example")
        elif roll < 0.55:  # excepted host
            hosts.append(f"allow{rng.randrange(1, EXCEPTION_RULES, 2)}.tracker1.com")
        else:  # innocent miss — the common case in real traffic
            hosts.append(f"www.site{i}.example")
    return hosts


def _ops_per_sec(fn, hosts) -> float:
    started = time.perf_counter()
    for host in hosts:
        fn(host)
    elapsed = time.perf_counter() - started
    return len(hosts) / elapsed if elapsed > 0 else float("inf")


def test_filtermatch_speedup():
    rng = random.Random(20250806)
    fset = _synthetic_easylist(rng)
    hosts = _probe_hosts(rng)

    # Correctness first: the two engines must agree on a seeded sample.
    sample = rng.sample(hosts, NAIVE_SAMPLE)
    for host in sample:
        assert fset.match(host) == match_naive(fset, host), host

    _ = fset.index  # build outside the timed region
    indexed_ops = _ops_per_sec(fset.match, hosts)
    naive_ops = _ops_per_sec(partial(match_naive, fset), sample)
    speedup = indexed_ops / naive_ops

    # Verdict-cache behaviour over a study-like stream: ~100 sites
    # requesting from a shared pool of third-party hosts.
    identifier = TrackerIdentifier(fset)
    pool = rng.sample(hosts, 400)
    stream = [rng.choice(pool) for _ in range(8_000)]
    cache_started = time.perf_counter()
    for host in stream:
        identifier.classify(host, "TH")
    cache_seconds = time.perf_counter() - cache_started
    info = identifier.cache_info()

    payload = {
        "bench": "filtermatch",
        "list": {
            "domain_rules": DOMAIN_RULES,
            "fragment_rules": FRAGMENT_RULES,
            "exception_rules": EXCEPTION_RULES,
        },
        "probe_hosts": len(hosts),
        "naive_ops_per_sec": round(naive_ops, 1),
        "indexed_ops_per_sec": round(indexed_ops, 1),
        "speedup": round(speedup, 1),
        "verdict_cache": {
            "lookups": info.lookups,
            "hits": info.hits,
            "misses": info.misses,
            "hit_rate": round(info.hit_rate, 4),
            "classified_ops_per_sec": round(len(stream) / cache_seconds, 1),
        },
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    record_history("filtermatch", payload)

    emit(
        "Filter-list matching: naive scan vs indexed engine",
        "\n".join([
            f"rules: {DOMAIN_RULES} domain + {FRAGMENT_RULES} fragment "
            f"+ {EXCEPTION_RULES} exception",
            f"{'engine':<12} {'ops/sec':>14}",
            f"{'naive':<12} {naive_ops:>14,.0f}",
            f"{'indexed':<12} {indexed_ops:>14,.0f}",
            f"speedup: {speedup:,.0f}x   (floor: {SPEEDUP_FLOOR}x)",
            "",
            f"verdict cache: {info.hits} hits / {info.misses} misses "
            f"({100 * info.hit_rate:.1f}% hit rate) over {len(stream)} lookups",
            f"written: {BENCH_PATH.name}",
        ]),
    )

    assert BENCH_PATH.exists()
    if os.environ.get("BENCH_REPORT_ONLY") != "1":
        assert speedup >= SPEEDUP_FLOOR, (
            f"indexed engine only {speedup:.1f}x over naive (floor {SPEEDUP_FLOOR}x)"
        )
        # The study-like stream must be cache-dominated.
        assert info.hit_rate > 0.9
