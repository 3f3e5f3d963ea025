"""Probe layer: render → parse round trip vs direct normalisation.

The traceroute portability layer historically produced every
``NormalizedTraceroute`` by rendering the structured trace into OS-native
text (``traceroute`` / ``tracert``) and re-parsing it.  The direct
normaliser (:mod:`repro.core.gamma.normalize`) constructs the identical
record straight from the structured result; the round trip survives as
the correctness oracle in ``tests/trace_oracle.py``.

Two measurements:

* **Microbench** — traces/sec through the naive round trip (probes
  stripped so the samples are re-derived in the renderer, exactly the
  historical code path) vs the direct normaliser, in both text formats.
* **Caches** — the ``gamma.traces`` / ``atlas.dest_traces`` memo hit
  rates of a single-country study run with the defaults.

Emits ``BENCH_probe.json`` at the repo root (uploaded as a CI
artifact).  Set ``BENCH_REPORT_ONLY=1`` to record numbers without
asserting the speedup floors (CI does, to stay robust on noisy shared
runners).
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from pathlib import Path

from repro import StudyConfig, run_study
from repro.atlas.measurements import DEST_TRACE_CACHE_NAME
from repro.core.gamma.normalize import normalize_direct
from repro.core.gamma.probes import TRACE_CACHE_NAME
from benchmarks._emit import emit, record_history
from tests.trace_oracle import parse_traceroute_output, render_linux, render_windows

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_probe.json"

#: Microbench workload: traces synthesised once, normalised repeatedly.
TRACE_NETWORKS = 50
TRACES_PER_NETWORK = 8
TIMING_REPEATS = 5

#: Floor (skipped under BENCH_REPORT_ONLY=1), asserted on the
#: mixed-format microbench headline.
MICRO_SPEEDUP_FLOOR = 10.0

_RENDERERS = {"linux": render_linux, "windows": render_windows}


def _bench_traces(scenario):
    """A study-shaped trace corpus from one volunteer city."""
    world = scenario.world
    engine = world.traceroute
    city = world.geo.city("Toronto, CA")
    targets = [
        str(network.address(i))
        for network in list(world.ips)[:TRACE_NETWORKS]
        for i in range(1, TRACES_PER_NETWORK + 1)
    ]
    return [engine.trace(city, t, f"bench:{i}") for i, t in enumerate(targets)]


def _strip_probes(traces):
    """Drop the eager probe samples — the renderer then re-derives them,
    which is exactly what the pre-fast-path code did on every trace."""
    return [
        dataclasses.replace(
            trace,
            hops=[dataclasses.replace(hop, probes=None) for hop in trace.hops],
        )
        for trace in traces
    ]


def _best_rate(fn, items) -> float:
    """Best-of-N traces/sec — robust against scheduler noise."""
    best = 0.0
    for _ in range(TIMING_REPEATS):
        started = time.perf_counter()
        for item in items:
            fn(item)
        elapsed = time.perf_counter() - started
        if elapsed > 0:
            best = max(best, len(items) / elapsed)
    return best


def _hit_rate(counters) -> float:
    total = counters["hits"] + counters["misses"]
    return counters["hits"] / total if total else 0.0


def test_probe_speedup(scenario):
    traces = _bench_traces(scenario)
    stripped = _strip_probes(traces)

    # Correctness before speed: direct output == round-trip output.
    for fmt, render in _RENDERERS.items():
        for trace in traces[:25]:
            assert normalize_direct(trace, fmt) == parse_traceroute_output(
                render(trace)
            ), (fmt, trace.target)

    per_format = {}
    for fmt, render in _RENDERERS.items():
        naive = _best_rate(lambda tr: parse_traceroute_output(render(tr)), stripped)
        direct = _best_rate(lambda tr: normalize_direct(tr, fmt), traces)
        per_format[fmt] = {
            "naive_traces_per_sec": round(naive, 1),
            "direct_traces_per_sec": round(direct, 1),
            "speedup": round(direct / naive, 1),
        }

    # Headline: the mixed-format workload a multi-OS study produces.
    count = 2 * len(traces)
    naive_seconds = sum(
        len(traces) / per_format[fmt]["naive_traces_per_sec"] for fmt in _RENDERERS
    )
    direct_seconds = sum(
        len(traces) / per_format[fmt]["direct_traces_per_sec"] for fmt in _RENDERERS
    )
    micro_naive = count / naive_seconds
    micro_direct = count / direct_seconds
    micro_speedup = micro_direct / micro_naive

    # A study's metrics count that study alone; report the second of
    # two (the one that meets the cross-run destination memo warm).
    for _ in range(2):
        outcome = run_study(scenario, countries=["CA"], config=StudyConfig())
    infos = outcome.metrics.cache_infos

    trace_cache = infos.get(TRACE_CACHE_NAME, {"hits": 0, "misses": 0})
    dest_cache = infos.get(DEST_TRACE_CACHE_NAME, {"hits": 0, "misses": 0})

    payload = {
        "bench": "probe",
        "microbench": {
            "traces": len(traces),
            "naive_traces_per_sec": round(micro_naive, 1),
            "direct_traces_per_sec": round(micro_direct, 1),
            "speedup": round(micro_speedup, 1),
            "per_format": per_format,
        },
        "caches": {
            TRACE_CACHE_NAME: {
                "hits": trace_cache["hits"],
                "misses": trace_cache["misses"],
                "hit_rate": round(_hit_rate(trace_cache), 4),
            },
            DEST_TRACE_CACHE_NAME: {
                "hits": dest_cache["hits"],
                "misses": dest_cache["misses"],
                "hit_rate": round(_hit_rate(dest_cache), 4),
            },
        },
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    record_history("probe", payload)

    rows = [
        f"{'format':<10} {'naive/s':>12} {'direct/s':>12} {'speedup':>9}",
    ]
    for fmt, numbers in per_format.items():
        rows.append(
            f"{fmt:<10} {numbers['naive_traces_per_sec']:>12,.0f} "
            f"{numbers['direct_traces_per_sec']:>12,.0f} "
            f"{numbers['speedup']:>8.1f}x"
        )
    rows.append(
        f"{'mixed':<10} {micro_naive:>12,.0f} {micro_direct:>12,.0f} "
        f"{micro_speedup:>8.1f}x   (floor: {MICRO_SPEEDUP_FLOOR}x)"
    )
    emit(
        "Probe layer: render->parse round trip vs direct normalisation",
        "\n".join(rows)
        + "\n\n"
        + "\n".join([
            f"{TRACE_CACHE_NAME}: {trace_cache['hits']} hits / "
            f"{trace_cache['misses']} misses "
            f"({100 * _hit_rate(trace_cache):.1f}% hit rate)",
            f"{DEST_TRACE_CACHE_NAME}: {dest_cache['hits']} hits / "
            f"{dest_cache['misses']} misses "
            f"({100 * _hit_rate(dest_cache):.1f}% hit rate)",
            f"written: {BENCH_PATH.name}",
        ]),
    )

    assert BENCH_PATH.exists()
    if os.environ.get("BENCH_REPORT_ONLY") != "1":
        assert micro_speedup >= MICRO_SPEEDUP_FLOOR, (
            f"direct normalisation only {micro_speedup:.1f}x over the round "
            f"trip (floor {MICRO_SPEEDUP_FLOOR}x)"
        )
        # The per-country memo must be doing real work on a study stream.
        assert _hit_rate(trace_cache) > 0.5
