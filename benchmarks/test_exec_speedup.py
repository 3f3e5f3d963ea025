"""Serial vs parallel study wall-clock (the repro.exec layer).

Report-only: the table below records measured wall times for each
backend on a >= 8-country world.  The only assertion is a non-flaking
sanity bound — the process backend must stay within 10 % of serial,
and only when the machine actually has spare cores to parallelise
onto.
"""

from __future__ import annotations

import os
import time

from repro import StudyConfig, run_study
from benchmarks._emit import emit, record_history

#: Eight countries spanning the interesting shapes: tracker-local,
#: foreign-heavy, Atlas fallbacks, traceroute opt-out, Global South.
SPEEDUP_COUNTRIES = ["CA", "NZ", "RW", "QA", "EG", "TH", "GB", "PK"]

PARALLEL_JOBS = 4


def _timed_run(scenario, config=None):
    started = time.perf_counter()
    outcome = run_study(scenario, countries=SPEEDUP_COUNTRIES, config=config)
    return time.perf_counter() - started, outcome


def test_exec_speedup(scenario):
    assert len(SPEEDUP_COUNTRIES) >= 8

    # Warm the process-wide memo caches so every backend sees equal state.
    warm_seconds, warm = _timed_run(scenario)

    serial_seconds, serial = _timed_run(scenario)
    process_seconds, processed = _timed_run(
        scenario, StudyConfig(jobs=PARALLEL_JOBS, backend="process")
    )

    rows = [
        ("serial (warm-up)", 1, warm_seconds, warm.metrics.speedup),
        ("serial", 1, serial_seconds, serial.metrics.speedup),
        ("process", PARALLEL_JOBS, process_seconds, processed.metrics.speedup),
    ]
    lines = [f"{len(SPEEDUP_COUNTRIES)} countries, {os.cpu_count()} CPU(s)", ""]
    lines.append(f"{'backend':<18} {'jobs':>4} {'wall s':>8} {'speedup':>8}")
    for name, jobs, seconds, speedup in rows:
        lines.append(f"{name:<18} {jobs:>4} {seconds:>8.2f} {speedup:>7.2f}x")
    emit("Parallel study execution: serial vs parallel wall-clock", "\n".join(lines))
    record_history("exec", {
        "countries": len(SPEEDUP_COUNTRIES),
        "serial": {"wall_seconds": round(serial_seconds, 4),
                   "speedup": serial.metrics.speedup},
        "process": {"wall_seconds": round(process_seconds, 4),
                    "speedup": processed.metrics.speedup},
    })

    # Both backends produced the same study (spot-check the cheap artefacts).
    assert serial.funnel() == processed.funnel()
    assert serial.source_trace_origins == processed.source_trace_origins

    # Processes only beat serial when there are cores to fan out onto;
    # on a single-core box the report above is the deliverable.
    if (os.cpu_count() or 1) >= 2 * PARALLEL_JOBS:
        assert process_seconds <= serial_seconds * 1.1

    # The internal accounting observed real parallelism: with N workers the
    # aggregate per-country time can never exceed N x the observed wall.
    assert processed.metrics.aggregate_seconds <= PARALLEL_JOBS * (
        processed.metrics.wall_seconds * 1.1
    )
