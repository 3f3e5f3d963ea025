"""Confidence scoring: study overhead of the annotation layer.

Confidence scoring (:mod:`repro.core.geoloc.confidence`) is a pure
annotation layer over each country's verdicts: per verdict it gathers
margin ratios, cross-vantage consistency votes and rDNS hints
(``gather_inputs``) and maps them to a calibrated score
(``combine_score``).  This benchmark measures the end-to-end study cost
of turning ``--confidence`` on (gather + combine + journal events) on a
single-country study; the ceiling keeps annotation a modest fraction of
the run.

Emits ``BENCH_confidence.json`` at the repo root (uploaded as a CI
artifact).  Set ``BENCH_REPORT_ONLY=1`` to record numbers without
asserting the ceiling (CI does, to stay robust on noisy shared runners).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro import StudyConfig, run_study
from repro.core.geoloc.pipeline import PipelineConfig
from benchmarks._emit import emit, record_history

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_confidence.json"

#: Ceiling on the relative study cost of ``--confidence`` (skipped
#: under BENCH_REPORT_ONLY=1).  Measured ~0.28 on a single-country
#: study; the slack absorbs runner noise without letting the
#: annotation layer quietly grow into a second analysis phase.
CONFIDENCE_OVERHEAD_CEILING = 0.75


def _study_seconds(scenario, confidence: bool) -> float:
    outcome = run_study(
        scenario,
        countries=["CA"],
        config=StudyConfig(pipeline=PipelineConfig(confidence=confidence)),
    )
    return outcome.metrics.aggregate_seconds


def test_confidence_overhead(scenario):
    off_seconds = _study_seconds(scenario, confidence=False)
    on_seconds = _study_seconds(scenario, confidence=True)
    overhead = (on_seconds - off_seconds) / off_seconds if off_seconds else 0.0

    payload = {
        "bench": "confidence",
        "study": {
            "countries": ["CA"],
            "confidence_off_seconds": round(off_seconds, 4),
            "confidence_on_seconds": round(on_seconds, 4),
            "overhead_ratio": round(overhead, 4),
            "ceiling": CONFIDENCE_OVERHEAD_CEILING,
        },
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    record_history("confidence", payload)

    emit(
        "Confidence scoring: study overhead of --confidence",
        "\n".join([
            f"study overhead (--confidence on vs off): "
            f"{100 * overhead:+.1f}% "
            f"({off_seconds:.3f}s -> {on_seconds:.3f}s, "
            f"ceiling: {100 * CONFIDENCE_OVERHEAD_CEILING:.0f}%)",
            f"written: {BENCH_PATH.name}",
        ]),
    )

    assert BENCH_PATH.exists()
    if os.environ.get("BENCH_REPORT_ONLY") != "1":
        assert overhead <= CONFIDENCE_OVERHEAD_CEILING, (
            f"--confidence costs {100 * overhead:.0f}% extra study time "
            f"(ceiling {100 * CONFIDENCE_OVERHEAD_CEILING:.0f}%)"
        )
