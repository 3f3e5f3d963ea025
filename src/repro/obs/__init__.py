"""Structured run observability: spans, events, and the run journal.

``repro.obs`` is the tracing + metrics substrate of the study pipeline.
A :class:`Tracer` buffers hierarchical **spans** (study → country →
phase → site) and typed **events** (constraint decisions, tracker match
attributions, site visits) as plain picklable dicts, so per-country
buffers recorded inside process-pool workers ship back to the
coordinator with the :class:`~repro.exec.worker.CountryRun` and merge
deterministically — in input country order — into one
:class:`RunJournal`, an append-only JSONL stream.

The journal is deterministic modulo timing/runtime fields:
:func:`strip_timings` removes wall-clock durations and
environment-dependent diagnostics, after which the byte stream is
identical for every backend and worker count (locked down by
``tests/test_trace_determinism.py``).  Journals are measurement
artefacts, not study artefacts — they never enter
:class:`~repro.core.analysis.summary.StudySummary` or exported bundles.

See ``docs/observability.md`` for the event taxonomy and schema.
"""

from repro.obs.journal import (
    DIAGNOSTIC_EVENTS,
    RUN_ENV_FIELDS,
    SCHEMA_VERSION,
    TIMING_FIELDS,
    RunJournal,
    strip_timings,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    merge_snapshots,
    strip_runtime,
)
from repro.obs.profiling import ResourceProfiler, maybe_phase
from repro.obs.progress import ProgressReporter
from repro.obs.render import render_faults, render_journal
from repro.obs.schema import validate_journal, validate_record
from repro.obs.tracer import Tracer, maybe_span

__all__ = [
    "Counter",
    "DIAGNOSTIC_EVENTS",
    "Gauge",
    "MetricsRegistry",
    "ProgressReporter",
    "RUN_ENV_FIELDS",
    "ResourceProfiler",
    "RunJournal",
    "SCHEMA_VERSION",
    "TIMING_FIELDS",
    "Tracer",
    "maybe_phase",
    "maybe_span",
    "merge_snapshots",
    "render_faults",
    "render_journal",
    "strip_runtime",
    "strip_timings",
    "validate_journal",
    "validate_record",
]
