"""Unit tests for the observability substrate (``repro.obs``).

Covers the tracer's span/event mechanics, the journal's canonical
assembly and timing-strip contract, the per-line event schema, the
renderers, and the ExecMetrics satellites that ride along, read from
merged per-country registry deltas: the exact ``aggregate_seconds``
invariant, the phase-share render column, and the cache-delta merge.
"""

from __future__ import annotations

import json

import pytest

from repro.exec.metrics import ExecMetrics, close_country, observe_phase, record_wall
from repro.obs import (
    RunJournal,
    Tracer,
    maybe_span,
    render_journal,
    strip_timings,
    validate_journal,
    validate_record,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.render import render_funnel


class TestTracer:
    def test_span_paths_nest_under_root(self):
        tracer = Tracer(root="study")
        with tracer.span("country", "CA"):
            with tracer.span("phase", "gamma"):
                tracer.event("site_visit", url="a.ca", category="regional", loaded=True)
        spans = {r["span"]: r for r in tracer.events() if r["ev"] == "span"}
        assert set(spans) == {"study/CA", "study/CA/gamma"}
        assert spans["study/CA/gamma"]["parent"] == "study/CA"
        assert spans["study/CA"]["parent"] == "study"

    def test_spans_close_post_order(self):
        tracer = Tracer()
        with tracer.span("country", "outer"):
            with tracer.span("phase", "inner"):
                pass
        names = [r["name"] for r in tracer.events()]
        assert names == ["inner", "outer"]

    def test_events_attach_to_current_span(self):
        tracer = Tracer(root="study")
        with tracer.span("country", "NZ"):
            tracer.event("tracker_match", host="t.example", method="global_list")
        (event,) = [r for r in tracer.events() if r["ev"] == "tracker_match"]
        assert event["span"] == "study/NZ"
        assert event["host"] == "t.example"

    def test_spans_carry_timings(self):
        tracer = Tracer()
        with tracer.span("phase", "work"):
            pass
        (span,) = tracer.events()
        assert span["dur"] >= 0.0
        assert span["t"] >= 0.0

    def test_buffer_is_plain_json(self):
        tracer = Tracer(root="study")
        with tracer.span("country", "CA", origin="volunteer"):
            tracer.event("site_traceroutes", url="x.ca", attempted=2, reached=1)
        json.loads(json.dumps(tracer.events()))  # round-trips losslessly

    def test_maybe_span_is_noop_without_tracer(self):
        with maybe_span(None, "phase", "anything"):
            pass  # no error, nothing recorded anywhere


class TestJournal:
    def _journal(self) -> RunJournal:
        run = {"ev": "run", "schema": 1, "countries": ["CA"], "backend": "serial",
               "jobs": 1}
        buffer = [
            {"ev": "span", "kind": "country", "name": "CA", "span": "study/CA",
             "parent": "study", "t": 0.0, "dur": 1.0},
            {"ev": "country_resumed", "span": "study/CA", "t": 1.0,
             "country": "CA"},
        ]
        tail = [{"ev": "span", "kind": "study", "name": "study", "span": "study",
                 "parent": "", "t": 0.0, "dur": 1.5}]
        return RunJournal.assemble(run, [buffer], tail)

    def test_assemble_orders_run_buffers_tail(self):
        journal = self._journal()
        assert [r["ev"] for r in journal] == ["run", "span", "country_resumed", "span"]
        assert journal.run_record["backend"] == "serial"

    def test_strip_removes_timings_env_and_diagnostics(self):
        stripped = strip_timings(self._journal().records)
        assert [r["ev"] for r in stripped] == ["run", "span", "span"]
        for record in stripped:
            assert "t" not in record and "dur" not in record
        run = stripped[0]
        for key in ("backend", "jobs"):
            assert key not in run
        assert run["countries"] == ["CA"]

    def test_write_read_roundtrip(self, tmp_path):
        journal = self._journal()
        path = journal.write(tmp_path / "run.jsonl")
        assert RunJournal.read(path).records == journal.records

    def test_no_timings_write_equals_stripped_bytes(self, tmp_path):
        journal = self._journal()
        assert journal.dumps(timings=False) == RunJournal(
            strip_timings(journal.records)
        ).dumps()

    def test_lines_are_compact_sorted_json(self):
        line = next(iter(self._journal().lines()))
        assert line == json.dumps(json.loads(line), sort_keys=True,
                                  separators=(",", ":"))

    def test_read_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ev": "run"}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            RunJournal.read(path)

    def test_filters(self):
        journal = self._journal()
        assert len(journal.events("country_resumed")) == 1
        assert len(journal.spans("country")) == 1
        assert len(journal.spans()) == 2


class TestSchema:
    def test_valid_records_pass(self):
        assert validate_record({"ev": "run", "schema": 1, "countries": []}) == []
        assert validate_record({
            "ev": "geoloc_decision", "span": "study/CA/geoloc", "t": 0.1,
            "address": "1.2.3.4", "hosts": ["a"], "weight": 2,
            "status": "local", "claim_country": "CA", "discarded_by": None,
            "checks": [],
        }) == []

    def test_unknown_event_type_flagged(self):
        assert validate_record({"ev": "mystery"}, lineno=7) == [
            "line 7: unknown event type 'mystery'"
        ]

    def test_missing_required_field_flagged(self):
        problems = validate_record({"ev": "tracker_match", "host": "x"})
        assert any("method" in p for p in problems)

    def test_bool_not_accepted_as_int(self):
        problems = validate_record(
            {"ev": "site_traceroutes", "url": "u", "attempted": True, "reached": 0}
        )
        assert any("attempted" in p for p in problems)

    def test_undeclared_field_flagged(self):
        problems = validate_record({"ev": "site_traceroutes", "url": "u", "attempted": 1,
                                    "reached": 0, "surprise": 1})
        assert any("surprise" in p for p in problems)

    def test_failure_records_carry_no_attempt_count(self):
        failed = {"ev": "country_failed", "span": "study/NZ", "country": "NZ",
                  "error": "InjectedFaultError: injected fault: NZ"}
        assert validate_record(failed) == []
        assert validate_record({**failed, "attempts": 1}) == [
            "record (country_failed): undeclared field 'attempts'"
        ]
        assert validate_record({"ev": "country_retry", "country": "NZ"}) == [
            "record: unknown event type 'country_retry'"
        ]

    def test_journal_must_start_with_run_record(self):
        records = [{"ev": "site_traceroutes", "url": "u", "attempted": 1, "reached": 0}]
        assert any("must start" in p for p in validate_journal(records))

    def test_unknown_span_kind_flagged(self):
        problems = validate_record({"ev": "span", "kind": "galaxy", "name": "n",
                                    "span": "n", "parent": ""})
        assert any("galaxy" in p for p in problems)

    def test_progress_and_wall_seconds_are_not_journal_fields(self):
        # A country's completion is its ``country`` span and the run's
        # wall time the ``study`` span's ``dur``; journals that restate
        # them no longer validate.
        progress = {"ev": "progress", "span": "study", "country": "CA",
                    "done": 1, "total": 1}
        assert validate_record(progress) == ["record: unknown event type 'progress'"]
        run = {"ev": "run", "schema": 1, "countries": ["CA"], "wall_seconds": 1.5}
        assert validate_record(run) == ["record (run): undeclared field 'wall_seconds'"]


class TestRenderers:
    @staticmethod
    def _funnel(country, **stages):
        return {"ev": "country_funnel", "span": f"study/{country}/geoloc",
                "country": country, "funnel": stages}

    def test_funnel_drilldown_prints_country_funnel_events(self):
        # The pipeline's own counts, sorted by country and summed: the
        # decision events are not recounted (this one disagrees).
        journal = RunJournal([
            {"ev": "run", "schema": 1, "countries": ["NZ", "CA"]},
            {"ev": "geoloc_decision", "span": "study/NZ/geoloc", "address": "9.9.9.9",
             "hosts": ["h"], "weight": 99, "status": "local"},
            self._funnel("NZ", total_hosts=11, unlocated=1, local=3,
                         nonlocal_candidates=7, discarded_source=2,
                         discarded_destination=0, discarded_rdns=1,
                         verified_nonlocal=4, destination_traceroutes=5),
            self._funnel("CA", total_hosts=2, unlocated=0, local=2,
                         nonlocal_candidates=0, discarded_source=0,
                         discarded_destination=0, discarded_rdns=0,
                         verified_nonlocal=0, destination_traceroutes=0),
        ])
        assert render_funnel(journal).splitlines() == [
            "funnel drill-down (host observations):",
            "  country    total  unloc  local nonlocal   -src   -dst  -rdns verified",
            "  CA             2      0      2        0      0      0      0        0",
            "  NZ            11      1      3        7      2      0      1        4",
            "  ALL           13      1      5        7      2      0      1        4",
        ]

    def test_funnel_drilldown_without_countries_prints_zero_total(self):
        journal = RunJournal([{"ev": "run", "schema": 1, "countries": []}])
        assert render_funnel(journal).splitlines()[-1] == (
            "  ALL            0      0      0        0      0      0      0        0"
        )

    def test_headline_wall_is_the_study_span(self):
        journal = RunJournal([
            {"ev": "run", "schema": 1, "countries": ["CA"], "backend": "serial",
             "jobs": 1},
            {"ev": "span", "kind": "study", "name": "study", "span": "study",
             "parent": "", "t": 0.0, "dur": 0.5},
        ])
        assert render_journal(journal).splitlines()[1] == "backend=serial jobs=1 wall=0.50s"

    def test_render_journal_handles_stripped_journal(self):
        journal = RunJournal(strip_timings([
            {"ev": "run", "schema": 1, "countries": ["CA"], "backend": "serial",
             "jobs": 1},
            {"ev": "span", "kind": "study", "name": "study", "span": "study",
             "parent": "", "t": 0.0, "dur": 0.5},
        ]))
        text = render_journal(journal)
        assert "run journal" in text
        assert "backend=" not in text and "wall=" not in text  # env and timings stripped
        assert "no site timings" in text


def _country_delta(code, phases, cpu_seconds=0.0, caches=None):
    """One country's worker registry snapshot, as a ``StudyWorker`` ships it."""
    registry = MetricsRegistry()
    for phase, seconds in phases.items():
        observe_phase(registry, phase, seconds)
    close_country(registry, code, cpu_seconds, caches or {})
    return registry.snapshot()


def _exec_metrics(deltas, wall_seconds=0.0, **kwargs):
    """The coordinator's merge: deltas in order, then the wall time."""
    registry = MetricsRegistry()
    for delta in deltas:
        registry.merge_snapshot(delta)
    if wall_seconds:
        record_wall(registry, wall_seconds)
    return ExecMetrics(registry=registry, **kwargs)


class TestExecMetricsSatellites:
    def test_aggregate_equals_sum_of_country_seconds_exactly(self):
        # Values chosen to make naive float accumulation drift.
        metrics = _exec_metrics(
            _country_delta(code, {"gamma": seconds})
            for code, seconds in [("AA", 0.1), ("BB", 0.2), ("CC", 0.30000007),
                                  ("DD", 1e-7), ("EE", 123.4567891)]
        )
        assert list(metrics.country_seconds) == ["AA", "BB", "CC", "DD", "EE"]
        assert sum(metrics.country_seconds.values()) == metrics.aggregate_seconds

    def test_country_seconds_rounded_to_6_places(self):
        metrics = _exec_metrics([_country_delta("AA", {"gamma": 0.123456789})])
        assert metrics.country_seconds["AA"] == 0.123457
        assert metrics.aggregate_seconds == 0.123457
        # The phase itself keeps its unrounded seconds.
        assert metrics.phase_seconds["gamma"] == 0.123456789

    def test_render_has_phase_share_and_speedup(self):
        metrics = _exec_metrics(
            [_country_delta("AA", {"gamma": 3.0, "join": 1.0}, cpu_seconds=3.0)],
            wall_seconds=2.0, backend="process", jobs=2,
        )
        text = metrics.render()
        # Speedup is country CPU over fan-out wall, not summed wall time.
        assert "speedup=1.50x" in text
        assert "gamma" in text and "75.0%" in text
        assert "join" in text and "25.0%" in text

    def test_render_with_zero_aggregate_does_not_divide(self):
        metrics = _exec_metrics([_country_delta("AA", {"gamma": 0.0})])
        assert metrics.aggregate_seconds == 0.0
        assert "0.0%" in metrics.render()
        assert "speedup=1.00x" in metrics.render()  # no wall time recorded

    def test_cache_deltas_add_and_size_takes_the_max(self):
        metrics = _exec_metrics([
            _country_delta("AA", {}, caches={"c": {"hits": 10, "misses": 5, "size": 4}}),
            _country_delta("BB", {}, caches={"c": {"hits": 3, "misses": 2, "size": 9}}),
            _country_delta("CC", {}, caches={
                "c": {"hits": 1, "misses": 0, "size": 2},
                "fresh": {"hits": 7, "misses": 7, "size": 7},
            }),
        ], backend="process", jobs=2)
        c = metrics.cache_infos["c"]
        assert (c["hits"], c["misses"]) == (14, 7)
        assert c["size"] == 9  # max population seen after any one country
        assert c["hit_rate"] == round(14 / 21, 4)
        fresh = metrics.cache_infos["fresh"]
        assert (fresh["hits"], fresh["misses"]) == (7, 7)
