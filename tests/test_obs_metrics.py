"""Unit coverage for :mod:`repro.obs.metrics` and its consumers.

The registry's merge algebra is the load-bearing property: per-country
worker deltas merge at the coordinator, so merging must be associative
and commutative (completion order unobservable) — locked down here with
hypothesis over dyadic-rational amounts (``k/1024``), which float
addition handles exactly, so equality is exact rather than approximate.
The progress reporter and resource profiler are exercised against fake
clocks/streams; snapshot documents against their own validators.
"""

from __future__ import annotations

import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    METRICS_SCHEMA_VERSION,
    MetricsRegistry,
    diff_snapshots,
    load_snapshot,
    merge_snapshots,
    strip_runtime,
    validate_metrics_snapshot,
    validate_study_snapshot,
    write_snapshot,
)
from repro.obs.profiling import ResourceProfiler, maybe_phase
from repro.obs.progress import ProgressReporter


class TestRegistry:
    def test_counter_get_or_create_and_int_preservation(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits_total", {"cache": "x"})
        counter.inc()
        counter.inc(4)
        assert registry.counter("hits_total", {"cache": "x"}) is counter
        value = registry.value("hits_total", {"cache": "x"})
        assert value == 5 and isinstance(value, int)

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("n_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_and_inc(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("size")
        gauge.set(7)
        gauge.inc(3)
        assert registry.value("size") == 10

    def test_type_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("x_total")
        with pytest.raises(ValueError):
            registry.gauge("x_total")

    def test_missing_series_reads_none(self):
        registry = MetricsRegistry()
        registry.counter("x_total", {"a": "1"})
        assert registry.value("x_total", {"a": "2"}) is None
        assert registry.value("unknown_total") is None

    def test_snapshot_shape_and_sorting(self):
        registry = MetricsRegistry()
        registry.counter("z_total", {"b": "2"}).inc()
        registry.counter("z_total", {"a": "1"}).inc(2)
        registry.counter("a_total", help="first", runtime=True).inc()
        snapshot = registry.snapshot()
        assert list(snapshot["families"]) == ["a_total", "z_total"]
        assert snapshot["families"]["a_total"]["runtime"] is True
        assert "runtime" not in snapshot["families"]["z_total"]
        labels = [s["labels"] for s in snapshot["families"]["z_total"]["series"]]
        assert labels == [{"a": "1"}, {"b": "2"}]
        assert validate_metrics_snapshot(snapshot) == []

    def test_merge_counters_and_gauges(self):
        def build(counter, gauge):
            registry = MetricsRegistry()
            registry.counter("c_total").inc(counter)
            registry.gauge("g").set(gauge)
            return registry.snapshot()

        families = merge_snapshots([build(3, 5), build(4, 2)])["families"]
        assert families["c_total"]["series"][0]["value"] == 7
        assert families["g"]["series"][0]["value"] == 5  # gauges merge by max

    def test_registry_has_counters_and_gauges_only(self):
        assert not hasattr(MetricsRegistry(), "histogram")

    def test_strip_runtime(self):
        registry = MetricsRegistry()
        registry.counter("study_total").inc()
        registry.counter("wall_total", runtime=True).inc()
        stripped = strip_runtime(registry.snapshot())
        assert list(stripped["families"]) == ["study_total"]

    def test_schema_1_snapshot_is_rejected(self):
        # Schema 1 registries could hold histogram families; schema 2
        # holds counters and gauges only.
        snapshot = MetricsRegistry().snapshot()
        assert snapshot["schema"] == METRICS_SCHEMA_VERSION == 2
        snapshot["schema"] = 1
        assert validate_metrics_snapshot(snapshot) == ["schema must be 2"]


# Dyadic rationals: exactly representable, and bounded sums of them are
# too, so float addition is associative over this domain and merge
# equality can be exact.
dyadic = st.integers(min_value=0, max_value=1 << 20).map(lambda k: k / 1024)
FAMILIES = ("alpha_total", "beta_total", "gamma_total")
LABELS = ({"k": "a"}, {"k": "b"}, None)


def _registry_from(entries) -> dict:
    registry = MetricsRegistry()
    for kind, family, label_index, amount in entries:
        labels = LABELS[label_index]
        if kind == 0:
            registry.counter(family, labels).inc(amount)
        else:
            registry.gauge(family + "_g", labels).set(amount)
    return registry.snapshot()


snapshots = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=1),
        st.sampled_from(FAMILIES),
        st.integers(min_value=0, max_value=len(LABELS) - 1),
        dyadic,
    ),
    max_size=12,
).map(_registry_from)


class TestMergeAlgebra:
    @settings(max_examples=100, deadline=None)
    @given(a=snapshots, b=snapshots)
    def test_merge_is_commutative(self, a, b):
        assert merge_snapshots([a, b]) == merge_snapshots([b, a])

    @settings(max_examples=100, deadline=None)
    @given(a=snapshots, b=snapshots, c=snapshots)
    def test_merge_is_associative(self, a, b, c):
        left = merge_snapshots([merge_snapshots([a, b]), c])
        right = merge_snapshots([a, merge_snapshots([b, c])])
        assert left == right

    @settings(max_examples=100, deadline=None)
    @given(a=snapshots)
    def test_empty_is_identity(self, a):
        empty = MetricsRegistry().snapshot()
        assert merge_snapshots([a, empty]) == merge_snapshots([a])
        assert merge_snapshots([empty, a]) == merge_snapshots([a])

    @settings(max_examples=50, deadline=None)
    @given(a=snapshots, b=snapshots)
    def test_merge_never_mutates_inputs(self, a, b):
        a_before = json.loads(json.dumps(a))
        b_before = json.loads(json.dumps(b))
        merge_snapshots([a, b])
        assert a == a_before and b == b_before


class TestStudySnapshotDocument:
    def _study_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("study_sites_total", {"outcome": "loaded"}).inc(100)
        from repro.obs.metrics import build_study_snapshot

        return build_study_snapshot(
            {"countries": ["CA"], "backend": "serial", "jobs": 1},
            registry.snapshot(),
            {"CA": {"cpu_seconds": 0.5, "gc_collections": 3}},
        )

    def test_document_validates(self):
        assert validate_study_snapshot(self._study_snapshot()) == []

    def test_document_rejects_wrong_kind(self):
        document = self._study_snapshot()
        document["kind"] = "other"
        assert validate_study_snapshot(document)

    @pytest.mark.parametrize("families,problem", [
        ({"x": 1}, "family 'x': entry must be an object"),
        ({"study_sites_total": {"type": "counter", "series": [3]}},
         "family 'study_sites_total': series record must be an object"),
        ({"study_sites_total": {"type": "counter", "series": [{"labels": [1], "value": 1}]}},
         "family 'study_sites_total': labels must be an object"),
        ({"h": {"type": "histogram", "buckets": [1.0],
                "series": [{"counts": [1, 0], "count": 1, "sum": 0.5}]}},
         "family 'h': bad type 'histogram'"),
        ({"study_sites_total": {"type": "counter", "series": [{"value": "1"}]}},
         "family 'study_sites_total': value must be numeric"),
    ])
    def test_non_object_entries_are_problems_not_crashes(self, families, problem):
        document = self._study_snapshot()
        document["metrics"]["families"] = families
        assert validate_study_snapshot(document) == [problem]

    @pytest.mark.parametrize("resources,problem", [
        ({"CA": 1}, "resources['CA'] must be an object"),
        ({"CA": {"gc_collections": 3}}, "resources['CA'].cpu_seconds must be a number"),
        ({"CA": {"cpu_seconds": "0.5"}}, "resources['CA'].cpu_seconds must be a number"),
        ({"CA": {"cpu_seconds": 0.5, "peak_rss_kb": 1.5}},
         "resources['CA'].peak_rss_kb must be an integer"),
        ({"CA": {"cpu_seconds": 0.5, "gc_collections": "3"}},
         "resources['CA'].gc_collections must be an integer"),
    ])
    def test_malformed_resources_entries_are_problems(self, resources, problem):
        document = self._study_snapshot()
        document["resources"] = resources
        assert validate_study_snapshot(document) == [problem]

    def test_write_is_json_whatever_the_suffix(self, tmp_path):
        document = self._study_snapshot()
        path = tmp_path / "metrics.prom"
        write_snapshot(path, document)
        assert json.loads(path.read_text()) == document

    def test_write_and_load_json(self, tmp_path):
        document = self._study_snapshot()
        path = tmp_path / "metrics.json"
        write_snapshot(path, document)
        assert load_snapshot(path) == document
        # Deterministic serialization: same document -> same bytes.
        text = path.read_text()
        write_snapshot(path, json.loads(json.dumps(document)))
        assert path.read_text() == text


class TestDiff:
    def _snapshot(self, sites=100, wall=1.0):
        registry = MetricsRegistry()
        registry.counter("study_sites_total").inc(sites)
        registry.counter("wall_seconds_total", runtime=True).inc(wall)
        return registry.snapshot()

    def test_identical_runs_have_no_findings(self):
        assert diff_snapshots(self._snapshot(), self._snapshot()) == []

    def test_deterministic_difference_is_drift(self):
        findings = diff_snapshots(self._snapshot(100), self._snapshot(101))
        assert [f.severity for f in findings] == ["drift"]
        assert findings[0].metric == "study_sites_total"
        assert "100" in findings[0].render()

    def test_runtime_excluded_by_default(self):
        assert diff_snapshots(self._snapshot(wall=1.0), self._snapshot(wall=9.0)) == []

    def test_runtime_threshold_verdicts(self):
        def sev(old, new):
            findings = diff_snapshots(
                self._snapshot(wall=old), self._snapshot(wall=new),
                threshold=0.25, include_runtime=True,
            )
            return [f.severity for f in findings]

        assert sev(1.0, 1.1) == ["info"]
        assert sev(1.0, 2.0) == ["regression"]
        assert sev(2.0, 1.0) == ["improvement"]

    def test_missing_family_reported(self):
        empty = MetricsRegistry().snapshot()
        findings = diff_snapshots(self._snapshot(), empty)
        assert any(f.severity == "drift" for f in findings)

    def test_rendered_label_values_are_escaped(self):
        # A finding is one line: quotes, backslashes and newlines in a
        # label value render escaped.
        def snapshot(value):
            registry = MetricsRegistry()
            registry.counter("verdicts_total", {"status": 'a"b\\c\nd'}).inc(value)
            return registry.snapshot()

        findings = diff_snapshots(snapshot(1), snapshot(2))
        assert [f.render() for f in findings] == [
            '[drift      ] verdicts_total{status="a\\"b\\\\c\\nd"}: 1 -> 2'
        ]


class _Tty(io.StringIO):
    def isatty(self):  # pragma: no cover - trivial
        return True


class TestProgressReporter:
    def _clock(self, step=1.0):
        state = {"now": 0.0}

        def clock():
            state["now"] += step
            return state["now"]

        return clock

    def test_nontty_appends_full_lines(self):
        stream = io.StringIO()
        reporter = ProgressReporter(3, stream=stream, clock=self._clock())
        reporter.start()
        reporter.country_done("CA", sites=100)
        reporter.country_done("NZ", sites=50, failed=True)
        reporter.finish()
        lines = stream.getvalue().splitlines()
        assert any("1/3" in line and "CA" in line for line in lines)
        assert any("2/3" in line for line in lines)
        assert lines[-1].startswith("progress: 2/3 countries, 150 sites")
        assert "1 failed" in lines[-1]
        assert "\r" not in stream.getvalue()

    def test_tty_redraws_in_place(self):
        stream = _Tty()
        reporter = ProgressReporter(2, stream=stream, clock=self._clock())
        reporter.start()
        reporter.country_done("CA", sites=10)
        reporter.country_done("NZ", sites=10)
        reporter.finish()
        assert stream.getvalue().count("\r") >= 2

    def test_reporter_writes_no_journal_events(self):
        # A country's completion is journalled once, as its ``country``
        # span; the reporter only writes its stream.
        with pytest.raises(TypeError):
            ProgressReporter(2, stream=io.StringIO(), record_events=True)
        assert not hasattr(ProgressReporter(1, stream=io.StringIO()), "events")

    def test_broken_stream_never_raises(self):
        class Broken(io.StringIO):
            def write(self, text):
                raise OSError("gone")

        reporter = ProgressReporter(1, stream=Broken(), clock=self._clock())
        reporter.start()
        reporter.country_done("CA", sites=1)
        reporter.finish()  # must not raise


class TestResourceProfiler:
    def test_phases_accumulate(self):
        profiler = ResourceProfiler()
        with profiler.phase("gamma"):
            sum(range(50_000))
        with profiler.phase("join"):
            pass
        snapshot = profiler.snapshot()
        assert set(snapshot["phases"]) == {"gamma", "join"}
        assert snapshot["cpu_seconds"] >= 0.0
        assert snapshot["gc_collections"] >= 0
        for usage in snapshot["phases"].values():
            assert usage["cpu_seconds"] >= 0.0

    def test_maybe_phase_with_none_is_noop(self):
        with maybe_phase(None, "gamma"):
            pass
