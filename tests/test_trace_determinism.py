"""Journal determinism and coverage — the observability acceptance suite.

The run journal must itself be a backend-equivalence artefact: the same
scenario traced through serial/process backends at any worker
count yields byte-identical JSONL once timing/runtime fields are
stripped.  The suite also proves the journal is *complete* (one
constraint-decision event per geolocated server, funnel drill-down equal
to ``StudyOutcome.funnel()``) and *free* (tracing off ⇒ no buffers, no
journal, artefacts unchanged — extending the equivalence harness in
``tests/test_exec_equivalence.py``).
"""

from __future__ import annotations

import pytest

from repro import StudyConfig, run_study, strip_timings
from repro.cli import main
from repro.obs import RunJournal, validate_journal
from repro.obs.render import render_funnel
from tests.test_exec_equivalence import assert_outcomes_identical

#: Three countries exercising the interesting paths: a tracker-local
#: country (CA), the cross-border Atlas probe fallback (QA), and the
#: traceroute opt-out volunteer (EG).
TRACE_COUNTRIES = ["CA", "QA", "EG"]


@pytest.fixture(scope="module")
def traced_serial(scenario):
    return run_study(scenario, countries=TRACE_COUNTRIES, trace=True)


@pytest.fixture(scope="module")
def traced_process(scenario):
    return run_study(
        scenario, countries=TRACE_COUNTRIES,
        config=StudyConfig(jobs=2, backend="process"), trace=True,
    )


#: The funnel stages ``gamma trace`` prints, in column order.
DRILLDOWN_STAGES = (
    "total_hosts", "unlocated", "local", "nonlocal_candidates",
    "discarded_source", "discarded_destination", "discarded_rdns",
    "verified_nonlocal",
)


def _drilldown_rows(journal):
    """``{country: {stage: count}}`` parsed from the printed drill-down."""
    rows = {}
    for line in render_funnel(journal).splitlines()[2:]:
        country, *counts = line.split()
        rows[country] = dict(zip(DRILLDOWN_STAGES, map(int, counts)))
    return rows


def _funnel_from_decisions(journal, cc):
    """The oracle: one country's per-host funnel stages re-derived from
    the weights of its ``geoloc_decision`` events alone."""
    funnel = dict.fromkeys(DRILLDOWN_STAGES, 0)
    for record in journal.events("geoloc_decision"):
        if record["span"] != f"study/{cc}/geoloc":
            continue
        weight, status = record["weight"], record["status"]
        funnel["total_hosts"] += weight
        if status in ("unlocated", "local"):
            funnel[status] += weight
            continue
        funnel["nonlocal_candidates"] += weight
        if status == "discarded":
            funnel[f"discarded_{record['discarded_by']}"] += weight
        elif status == "nonlocal_verified":
            funnel["verified_nonlocal"] += weight
    return funnel


class TestJournalDeterminism:
    @pytest.mark.parametrize("backend,jobs", [
        ("serial", 1), ("process", 1), ("process", 4),
    ])
    def test_stripped_journal_byte_identical_across_backends(
        self, scenario, traced_serial, backend, jobs
    ):
        other = run_study(
            scenario, countries=TRACE_COUNTRIES,
            config=StudyConfig(jobs=jobs, backend=backend), trace=True,
        )
        assert other.journal.dumps(timings=False) == traced_serial.journal.dumps(
            timings=False
        )

    def test_tracing_does_not_perturb_study_artefacts(self, scenario, traced_serial):
        untraced = run_study(scenario, countries=TRACE_COUNTRIES)
        assert_outcomes_identical(untraced, traced_serial)

    def test_no_timings_write_matches_strip_of_timed_write(
        self, traced_serial, tmp_path
    ):
        timed = traced_serial.journal.write(tmp_path / "timed.jsonl")
        stripped = traced_serial.journal.write(
            tmp_path / "stripped.jsonl", timings=False
        )
        rejournal = RunJournal(strip_timings(RunJournal.read(timed).records))
        assert stripped.read_text() == rejournal.dumps()


class TestJournalCoverage:
    def test_every_line_conforms_to_schema(self, traced_serial):
        assert validate_journal(traced_serial.journal.records) == []

    def test_one_decision_event_per_geolocated_server(self, traced_serial):
        journal = traced_serial.journal
        for cc in TRACE_COUNTRIES:
            recorded = {
                r["address"]
                for r in journal.events("geoloc_decision")
                if r["span"] == f"study/{cc}/geoloc"
            }
            assert recorded == set(traced_serial.geolocations[cc].verdicts), cc

    @pytest.mark.parametrize("traced", ["traced_serial", "traced_process"])
    def test_funnel_drilldown_equals_outcome_funnel(self, request, traced):
        outcome = request.getfixturevalue(traced)
        journal = outcome.journal
        rows = _drilldown_rows(journal)
        assert list(rows) == sorted(TRACE_COUNTRIES) + ["ALL"]
        recorded = {r["country"]: r["funnel"] for r in journal.events("country_funnel")}
        for cc in TRACE_COUNTRIES:
            stages = outcome.geolocations[cc].funnel.stages()
            assert recorded[cc] == stages, cc
            printed = {stage: stages[stage] for stage in DRILLDOWN_STAGES}
            assert rows[cc] == printed, cc
            # The decision events cover every host the funnel counts.
            assert _funnel_from_decisions(journal, cc) == printed, cc
        merged = outcome.funnel().stages()
        assert rows["ALL"] == {stage: merged[stage] for stage in DRILLDOWN_STAGES}

    def test_span_tree_covers_every_country_and_phase(self, traced_serial):
        journal = traced_serial.journal
        country_spans = {s["name"] for s in journal.spans("country")}
        assert country_spans == set(TRACE_COUNTRIES)
        for cc in TRACE_COUNTRIES:
            phases = {
                s["name"] for s in journal.spans("phase")
                if s["parent"] == f"study/{cc}"
            }
            assert phases == {"gamma", "source_traces", "geoloc", "join"}, cc
        assert [s["name"] for s in journal.spans("study")] == ["study"]

    def test_site_visits_match_dataset(self, traced_serial):
        journal = traced_serial.journal
        for cc in TRACE_COUNTRIES:
            visits = [
                r for r in journal.events("site_visit")
                if r["span"].startswith(f"study/{cc}/")
            ]
            dataset = traced_serial.datasets[cc]
            assert len(visits) == dataset.attempted_count, cc
            assert sum(1 for v in visits if v["loaded"]) == dataset.loaded_count, cc

    def test_tracker_matches_attribute_a_method(self, traced_serial):
        matches = traced_serial.journal.events("tracker_match")
        assert matches, "study with trackers produced no attribution events"
        assert all(m["method"] in ("global_list", "regional_list", "manual")
                   for m in matches)


class TestTracingDisabled:
    def test_default_run_has_no_journal_or_buffers(self, study_small):
        assert study_small.journal is None

    def test_trace_true_attaches_without_writing(self, traced_serial):
        assert traced_serial.journal is not None
        assert traced_serial.journal.run_record["countries"] == TRACE_COUNTRIES


class TestProcessBackendCacheStats:
    def test_worker_side_cache_activity_is_counted(self, scenario):
        outcome = run_study(scenario, countries=["CA", "NZ"],
                            config=StudyConfig(jobs=2, backend="process"))
        infos = outcome.metrics.cache_infos
        verdicts = infos.get("trackers.verdicts", {"hits": 0, "misses": 0})
        assert verdicts["hits"] + verdicts["misses"] > 0
        assert sum(i["hits"] + i["misses"] for i in infos.values()) > 0


class TestTraceCLI:
    def test_study_trace_roundtrip(self, tmp_path, capsys):
        journal_path = tmp_path / "run.jsonl"
        assert main(["study", "--countries", "CA", "--backend", "process",
                     "--jobs", "2", "--trace", str(journal_path)]) == 0
        out = capsys.readouterr().out
        assert "run journal written" in out
        assert "cache trackers.verdicts: hits=" in out
        assert "%" in out  # phase-share column in the metrics block

        assert main(["trace", str(journal_path), "--validate"]) == 0
        assert "journal OK" in capsys.readouterr().out

        assert main(["trace", str(journal_path), "--top", "3"]) == 0
        rendered = capsys.readouterr().out
        assert "span tree" in rendered
        assert "funnel drill-down" in rendered
        assert "top 3 slowest site visits" in rendered
        assert "fault tolerance" in rendered

    def test_no_timings_flag_strips_journal(self, tmp_path, capsys):
        journal_path = tmp_path / "flat.jsonl"
        assert main(["study", "--countries", "CA", "--trace", str(journal_path),
                     "--no-timings"]) == 0
        capsys.readouterr()
        journal = RunJournal.read(journal_path)
        assert all("dur" not in r and "t" not in r for r in journal.records)
        assert "backend" not in journal.run_record

    def test_trace_validate_rejects_bad_journal(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"ev": "nope"}\n')
        assert main(["trace", str(bad), "--validate"]) == 1
        assert "SCHEMA" in capsys.readouterr().out

    def test_trace_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "absent.jsonl")]) == 1
        assert "cannot read journal" in capsys.readouterr().out
