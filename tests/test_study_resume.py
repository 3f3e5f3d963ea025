"""Study-level checkpoint/resume — the interruption-equivalence proof.

A study interrupted after K countries and resumed from its checkpoint
directory must produce a ``StudyOutcome`` — datasets, verdicts, joined
records, summary, funnel, and the journal sans timings — byte-identical
to an uninterrupted run, for every backend and worker count.  Completed
countries are persisted atomically by the worker the moment they land,
so even a crash mid-fan-out (simulated here with an injected fault
under ``on_error="raise"``) loses at most the in-flight countries.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro import FaultInjector, StudyConfig, run_study
from repro.core.gamma.output import WebsiteMeasurement
from repro.exec import CountryExecutionError, StudyCheckpoint
from repro.obs.metrics import strip_runtime, validate_study_snapshot
from repro.obs.schema import validate_journal
from tests.conftest import SMALL_COUNTRIES
from tests.test_exec_equivalence import assert_outcomes_identical

#: Countries completed before the simulated interruption.
INTERRUPT_AFTER = 2


@pytest.fixture(scope="module")
def uninterrupted(scenario):
    """The traced fault-free reference run over the small country set."""
    return run_study(scenario, countries=SMALL_COUNTRIES, trace=True)


def assert_resume_equivalent(uninterrupted, resumed) -> None:
    assert_outcomes_identical(uninterrupted, resumed)
    assert resumed.journal.dumps(timings=False) == uninterrupted.journal.dumps(
        timings=False
    )


class TestResumeEquivalence:
    @pytest.mark.parametrize("backend,jobs", [
        ("serial", 1), ("process", 1), ("process", 4),
    ])
    def test_interrupt_then_resume_reproduces_uninterrupted_run(
        self, scenario, uninterrupted, tmp_path, backend, jobs
    ):
        checkpoint_dir = tmp_path / "ckpt"
        config = StudyConfig(backend=backend, jobs=jobs)
        first = run_study(
            scenario, countries=SMALL_COUNTRIES[:INTERRUPT_AFTER],
            checkpoint_dir=checkpoint_dir, trace=True, config=config,
        )
        assert sorted(first.datasets) == sorted(SMALL_COUNTRIES[:INTERRUPT_AFTER])
        resumed = run_study(
            scenario, countries=SMALL_COUNTRIES, checkpoint_dir=checkpoint_dir,
            resume=True, trace=True, config=config,
        )
        assert_resume_equivalent(uninterrupted, resumed)
        # The resumed countries were loaded, not re-measured.
        resumed_events = resumed.journal.events("country_resumed")
        assert [r["country"] for r in resumed_events] == SMALL_COUNTRIES[:INTERRUPT_AFTER]
        assert resumed.journal.run_record["resumed"] == SMALL_COUNTRIES[:INTERRUPT_AFTER]

    def test_crash_mid_study_checkpoints_completed_countries(
        self, scenario, uninterrupted, tmp_path
    ):
        checkpoint_dir = tmp_path / "ckpt"
        crash_country = SMALL_COUNTRIES[INTERRUPT_AFTER]
        with pytest.raises(CountryExecutionError) as excinfo:
            run_study(
                scenario, countries=SMALL_COUNTRIES, checkpoint_dir=checkpoint_dir,
                trace=True, fault_injector=FaultInjector({crash_country}),
            )
        assert excinfo.value.country_code == crash_country
        # Serial execution completed (and persisted) everything before the crash.
        checkpoint = StudyCheckpoint(checkpoint_dir)
        assert checkpoint.completed_countries() == sorted(
            SMALL_COUNTRIES[:INTERRUPT_AFTER]
        )
        resumed = run_study(
            scenario, countries=SMALL_COUNTRIES, checkpoint_dir=checkpoint_dir,
            resume=True, trace=True,
        )
        assert_resume_equivalent(uninterrupted, resumed)

    @pytest.mark.parametrize("backend,jobs", [("serial", 1), ("process", 4)])
    def test_skipped_country_is_measured_on_resume(
        self, scenario, uninterrupted, tmp_path, backend, jobs
    ):
        # A failed country runs once and is not checkpointed; the resume
        # measures it and the outcome equals the fault-free run.
        checkpoint_dir = tmp_path / "ckpt"
        failed_country = SMALL_COUNTRIES[INTERRUPT_AFTER]
        config = StudyConfig(on_error="skip", backend=backend, jobs=jobs)
        skipped = run_study(
            scenario, countries=SMALL_COUNTRIES, checkpoint_dir=checkpoint_dir,
            trace=True, config=config,
            fault_injector=FaultInjector({failed_country}),
        )
        assert skipped.failed_countries() == [failed_country]
        assert StudyCheckpoint(checkpoint_dir).completed_countries() == sorted(
            set(SMALL_COUNTRIES) - {failed_country}
        )
        resumed = run_study(
            scenario, countries=SMALL_COUNTRIES, checkpoint_dir=checkpoint_dir,
            resume=True, trace=True, config=config,
        )
        assert resumed.failures == []
        assert_resume_equivalent(uninterrupted, resumed)
        assert resumed.journal.run_record["resumed"] == [
            cc for cc in SMALL_COUNTRIES if cc != failed_country
        ]

    def test_fully_checkpointed_study_resumes_without_any_work(
        self, scenario, uninterrupted, tmp_path
    ):
        checkpoint_dir = tmp_path / "ckpt"
        run_study(scenario, countries=SMALL_COUNTRIES,
                  checkpoint_dir=checkpoint_dir, trace=True)
        resumed = run_study(
            scenario, countries=SMALL_COUNTRIES, checkpoint_dir=checkpoint_dir,
            resume=True, trace=True,
        )
        assert_resume_equivalent(uninterrupted, resumed)
        assert len(resumed.journal.events("country_resumed")) == len(SMALL_COUNTRIES)
        # Nothing ran in this fan-out, so no CPU (and no speedup) is claimed.
        assert resumed.metrics.cpu_seconds == 0.0

    def test_resume_without_checkpoint_dir_is_rejected(self, scenario):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            run_study(scenario, countries=["CA"], resume=True)


class TestCheckpointStore:
    def test_one_atomic_file_per_country(self, scenario, tmp_path):
        checkpoint_dir = tmp_path / "ckpt"
        run_study(scenario, countries=["CA", "NZ"], checkpoint_dir=checkpoint_dir)
        names = sorted(p.name for p in checkpoint_dir.iterdir())
        # One pickled run per country; the run's metrics snapshot lands
        # beside the checkpoints.
        assert names == ["CA.run.pkl", "NZ.run.pkl", "metrics.json"]
        # No temp files left behind by the atomic writer.
        assert not [n for n in names if n.startswith(".")]

    def test_leftover_columnar_run_file_is_ignored_and_remeasured(
        self, scenario, uninterrupted, tmp_path
    ):
        # Older versions could also write ``<CC>.run.col`` (a columnar
        # format that no longer exists).  Such a file must neither crash
        # nor block a resume: its country is simply measured again.
        checkpoint_dir = tmp_path / "ckpt"
        run_study(scenario, countries=SMALL_COUNTRIES,
                  checkpoint_dir=checkpoint_dir, trace=True)
        (checkpoint_dir / "CA.run.pkl").rename(checkpoint_dir / "CA.run.col")
        (checkpoint_dir / "CA.run.col").write_bytes(b"CRUN\x03 old columnar frame")
        assert "CA" not in StudyCheckpoint(checkpoint_dir).completed_countries()
        resumed = run_study(
            scenario, countries=SMALL_COUNTRIES, checkpoint_dir=checkpoint_dir,
            resume=True, trace=True,
        )
        assert_resume_equivalent(uninterrupted, resumed)
        assert [r["country"] for r in resumed.journal.events("country_resumed")] \
            == [cc for cc in SMALL_COUNTRIES if cc != "CA"]
        assert (checkpoint_dir / "CA.run.pkl").exists()

    def test_run_carrying_a_geoloc_engine_label_resumes(
        self, scenario, uninterrupted, tmp_path
    ):
        # Older versions recorded which geolocation engine produced each
        # run (``CountryRun.geoloc_engine``).  Such a checkpoint must
        # still load, not be quarantined, and resume byte-identically.
        checkpoint_dir = tmp_path / "ckpt"
        completed = SMALL_COUNTRIES[:INTERRUPT_AFTER]
        run_study(scenario, countries=completed,
                  checkpoint_dir=checkpoint_dir, trace=True)
        checkpoint = StudyCheckpoint(checkpoint_dir)
        for cc in completed:
            run = checkpoint.load(cc)
            run.geoloc_engine = "columnar"
            # ...and labelled its metrics delta's country count by engine.
            family = run.metrics_delta["families"]["geoloc_countries_total"]
            family["help"] = "datasets classified, by constraint engine"
            family["series"][0]["labels"] = {"engine": "columnar"}
            checkpoint.store(run)
            assert b"geoloc_engine" in checkpoint.path_for(cc).read_bytes()
        resumed = run_study(
            scenario, countries=SMALL_COUNTRIES, checkpoint_dir=checkpoint_dir,
            resume=True, trace=True,
        )
        assert not list(checkpoint_dir.glob("*.corrupt"))
        assert [r["country"] for r in resumed.journal.events("country_resumed")] \
            == completed
        assert_resume_equivalent(uninterrupted, resumed)
        assert json.dumps(resumed.summary().to_dict()) == json.dumps(
            uninterrupted.summary().to_dict()
        )

    def test_run_carrying_histogram_families_resumes(
        self, scenario, uninterrupted, tmp_path
    ):
        # Older versions recorded each constraint's evidence latencies
        # and each phase's seconds as histogram families in the stored
        # metrics delta.  A resume recomputes the country's study
        # families from the run itself and never reads that delta.
        checkpoint_dir = tmp_path / "ckpt"
        completed = SMALL_COUNTRIES[:INTERRUPT_AFTER]
        run_study(scenario, countries=completed,
                  checkpoint_dir=checkpoint_dir, trace=True)
        checkpoint = StudyCheckpoint(checkpoint_dir)
        for cc in completed:
            run = checkpoint.load(cc)
            families = run.metrics_delta["families"]
            families["geoloc_evidence_ms"] = {
                "type": "histogram", "unit": "ms",
                "help": "constraint evidence latencies (simulated, deterministic)",
                "buckets": [1.0, 2.0, 4.0],
                "series": [{"labels": {"constraint": "source"},
                            "counts": [0, 1, 0, 1], "sum": 9.5, "count": 2}],
            }
            families["worker_phase_duration_seconds"] = {
                "type": "histogram", "unit": "seconds", "runtime": True,
                "buckets": [0.001, 0.002],
                "series": [{"labels": {"phase": "gamma"},
                            "counts": [0, 0, 1], "sum": 0.25, "count": 1}],
            }
            checkpoint.store(run)
        resumed = run_study(
            scenario, countries=SMALL_COUNTRIES, checkpoint_dir=checkpoint_dir,
            resume=True, trace=True,
        )
        assert not list(checkpoint_dir.glob("*.corrupt"))
        assert [r["country"] for r in resumed.journal.events("country_resumed")] \
            == completed
        assert_resume_equivalent(uninterrupted, resumed)
        assert json.dumps(resumed.summary().to_dict()) == json.dumps(
            uninterrupted.summary().to_dict()
        )
        assert strip_runtime(resumed.metrics_snapshot["metrics"]) == strip_runtime(
            uninterrupted.metrics_snapshot["metrics"]
        )
        assert validate_study_snapshot(resumed.metrics_snapshot) == []

    def test_run_carrying_older_diagnostic_records_resumes(
        self, scenario, uninterrupted, tmp_path
    ):
        # Older versions also journalled each country's cache deltas and
        # resource profile (``country_caches``/``country_resources``);
        # like a stored ``country_retry``, they describe the earlier
        # process, so a resume replays none of them and the journal,
        # timings included, still validates.
        checkpoint_dir = tmp_path / "ckpt"
        completed = SMALL_COUNTRIES[:INTERRUPT_AFTER]
        run_study(scenario, countries=completed, config=StudyConfig(profile=True),
                  checkpoint_dir=checkpoint_dir, trace=True)
        checkpoint = StudyCheckpoint(checkpoint_dir)
        older = {"country_caches", "country_resources", "country_retry"}
        for cc in completed:
            run = checkpoint.load(cc)
            span = f"study/{cc}"
            run.events.extend([
                {"ev": "country_retry", "span": span, "t": 0.1, "country": cc,
                 "attempt": 1, "error": "RuntimeError: transient"},
                {"ev": "country_caches", "span": span, "t": 1.0, "country": cc,
                 "caches": {"trackers.verdicts": {"hits": 5, "misses": 2, "size": 2}}},
                {"ev": "country_resources", "span": span, "t": 1.0, "country": cc,
                 "resources": run.resources},
            ])
            checkpoint.store(run)
        resumed = run_study(
            scenario, countries=SMALL_COUNTRIES, checkpoint_dir=checkpoint_dir,
            resume=True, trace=True,
        )
        assert not list(checkpoint_dir.glob("*.corrupt"))
        assert not older & {record["ev"] for record in resumed.journal.records}
        assert validate_journal(resumed.journal.records) == []
        assert_resume_equivalent(uninterrupted, resumed)

    def test_corrupt_run_file_is_quarantined_and_remeasured(
        self, scenario, uninterrupted, tmp_path
    ):
        checkpoint_dir = tmp_path / "ckpt"
        run_study(scenario, countries=SMALL_COUNTRIES,
                  checkpoint_dir=checkpoint_dir, trace=True)
        (checkpoint_dir / "CA.run.pkl").write_bytes(b"not a pickle")
        resumed = run_study(
            scenario, countries=SMALL_COUNTRIES, checkpoint_dir=checkpoint_dir,
            resume=True, trace=True,
        )
        assert_resume_equivalent(uninterrupted, resumed)
        assert (checkpoint_dir / "CA.run.pkl.corrupt").exists()
        # CA was re-measured, so it is absent from the resumed set.
        assert "CA" not in [
            r["country"] for r in resumed.journal.events("country_resumed")
        ]

    def test_run_carrying_saved_page_fields_is_quarantined_and_remeasured(
        self, scenario, uninterrupted, tmp_path, monkeypatch
    ):
        # Older versions stored ``page_html``/``hardcoded_domains`` on
        # every site measurement.  Measurements have no such slots any
        # more, so such a run fails to load, is quarantined, and its
        # country is measured again.
        checkpoint_dir = tmp_path / "ckpt"
        run_study(scenario, countries=["CA"], checkpoint_dir=checkpoint_dir)
        checkpoint = StudyCheckpoint(checkpoint_dir)
        run = checkpoint.load("CA")
        current = WebsiteMeasurement.__getstate__
        monkeypatch.setattr(
            WebsiteMeasurement, "__getstate__",
            lambda self: {**current(self), "page_html": None, "hardcoded_domains": []},
        )
        checkpoint.store(run)
        monkeypatch.undo()
        assert b"hardcoded_domains" in checkpoint.path_for("CA").read_bytes()
        resumed = run_study(
            scenario, countries=SMALL_COUNTRIES, checkpoint_dir=checkpoint_dir,
            resume=True, trace=True,
        )
        assert (checkpoint_dir / "CA.run.pkl.corrupt").exists()
        assert not resumed.journal.events("country_resumed")
        assert_resume_equivalent(uninterrupted, resumed)

    def test_wrong_country_payload_is_quarantined(self, scenario, tmp_path):
        checkpoint_dir = tmp_path / "ckpt"
        run_study(scenario, countries=["CA"], checkpoint_dir=checkpoint_dir)
        checkpoint = StudyCheckpoint(checkpoint_dir)
        run = checkpoint.load("CA")
        # A stale rename: NZ's slot holding CA's run must not be trusted.
        (checkpoint_dir / "NZ.run.pkl").write_bytes(pickle.dumps(run))
        assert checkpoint.load("NZ") is None
        assert (checkpoint_dir / "NZ.run.pkl.corrupt").exists()

    def test_missing_directory_reads_as_empty(self, tmp_path):
        checkpoint = StudyCheckpoint(tmp_path / "never-created")
        assert checkpoint.completed_countries() == []
        assert checkpoint.load("CA") is None
