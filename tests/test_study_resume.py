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

from repro import FaultInjector, run_study
from repro.exec import CountryExecutionError, StudyCheckpoint
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
        ("serial", 1), ("thread", 1), ("thread", 4), ("process", 1), ("process", 4),
    ])
    def test_interrupt_then_resume_reproduces_uninterrupted_run(
        self, scenario, uninterrupted, tmp_path, backend, jobs
    ):
        checkpoint_dir = tmp_path / "ckpt"
        first = run_study(
            scenario, countries=SMALL_COUNTRIES[:INTERRUPT_AFTER],
            checkpoint_dir=checkpoint_dir, trace=True, backend=backend, jobs=jobs,
        )
        assert sorted(first.datasets) == sorted(SMALL_COUNTRIES[:INTERRUPT_AFTER])
        resumed = run_study(
            scenario, countries=SMALL_COUNTRIES, checkpoint_dir=checkpoint_dir,
            resume=True, trace=True, backend=backend, jobs=jobs,
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
                trace=True, fault_injector=FaultInjector({crash_country: 99}),
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
