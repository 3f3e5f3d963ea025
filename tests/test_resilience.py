"""Fault-tolerant study execution: the skip policy and the manifest.

The paper's suite was built to survive real-world failure (volunteers
ran Gamma in chunks, section 3.3); the study driver mirrors that with a
per-country failure policy that ``StudyWorker`` applies.  The contracts
locked down here:

* ``on_error="skip"`` records the country on ``outcome.failures`` with
  the worker-side traceback while every other country completes and
  every analysis degrades to the surviving set.
* ``on_error="raise"`` keeps the historical fail-fast contract, now
  carrying the formatted worker traceback across the process-pool
  pickle boundary (which drops ``__traceback__``).
* ``StudyConfig`` accepts only those two policies, and an injected
  fault fails its country every time, so each country runs once per
  study; a skipped country is measured by a later resume instead.
"""

from __future__ import annotations

import pytest

from repro import FaultInjector, run_study
from repro.exec import CountryExecutionError, StudyCheckpoint
from repro.exec.resilience import CountryFailure, InjectedFaultError
from repro.exec.worker import StudyWorker
from repro.study import StudyConfig

FAULT_COUNTRIES = ["CA", "NZ", "RW"]


class CountingInjector(FaultInjector):
    """A fault injector that records every country it was asked about."""

    def __init__(self, countries):
        super().__init__(countries)
        self.calls = []

    def check(self, country_code):
        self.calls.append(country_code)
        super().check(country_code)


class TestFaultInjector:
    def test_check_raises_the_typed_fault(self):
        injector = FaultInjector({"NZ", "QA"})
        for _ in range(3):  # every run fails, not only the first
            with pytest.raises(InjectedFaultError, match="injected fault: NZ"):
                injector.check("NZ")
        injector.check("CA")  # not selected: no-op

    def test_parse_specs(self):
        assert FaultInjector.parse("nz, ca").countries == {"NZ", "CA"}
        assert FaultInjector.parse("NZ").countries == {"NZ"}

    @pytest.mark.parametrize("spec", ["", ",", "NZ:0", "NZ:x", ":3", "CA,NZ:1"])
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            FaultInjector.parse(spec)

    def test_injector_pickles(self):
        import pickle

        injector = pickle.loads(pickle.dumps(FaultInjector({"NZ"})))
        assert injector.countries == {"NZ"}


# -- StudyWorker applies the policy (the injected fault fires before any
# -- measurement work, so these calls are cheap) -----------------------------
class TestStudyWorkerPolicy:
    def test_raise_mode_propagates_with_worker_traceback(self, scenario):
        worker = StudyWorker(scenario, StudyConfig(),
                             fault_injector=FaultInjector({"NZ"}))
        with pytest.raises(InjectedFaultError, match="injected fault: NZ") as excinfo:
            worker("NZ")
        assert "InjectedFaultError" in excinfo.value.worker_traceback

    def test_skip_returns_manifest_entry(self, scenario, tmp_path):
        checkpoint = StudyCheckpoint(tmp_path / "ckpt")
        worker = StudyWorker(scenario, StudyConfig(on_error="skip"),
                             fault_injector=FaultInjector({"NZ"}),
                             checkpoint=checkpoint)
        failure = worker("NZ")
        assert isinstance(failure, CountryFailure)
        assert failure.country_code == "NZ"
        assert failure.error_type == "InjectedFaultError"
        assert failure.message == "injected fault: NZ"
        assert "InjectedFaultError" in failure.traceback
        assert failure.events is None  # tracing off
        assert checkpoint.completed_countries() == []  # failures never persist

    def test_raise_mode_stores_nothing(self, scenario, tmp_path):
        checkpoint = StudyCheckpoint(tmp_path / "ckpt")
        worker = StudyWorker(scenario, StudyConfig(),
                             fault_injector=FaultInjector({"NZ"}),
                             checkpoint=checkpoint)
        with pytest.raises(InjectedFaultError):
            worker("NZ")
        assert checkpoint.completed_countries() == []

    def test_finished_run_is_stored_to_checkpoint(self, scenario, tmp_path):
        checkpoint = StudyCheckpoint(tmp_path / "ckpt")
        worker = StudyWorker(scenario, StudyConfig(on_error="skip"),
                             fault_injector=FaultInjector({"NZ"}),
                             checkpoint=checkpoint)
        run = worker("RW")
        assert not isinstance(run, CountryFailure)
        assert checkpoint.completed_countries() == ["RW"]
        stored = checkpoint.load("RW")
        assert stored.dataset.to_json() == run.dataset.to_json()
        assert stored.result.sites == run.result.sites

    def test_traced_failure_carries_journal_buffer(self, scenario):
        worker = StudyWorker(scenario, StudyConfig(on_error="skip"), trace=True,
                             fault_injector=FaultInjector({"NZ"}))
        failure = worker("NZ")
        assert [r["ev"] for r in failure.events] == ["country_failed"]
        assert failure.events[0]["error"] == "InjectedFaultError: injected fault: NZ"
        assert failure.events[0]["traceback"] == failure.traceback

    @pytest.mark.parametrize("policy", ["explode", "retry"])
    def test_invalid_policy_rejected(self, policy):
        with pytest.raises(ValueError, match=(
            f"unknown on_error policy '{policy}'; expected one of raise, skip"
        )):
            StudyConfig(on_error=policy)

    def test_run_study_rejects_bad_policy(self, scenario):
        with pytest.raises(ValueError, match="on_error"):
            run_study(scenario, countries=["CA"], config=StudyConfig(on_error="explode"))


class TestSkipManifest:
    @pytest.fixture(scope="class")
    def skipped(self, scenario):
        return run_study(
            scenario, countries=FAULT_COUNTRIES, config=StudyConfig(on_error="skip"),
            fault_injector=FaultInjector({"NZ"}), trace=True,
        )

    def test_each_country_runs_once(self, scenario):
        # The failed country is not re-run: a repeat would fail the same way.
        injector = CountingInjector({"NZ"})
        outcome = run_study(
            scenario, countries=FAULT_COUNTRIES, config=StudyConfig(on_error="skip"),
            fault_injector=injector,
        )
        assert injector.calls == FAULT_COUNTRIES
        assert outcome.failed_countries() == ["NZ"]

    def test_failure_manifest_fields(self, skipped):
        assert skipped.failed_countries() == ["NZ"]
        failure = skipped.failures[0]
        assert failure.error_type == "InjectedFaultError"
        assert "injected fault: NZ" in failure.message
        assert "InjectedFaultError" in failure.traceback

    def test_surviving_countries_complete(self, skipped):
        assert sorted(skipped.datasets) == ["CA", "RW"]
        assert [r.country_code for r in skipped.results] == ["CA", "RW"]
        assert sorted(skipped.source_trace_origins) == ["CA", "RW"]

    def test_analyses_degrade_to_survivors(self, skipped):
        assert skipped.funnel().total_hosts > 0
        per_country = skipped.prevalence().per_country()
        assert [r.country_code for r in per_country] == ["CA", "RW"]
        assert skipped.summary().to_dict()  # flows/hosting/orgs/policy all build
        with pytest.raises(KeyError, match="NZ: country failed"):
            skipped.result_for("NZ")

    def test_journal_tells_the_failure_story(self, skipped):
        failed = skipped.journal.events("country_failed")
        assert [r["country"] for r in failed] == ["NZ"]
        assert "InjectedFaultError" in failed[0]["traceback"]
        assert skipped.journal.run_record["failed"] == ["NZ"]
        # A failed country is study content, not a diagnostic: it
        # survives the determinism strip (unlike resume records).
        stripped = skipped.journal.dumps(timings=False)
        assert '"ev":"country_failed"' in stripped

    @pytest.mark.parametrize("backend,jobs", [("process", 2)])
    def test_skip_is_backend_independent(self, scenario, skipped, backend, jobs):
        parallel = run_study(
            scenario, countries=FAULT_COUNTRIES,
            config=StudyConfig(on_error="skip", backend=backend, jobs=jobs),
            fault_injector=FaultInjector({"NZ"}), trace=True,
        )
        assert parallel.failed_countries() == ["NZ"]
        assert parallel.journal.dumps(timings=False) == skipped.journal.dumps(
            timings=False
        )
        assert parallel.summary().to_dict() == skipped.summary().to_dict()


class TestRaiseTraceback:
    """Satellite: the worker traceback survives every backend."""

    @pytest.mark.parametrize("backend,jobs", [
        ("serial", 1), ("process", 2),
    ])
    def test_country_execution_error_carries_worker_traceback(
        self, scenario, backend, jobs
    ):
        with pytest.raises(CountryExecutionError) as excinfo:
            run_study(
                scenario, countries=["CA", "NZ"],
                config=StudyConfig(backend=backend, jobs=jobs),
                fault_injector=FaultInjector({"NZ"}),
            )
        error = excinfo.value
        assert error.country_code == "NZ"
        assert error.worker_traceback is not None
        assert "InjectedFaultError" in error.worker_traceback
        assert "injected fault: NZ" in error.worker_traceback
