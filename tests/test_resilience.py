"""Fault-tolerant study execution: retry/skip policies and the manifest.

The paper's suite was built to survive real-world failure (volunteers
ran Gamma in chunks, section 3.3); the study driver mirrors that with a
per-country failure policy.  The contracts locked down here:

* ``on_error="retry"`` with a transient injected fault produces a
  ``StudyOutcome`` byte-identical to the fault-free run — including the
  stripped journal — for every backend.
* ``on_error="skip"`` (and exhausted retries) records the country on
  ``outcome.failures`` with the worker-side traceback while every other
  country completes and every analysis degrades to the surviving set.
* ``on_error="raise"`` keeps the historical fail-fast contract, now
  carrying the formatted worker traceback across the process-pool
  pickle boundary (which drops ``__traceback__``).
* The retry backoff schedule is a deterministic function of
  ``(country, attempt)``.
"""

from __future__ import annotations

import pytest

from repro import FaultInjector, run_study
from repro.exec import CountryExecutionError
from repro.exec.resilience import (
    CountryFailure,
    InjectedFaultError,
    ResilientWorker,
    backoff_delay,
)
from repro.study import StudyConfig
from tests.conftest import SMALL_COUNTRIES
from tests.test_exec_equivalence import assert_outcomes_identical

#: Zero backoff keeps the retry suites fast; determinism is untouched.
def fast_retry(**fields) -> StudyConfig:
    return StudyConfig(retry_base_delay=0.0, **fields)

FAULT_COUNTRIES = ["CA", "NZ", "RW"]


class TestFaultInjector:
    def test_bounded_fault_is_transient(self):
        injector = FaultInjector({"NZ": 2})
        assert injector.should_fail("NZ", 1)
        assert injector.should_fail("NZ", 2)
        assert not injector.should_fail("NZ", 3)
        assert not injector.should_fail("CA", 1)

    def test_check_raises_the_typed_fault(self):
        with pytest.raises(InjectedFaultError, match="NZ attempt 1"):
            FaultInjector({"NZ": 1}).check("NZ", 1)
        FaultInjector({"NZ": 1}).check("NZ", 2)  # past the bound: no-op

    def test_parse_specs(self):
        injector = FaultInjector.parse("nz:1, ca")
        assert injector.should_fail("NZ", 1) and not injector.should_fail("NZ", 2)
        assert injector.should_fail("CA", 10 ** 6)

    @pytest.mark.parametrize("spec", ["", ",", "NZ:0", "NZ:x", ":3"])
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            FaultInjector.parse(spec)

    def test_injector_pickles(self):
        import pickle

        injector = pickle.loads(pickle.dumps(FaultInjector({"NZ": 2})))
        assert injector.should_fail("NZ", 2)


class TestBackoffDeterminism:
    def test_schedule_is_reproducible(self):
        assert backoff_delay("NZ", 1, 0.1) == backoff_delay("NZ", 1, 0.1)
        assert backoff_delay("NZ", 1, 0.1) != backoff_delay("CA", 1, 0.1)
        assert backoff_delay("NZ", 1, 0.1) != backoff_delay("NZ", 2, 0.1)

    def test_exponential_envelope_with_jitter(self):
        for attempt in (1, 2, 3, 4):
            delay = backoff_delay("NZ", attempt, 0.1)
            nominal = 0.1 * 2 ** (attempt - 1)
            assert 0.5 * nominal <= delay < 1.5 * nominal

    def test_zero_base_disables_sleeping(self):
        assert backoff_delay("NZ", 3, 0.0) == 0.0


# -- ResilientWorker unit level (no scenario: a tiny fake worker) ------------
class FlakyWorker:
    """Picklable worker failing the first ``fail_attempts`` calls per country."""

    def __init__(self, fail_attempts):
        self.fail_attempts = dict(fail_attempts)
        self.calls = []

    def __call__(self, country_code, attempt=1):
        self.calls.append((country_code, attempt))
        if attempt <= self.fail_attempts.get(country_code, 0):
            raise ValueError(f"flaky {country_code} attempt {attempt}")
        return f"ok:{country_code}"


class TestResilientWorkerUnit:
    def test_raise_mode_is_transparent(self):
        wrapper = ResilientWorker(FlakyWorker({"NZ": 1}), on_error="raise")
        with pytest.raises(ValueError, match="flaky NZ"):
            wrapper("NZ")
        assert wrapper("CA") == "ok:CA"

    def test_retry_recovers_transient_fault(self):
        worker = FlakyWorker({"NZ": 2})
        wrapper = ResilientWorker(worker, on_error="retry", max_retries=2,
                                  base_delay=0.0)
        assert wrapper("NZ") == "ok:NZ"
        assert worker.calls == [("NZ", 1), ("NZ", 2), ("NZ", 3)]

    def test_retry_exhaustion_returns_manifest_entry(self):
        wrapper = ResilientWorker(FlakyWorker({"NZ": 99}), on_error="retry",
                                  max_retries=2, base_delay=0.0)
        failure = wrapper("NZ")
        assert isinstance(failure, CountryFailure)
        assert failure.country_code == "NZ"
        assert failure.attempts == 3
        assert failure.error_type == "ValueError"
        assert "flaky NZ attempt 3" in failure.message
        assert "ValueError" in failure.traceback

    def test_skip_gives_exactly_one_attempt(self):
        worker = FlakyWorker({"NZ": 99})
        failure = ResilientWorker(worker, on_error="skip", max_retries=5,
                                  base_delay=0.0)("NZ")
        assert failure.attempts == 1
        assert worker.calls == [("NZ", 1)]

    def test_traced_failure_carries_journal_buffer(self):
        wrapper = ResilientWorker(FlakyWorker({"NZ": 99}), on_error="retry",
                                  max_retries=1, base_delay=0.0, trace=True)
        failure = wrapper("NZ")
        assert [r["ev"] for r in failure.events] == ["country_retry", "country_failed"]
        assert failure.events[-1]["attempts"] == 2
        assert failure.events[-1]["traceback"] == failure.traceback

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            ResilientWorker(FlakyWorker({}), on_error="explode")
        with pytest.raises(ValueError):
            ResilientWorker(FlakyWorker({}), max_retries=-1)

    def test_run_study_rejects_bad_policy(self, scenario):
        with pytest.raises(ValueError, match="on_error"):
            run_study(scenario, countries=["CA"], config=StudyConfig(on_error="explode"))


# -- study level: the acceptance criteria ------------------------------------
class TestRetryEquivalence:
    """A transient fault under retry is invisible in the artefacts."""

    @pytest.mark.parametrize("backend,jobs", [
        ("serial", 1), ("process", 4),
    ])
    def test_outcome_byte_identical_to_fault_free_run(
        self, scenario, study_small, backend, jobs
    ):
        faulted = run_study(
            scenario, countries=SMALL_COUNTRIES,
            config=fast_retry(backend=backend, jobs=jobs, on_error="retry"),
            fault_injector=FaultInjector({"NZ": 1, "QA": 2}),
        )
        assert faulted.failures == []
        assert_outcomes_identical(study_small, faulted)

    def test_stripped_journal_identical_to_fault_free_run(self, scenario):
        clean = run_study(scenario, countries=FAULT_COUNTRIES, trace=True)
        faulted = run_study(
            scenario, countries=FAULT_COUNTRIES, config=fast_retry(on_error="retry"),
            fault_injector=FaultInjector({"NZ": 1}), trace=True,
        )
        assert faulted.journal.events("country_retry")  # fault really happened
        assert faulted.journal.dumps(timings=False) == clean.journal.dumps(
            timings=False
        )


class TestSkipManifest:
    @pytest.fixture(scope="class")
    def skipped(self, scenario):
        return run_study(
            scenario, countries=FAULT_COUNTRIES, config=fast_retry(on_error="skip"),
            fault_injector=FaultInjector.parse("NZ"), trace=True,
        )

    def test_failure_manifest_fields(self, skipped):
        assert skipped.failed_countries() == ["NZ"]
        failure = skipped.failures[0]
        assert failure.attempts == 1
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
        with pytest.raises(KeyError, match="failed after 1 attempt"):
            skipped.result_for("NZ")

    def test_journal_tells_the_failure_story(self, skipped):
        failed = skipped.journal.events("country_failed")
        assert [r["country"] for r in failed] == ["NZ"]
        assert "InjectedFaultError" in failed[0]["traceback"]
        assert skipped.journal.run_record["failed"] == ["NZ"]
        # A permanent failure is study content, not a diagnostic: it
        # survives the determinism strip (unlike retry/resume records).
        stripped = skipped.journal.dumps(timings=False)
        assert '"ev":"country_failed"' in stripped
        assert '"ev":"country_retry"' not in stripped

    def test_retry_exhaustion_counts_attempts(self, scenario):
        exhausted = run_study(
            scenario, countries=["CA", "NZ", "RW"],
            config=fast_retry(on_error="retry", max_retries=1),
            fault_injector=FaultInjector({"NZ": 99}),
        )
        assert exhausted.failures[0].attempts == 2
        assert sorted(exhausted.datasets) == ["CA", "RW"]

    @pytest.mark.parametrize("backend,jobs", [("process", 2)])
    def test_skip_is_backend_independent(self, scenario, skipped, backend, jobs):
        parallel = run_study(
            scenario, countries=FAULT_COUNTRIES,
            config=fast_retry(on_error="skip", backend=backend, jobs=jobs),
            fault_injector=FaultInjector.parse("NZ"), trace=True,
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
                fault_injector=FaultInjector({"NZ": 99}),
            )
        error = excinfo.value
        assert error.country_code == "NZ"
        assert error.worker_traceback is not None
        assert "InjectedFaultError" in error.worker_traceback
        assert "injected fault: NZ attempt 1" in error.worker_traceback
