"""Fault behaviour of the parallel executor.

A worker that raises mid-country must fail the study with a clear error
naming the country code, cancel the remaining work, and always release
the pool — no deadlocks, no orphaned workers.
"""

from __future__ import annotations

import multiprocessing
import threading
import time

import pytest

from repro import StudyConfig, run_study
from repro.exec import (
    CountryExecutionError,
    ProcessPoolStudyExecutor,
    SerialStudyExecutor,
    create_executor,
)

COUNTRIES = ["AA", "BB", "CC", "DD"]


class ExplodingWorker:
    """Picklable worker raising for selected countries (module level so the
    process pool can ship it)."""

    def __init__(self, failing, delay_s: float = 0.0):
        self.failing = set(failing)
        self.delay_s = delay_s

    def __call__(self, country_code: str) -> str:
        if self.delay_s:
            time.sleep(self.delay_s)
        if country_code in self.failing:
            raise ValueError(f"probe melted in {country_code}")
        return f"ok:{country_code}"


def all_executors():
    return [
        SerialStudyExecutor(),
        ProcessPoolStudyExecutor(jobs=2),
        ProcessPoolStudyExecutor(jobs=8),
    ]


@pytest.mark.parametrize("executor", all_executors(), ids=lambda e: f"{e.name}-{e.jobs}")
class TestWorkerFaults:
    def test_error_names_the_country(self, executor):
        with pytest.raises(CountryExecutionError) as excinfo:
            executor.map_countries(ExplodingWorker(failing={"CC"}), COUNTRIES)
        assert excinfo.value.country_code == "CC"
        assert "CC" in str(excinfo.value)
        assert "probe melted" in str(excinfo.value)

    def test_earliest_failing_country_wins(self, executor):
        with pytest.raises(CountryExecutionError) as excinfo:
            executor.map_countries(ExplodingWorker(failing={"BB", "DD"}), COUNTRIES)
        assert excinfo.value.country_code == "BB"

    def test_healthy_run_returns_in_input_order(self, executor):
        results = executor.map_countries(ExplodingWorker(failing=()), COUNTRIES)
        assert results == [f"ok:{cc}" for cc in COUNTRIES]


class TestPoolHygiene:
    def test_process_pool_released_after_failure(self):
        executor = ProcessPoolStudyExecutor(jobs=4)
        before = len(multiprocessing.active_children())
        for _ in range(3):
            with pytest.raises(CountryExecutionError):
                executor.map_countries(
                    ExplodingWorker(failing={"AA"}, delay_s=0.01), COUNTRIES
                )
        deadline = time.time() + 10.0
        while len(multiprocessing.active_children()) > before and time.time() < deadline:
            time.sleep(0.05)
        assert len(multiprocessing.active_children()) <= before

    def test_failure_does_not_deadlock_with_slow_siblings(self):
        executor = ProcessPoolStudyExecutor(jobs=2)
        worker = ExplodingWorker(failing={"AA"}, delay_s=0.05)
        finished = []

        def run():
            with pytest.raises(CountryExecutionError):
                executor.map_countries(worker, COUNTRIES)
            finished.append(True)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(timeout=30.0)
        assert finished, "executor deadlocked after a worker fault"

    def test_process_pool_shuts_down_after_failure(self):
        executor = ProcessPoolStudyExecutor(jobs=2)
        with pytest.raises(CountryExecutionError) as excinfo:
            executor.map_countries(ExplodingWorker(failing={"DD"}), COUNTRIES)
        assert excinfo.value.country_code == "DD"
        # The pool context exited; a fresh map on the same executor object
        # builds a new pool and still works.
        assert executor.map_countries(ExplodingWorker(failing=()), ["AA"]) == ["ok:AA"]


class TestRunStudyFaults:
    @pytest.mark.parametrize("backend,jobs", [("serial", 1), ("process", 2)])
    def test_study_failure_names_country(self, scenario, monkeypatch, backend, jobs):
        from repro.exec import worker as worker_module

        original = worker_module.StudyWorker.__call__

        def explode(self, country_code):
            if country_code == "NZ":
                raise RuntimeError("volunteer laptop caught fire")
            return original(self, country_code)

        monkeypatch.setattr(worker_module.StudyWorker, "__call__", explode)
        with pytest.raises(CountryExecutionError) as excinfo:
            run_study(
                scenario, countries=["CA", "NZ"],
                config=StudyConfig(jobs=jobs, backend=backend),
            )
        assert excinfo.value.country_code == "NZ"
        assert "NZ" in str(excinfo.value)

    def test_unknown_country_fails_cleanly(self, scenario):
        with pytest.raises(CountryExecutionError) as excinfo:
            run_study(scenario, countries=["ZZ"])
        assert excinfo.value.country_code == "ZZ"
        assert isinstance(excinfo.value.cause, KeyError)


class TestExecutorConstruction:
    def test_auto_backend_selection(self):
        assert create_executor("auto", 1).name == "serial"
        assert create_executor("auto", 4).name == "process"

    def test_jobs_zero_means_cpu_count(self):
        import os

        executor = create_executor("process", 0)
        assert executor.jobs == (os.cpu_count() or 1)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            create_executor("auto", -1)
        with pytest.raises(ValueError):
            create_executor("warpdrive", 2)
        with pytest.raises(ValueError):
            create_executor("thread", 2)
        with pytest.raises(ValueError):
            ProcessPoolStudyExecutor(jobs=0)
        with pytest.raises(ValueError, match="expected one of auto, serial, process"):
            StudyConfig(backend="thread")

    @pytest.mark.parametrize("jobs", [0, 2, 4])
    def test_serial_backend_runs_exactly_one_job(self, jobs):
        # A serial executor for jobs=N would run one job while the study
        # reported N: both entry points refuse the combination.
        with pytest.raises(ValueError, match=f"backend 'serial' runs one job, not jobs={jobs}"):
            create_executor("serial", jobs)
        with pytest.raises(ValueError, match=f"backend 'serial' runs one job, not jobs={jobs}"):
            StudyConfig(backend="serial", jobs=jobs)
        assert create_executor("serial", 1).name == "serial"
        assert create_executor("serial").name == "serial"
        assert StudyConfig(backend="serial", jobs=1).jobs == 1
