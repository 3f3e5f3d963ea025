"""Study execution backends: serial and process pool.

All backends satisfy one contract: ``map_countries(worker, countries)``
returns the worker's results **in input country order**, regardless of
completion order — merging is therefore byte-identical across backends
and worker counts.  An optional ``on_result`` callback observes results
in *completion* order (live progress reporting); it runs on the
caller's thread outside the result path, its exceptions are swallowed,
and nothing downstream may depend on its ordering.  A worker failure raises
:class:`CountryExecutionError` naming the earliest (in input order)
failing country; remaining work is cancelled and the pool is always
shut down, so a faulting study can neither deadlock nor leak workers.

The process backend installs the (picklable) worker once per worker
process through the pool initializer, so the scenario is shipped once
per process rather than once per country.  Parallelism is by processes
only: the per-country work is pure Python, so threads would contend for
one interpreter lock and run no faster than serial.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

__all__ = [
    "BACKENDS",
    "CountryExecutionError",
    "StudyExecutor",
    "SerialStudyExecutor",
    "ProcessPoolStudyExecutor",
    "check_backend",
    "create_executor",
]

T = TypeVar("T")

#: Every accepted ``backend`` value; ``auto`` resolves to one of the others.
BACKENDS = ("auto", "serial", "process")


class CountryExecutionError(RuntimeError):
    """A study worker failed while measuring one country."""

    def __init__(self, country_code: str, cause: BaseException):
        self.country_code = country_code
        self.cause = cause
        #: Formatted traceback captured inside the worker, when available.
        #: ``cause.__traceback__`` does not survive the process-pool
        #: pickle round trip, so :class:`repro.exec.worker.StudyWorker`
        #: attaches ``traceback.format_exc()`` to the exception instance
        #: and it is surfaced here for all backends alike.
        self.worker_traceback: Optional[str] = getattr(
            cause, "worker_traceback", None
        )
        super().__init__(
            f"study worker for country {country_code!r} failed: "
            f"{type(cause).__name__}: {cause}"
        )


class StudyExecutor:
    """Interface: fan a per-country worker out over a country list."""

    name = "abstract"
    jobs = 1

    def map_countries(
        self,
        worker: Callable[[str], T],
        countries: Sequence[str],
        on_result: Optional[Callable[[str, T], None]] = None,
    ) -> List[T]:
        raise NotImplementedError


def _notify(
    on_result: Optional[Callable[[str, T], None]], country_code: str, result: T
) -> None:
    """Invoke a completion callback; a broken observer never fails the study."""
    if on_result is None:
        return
    try:
        on_result(country_code, result)
    except Exception:  # pragma: no cover - observer bugs must stay silent
        pass


class SerialStudyExecutor(StudyExecutor):
    """The reference backend: one country after another, in order."""

    name = "serial"
    jobs = 1

    def map_countries(
        self,
        worker: Callable[[str], T],
        countries: Sequence[str],
        on_result: Optional[Callable[[str, T], None]] = None,
    ) -> List[T]:
        results: List[T] = []
        for country_code in countries:
            try:
                result = worker(country_code)
            except Exception as error:
                raise CountryExecutionError(country_code, error) from error
            _notify(on_result, country_code, result)
            results.append(result)
        return results


def _collect_in_order(
    pool: concurrent.futures.Executor,
    futures: Dict[str, "concurrent.futures.Future"],
    countries: Sequence[str],
    on_result: Optional[Callable[[str, T], None]],
) -> List[T]:
    """Await all futures; return results in input order or fail fast.

    Each success is passed to *on_result* on the caller's thread, in
    completion order.  On the first failure every pending future is
    cancelled and the pool is drained before the error for the earliest
    failing country (in input order) propagates, so no worker outlives
    the study call.
    """
    country_of = {future: cc for cc, future in futures.items()}
    for future in concurrent.futures.as_completed(country_of):
        if future.exception() is None:
            _notify(on_result, country_of[future], future.result())
            continue
        # Cancel everything not yet started, then drain the in-flight
        # workers: an earlier-in-input-order country may still be running
        # and about to fail, and blaming it must not depend on timing.
        # Pool queues are FIFO, so if a later country ran at all, every
        # earlier country ran too — the scan below is deterministic.
        for pending in futures.values():
            pending.cancel()
        concurrent.futures.wait(futures.values())
        pool.shutdown(wait=True, cancel_futures=True)
        for country_code in countries:
            done = futures[country_code]
            error = None if done.cancelled() else done.exception()
            if error is not None:
                raise CountryExecutionError(country_code, error) from error
    return [futures[country_code].result() for country_code in countries]


# -- process backend plumbing (module level so it pickles) -------------------
_PROCESS_WORKER: Optional[Callable[[str], object]] = None


def _install_process_worker(worker: Callable[[str], object]) -> None:
    global _PROCESS_WORKER
    _PROCESS_WORKER = worker


def _invoke_process_worker(country_code: str):
    assert _PROCESS_WORKER is not None, "pool initializer did not run"
    return _PROCESS_WORKER(country_code)


class ProcessPoolStudyExecutor(StudyExecutor):
    """Isolated-interpreter fan-out; worker and results must pickle."""

    name = "process"

    def __init__(self, jobs: int):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = jobs
        # fork (where available) inherits the installed worker for free;
        # spawn pickles it once per worker process.
        methods = multiprocessing.get_all_start_methods()
        self.start_method = "fork" if "fork" in methods else methods[0]

    def map_countries(
        self,
        worker: Callable[[str], T],
        countries: Sequence[str],
        on_result: Optional[Callable[[str, T], None]] = None,
    ) -> List[T]:
        context = multiprocessing.get_context(self.start_method)
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=self.jobs,
            mp_context=context,
            initializer=_install_process_worker,
            initargs=(worker,),
        ) as pool:
            futures = {cc: pool.submit(_invoke_process_worker, cc) for cc in countries}
            return _collect_in_order(pool, futures, countries, on_result)


def create_executor(backend: str = "auto", jobs: Optional[int] = None) -> StudyExecutor:
    """Build the backend for a job count.

    ``jobs=None`` means one job and ``0`` one worker per CPU;
    ``backend="auto"`` picks serial for one job and the process pool
    otherwise.  The serial backend runs one job and rejects any other
    count.
    """
    check_backend(backend, jobs)
    if jobs is None:
        jobs = 1
    elif jobs == 0:
        jobs = os.cpu_count() or 1
    elif jobs < 0:
        raise ValueError("jobs must be >= 0 (0 = one per CPU)")
    if backend == "auto":
        backend = "serial" if jobs == 1 else "process"
    if backend == "serial":
        return SerialStudyExecutor()
    return ProcessPoolStudyExecutor(jobs)


def check_backend(backend: str, jobs: Optional[int] = None) -> None:
    """Reject a backend outside :data:`BACKENDS`, naming the valid ones,
    and the serial backend with any job count but one (``None`` is one)."""
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {', '.join(BACKENDS)}"
        )
    if backend == "serial" and jobs not in (None, 1):
        raise ValueError(f"backend 'serial' runs one job, not jobs={jobs}")
