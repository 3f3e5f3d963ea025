"""Fault tolerance for the per-country fan-out.

The paper's own deployment had to survive partial failure — volunteers
ran Gamma in chunks and the suite "is designed to resume from where it
was last stopped" (section 3.3).  This module gives the study driver the
same property at country granularity:

* :class:`ResilientWorker` wraps the per-country worker with a failure
  policy — ``on_error="raise"`` (historical fail-fast behaviour),
  ``"skip"`` (record the failure, keep the other countries), or
  ``"retry"`` (re-attempt with deterministic exponential backoff, then
  skip).  Under ``skip``/``retry`` the worker *returns* a
  :class:`CountryFailure` instead of raising, so the executor never
  cancels the fan-out and every surviving country completes.
* :func:`backoff_delay` derives each retry delay from
  :func:`repro.determinism.stable_hash`, so a retry schedule is a pure
  function of ``(country, attempt)`` — reproducible across runs,
  backends, and machines.
* :class:`FaultInjector` is the deterministic test hook: fail country X
  on its first N attempts.  It drives the retry/skip test suites and the
  CI fault-injection step (``gamma study --inject-fault``).

Everything here is picklable, so the same wrapper runs unchanged under
the serial and process-pool backends.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.determinism import stable_uniform

__all__ = [
    "ON_ERROR_POLICIES",
    "InjectedFaultError",
    "FaultInjector",
    "CountryFailure",
    "ResilientWorker",
    "backoff_delay",
]

ON_ERROR_POLICIES = ("raise", "skip", "retry")

#: ``--inject-fault CC`` (no attempt bound) fails every attempt.
_ALWAYS = 2 ** 31


class InjectedFaultError(RuntimeError):
    """The deterministic fault raised by :class:`FaultInjector`."""


class FaultInjector:
    """Fail selected countries on their first N attempts.

    ``fail_attempts`` maps country code to the number of leading
    attempts that must fail; attempts beyond that bound succeed, which
    models a transient outage.  An unbounded entry (``parse("NZ")`` or
    ``fail_attempts={"NZ": FaultInjector.ALWAYS}``) models a permanent
    one.  Instances pickle, so injection reaches process-pool workers.
    """

    ALWAYS = _ALWAYS

    def __init__(self, fail_attempts: Mapping[str, int]):
        self._fail_attempts: Dict[str, int] = dict(fail_attempts)

    @classmethod
    def parse(cls, spec: str) -> "FaultInjector":
        """Build from a CLI spec: ``"NZ:1,CA:2"`` / ``"NZ"`` (permanent)."""
        fail_attempts: Dict[str, int] = {}
        for entry in spec.split(","):
            entry = entry.strip()
            if not entry:
                continue
            country, _, bound = entry.partition(":")
            country = country.strip().upper()
            if not country:
                raise ValueError(f"bad fault spec entry {entry!r}")
            if bound in ("", "*"):
                fail_attempts[country] = _ALWAYS
            else:
                attempts = int(bound)
                if attempts < 1:
                    raise ValueError(f"bad fault spec entry {entry!r}: "
                                     "attempt bound must be >= 1")
                fail_attempts[country] = attempts
        if not fail_attempts:
            raise ValueError(f"empty fault spec {spec!r}")
        return cls(fail_attempts)

    def should_fail(self, country_code: str, attempt: int) -> bool:
        bound = self._fail_attempts.get(country_code)
        return bound is not None and attempt <= bound

    def check(self, country_code: str, attempt: int) -> None:
        """Raise :class:`InjectedFaultError` when this attempt must fail."""
        if self.should_fail(country_code, attempt):
            raise InjectedFaultError(
                f"injected fault: {country_code} attempt {attempt}"
            )


def backoff_delay(country_code: str, attempt: int, base_delay: float) -> float:
    """Seconds to wait after failed *attempt* before the next one.

    Exponential (``base * 2**(attempt-1)``) with a jitter factor in
    ``[0.5, 1.5)`` drawn from :func:`repro.determinism.stable_uniform`,
    so the whole schedule is a deterministic function of the country and
    attempt number — no wall-clock or per-process entropy involved.
    """
    if base_delay <= 0:
        return 0.0
    jitter = stable_uniform(0.5, 1.5, "retry-backoff", country_code, attempt)
    return base_delay * (2 ** (attempt - 1)) * jitter


@dataclass
class CountryFailure:
    """Manifest entry for one country that stayed down.

    Recorded on :attr:`repro.study.StudyOutcome.failures` when the
    failure policy is ``skip`` or ``retry``; the formatted traceback is
    captured inside the worker (satisfying the process backend, whose
    pickled exceptions drop ``__traceback__``).
    """

    country_code: str
    attempts: int
    error_type: str
    message: str
    traceback: str
    #: Journal buffer (``country_retry`` + ``country_failed`` records)
    #: when tracing was on; merged in input country order like any
    #: other per-country buffer.
    events: Optional[List[dict]] = field(default=None, repr=False)

    def describe(self) -> str:
        return (f"{self.country_code}: {self.error_type}: {self.message} "
                f"(after {self.attempts} attempt{'s' if self.attempts != 1 else ''})")


class ResilientWorker:
    """Apply a failure policy around the per-country worker.

    The wrapper is what the executor actually maps: under ``skip`` and
    ``retry`` it converts exceptions into returned
    :class:`CountryFailure` values, so :func:`map_countries` never sees
    a failure and never cancels the remaining countries.  Under
    ``raise`` it is transparent (the historical fail-fast contract).

    When a checkpoint store is attached, every successful
    :class:`~repro.exec.worker.CountryRun` is persisted *from inside the
    worker* the moment it lands — the study can die at any point and
    lose at most the countries still in flight.
    """

    def __init__(
        self,
        worker,
        on_error: str = "raise",
        max_retries: int = 2,
        base_delay: float = 0.1,
        checkpoint=None,
        trace: bool = False,
    ):
        if on_error not in ON_ERROR_POLICIES:
            raise ValueError(
                f"unknown on_error policy {on_error!r}; "
                f"expected one of {ON_ERROR_POLICIES}"
            )
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self._worker = worker
        self._on_error = on_error
        self._max_retries = max_retries
        self._base_delay = base_delay
        self._checkpoint = checkpoint
        self._trace = trace

    @property
    def on_error(self) -> str:
        return self._on_error

    def __call__(self, country_code: str):
        retry_events: List[dict] = []
        attempt = 0
        while True:
            attempt += 1
            try:
                # First attempts keep the historical one-argument call so
                # instrumented/monkeypatched workers stay compatible;
                # retries name the attempt for the injection hook.
                if attempt == 1:
                    run = self._worker(country_code)
                else:
                    run = self._worker(country_code, attempt=attempt)
            except Exception as error:
                if self._on_error == "raise":
                    raise
                formatted = getattr(error, "worker_traceback", None)
                if formatted is None:
                    formatted = traceback.format_exc()
                summary = f"{type(error).__name__}: {error}"
                retries_left = (
                    self._max_retries - (attempt - 1)
                    if self._on_error == "retry"
                    else 0
                )
                if retries_left > 0:
                    delay = backoff_delay(country_code, attempt, self._base_delay)
                    if self._trace:
                        retry_events.append({
                            "ev": "country_retry",
                            "span": f"study/{country_code}",
                            "country": country_code,
                            "attempt": attempt,
                            "error": summary,
                            "delay_seconds": round(delay, 6),
                        })
                    if delay > 0:
                        time.sleep(delay)
                    continue
                failure = CountryFailure(
                    country_code=country_code,
                    attempts=attempt,
                    error_type=type(error).__name__,
                    message=str(error),
                    traceback=formatted,
                )
                if self._trace:
                    failure.events = retry_events + [{
                        "ev": "country_failed",
                        "span": f"study/{country_code}",
                        "country": country_code,
                        "attempts": attempt,
                        "error": summary,
                        "traceback": formatted,
                    }]
                return failure
            else:
                events = getattr(run, "events", None)
                if events is not None and retry_events:
                    # The successful attempt's buffer already reads like a
                    # clean run; the retry records (diagnostics, stripped
                    # by the determinism contract) lead it.
                    events[:0] = retry_events
                if self._checkpoint is not None:
                    self._checkpoint.store(run)
                return run
