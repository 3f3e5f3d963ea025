"""Fault tolerance for the per-country fan-out.

The paper's own deployment had to survive partial failure — volunteers
ran Gamma in chunks and the suite "is designed to resume from where it
was last stopped" (section 3.3).  The study keeps that property at
country granularity through checkpoint/resume
(:mod:`repro.exec.checkpoint`) and a per-country failure policy, which
:class:`repro.exec.worker.StudyWorker` applies:

* ``on_error="raise"`` (the default) fails fast: the first failing
  country aborts the study with
  :class:`~repro.exec.executor.CountryExecutionError`;
* ``on_error="skip"`` makes the worker *return* a
  :class:`CountryFailure` instead of raising, so the executor never
  cancels the fan-out and every other country completes.

A country's worker is a pure function of the scenario, the study
configuration and the country code, so a failed country fails the same
way every time it runs; each country therefore runs once per study,
and a stopped study picks up through resume.

:class:`FaultInjector` is the deterministic test hook: a set of
countries that always fail.  It drives the skip/raise test suites and
the CI fault-injection step (``gamma study --inject-fault``).
Everything here pickles, so it reaches process-pool workers unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional

__all__ = [
    "ON_ERROR_POLICIES",
    "InjectedFaultError",
    "FaultInjector",
    "CountryFailure",
    "check_on_error",
]

ON_ERROR_POLICIES = ("raise", "skip")


def check_on_error(on_error: str) -> None:
    """Reject a policy outside :data:`ON_ERROR_POLICIES`, naming the valid ones."""
    if on_error not in ON_ERROR_POLICIES:
        raise ValueError(
            f"unknown on_error policy {on_error!r}; "
            f"expected one of {', '.join(ON_ERROR_POLICIES)}"
        )


class InjectedFaultError(RuntimeError):
    """The deterministic fault raised by :class:`FaultInjector`."""


class FaultInjector:
    """Fail the selected countries, every time they run."""

    def __init__(self, countries: Iterable[str]):
        self.countries = frozenset(countries)

    @classmethod
    def parse(cls, spec: str) -> "FaultInjector":
        """Build from a CLI spec: ``"NZ"`` or ``"NZ,CA"``."""
        countries = [entry.strip().upper() for entry in spec.split(",")]
        for entry in countries:
            if ":" in entry:
                raise ValueError(
                    f"bad fault spec entry {entry!r}: a fault spec names "
                    "countries (CC[,CC...]); an injected fault fails its "
                    "country every time, so it takes no attempt bound"
                )
        countries = [country for country in countries if country]
        if not countries:
            raise ValueError(f"empty fault spec {spec!r}")
        return cls(countries)

    def check(self, country_code: str) -> None:
        """Raise :class:`InjectedFaultError` when *country_code* must fail."""
        if country_code in self.countries:
            raise InjectedFaultError(f"injected fault: {country_code}")


@dataclass
class CountryFailure:
    """Manifest entry for one country that failed under ``on_error="skip"``.

    Recorded on :attr:`repro.study.StudyOutcome.failures`; the formatted
    traceback is captured inside the worker (satisfying the process
    backend, whose pickled exceptions drop ``__traceback__``).
    """

    country_code: str
    error_type: str
    message: str
    traceback: str
    #: Journal buffer (one ``country_failed`` record) when tracing was
    #: on; merged in input country order like any other per-country
    #: buffer.
    events: Optional[List[dict]] = field(default=None, repr=False)

    @classmethod
    def of(cls, country_code: str, error: BaseException, formatted: str,
           trace: bool = False) -> "CountryFailure":
        failure = cls(country_code, type(error).__name__, str(error), formatted)
        if trace:
            failure.events = [{
                "ev": "country_failed",
                "span": f"study/{country_code}",
                "country": country_code,
                "error": f"{failure.error_type}: {failure.message}",
                "traceback": formatted,
            }]
        return failure
