"""Reproduction of *Where in the World Are My Trackers?* (IMC 2025).

Public API:

* :func:`repro.build_scenario` — construct the calibrated synthetic
  Internet + web + measurement services for the 23-country study.
* :func:`repro.run_study` — execute the full methodology (Gamma runs,
  Atlas fallbacks, multi-constraint geolocation, tracker identification)
  and return a :class:`repro.StudyOutcome` exposing every figure/table
  analysis.
* :class:`repro.GammaSuite` / :class:`repro.Volunteer` — the
  measurement tool itself, usable standalone.
* :class:`repro.GeolocationPipeline` — the multi-constraint server
  geolocation framework.
"""

from time import perf_counter as _perf_counter

#: When this package began importing: ``gamma study`` reports its
#: ``import`` phase from here.
_IMPORT_STARTED = _perf_counter()

from repro.core.gamma import GammaSuite, Volunteer, VolunteerDataset
from repro.core.geoloc import GeolocationPipeline, PipelineConfig, SourceTraces
from repro.core.trackers import TrackerIdentifier
from repro.artifacts import export_study, load_datasets
from repro.exec import (
    CountryExecutionError,
    CountryFailure,
    ExecMetrics,
    FaultInjector,
    StudyCheckpoint,
    StudyExecutor,
    create_executor,
)
from repro.longitudinal import ComplianceReport, LongitudinalStudy
from repro.obs import RunJournal, Tracer, strip_timings
from repro.recruitment import RecruitmentLog, build_recruitment_log
from repro.stability import SiteStability, VisitVariabilityStudy
from repro.study import StudyConfig, StudyOutcome, build_source_traces, run_study
from repro.worldgen import Scenario, build_scenario

__version__ = "1.0.0"

__all__ = [
    "CountryExecutionError",
    "CountryFailure",
    "ExecMetrics",
    "FaultInjector",
    "StudyCheckpoint",
    "GammaSuite",
    "GeolocationPipeline",
    "PipelineConfig",
    "RecruitmentLog",
    "ComplianceReport",
    "LongitudinalStudy",
    "RunJournal",
    "Scenario",
    "SiteStability",
    "SourceTraces",
    "StudyConfig",
    "StudyExecutor",
    "StudyOutcome",
    "TrackerIdentifier",
    "Tracer",
    "Volunteer",
    "VolunteerDataset",
    "VisitVariabilityStudy",
    "build_scenario",
    "build_recruitment_log",
    "create_executor",
    "build_source_traces",
    "export_study",
    "load_datasets",
    "run_study",
    "strip_timings",
    "__version__",
]
