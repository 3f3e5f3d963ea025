"""``tests/test_paper_shape.py`` on one scenario, visit key by visit key.

    PYTHONPATH=src:. python scripts/paper_shape_by_visit.py [--seed SEED] [KEY ...]

Runs the full serial study once per visit key (default: visit-1, -2,
-3, -5, -8 and -13) and calls every test of ``tests/test_paper_shape.py``
on it as written, with the study in place of the ``study_full`` fixture
and the scenario in place of ``scenario``.  Prints one line per visit
key with the number of tests passed, then each failing test with its
message or, for a bare ``assert``, its source line.  The studies share
one scenario; a visit's results equal those of the same visit on a
fresh scenario.
"""

from __future__ import annotations

import argparse
import inspect
import traceback

from repro import StudyConfig, build_scenario, run_study
from tests import test_paper_shape

DEFAULT_VISITS = ("visit-1", "visit-2", "visit-3", "visit-5", "visit-8", "visit-13")


def _tests():
    for class_name, cls in vars(test_paper_shape).items():
        if class_name.startswith("Test") and inspect.isclass(cls):
            for name, method in vars(cls).items():
                if name.startswith("test_"):
                    yield f"{class_name}::{name}", cls, method


def check(scenario, outcome):
    """``(passed, [(test, message), ...])`` for one study."""
    fixtures = {"study_full": outcome, "scenario": scenario}
    passed, failed = 0, []
    for test_id, cls, method in _tests():
        arguments = [fixtures[name] for name in inspect.signature(method).parameters
                     if name != "self"]
        try:
            method(cls(), *arguments)
        except AssertionError as error:
            # A bare ``assert`` has no message: show its source line.
            message = str(error) or traceback.extract_tb(error.__traceback__)[-1].line
            failed.append((test_id, message.split("\n")[0]))
        else:
            passed += 1
    return passed, failed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("visits", nargs="*", default=list(DEFAULT_VISITS))
    parser.add_argument("--seed", default="imc2025", help="scenario seed")
    opts = parser.parse_args()
    scenario = build_scenario(seed=opts.seed)
    for visit in opts.visits:
        outcome = run_study(scenario, config=StudyConfig(visit_key=visit))
        passed, failed = check(scenario, outcome)
        print(f"{opts.seed} {visit}: {passed} passed, {len(failed)} failed")
        for test_id, message in failed:
            print(f"  FAILED {test_id}: {message}")


if __name__ == "__main__":
    main()
