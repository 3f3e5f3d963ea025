"""Study-level checkpoint/resume.

A :class:`StudyCheckpoint` is a directory holding one pickled
:class:`~repro.exec.worker.CountryRun` per completed country,
``<CC>.run.pkl``, written atomically (temp file + ``os.replace``) by the
worker itself the moment the country finishes.  Resume is per country:
a country interrupted mid-run is measured again from its first site.
``run_study(checkpoint_dir=..., resume=True)`` loads the persisted runs,
skips their countries, and merges them with fresh runs in input country
order — byte-identical to an uninterrupted study, whichever backend ran
either half.

A file that fails to load (truncated write on the old non-atomic path,
version drift, disk corruption) is quarantined — renamed to
``*.corrupt`` — and its country is simply re-measured.  Files of any
other name are ignored: a ``<CC>.run.col`` left by an older version
(whose columnar format no longer exists) neither loads nor blocks a
resume, so that country is re-measured and written as ``.run.pkl``.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path
from typing import List, Union

__all__ = ["StudyCheckpoint"]

_SUFFIX = ".run.pkl"


class StudyCheckpoint:
    """One-file-per-country persistence for completed country runs."""

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)

    def path_for(self, country_code: str) -> Path:
        return self.directory / f"{country_code}{_SUFFIX}"

    def completed_countries(self) -> List[str]:
        """Country codes with a persisted run, sorted."""
        if not self.directory.is_dir():
            return []
        return sorted(
            path.name[: -len(_SUFFIX)]
            for path in self.directory.iterdir()
            if path.name.endswith(_SUFFIX)
        )

    def store(self, run) -> Path:
        """Atomically persist one completed run (safe to call from workers)."""
        payload = pickle.dumps(run, protocol=5)
        self.directory.mkdir(parents=True, exist_ok=True)
        target = self.path_for(run.country_code)
        fd, tmp_name = tempfile.mkstemp(
            dir=str(self.directory), prefix=f".{run.country_code}-"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp_name, str(target))
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise
        return target

    def load(self, country_code: str):
        """The persisted run for one country, or None.

        A file that cannot be unpickled — or that holds something other
        than this country's :class:`CountryRun` — is quarantined as
        ``<name>.corrupt`` and treated as absent, so a damaged checkpoint
        degrades to re-measuring that country instead of killing the
        resume.
        """
        from repro.exec.worker import CountryRun  # lazy: heavy import chain

        path = self.path_for(country_code)
        if not path.exists():
            return None
        try:
            run = pickle.loads(path.read_bytes())
            if not isinstance(run, CountryRun) or run.country_code != country_code:
                raise ValueError(
                    f"checkpoint {path.name} does not hold a CountryRun "
                    f"for {country_code}"
                )
        except Exception:
            self._quarantine(path)
            return None
        return run

    @staticmethod
    def _quarantine(path: Path) -> Path:
        corrupt = path.with_name(path.name + ".corrupt")
        os.replace(str(path), str(corrupt))
        return corrupt
