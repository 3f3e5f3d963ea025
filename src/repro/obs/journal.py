"""The append-only JSONL run journal and its determinism contract.

A journal is an ordered list of flat JSON records.  Canonical ordering
makes the stream itself a backend-equivalence artefact:

1. one ``run`` record (schema version, country list, backend, jobs);
2. every per-country buffer, concatenated in **input country order**
   (each buffer is internally ordered by emission, which is sequential
   inside one worker);
3. coordinator-level tail records (the closing ``study`` span).

Line order *is* the sequence — records carry no sequence numbers.

Two classes of fields vary between otherwise-identical runs:

* **timing fields** (``t``, ``dur``) on any record, plus the run
  record's environment fields (``backend``, ``jobs``, ``resumed``,
  ``failed``) — the run's wall time is the ``study`` span's ``dur``;
* **diagnostic records** (``country_resumed``): a resume describes how
  the run unfolded, not what it measured.

:func:`strip_timings` removes both.  The contract — locked down by
``tests/test_trace_determinism.py`` — is that after stripping, the
journal bytes are identical for every backend × jobs combination.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Union

__all__ = [
    "SCHEMA_VERSION",
    "TIMING_FIELDS",
    "RUN_ENV_FIELDS",
    "DIAGNOSTIC_EVENTS",
    "RunJournal",
    "strip_timings",
]

SCHEMA_VERSION = 1

#: Wall-clock fields, present on spans and point events.
TIMING_FIELDS = frozenset({"t", "dur"})

#: Fields of the ``run`` record that describe the execution environment
#: rather than the study (they differ across backend/jobs combinations,
#: and across interrupted/uninterrupted executions of the same study).
RUN_ENV_FIELDS = frozenset({"backend", "jobs", "resumed", "failed"})

#: Event types that are runtime diagnostics: their payloads depend on
#: how the run unfolded rather than on the study itself — resumes
#: record countries loaded rather than re-measured — so the strip
#: operation removes the whole record.  ``country_failed`` is *not*
#: here: a failed country changes what the run produced, so it
#: survives stripping.
DIAGNOSTIC_EVENTS = frozenset({"country_resumed"})


def strip_timings(records: Iterable[dict]) -> List[dict]:
    """The deterministic core of a journal.

    Drops diagnostic records, removes timing fields everywhere, and
    removes environment fields from the ``run`` record.  Applying this
    to journals from any two equivalent runs yields identical records.
    """
    stripped: List[dict] = []
    for record in records:
        if record.get("ev") in DIAGNOSTIC_EVENTS:
            continue
        drop = TIMING_FIELDS if record.get("ev") != "run" else TIMING_FIELDS | RUN_ENV_FIELDS
        stripped.append({k: v for k, v in record.items() if k not in drop})
    return stripped


def _dump_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class RunJournal:
    """An ordered collection of journal records for one study run."""

    def __init__(self, records: Optional[List[dict]] = None):
        self.records: List[dict] = list(records or [])

    @classmethod
    def assemble(
        cls,
        run_record: dict,
        country_buffers: Iterable[List[dict]],
        tail_records: Iterable[dict] = (),
    ) -> "RunJournal":
        """Merge per-country buffers into the canonical stream order."""
        records: List[dict] = [run_record]
        for buffer in country_buffers:
            records.extend(buffer)
        records.extend(tail_records)
        return cls(records)

    # -- serialization -------------------------------------------------------
    def lines(self, timings: bool = True) -> Iterator[str]:
        records = self.records if timings else strip_timings(self.records)
        return (_dump_line(record) for record in records)

    def dumps(self, timings: bool = True) -> str:
        return "".join(f"{line}\n" for line in self.lines(timings=timings))

    def write(self, path: Union[str, Path], timings: bool = True) -> Path:
        path = Path(path)
        path.write_text(self.dumps(timings=timings))
        return path

    @classmethod
    def read(cls, path: Union[str, Path]) -> "RunJournal":
        records = []
        for n, line in enumerate(Path(path).read_text().splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}:{n}: not valid JSON: {error}") from error
        return cls(records)

    # -- access --------------------------------------------------------------
    def events(self, ev: Optional[str] = None) -> List[dict]:
        """Records, optionally filtered by event type."""
        if ev is None:
            return list(self.records)
        return [record for record in self.records if record.get("ev") == ev]

    def spans(self, kind: Optional[str] = None) -> List[dict]:
        return [
            record
            for record in self.records
            if record.get("ev") == "span" and (kind is None or record.get("kind") == kind)
        ]

    @property
    def run_record(self) -> Optional[dict]:
        for record in self.records:
            if record.get("ev") == "run":
                return record
        return None

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[dict]:
        return iter(self.records)
