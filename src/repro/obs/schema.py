"""Journal event taxonomy and per-line schema validation.

Every journal line is one flat JSON object whose ``ev`` field names its
type.  :func:`validate_journal` checks each record against the declared
field specs — CI runs it over a real traced study so the schema and the
emitters cannot drift apart silently.

Field specs map field name to ``(types, required)``.  Timing fields
(``t``, ``dur``) are always optional: journals written with
``--no-timings`` (or passed through :func:`repro.obs.strip_timings`)
lack them by design.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

__all__ = ["EVENT_FIELDS", "SPAN_KINDS", "validate_journal", "validate_record"]

_STR = (str,)
_INT = (int,)
_NUM = (int, float)
_BOOL = (bool,)
_LIST = (list,)
_DICT = (dict,)
_OPT_STR = (str, type(None))

SPAN_KINDS = ("study", "country", "phase", "site")

#: ``ev`` -> {field: (accepted types, required)}.
EVENT_FIELDS: Dict[str, Dict[str, Tuple[tuple, bool]]] = {
    "run": {
        "schema": (_INT, True),
        "countries": (_LIST, True),
        "backend": (_STR, False),
        "jobs": (_INT, False),
        "wall_seconds": (_NUM, False),
        "resumed": (_LIST, False),
        "failed": (_LIST, False),
    },
    "span": {
        "kind": (_STR, True),
        "name": (_STR, True),
        "span": (_STR, True),
        "parent": (_STR, True),
        "attrs": (_DICT, False),
    },
    "site_visit": {
        "url": (_STR, True),
        "category": (_STR, True),
        "loaded": (_BOOL, True),
        "failure_reason": (_OPT_STR, False),
        "requested_hosts": (_INT, False),
        "background_hosts": (_INT, False),
        "hardcoded_domains": (_INT, False),
    },
    "site_traceroutes": {
        "url": (_STR, True),
        "attempted": (_INT, True),
        "reached": (_INT, True),
    },
    "geoloc_decision": {
        "address": (_STR, True),
        "hosts": (_LIST, True),
        "weight": (_INT, True),
        "status": (_STR, True),
        "claim_country": (_OPT_STR, False),
        "claim_city": (_OPT_STR, False),
        "discarded_by": (_OPT_STR, False),
        "checks": (_LIST, False),
    },
    "tracker_match": {
        "host": (_STR, True),
        "method": (_STR, True),
        "list": (_OPT_STR, False),
        "org": (_OPT_STR, False),
    },
    "country_funnel": {
        "country": (_STR, True),
        "funnel": (_DICT, True),
    },
    # Fault-tolerance story (docs/robustness.md): a resume is a runtime
    # diagnostic (stripped with the timings); a failed country is part
    # of what the run produced and survives stripping.
    "country_failed": {
        "country": (_STR, True),
        "error": (_STR, True),
        "traceback": (_STR, False),
    },
    "country_resumed": {
        "country": (_STR, True),
    },
    # Telemetry diagnostic (docs/observability.md "Metrics"): live
    # progress samples are emitted in completion order and stripped with
    # the other diagnostics.
    "progress": {
        "country": (_STR, True),
        "done": (_INT, True),
        "total": (_INT, True),
        "sites": (_INT, False),
        "failed": (_INT, False),
        "sites_per_second": (_NUM, False),
        "eta_seconds": (_NUM, False),
        "resumed": (_BOOL, False),
    },
}

#: Fields every record may carry in addition to its type's own.
_COMMON_FIELDS: Dict[str, tuple] = {"ev": _STR, "span": _STR, "t": _NUM, "dur": _NUM}


def validate_record(record: object, lineno: int = 0) -> List[str]:
    """Schema problems for one journal record (empty list = valid)."""
    where = f"line {lineno}" if lineno else "record"
    if not isinstance(record, dict):
        return [f"{where}: not a JSON object"]
    ev = record.get("ev")
    if not isinstance(ev, str):
        return [f"{where}: missing 'ev' field"]
    spec = EVENT_FIELDS.get(ev)
    if spec is None:
        return [f"{where}: unknown event type {ev!r}"]

    problems: List[str] = []
    for name, (types, required) in spec.items():
        if name not in record:
            if required:
                problems.append(f"{where} ({ev}): missing required field {name!r}")
            continue
        value = record[name]
        # bool is an int subclass; keep int-typed fields strictly integral.
        if isinstance(value, bool) and bool not in types:
            problems.append(f"{where} ({ev}): field {name!r} has bool, expected {types}")
        elif not isinstance(value, types):
            problems.append(
                f"{where} ({ev}): field {name!r} has {type(value).__name__}, "
                f"expected one of {[t.__name__ for t in types]}"
            )
    for name, value in record.items():
        if name in spec:
            continue
        if name not in _COMMON_FIELDS:
            problems.append(f"{where} ({ev}): undeclared field {name!r}")
        elif not isinstance(value, _COMMON_FIELDS[name]):
            problems.append(f"{where} ({ev}): field {name!r} has {type(value).__name__}")
    if ev == "span" and record.get("kind") not in SPAN_KINDS:
        problems.append(f"{where} (span): unknown span kind {record.get('kind')!r}")
    return problems


def validate_journal(records: Iterable[dict]) -> List[str]:
    """Schema problems across a whole journal, with 1-based line numbers."""
    problems: List[str] = []
    first_ev = None
    for lineno, record in enumerate(records, start=1):
        if lineno == 1 and isinstance(record, dict):
            first_ev = record.get("ev")
        problems.extend(validate_record(record, lineno))
    if first_ev is not None and first_ev != "run":
        problems.append("line 1: journal must start with the 'run' record")
    return problems
