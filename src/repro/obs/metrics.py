"""Labeled runtime metrics: registry, exact delta merge, snapshots.

This module generalizes the worker-side *delta* pattern used for cache
accounting since PR 1: every worker records into a **fresh**
:class:`MetricsRegistry` local to its country, ships the registry's
:meth:`~MetricsRegistry.snapshot` back on the ``CountryRun``, and the
coordinator folds the snapshots together in **input country order** via
:meth:`~MetricsRegistry.merge_snapshot`.  Because each delta is private
to one country and the merge order is fixed, float accumulation is
reproducible — the merged totals are *byte-identical* across the serial
and process backends and every worker count.

Two classes of series coexist in one registry:

* **study metrics** (``runtime=False``, the default) are deterministic
  functions of the study inputs — verdict statuses, funnel stages,
  constraint outcomes, tracker attributions.  These must match exactly
  between equivalent runs and are what ``gamma metrics diff`` compares
  strictly.
* **runtime metrics** (``runtime=True``) measure *how* the run was
  obtained — wall/CPU seconds, cache hits, transport bytes.  They vary
  with scheduling and are excluded from determinism contracts
  (:func:`strip_runtime`) and compared only with thresholds.

Everything here is dependency-free stdlib so that workers can pickle
registries and snapshots across the process-pool boundary.
"""

from __future__ import annotations

import json
import re
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "SNAPSHOT_SCHEMA_VERSION",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "merge_snapshots",
    "strip_runtime",
    "validate_metrics_snapshot",
    "build_study_snapshot",
    "validate_study_snapshot",
    "write_snapshot",
    "load_snapshot",
    "diff_snapshots",
    "DiffFinding",
]

METRICS_SCHEMA_VERSION = 2
SNAPSHOT_SCHEMA_VERSION = 1

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _label_key(labels: Optional[Mapping[str, Any]]) -> Tuple[Tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotone accumulator.  Stays ``int`` while fed ints."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value = self.value + amount


class Gauge:
    """Point-in-time value.  Merges by ``max`` (peak semantics)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value = self.value + amount


class _Family:
    __slots__ = ("name", "type", "help", "unit", "runtime", "series")

    def __init__(self, name: str, type_: str, help_: str, unit: str, runtime: bool) -> None:
        self.name = name
        self.type = type_
        self.help = help_
        self.unit = unit
        self.runtime = runtime
        self.series: Dict[Tuple[Tuple[str, str], ...], Any] = {}


class MetricsRegistry:
    """A process-local collection of labeled metric families.

    Not thread-safe by design: the intended usage gives every unit of
    concurrent work (a country, the coordinator) its **own** registry,
    which is what makes merged totals deterministic in the first place.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    # -- registration -------------------------------------------------
    def _family(self, name: str, type_: str, help_: str, unit: str, runtime: bool) -> _Family:
        family = self._families.get(name)
        if family is None:
            if not _NAME_RE.match(name):
                raise ValueError(f"invalid metric name: {name!r}")
            family = _Family(name, type_, help_, unit, runtime)
            self._families[name] = family
        elif family.type != type_:
            raise ValueError(
                f"metric {name!r} already registered as {family.type}, not {type_}"
            )
        return family

    def _series(self, family: _Family, labels: Optional[Mapping[str, Any]], factory: Callable[[], Any]) -> Any:
        key = _label_key(labels)
        metric = family.series.get(key)
        if metric is None:
            for label_name, _ in key:
                if not _LABEL_RE.match(label_name):
                    raise ValueError(f"invalid label name: {label_name!r}")
            metric = factory()
            family.series[key] = metric
        return metric

    def counter(
        self,
        name: str,
        labels: Optional[Mapping[str, Any]] = None,
        help: str = "",
        unit: str = "",
        runtime: bool = False,
    ) -> Counter:
        family = self._family(name, "counter", help, unit, runtime)
        return self._series(family, labels, Counter)

    def gauge(
        self,
        name: str,
        labels: Optional[Mapping[str, Any]] = None,
        help: str = "",
        unit: str = "",
        runtime: bool = False,
    ) -> Gauge:
        family = self._family(name, "gauge", help, unit, runtime)
        return self._series(family, labels, Gauge)

    # -- introspection ------------------------------------------------
    def families(self) -> Iterator[str]:
        return iter(self._families)

    def series(self, name: str) -> Iterator[Tuple[Dict[str, str], Any]]:
        """Yield ``(labels, metric)`` pairs in first-registration order."""
        family = self._families.get(name)
        if family is None:
            return iter(())
        return ((dict(key), metric) for key, metric in family.series.items())

    def value(self, name: str, labels: Optional[Mapping[str, Any]] = None) -> Any:
        """Convenience read: scalar value, or ``None`` when unregistered."""
        family = self._families.get(name)
        if family is None:
            return None
        metric = family.series.get(_label_key(labels))
        if metric is None:
            return None
        return metric.value

    # -- snapshot / merge ---------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Plain-data, JSON-safe, deterministically ordered export."""
        families: Dict[str, Any] = {}
        for name in sorted(self._families):
            family = self._families[name]
            entry: Dict[str, Any] = {"type": family.type}
            if family.help:
                entry["help"] = family.help
            if family.unit:
                entry["unit"] = family.unit
            if family.runtime:
                entry["runtime"] = True
            series_out: List[Dict[str, Any]] = []
            for key in sorted(family.series):
                metric = family.series[key]
                record: Dict[str, Any] = {}
                if key:
                    record["labels"] = dict(key)
                record["value"] = metric.value
                series_out.append(record)
            entry["series"] = series_out
            families[name] = entry
        return {"schema": METRICS_SCHEMA_VERSION, "families": families}

    def merge_snapshot(self, snapshot: Mapping[str, Any]) -> None:
        """Fold a snapshot in: counters add, gauges max.

        Addition order is fixed — families in sorted-name order, series
        in sorted-label order — so merging the same snapshots in the
        same sequence always lands on bit-identical floats.
        """
        families = snapshot.get("families", {})
        for name in sorted(families):
            entry = families[name]
            type_ = entry["type"]
            help_ = entry.get("help", "")
            unit = entry.get("unit", "")
            runtime = bool(entry.get("runtime", False))
            for record in entry["series"]:
                labels = record.get("labels")
                if type_ == "counter":
                    self.counter(name, labels, help=help_, unit=unit, runtime=runtime).inc(
                        record["value"]
                    )
                elif type_ == "gauge":
                    gauge = self.gauge(name, labels, help=help_, unit=unit, runtime=runtime)
                    gauge.set(max(gauge.value, record["value"]))
                else:  # pragma: no cover - schema guards upstream
                    raise ValueError(f"unknown metric type {type_!r}")


def merge_snapshots(snapshots: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Merge many snapshots (in the given order) into one."""
    registry = MetricsRegistry()
    for snapshot in snapshots:
        if snapshot:
            registry.merge_snapshot(snapshot)
    return registry.snapshot()


def strip_runtime(snapshot: Mapping[str, Any]) -> Dict[str, Any]:
    """Deterministic core of a metrics snapshot: runtime families removed.

    This is the metrics analogue of :func:`repro.obs.strip_timings` —
    what remains must be byte-identical across backends, jobs counts,
    and resumed or uninterrupted runs of the same study.
    """
    families = {
        name: entry
        for name, entry in snapshot.get("families", {}).items()
        if not entry.get("runtime", False)
    }
    return {"schema": snapshot.get("schema", METRICS_SCHEMA_VERSION), "families": families}


# ---------------------------------------------------------------------------
# Validation


def validate_metrics_snapshot(snapshot: Mapping[str, Any]) -> List[str]:
    """Structural checks on a registry snapshot; returns problem strings."""
    problems: List[str] = []
    if not isinstance(snapshot, Mapping):
        return ["snapshot is not an object"]
    if snapshot.get("schema") != METRICS_SCHEMA_VERSION:
        problems.append(f"schema must be {METRICS_SCHEMA_VERSION}")
    families = snapshot.get("families")
    if not isinstance(families, Mapping):
        return problems + ["families must be an object"]
    for name, entry in families.items():
        where = f"family {name!r}"
        if not _NAME_RE.match(str(name)):
            problems.append(f"{where}: invalid metric name")
        if not isinstance(entry, Mapping):
            problems.append(f"{where}: entry must be an object")
            continue
        type_ = entry.get("type")
        if type_ not in ("counter", "gauge"):
            problems.append(f"{where}: bad type {type_!r}")
            continue
        series = entry.get("series")
        if not isinstance(series, list):
            problems.append(f"{where}: series must be a list")
            continue
        seen = set()
        for record in series:
            if not isinstance(record, Mapping):
                problems.append(f"{where}: series record must be an object")
                continue
            labels = record.get("labels", {})
            if not isinstance(labels, Mapping):
                problems.append(f"{where}: labels must be an object")
                continue
            if not all(_LABEL_RE.match(str(k)) for k in labels):
                problems.append(f"{where}: invalid label name in {labels!r}")
            key = _label_key(labels)
            if key in seen:
                problems.append(f"{where}: duplicate series {labels!r}")
            seen.add(key)
            if not isinstance(record.get("value"), (int, float)):
                problems.append(f"{where}: value must be numeric")
    return problems


# ---------------------------------------------------------------------------
# Study snapshots (metrics.json)


def build_study_snapshot(
    meta: Mapping[str, Any],
    metrics: Mapping[str, Any],
    resources: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble the persistent ``metrics.json`` document for one run."""
    snapshot: Dict[str, Any] = {
        "schema": SNAPSHOT_SCHEMA_VERSION,
        "kind": "gamma-metrics",
        "meta": dict(meta),
        "metrics": dict(metrics),
    }
    if resources:
        snapshot["resources"] = dict(resources)
    return snapshot


def validate_study_snapshot(snapshot: Mapping[str, Any]) -> List[str]:
    """Validate a ``metrics.json`` document; returns problem strings."""
    problems: List[str] = []
    if not isinstance(snapshot, Mapping):
        return ["snapshot is not an object"]
    if snapshot.get("schema") != SNAPSHOT_SCHEMA_VERSION:
        problems.append(f"schema must be {SNAPSHOT_SCHEMA_VERSION}")
    if snapshot.get("kind") != "gamma-metrics":
        problems.append("kind must be 'gamma-metrics'")
    for section in ("meta", "metrics"):
        if not isinstance(snapshot.get(section), Mapping):
            problems.append(f"missing or non-object section {section!r}")
    if isinstance(snapshot.get("metrics"), Mapping):
        problems.extend(validate_metrics_snapshot(snapshot["metrics"]))
    resources = snapshot.get("resources")
    if resources is not None and not isinstance(resources, Mapping):
        problems.append("resources must be an object when present")
    elif resources:
        for country, usage in resources.items():
            where = f"resources[{country!r}]"
            if not isinstance(usage, Mapping):
                problems.append(f"{where} must be an object")
                continue
            if not isinstance(usage.get("cpu_seconds"), (int, float)):
                problems.append(f"{where}.cpu_seconds must be a number")
            for field in ("peak_rss_kb", "gc_collections"):
                if field in usage and not isinstance(usage[field], int):
                    problems.append(f"{where}.{field} must be an integer")
    return problems


def write_snapshot(path, snapshot: Mapping[str, Any]) -> None:
    """Write a snapshot as a JSON document."""
    from pathlib import Path

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_snapshot(path) -> Dict[str, Any]:
    from pathlib import Path

    return json.loads(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Run-over-run diff


def _escape_label_value(value: str) -> str:
    return value.replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')


def _label_string(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(f'{k}="{_escape_label_value(str(v))}"' for k, v in labels.items())
    return "{" + body + "}"


class DiffFinding:
    """One diff line with a severity verdict."""

    __slots__ = ("severity", "metric", "labels", "detail")

    def __init__(self, severity: str, metric: str, labels: Mapping[str, str], detail: str) -> None:
        self.severity = severity  # "regression" | "drift" | "change" | "improvement" | "info"
        self.metric = metric
        self.labels = dict(labels)
        self.detail = detail

    def render(self) -> str:
        label_str = _label_string(self.labels)
        return f"[{self.severity:<11}] {self.metric}{label_str}: {self.detail}"


def _series_values(entry: Mapping[str, Any]) -> Dict[Tuple[Tuple[str, str], ...], Any]:
    return {
        _label_key(record.get("labels")): record.get("value", 0)
        for record in entry.get("series", [])
    }


def _metric_families(snapshot: Mapping[str, Any]) -> Mapping[str, Any]:
    """Accept either a bare registry snapshot or a full study snapshot."""
    if "families" in snapshot:
        return snapshot["families"]
    metrics = snapshot.get("metrics", {})
    return metrics.get("families", {})


def diff_snapshots(
    old: Mapping[str, Any],
    new: Mapping[str, Any],
    threshold: float = 0.25,
    include_runtime: bool = False,
) -> List[DiffFinding]:
    """Compare two snapshots of (nominally) the same study.

    Deterministic (study) families must match **exactly** — any
    difference is a ``drift`` regression, because the study itself
    changed.  Runtime families are only compared when
    ``include_runtime`` is set, using ``threshold`` as the relative
    tolerance: increases beyond it are ``regression``, decreases beyond
    it ``improvement``, anything inside it ``info``.
    """
    findings: List[DiffFinding] = []
    old_families = _metric_families(old)
    new_families = _metric_families(new)
    for name in sorted(set(old_families) | set(new_families)):
        old_entry = old_families.get(name)
        new_entry = new_families.get(name)
        runtime = bool((new_entry or old_entry or {}).get("runtime", False))
        if runtime and not include_runtime:
            continue
        if old_entry is None or new_entry is None:
            severity = "change" if runtime else "drift"
            side = "baseline" if old_entry is None else "new run"
            findings.append(DiffFinding(severity, name, {}, f"family missing from {side}"))
            continue
        old_series = _series_values(old_entry)
        new_series = _series_values(new_entry)
        for key in sorted(set(old_series) | set(new_series)):
            labels = dict(key)
            old_value = old_series.get(key)
            new_value = new_series.get(key)
            if not runtime:
                if old_value != new_value:
                    findings.append(
                        DiffFinding("drift", name, labels, f"{old_value!r} -> {new_value!r}")
                    )
                continue
            if old_value is None or new_value is None:
                findings.append(DiffFinding("change", name, labels, "series appeared/vanished"))
                continue
            if old_value == new_value:
                continue
            base = abs(old_value) if old_value else 1.0
            relative = (new_value - old_value) / base
            detail = f"{old_value:g} -> {new_value:g} ({relative:+.1%})"
            if relative > threshold:
                findings.append(DiffFinding("regression", name, labels, detail))
            elif relative < -threshold:
                findings.append(DiffFinding("improvement", name, labels, detail))
            else:
                findings.append(DiffFinding("info", name, labels, detail))
    return findings
