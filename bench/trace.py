"""Outside-in layer tracing for the benchmark's traced pass.

The program is never edited: :func:`instrument` replaces public functions
and methods of each layer (``LAYER_CALLS``) with wrappers that record a
span — name, start, end, parent span, operation id — around every call.
Spans stay in memory; :meth:`Tracer.finish_op` turns one operation's spans
into per-layer self time (a span's duration minus the time its children
cover) and call counts, checks that they nest, and drops them.

Process-pool workers are forked from the traced interpreter, so they
inherit the wrappers.  A worker starts with an empty span list and writes
each finished per-country tree to a spool file, which the coordinator
absorbs when the operation finishes.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Tuple

FIGURE_RENDERERS = (
    "render_fig3", "render_fig4", "render_fig5", "render_fig6",
    "render_fig7", "render_fig8", "render_table1",
)

#: ``(span name, module, attribute)``: the calls into each layer that
#: are timed.  A name listed twice is one layer reached through two
#: module namespaces (a function its caller imported by name).
LAYER_CALLS: Tuple[Tuple[str, str, str], ...] = (
    ("worldgen.build", "repro.worldgen.builder", "build_scenario"),
    ("exec.coordinator", "repro.study", "run_study"),
    ("exec.fanout", "repro.exec.executor", "SerialStudyExecutor.map_countries"),
    ("exec.fanout", "repro.exec.executor", "ProcessPoolStudyExecutor.map_countries"),
    ("exec.transport", "repro.exec.transport", "TransportWorker.__call__"),
    ("exec.worker", "repro.exec.worker", "StudyWorker.__call__"),
    ("gamma.run", "repro.core.gamma.suite", "GammaSuite.run"),
    ("gamma.netinfo", "repro.core.gamma.netinfo", "NetworkInfoGatherer.gather"),
    ("gamma.probes", "repro.core.gamma.probes", "ProbeRunner.traceroute_many"),
    ("browser.load", "repro.browser.engine", "BrowserEngine.load"),
    ("netsim.dns_resolve", "repro.netsim.dns", "GeoDNSResolver.resolve"),
    ("netsim.trace", "repro.netsim.traceroute", "TracerouteEngine.trace"),
    ("atlas.source_traces", "repro.study", "build_source_traces"),
    ("atlas.traceroute", "repro.atlas.measurements", "AtlasMeasurementService.traceroute"),
    ("geoloc.classify", "repro.core.geoloc.pipeline", "GeolocationPipeline.classify_dataset"),
    ("trackers.classify", "repro.core.trackers.identify", "TrackerIdentifier.classify"),
    ("analysis.join", "repro.exec.worker", "build_country_result"),
    ("analysis.join", "repro.core.analysis.records", "build_country_result"),
    ("analysis.summary", "repro.core.analysis.summary", "summarize_study"),
    ("analysis.summary", "repro.artifacts", "summarize_study"),
    *(("analysis.figures", "repro.core.analysis.report", fn) for fn in FIGURE_RENDERERS),
    *(("analysis.figures", "repro.artifacts", fn) for fn in FIGURE_RENDERERS),
    ("artifacts.export", "repro.artifacts", "export_study"),
    ("artifacts.to_json", "repro.core.gamma.output", "VolunteerDataset.to_json"),
    ("artifacts.from_json", "repro.core.gamma.output", "VolunteerDataset.from_json"),
    ("artifacts.load_datasets", "repro.artifacts", "load_datasets"),
    ("artifacts.load_geolocations", "repro.artifacts", "load_geolocations"),
)

# Span record fields after the name; the fifth is the operation id.
_START, _END, _PARENT = range(1, 4)
#: Clock slack allowed when checking that children sit inside parents.
_SLACK = 1e-9


class Tracer:
    """Span recorder for one interpreter (and the workers it forks)."""

    def __init__(self, spool_dir: Path):
        self.enabled = True
        #: Operation id stamped on new spans.
        self.op = "setup"
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._spool_dir = Path(spool_dir)
        self._in_worker = False
        self._flushes = 0
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        self.spans = []
        self._stack = []
        self._in_worker = True

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][_END] = time.perf_counter()
        if self._stack and self._stack[-1] == index:
            self._stack.pop()
        if self._in_worker and not self._stack:
            self._flushes += 1
            path = self._spool_dir / f"{os.getpid()}-{self._flushes}.json"
            path.write_text(json.dumps(self.spans))
            self.spans = []

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, name: str, func):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            index = tracer._open(name)
            try:
                return func(*args, **kwargs)
            finally:
                tracer._close(index)

        return traced

    def _absorb_spool(self) -> None:
        """Append the span trees forked workers wrote, as separate roots."""
        if not self._spool_dir.is_dir():
            return
        for path in sorted(self._spool_dir.glob("*.json")):
            offset = len(self.spans)
            for name, start, end, parent, _ in json.loads(path.read_text()):
                self.spans.append(
                    [name, start, end, parent + offset if parent >= 0 else -1, self.op]
                )
            path.unlink()

    def finish_op(self) -> Tuple[Dict[str, float], Dict[str, object]]:
        """Per-layer ``<name>_s`` self time and ``<name>_calls`` for the
        spans recorded since the last call, plus the nesting check."""
        self._absorb_spool()
        spans, self.spans = self.spans, []
        return layer_values(spans)


def layer_values(spans: List[list]) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Self time and calls per span name, and how well the spans nest.

    ``check["coverage"]`` lists, per ``exec.coordinator`` (``run_study``)
    span, the share of its duration that named layers beneath it account
    for: one minus its own self time over its duration.  Time no wrapper
    sees lands in that self time and lowers the share.
    """
    children = [0.0] * len(spans)
    for span in spans:
        if span[_PARENT] >= 0 and span[_END] is not None:
            children[span[_PARENT]] += span[_END] - span[_START]
    values: Dict[str, float] = {}
    errors = 0
    min_self = float("inf")
    coverage: List[float] = []
    for index, (name, start, end, parent, _) in enumerate(spans):
        if end is None:
            errors += 1
            continue
        self_s = end - start - children[index]
        if parent >= 0:
            outer = spans[parent]
            if outer[_END] is None or start < outer[_START] - _SLACK or end > outer[_END] + _SLACK:
                errors += 1
        if self_s < -_SLACK:
            errors += 1
        min_self = min(min_self, self_s)
        values[f"{name}_s"] = values.get(f"{name}_s", 0.0) + self_s
        values[f"{name}_calls"] = values.get(f"{name}_calls", 0) + 1
        if name == "exec.coordinator" and end > start:
            coverage.append(1.0 - self_s / (end - start))
    check = {
        "spans": len(spans),
        "nesting_errors": errors,
        "min_self_s": min_self if spans else 0.0,
        "coverage": coverage,
    }
    return values, check


def instrument(tracer: Tracer) -> None:
    """Replace every ``LAYER_CALLS`` target with a traced wrapper."""
    for name, module_name, attribute in LAYER_CALLS:
        owner_path, _, member = attribute.rpartition(".")
        owner = importlib.import_module(module_name)
        if owner_path:
            owner = getattr(owner, owner_path)
        raw = vars(owner)[member]
        if isinstance(raw, classmethod):
            setattr(owner, member, classmethod(tracer.wrap(name, raw.__func__)))
        else:
            setattr(owner, member, tracer.wrap(name, raw))
