"""One fresh interpreter of the benchmark.

``python -m bench.child KIND --seed N --spawn T [options]`` imports the
program, builds the calibrated scenario and then, by KIND:

* ``setup`` — stops there (a set-up sample);
* ``study`` — one cold ``gamma study``: ``run_study`` and ``summary()``;
* ``revisits`` — a warm-up study, then full studies on later visit keys,
  all sharing the process-wide caches;
* ``bundle`` — one producing study, then export + reanalysis rounds.

Both loops make at least ``--ops`` operations and go on until
``--seconds`` have passed.

``--spawn`` is ``bench.run``'s ``time.monotonic()`` just before it started
this process (the clock is system-wide), so set-up includes interpreter
start.  Every timed window also records the machine's ``slowdown`` over
it (``bench/speed.py``), sampled from the start of :func:`measure` on.
The last line of output is one JSON object.  Correctness checks run
outside every timed window, with tracing paused.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from bench.common import (
    SCENARIO_SEED,
    SMOKE_COUNTRIES,
    SRC,
    WORK_DIR,
    nproc,
    visit_key,
)
from bench.speed import SpeedProbe
from bench.trace import Tracer, instrument

#: The figure battery of the bundle: exported file, renderer, accessor.
FIGURES = (
    ("fig3_prevalence.txt", "render_fig3", "prevalence"),
    ("fig4_per_website.txt", "render_fig4", "per_website"),
    ("fig5_flows.txt", "render_fig5", "flows"),
    ("fig6_continents.txt", "render_fig6", "continents"),
    ("fig7_hosting.txt", "render_fig7", "hosting"),
    ("fig8_organizations.txt", "render_fig8", "organizations"),
    ("table1_policy.txt", "render_table1", "policy"),
)
#: Memo caches whose hit rate and population the traced pass reports.
CACHES = ("netsim.distance", "gamma.traces", "atlas.dest_traces", "trackers.verdicts")

MB = float(1 << 20)


def _import_program() -> SimpleNamespace:
    """The program's modules.  Callers look functions up on them at every
    call, so the traced pass's wrappers apply."""
    modules = {
        "study": "repro.study",
        "worldgen": "repro.worldgen.builder",
        "artifacts": "repro.artifacts",
        "records": "repro.core.analysis.records",
        "report": "repro.core.analysis.report",
        "summary": "repro.core.analysis.summary",
        "validation": "repro.core.geoloc.validation",
        "cache": "repro.exec.cache",
    }
    return SimpleNamespace(
        **{key: importlib.import_module(module) for key, module in modules.items()}
    )


def _cpu_s() -> float:
    """CPU seconds of this process and every child it has waited for."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in map(resource.getrusage, (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    )


def _maxrss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # KiB on Linux


def _current_rss_mb() -> float:
    with open("/proc/self/statm") as statm:
        resident_pages = int(statm.read().split()[1])
    return resident_pages * os.sysconf("SC_PAGE_SIZE") / MB


def _pause(tracer: Optional[Tracer], enabled: bool = False) -> None:
    if tracer is not None:
        tracer.enabled = enabled


def _geoloc_errors(m, scenario, geolocations) -> List[str]:
    """The paper's 100%-precision guarantee, checked against seeded truth."""
    wrong = m.validation.misclassified_servers(scenario.world, geolocations)
    if not wrong:
        return []
    return [f"{len(wrong)} servers verified non-local are local, e.g. {wrong[:2]}"]


def _cache_counts(entries: Iterable[Tuple[str, int, int, int]]) -> Dict[str, float]:
    counts: Dict[str, float] = {}
    for name, hits, misses, size in entries:
        if name in CACHES:
            lookups = hits + misses
            counts[f"cache.{name}.hit_rate"] = hits / lookups if lookups else 0.0
            counts[f"cache.{name}.size"] = size
    return counts


def _study_counts(outcome) -> Dict[str, float]:
    """Layer ratios and counts read from one study's public outputs."""
    loaded = attempted = reached = launched = 0
    for dataset in outcome.datasets.values():
        loaded += dataset.loaded_count
        attempted += dataset.attempted_count
        traceroutes = dataset.traceroute_counts()
        reached += traceroutes["reached"]
        launched += traceroutes["attempted"]
    funnel = outcome.funnel()
    metrics = outcome.metrics
    resources = (outcome.metrics_snapshot or {}).get("resources", {})
    country_cpu = sum(entry["cpu_seconds"] for entry in resources.values())
    wall = metrics.wall_seconds
    counts = {
        "gamma.load_ratio": loaded / attempted if attempted else 0.0,
        "gamma.reached_ratio": reached / launched if launched else 0.0,
        "geoloc.verified_ratio": (
            funnel.after_rdns / funnel.nonlocal_candidates
            if funnel.nonlocal_candidates else 0.0
        ),
        # Per-country CPU over the CPU time the fan-out had available;
        # printed next to the program's own wall-based ``speedup``.
        "exec.parallel_efficiency": (
            country_cpu / (wall * min(metrics.jobs, nproc())) if wall else 0.0
        ),
        "exec.speedup": metrics.speedup,
        "exec.transport_mb": sum(metrics.transport_bytes.values()) / MB,
        "exec.encode_s": metrics.transport_encode_seconds,
        "exec.decode_s": metrics.transport_decode_seconds,
    }
    counts.update(_cache_counts(
        (name, info["hits"], info["misses"], info["size"])
        for name, info in metrics.cache_infos.items()
    ))
    return counts


def _finish(tracer: Optional[Tracer], record: dict, counts: Callable[[], dict]) -> dict:
    """Attach a traced unit's layer values, nesting check and counts."""
    if tracer is not None:
        record["layers"], record["check"] = tracer.finish_op()
        record["counts"] = counts()
    return record


def _timed_study(m, scenario, key: str, traced: bool, tracer, probe, **exec_options):
    """One study and its summary, timed, then checked."""
    _pause(tracer, traced)
    config = m.study.StudyConfig(visit_key=key, profile=traced, **exec_options)
    mark = probe.mark()
    cpu_start, started = _cpu_s(), time.monotonic()
    outcome = m.study.run_study(scenario, config=config)
    studied = time.monotonic()
    summary = outcome.summary()
    ended = time.monotonic()
    cpu_end = _cpu_s()
    slowdown = probe.slowdown(mark)
    _pause(tracer)
    op = {
        "op_s": ended - started,
        "slowdown": slowdown,
        "study_s": studied - started,
        "cpu_s": cpu_end - cpu_start,
        "rss_mb": _current_rss_mb(),
        "peak_rss_mb": max(
            _maxrss_mb(resource.RUSAGE_SELF), _maxrss_mb(resource.RUSAGE_CHILDREN)
        ),
        "traced": traced,
        "digest": hashlib.sha256(
            json.dumps(summary.to_dict(), sort_keys=True).encode()
        ).hexdigest()[:16],
        "errors": _geoloc_errors(m, scenario, outcome.geolocations),
    }
    return SimpleNamespace(
        op=op, outcome=outcome, summary=summary, ended=ended, cpu_end=cpu_end
    )


def _repeat(args, tracer, operation: Callable[[int, bool], dict]) -> List[dict]:
    """Closed loop: one operation at a time, at least ``--ops`` of them,
    until ``--seconds`` pass.

    In a traced run every second operation is traced; the others give
    the untraced baseline of ``trace.overhead_ratio``.
    """
    deadline = time.monotonic() + args.seconds
    ops: List[dict] = []
    while len(ops) < args.ops or time.monotonic() < deadline:
        index = len(ops)
        traced = tracer is not None and index % 2 == 1
        if tracer is not None:
            tracer.op = f"op{index}"
        try:
            ops.append(operation(index, traced))
        except Exception as error:
            _pause(tracer)
            if tracer is not None:
                tracer.finish_op()
            traceback.print_exc(file=sys.stderr)
            ops.append({"traced": traced, "errors": [f"{type(error).__name__}: {error}"]})
    return ops


# -- kinds -------------------------------------------------------------------
def study_sample(args, m, scenario, tracer, probe) -> dict:
    run = _timed_study(
        m, scenario, visit_key(args.seed), tracer is not None, tracer, probe,
        jobs=args.jobs, backend=args.backend,
    )
    op = run.op
    # The whole interpreter, like ``total_s``.
    op["total_s"] = run.ended - args.spawn
    op["slowdown"] = probe.slowdown()
    op["cpu_s"] = run.cpu_end
    op["worker_rss_mb"] = _maxrss_mb(resource.RUSAGE_CHILDREN)
    return _finish(tracer, op, lambda: _study_counts(run.outcome))


def revisits(args, m, scenario, tracer, probe) -> dict:
    warm = _timed_study(m, scenario, visit_key(args.seed), tracer is not None, tracer, probe)
    record = {
        "warmup_s": warm.op["op_s"],
        "warmup_slowdown": warm.op["slowdown"],
        "digest": warm.op["digest"],
        "errors": warm.op["errors"],
    }
    _finish(tracer, record, lambda: _study_counts(warm.outcome))
    del warm

    def visit(index: int, traced: bool) -> dict:
        run = _timed_study(
            m, scenario, visit_key(args.seed, index + 1), traced, tracer, probe
        )
        return _finish(
            tracer if traced else None, run.op, lambda: _study_counts(run.outcome)
        )

    record["ops"] = _repeat(args, tracer, visit)
    return record


def _reanalyze(m, scenario, directory: Path):
    """Every figure and the summary, from the bundle alone."""
    datasets = m.artifacts.load_datasets(directory)
    geolocations = m.artifacts.load_geolocations(directory, scenario.world.geo)
    results = [
        m.records.build_country_result(datasets[cc], geolocations[cc], scenario.identifier)
        for cc in sorted(datasets)
    ]
    manifest = json.loads((directory / "manifest.json").read_text())
    reread = m.study.StudyOutcome(
        scenario=scenario, datasets=datasets, geolocations=geolocations,
        results=results, source_trace_origins=manifest["source_trace_origins"],
    )
    figures = {
        name: getattr(m.report, render)(getattr(reread, accessor)())
        for name, render, accessor in FIGURES
    }
    return reread, figures, m.summary.summarize_study(reread)


def _bundle_errors(m, scenario, directory: Path, live, reread, figures, resummary) -> List[str]:
    errors = []
    if reread.prevalence().per_country() != live.prevalence:
        errors.append("reanalysed prevalence rows differ from the live study")
    for name, body in figures.items():
        if (directory / "figures" / name).read_text() != body + "\n":
            errors.append(f"reanalysed {name} differs from the exported figure")
    if resummary.to_dict() != live.summary:
        errors.append("reanalysed summary differs from the live summary")
    return errors + _geoloc_errors(m, scenario, reread.geolocations)


def bundle(args, m, scenario, tracer, probe) -> dict:
    produced = _timed_study(
        m, scenario, visit_key(args.seed), tracer is not None, tracer, probe
    )
    outcome = produced.outcome
    live = SimpleNamespace(
        summary=produced.summary.to_dict(), prevalence=outcome.prevalence().per_country()
    )
    record = {
        "study_s": produced.op["op_s"],
        "study_slowdown": produced.op["slowdown"],
        "digest": produced.op["digest"],
        "errors": produced.op["errors"],
    }
    _finish(tracer, record, lambda: _study_counts(outcome))

    def round_trip(index: int, traced: bool) -> dict:
        directory = WORK_DIR / f"bundle-{os.getpid()}-{index}"
        try:
            _pause(tracer, traced)
            mark = probe.mark()
            cpu_start, started = _cpu_s(), time.monotonic()
            files = m.artifacts.export_study(outcome, directory)
            exported = time.monotonic()
            reread, figures, resummary = _reanalyze(m, scenario, directory)
            ended = time.monotonic()
            cpu_end = _cpu_s()
            slowdown = probe.slowdown(mark)
            _pause(tracer)
            op = {
                "op_s": ended - started,
                "slowdown": slowdown,
                "export_s": exported - started,
                "reanalyze_s": ended - exported,
                "cpu_s": cpu_end - cpu_start,
                "bundle_mb": sum(path.stat().st_size for path in files) / MB,
                "peak_rss_mb": _maxrss_mb(resource.RUSAGE_SELF),
                "traced": traced,
                "errors": _bundle_errors(
                    m, scenario, directory, live, reread, figures, resummary
                ),
            }
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        return _finish(tracer if traced else None, op, lambda: {
            **_cache_counts(
                (info.name, info.hits, info.misses, info.size)
                for info in m.cache.cache_registry()
            ),
            "artifacts.bundle_mb": op["bundle_mb"],
        })

    record["ops"] = _repeat(args, tracer, round_trip)
    return record


KINDS = {"study": study_sample, "revisits": revisits, "bundle": bundle}


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m bench.child")
    parser.add_argument("kind", choices=("setup", *KINDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawn", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--ops", type=int, default=1)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--backend", default="serial")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    return parser.parse_args(argv)


def measure(argv: Optional[List[str]] = None) -> dict:
    """Run one KIND and return its record, which :func:`main` prints."""
    args = _parse(argv)
    spool = WORK_DIR / f"spool-{os.getpid()}"
    tracer = None
    if args.trace:
        spool.mkdir(parents=True, exist_ok=True)
        tracer = Tracer(spool)
    probe = SpeedProbe().start()
    try:
        with tracer.span("import") if tracer is not None else nullcontext():
            m = _import_program()
        if not Path(m.study.__file__).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit(f"bench: the program was imported from "
                             f"{m.study.__file__}, not from {SRC}")
        if tracer is not None:
            instrument(tracer)
        countries = list(SMOKE_COUNTRIES) if args.smoke else None
        scenario = m.worldgen.build_scenario(SCENARIO_SEED, countries=countries)
        setup_s = time.monotonic() - args.spawn
        setup_slowdown = probe.slowdown()
        record = (
            {} if args.kind == "setup"
            else KINDS[args.kind](args, m, scenario, tracer, probe)
        )
    finally:
        probe.stop()
        shutil.rmtree(spool, ignore_errors=True)
    record["setup_s"] = setup_s
    record["setup_slowdown"] = setup_slowdown
    return record


def main(argv: Optional[List[str]] = None) -> int:
    print(json.dumps(measure(argv)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
