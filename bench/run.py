"""Benchmark runner: ``python -m bench.run [--workload W] --seed N``.

Every workload is a closed loop with one client: this process starts one
operation at a time in a fresh interpreter (``bench.child``) and waits
for it.  Without ``--workload`` it runs all four workloads and then the
traced pass; with one, it runs that workload once (``--trace 1`` for its
traced pass).  Each run prints every metric with its unit, median,
quartiles and sample count, writes ``bench/results/<sha>-seed<N>.json``
and ends with one JSON line.  The exit code is 1 when any correctness
check failed and 2 when the program or the benchmark definition is
missing.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from bench.common import (
    RESULTS_DIR,
    ROOT,
    SPEC_PATH,
    SRC,
    WORKLOADS,
    load_spec,
    metric_entry,
    nproc,
    op_count,
)

#: A child that runs longer than this is killed with its process group.
CHILD_TIMEOUT_S = 150
#: Fresh interpreters timed for set-up on the campaign workloads, in
#: addition to the campaign's own.
SETUP_PROBES = 2

_TIMES = (("wall_op_s", "s"), ("slowdown", "x"), ("cpu_s", "s"))
#: Metrics printed for a workload besides the end-to-end ones, with units.
DETAILS = {
    "study_serial": (*_TIMES, ("study_s", "s")),
    "study_process": (*_TIMES, ("study_s", "s"), ("worker_rss_mb", "MB")),
    "revisits": (
        *_TIMES, ("study_s", "s"), ("warmup_s", "s"), ("rss_growth_mb", "MB/visit"),
    ),
    "bundle_roundtrip": (
        *_TIMES, ("export_s", "s"), ("reanalyze_s", "s"), ("bundle_mb", "MB"),
        ("study_s", "s"),
    ),
}


def _source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:12]


def _git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
        capture_output=True, text=True, check=False,
    )
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def _numpy_version() -> Optional[str]:
    try:
        return importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        return None


def child_argv(kind: str, opts: argparse.Namespace, **extra) -> List[str]:
    """``bench.child``'s arguments; ``--spawn`` is the current time."""
    flags = [f"--{key}" for key, on in extra.items() if on is True]
    values = [
        item for key, value in extra.items() if value not in (True, False, None)
        for item in (f"--{key}", str(value))
    ]
    if opts.smoke:
        flags.append("--smoke")
    return [kind, "--seed", str(opts.seed), "--spawn", repr(time.monotonic()),
            *values, *flags]


def _spawn(kind: str, opts: argparse.Namespace, **extra) -> Tuple[Optional[dict], str]:
    """Run one ``bench.child``; returns (its record, "") or (None, why)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [sys.executable, "-m", "bench.child", *child_argv(kind, opts, **extra)]
    child = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    if out is None or child.returncode != 0:
        # The child's session also holds any pool workers it left behind.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.communicate()
        why = f"timed out after {CHILD_TIMEOUT_S} s" if out is None else (
            f"exited with status {child.returncode}")
        return None, f"{kind} child {why}"
    return json.loads(out.strip().splitlines()[-1]), ""


def _collect_studies(name: str, opts: argparse.Namespace, trace: bool) -> dict:
    """study_serial / study_process: each operation is a cold interpreter."""
    jobs, backend = (1, "serial") if name == "study_serial" else (nproc(), "process")
    deadline = time.monotonic() + opts.seconds
    ops_wanted = 2 if trace else op_count(name, opts.smoke)
    ops: List[dict] = []
    while len(ops) < ops_wanted or time.monotonic() < deadline:
        traced = trace and len(ops) % 2 == 1
        record, error = _spawn("study", opts, jobs=jobs, backend=backend, trace=traced)
        ops.append(record or {"traced": traced, "errors": [error]})
    # Every sample of one seed must summarise identically.
    digests = Counter(op["digest"] for op in ops if "digest" in op)
    digest = digests.most_common(1)[0][0] if digests else None
    for op in ops:
        if "digest" in op and op["digest"] != digest:
            op["errors"].append("summary digest differs from the other samples")
    counted = _counted(name, opts, ops)
    return {
        "ops": ops,
        "setup": None,
        "digest": digest,
        "setup_s": [_reference(op, "setup_s", "setup_slowdown") for op in counted],
        "peak_rss_mb": [op["peak_rss_mb"] for op in counted],
        "errors": [],
    }


def _collect_campaign(name: str, opts: argparse.Namespace, trace: bool) -> dict:
    """revisits / bundle_roundtrip: set up once, then repeat in-process."""
    kind = "revisits" if name == "revisits" else "bundle"
    probes = []
    errors = []
    for _ in range(0 if opts.smoke else SETUP_PROBES):
        record, error = _spawn("setup", opts)
        if record is None:
            errors.append(error)
        else:
            probes.append(_reference(record, "setup_s", "setup_slowdown"))
    ops_wanted = 2 if trace else op_count(name, opts.smoke)
    record, error = _spawn(kind, opts, seconds=opts.seconds, ops=ops_wanted, trace=trace)
    if record is None:
        return {"ops": [], "setup": None, "digest": None, "setup_s": [],
                "peak_rss_mb": [], "errors": errors + [error]}
    ops = record.pop("ops")
    # Set-up is the interpreter start to scenario built (median of several
    # fresh interpreters) plus the study that precedes the timed loop.
    first_study = (
        _reference(record, "warmup_s", "warmup_slowdown") if kind == "revisits"
        else _reference(record, "study_s", "study_slowdown")
    )
    built = probes + [_reference(record, "setup_s", "setup_slowdown")]
    # Memory is read once the fixed number of operations has run: on
    # revisits that is every visit's growth so far.
    counted = _counted(name, opts, ops)
    return {
        "ops": ops,
        "setup": record,
        "digest": record["digest"],
        "setup_s": [seconds + first_study for seconds in built],
        "peak_rss_mb": [op["peak_rss_mb"] for op in counted[-1:]],
        "errors": errors + record["errors"],
    }


def _counted(name: str, opts: argparse.Namespace, ops: List[dict]) -> List[dict]:
    """The operations the end-to-end metrics are read from: the first
    ``OPS[name]``, when all of them succeeded untraced."""
    first = ops[:op_count(name, opts.smoke)]
    if any(op["errors"] or op["traced"] for op in first):
        return []
    return first


def _slope(values: List[float]) -> float:
    """Least-squares slope of *values* against their index."""
    mean_x = (len(values) - 1) / 2
    mean_y = statistics.fmean(values)
    num = sum((i - mean_x) * (v - mean_y) for i, v in enumerate(values))
    return num / sum((i - mean_x) ** 2 for i in range(len(values)))


def _reference(record: dict, seconds: str, slowdown: str) -> float:
    """Wall time *seconds* of *record* at the machine's fast speed
    (``bench/speed.py``)."""
    return record[seconds] / record[slowdown]


def _samples(name: str, opts: argparse.Namespace, collected: dict) -> Dict[str, List[float]]:
    """Raw per-sample values of every end-to-end and detail metric."""
    ok = [op for op in collected["ops"] if not op["errors"] and not op["traced"]]
    counted = _counted(name, opts, collected["ops"])
    op_key = "total_s" if name.startswith("study_") else "op_s"
    samples = {
        "setup_s": collected["setup_s"],
        "op_s": [_reference(op, op_key, "slowdown") for op in counted],
        "peak_rss_mb": collected["peak_rss_mb"],
        "wall_op_s": [op[op_key] for op in ok],
        "slowdown": [op["slowdown"] for op in ok],
        "cpu_s": [op["cpu_s"] for op in ok],
    }
    if name.startswith("study_"):
        samples["study_s"] = [op["study_s"] for op in ok]
        samples["worker_rss_mb"] = [op["worker_rss_mb"] for op in ok]
    else:
        setup = collected["setup"] or {}
        for key in ("study_s", "export_s", "reanalyze_s", "bundle_mb"):
            if ok and key in ok[0]:
                samples[key] = [op[key] for op in ok]
        if name == "revisits" and setup:
            samples["warmup_s"] = [setup["warmup_s"]]
            if len(counted) >= 2:
                samples["rss_growth_mb"] = [_slope([op["rss_mb"] for op in counted])]
        if name == "bundle_roundtrip" and setup:
            samples["study_s"] = [setup["study_s"]]
    return {key: values for key, values in samples.items() if values}


def _layer_values(collected: dict) -> Tuple[Dict[str, float], dict]:
    """Per-layer metrics of a traced run, and the trace's own checks.

    Span-derived values (``<layer>_s``/``<layer>_calls``) are those of the
    set-up plus the median traced operation; counts and ratios are the
    median over the traced units that report them.
    """
    units = [op for op in collected["ops"] if op.get("traced") and not op["errors"]]
    setup = collected["setup"]
    everything = units + ([setup] if setup and "layers" in setup else [])
    layers: Dict[str, float] = {}
    for key in sorted({key for unit in units for key in unit["layers"]}):
        layers[key] = statistics.median(unit["layers"].get(key, 0) for unit in units)
    if setup and "layers" in setup:
        for key, value in setup["layers"].items():
            layers[key] = layers.get(key, 0) + value
    for key in sorted({key for unit in everything for key in unit["counts"]}):
        layers[key] = statistics.median(
            unit["counts"][key] for unit in everything if key in unit["counts"]
        )
    untraced = [_reference(op, "op_s", "slowdown") for op in collected["ops"]
                if not op["traced"] and not op["errors"]]
    traced = [_reference(op, "op_s", "slowdown") for op in units]
    if untraced and traced:
        layers["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    checks = [unit["check"] for unit in everything]
    coverage = [ratio for check in checks for ratio in check["coverage"]]
    if coverage:
        layers["trace.coverage"] = statistics.median(coverage)
    check = {
        "spans": sum(c["spans"] for c in checks),
        "nesting_errors": sum(c["nesting_errors"] for c in checks),
        "min_self_s": min((c["min_self_s"] for c in checks), default=0.0),
    }
    return layers, check


def _results(opts: argparse.Namespace) -> Tuple[Path, dict]:
    """This program version's results file for the seed, and its contents.

    Results are kept per source tree, so digests recorded by other
    workloads are only compared when they measured the same program.
    """
    source = _source_hash()
    sha = _git_sha() or f"src-{source}"
    suffix = "-smoke" if opts.smoke else ""
    path = RESULTS_DIR / f"{sha}-seed{opts.seed}{suffix}.json"
    document = json.loads(path.read_text()) if path.exists() else {}
    if document.get("source") != source:
        document = {
            "git_sha": sha, "source": source, "seed": opts.seed, "smoke": opts.smoke,
            "nproc": nproc(), "python": platform.python_version(),
            "numpy": _numpy_version(), "digests": {}, "workloads": {},
        }
    return path, document


def _digest_errors(document: dict, name: str, digest: Optional[str]) -> List[str]:
    """Every study of one seed — serial, process, the revisits warm-up and
    the bundle's producing study — must summarise identically."""
    if digest is None:
        return []
    errors = [
        f"summary digest differs from {other}'s for this seed"
        for other, recorded in document["digests"].items()
        if other != name and recorded != digest
    ]
    document["digests"][name] = digest
    return errors


def run_workload(name: str, opts: argparse.Namespace, spec: dict, trace: bool) -> dict:
    """Measure one workload (or its traced pass); print and store it."""
    collector = _collect_studies if name.startswith("study_") else _collect_campaign
    collected = collector(name, opts, trace)
    ops = collected["ops"]
    errors = list(collected["errors"]) + [e for op in ops for e in op["errors"]]
    attempted = len(ops) + (0 if name.startswith("study_") else 1)
    failed = sum(1 for op in ops if op["errors"]) + (1 if collected["errors"] else 0)
    path, document = _results(opts)
    digest_errors = _digest_errors(document, name, collected["digest"])
    if digest_errors:
        errors += digest_errors
        failed += 1
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    title = "traced pass" if trace else f"{opts.seconds:g} s"
    print(f"== {name} (seed {opts.seed}, {title}, {len(ops)} operations) ==")
    if trace:
        values, check = _layer_values(collected)
        if check["nesting_errors"]:
            errors.append(f"{check['nesting_errors']} spans do not nest")
            failed += 1
        report = {"layers": values, "check": check}
        for key, value in sorted(values.items()):
            print(f"  {key:<36} {value:>12.6g}")
        print(f"  spans {check['spans']}, nesting errors {check['nesting_errors']}, "
              f"min self time {check['min_self_s']:.3g} s")
        print(f"  exec.parallel_efficiency {values.get('exec.parallel_efficiency', 0):.3f} "
              f"vs program-reported speedup {values.get('exec.speedup', 0):.3f}x")
        result = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
                  for m in metrics}
    else:
        samples = _samples(name, opts, collected)
        units = {m["name"]: m["unit"] for m in metrics}
        units.update(DETAILS[name])
        entries = {
            metric: metric_entry(samples[metric], unit)
            for metric, unit in units.items() if metric in samples
        }
        for metric, entry in entries.items():
            print(f"  {metric:<16} {entry['unit']:<9} {entry['value']:>12.6g} "
                  f"[{entry['q1']:.6g}, {entry['q3']:.6g}]  n={entry['n']}")
        report = {"seconds": opts.seconds, "samples": samples, "metrics": entries}
        result = {m["name"]: {"value": entries[m["name"]]["value"], "unit": m["unit"]}
                  for m in metrics if m["name"] in entries}
    report.update(attempted=attempted, failed=failed, errors=errors)
    document["workloads"].setdefault(name, {})["trace" if trace else "run"] = report
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1, sort_keys=True))
    print(f"  error_rate {failed}/{attempted}")
    for error in errors:
        print(f"  error: {error}")
    print(f"  results: {path.relative_to(ROOT)}")
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}
    print(json.dumps(line), flush=True)
    return line


def _parse(argv: Optional[List[str]], spec: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="python -m bench.run", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all, then the traced pass)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="measuring time per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="1: the traced pass, printing the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="two countries and two operations per workload")
    opts = parser.parse_args(argv)
    if opts.smoke:
        opts.seconds = 0.0
    return opts


def main(argv: Optional[List[str]] = None) -> int:
    if not SPEC_PATH.is_file() or not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: needs {SPEC_PATH.name} and the program under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    opts = _parse(argv, spec)
    workloads = [opts.workload] if opts.workload else list(WORKLOADS)
    passes = [bool(opts.trace)] if opts.workload or opts.trace is not None else [False, True]
    lines = [
        (name, run_workload(name, opts, spec, trace))
        for trace in passes for name in workloads
    ]
    if len(lines) > 1:
        end_to_end = {m["name"] for m in spec["end_to_end"]}
        print(json.dumps({
            "correct": all(line["correct"] for _, line in lines),
            "attempted": sum(line["attempted"] for _, line in lines),
            "failed": sum(line["failed"] for _, line in lines),
            "metrics": {
                f"{name}.{metric}": entry
                for name, line in lines for metric, entry in line["metrics"].items()
                if metric in end_to_end
            },
        }))
    return 0 if all(line["correct"] for _, line in lines) else 1


if __name__ == "__main__":
    sys.exit(main())
