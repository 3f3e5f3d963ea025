"""Smoke test of the benchmark itself: ``pytest bench/``.

Runs ``bench.run --smoke`` (two countries, two operations per workload)
and checks what every later comparison relies on: each metric named in
``BENCHMARK.json`` is emitted with its unit, the traced spans nest, and a
damaged bundle is counted as a failed operation instead of ending the run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from bench.common import ROOT, SMOKE_OPS, SRC, WORKLOADS, load_spec


def test_smoke_emits_every_metric_and_nested_spans():
    done = subprocess.run(
        [sys.executable, "-m", "bench.run", "--smoke", "--seed", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = [json.loads(line) for line in done.stdout.splitlines() if line.startswith("{")]
    spec = load_spec()
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    # One line per workload, untraced then traced, then the overall line.
    assert len(lines) == 2 * len(WORKLOADS) + 1
    for line, expected in zip(lines, [end_to_end] * 4 + [per_layer] * 4):
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        assert {name: m["unit"] for name, m in line["metrics"].items()} == expected
        assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())
    assert all(line["metrics"][name]["value"] > 0 for line in lines[:4] for name in end_to_end)

    (path,) = {line.split("results: ", 1)[1] for line in done.stdout.splitlines()
               if line.startswith("  results: ")}
    document = json.loads((ROOT / path).read_text())
    for name in WORKLOADS:
        trace = document["workloads"][name]["trace"]
        assert trace["check"]["spans"] > 0
        assert trace["check"]["nesting_errors"] == 0
        assert trace["check"]["min_self_s"] >= 0
        assert 0 < trace["layers"]["trace.coverage"] <= 1


def test_corrupted_bundle_is_counted_not_fatal(monkeypatch, capsys):
    """The first round's bundle is damaged between export and reanalysis;
    the run goes on, and counts that round as failed."""
    monkeypatch.syspath_prepend(str(SRC))
    import repro.artifacts

    from bench import child, run

    load_datasets = repro.artifacts.load_datasets
    damaged = []

    def load_damaged_once(directory):
        if not damaged:
            damaged.append(sorted((Path(directory) / "datasets").glob("*.json"))[0])
            damaged[0].write_text(damaged[0].read_text()[:100])
        return load_datasets(directory)

    monkeypatch.setattr(repro.artifacts, "load_datasets", load_damaged_once)
    # Children run in this interpreter, so they see the damaging loader.
    monkeypatch.setattr(run, "_spawn", lambda kind, opts, **extra: (
        child.measure(run.child_argv(kind, opts, **extra)), ""))
    spec = load_spec()
    opts = run._parse(["--smoke", "--seed", "0"], spec)
    line = run.run_workload("bundle_roundtrip", opts, spec, trace=False)
    assert line["correct"] is False
    # The producing study and the later round passed.
    assert (line["attempted"], line["failed"]) == (1 + SMOKE_OPS, 1)
    assert "JSONDecodeError" in capsys.readouterr().out
