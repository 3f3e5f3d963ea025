"""Judge a change against its parent: ``python -m bench.compare PARENT CHANGE``.

PARENT and CHANGE are each a results file written by ``bench.run`` or a
directory of them (one file per seed).  For every workload and end-to-end
metric in ``BENCHMARK.json`` one row is printed with its verdict:

* ``improved`` — at least 10 pairs of runs (matched by seed; run them
  alternately), the change wins at least 9 in 10 (ties count for
  neither), and the medians differ by more than the parent's IQR;
* ``unresolved`` — the parent's spread (IQR / median) is wider than the
  metric's bound, unless every change value beats every parent value;
* ``regressed`` — the change's median is worse than the parent's by more
  than the bound;
* ``no worse`` — otherwise.

A side with several runs is described by its per-run medians; a side with
a single run by that run's raw samples.

Two detail metrics that repeat for one seed are judged too, seed by seed
(``PAIRED``): ``revisits``' memory growth per visit and the size of the
bundle.  Each pair gives the change's relative difference; the row has
regressed when the median difference is worse than the bound, improved
on at least 10 pairs with 9 in 10 won and a better median, and is no
worse otherwise.  Exit status 1 means a regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from bench.common import load_spec, summarize

MIN_PAIRS = 10
MIN_WIN_SHARE = 0.9
#: ``(workload, detail metric, bound)``, lower is better.
PAIRED = (("revisits", "rss_growth_mb", 0.05), ("bundle_roundtrip", "bundle_mb", 0.001))


def load_runs(path: Path) -> List[dict]:
    """Result documents under *path*, ordered by seed."""
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    documents = [json.loads(file.read_text()) for file in files]
    return sorted(documents, key=lambda document: document["seed"])


def _side(
    documents: List[dict], workload: str, metric: str
) -> Tuple[List[float], Dict[int, float]]:
    """The values describing one side, and its per-seed run medians."""
    runs = {}
    for document in documents:
        run = document["workloads"].get(workload, {}).get("run")
        samples = (run or {}).get("samples", {}).get(metric)
        if samples:
            runs[document["seed"]] = samples
    medians = {seed: statistics.median(samples) for seed, samples in runs.items()}
    if len(runs) == 1:
        return next(iter(runs.values())), medians
    return list(medians.values()), medians


def verdict(
    parent: List[float], change: List[float], pairs: List[Tuple[float, float]],
    bound: float, better: str,
) -> Tuple[str, int]:
    """The row's verdict and the number of pairs the change won."""
    sign = 1.0 if better == "lower" else -1.0  # sign * (change - parent) > 0: worse
    parent_median, q1, q3 = summarize(parent)
    change_median = statistics.median(change)
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    difference = sign * (change_median - parent_median)
    if (len(pairs) >= MIN_PAIRS and wins >= MIN_WIN_SHARE * len(pairs)
            and difference < 0 and abs(difference) > q3 - q1):
        return "improved", wins
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if (q3 - q1) > bound * abs(parent_median) and not all_better:
        return "unresolved", wins
    if difference > bound * abs(parent_median):
        return "regressed", wins
    return "no worse", wins


def paired_verdict(pairs: List[Tuple[float, float]], bound: float) -> Tuple[str, int]:
    """The verdict of a lower-is-better metric that repeats for one seed."""
    differences = [change / parent - 1.0 for parent, change in pairs]
    wins = sum(1 for difference in differences if difference < 0)
    median = statistics.median(differences)
    if median > bound:
        return "regressed", wins
    if len(pairs) >= MIN_PAIRS and wins >= MIN_WIN_SHARE * len(pairs) and median < 0:
        return "improved", wins
    return "no worse", wins


def _describe(values: List[float]) -> str:
    median, q1, q3 = summarize(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m bench.compare", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("parent", type=Path, help="results file or directory of the parent")
    parser.add_argument("change", type=Path, help="results file or directory of the change")
    args = parser.parse_args(argv)
    spec = load_spec()
    parent_runs, change_runs = load_runs(args.parent), load_runs(args.change)
    rows = [
        (workload["name"], metric["name"], metric["bound"], metric["better"])
        for workload in spec["workloads"] for metric in spec["end_to_end"]
    ] + [(workload, metric, bound, None) for workload, metric, bound in PAIRED]
    print(f"{'workload':<17} {'metric':<14} {'parent':<36} {'change':<36} "
          f"{'delta':>8} {'wins':>6}  verdict")
    regressed = False
    for workload, name, bound, better in rows:
        parent, parent_medians = _side(parent_runs, workload, name)
        change, change_medians = _side(change_runs, workload, name)
        if not parent or not change:
            continue
        seeds = sorted(set(parent_medians) & set(change_medians))
        pairs = [(parent_medians[seed], change_medians[seed]) for seed in seeds]
        if better is not None:
            result, wins = verdict(parent, change, pairs, bound, better)
        elif pairs:
            result, wins = paired_verdict(pairs, bound)
        else:
            continue
        regressed |= result == "regressed"
        delta = statistics.median(change) / statistics.median(parent) - 1.0
        print(f"{workload:<17} {name:<14} {_describe(parent):<36} "
              f"{_describe(change):<36} {delta:>+8.2%} {wins:>2}/{len(pairs):<3}  {result}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
