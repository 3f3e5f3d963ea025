"""Shared benchmark emission helpers.

Two outputs per benchmark run:

* :func:`emit` — the human-readable reproduction table printed into the
  pytest capture (what CI logs show).
* :func:`record_history` — one normalized JSONL record appended to
  ``BENCH_history.jsonl`` at the repo root: benchmark name, the key
  performance numbers (speedups, throughputs, hit rates), the git
  commit, and a timestamp.  The history file accumulates across runs,
  so run-over-run trends survive the per-run ``BENCH_*.json``
  overwrites.
"""

from __future__ import annotations

import json
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

__all__ = ["HISTORY_PATH", "emit", "record_history"]

_REPO_ROOT = Path(__file__).resolve().parents[1]
HISTORY_PATH = _REPO_ROOT / "BENCH_history.jsonl"

#: Leaf-name suffixes worth tracking run-over-run: speedups, ratios,
#: throughputs and hit rates.
_KEY_SUFFIXES = ("speedup", "ratio", "ops_per_sec", "hit_rate", "per_second")


def emit(title: str, body: str) -> None:
    """Print one benchmark's reproduction output."""
    bar = "=" * 72
    print(f"\n{bar}\n{title}\n{bar}\n{body}\n")


def _git_sha() -> Optional[str]:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=_REPO_ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def _key_numbers(payload: Mapping[str, Any], prefix: str = "") -> Dict[str, float]:
    numbers: Dict[str, float] = {}
    for key, value in payload.items():
        path = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, Mapping):
            numbers.update(_key_numbers(value, path))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            leaf = path.rsplit(".", 1)[-1]
            if any(leaf == s or leaf.endswith("_" + s) or leaf.endswith(s)
                   for s in _KEY_SUFFIXES):
                numbers[path] = float(value)
    return numbers


def record_history(
    name: str, payload: Mapping[str, Any], path: Optional[Path] = None
) -> Dict[str, Any]:
    """Append one normalized benchmark record to ``BENCH_history.jsonl``.

    *payload* is the benchmark's full JSON document; only the key
    performance leaves are kept (sorted by path, so records with equal
    numbers serialize identically).  Returns the appended record.
    """
    record: Dict[str, Any] = {
        "name": name,
        "timestamp": round(time.time(), 3),
        "git_sha": _git_sha(),
        "numbers": dict(sorted(_key_numbers(payload).items())),
    }
    target = HISTORY_PATH if path is None else Path(path)
    with target.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return record
