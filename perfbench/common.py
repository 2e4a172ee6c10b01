"""Shared helpers: checkout layout, statistics, digests and child processes.

Every timing the benchmark reports is a median over samples taken in one
run, and every percentile is a nearest-rank percentile over raw samples;
nothing is read from a histogram bucket.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence

#: Root of the checkout the benchmark runs in (the directory holding
#: ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space removed at the end of every run (result caches).
WORK_DIR = ROOT / ".perfbench-work"
#: Trace artifacts kept after a traced run (Chrome trace-event JSON).
OUT_DIR = ROOT / ".perfbench-out"

#: Default workload seed, used when ``--seed`` is not given.
DEFAULT_SEED = 1

#: Seconds one child process may take before it is killed.
CHILD_TIMEOUT_S = 150.0


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no program to measure)."""


def require_program() -> None:
    """Fail fast when the checkout holds no ``src/repro`` package."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program to benchmark: {SRC / 'repro'} is missing")


def child_env() -> Dict[str, str]:
    """Environment for child processes: the checkout's sources first."""
    env = dict(os.environ)
    parts = [str(SRC), str(ROOT)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(module: str, args: Sequence[str]) -> Dict[str, Any]:
    """Run ``python -m <module> <args>`` and parse its last stdout line."""
    completed = subprocess.run(
        [sys.executable, "-m", module, *args],
        cwd=str(ROOT),
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{module} exited with {completed.returncode}: {completed.stderr.strip()[-2000:]}"
        )
    lines = completed.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{module} printed nothing")
    return json.loads(lines[-1])


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    """Median of the samples (0.0 for no samples)."""
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of raw samples (0.0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return float(ordered[rank - 1])


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------
def digest_of(document: Any) -> str:
    """Short stable digest of a JSON-serialisable document."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def result_digest(result: Any) -> str:
    """Digest of a result's simulated outcome: makespan, counters, timelines.

    Host-side quantities never enter it, so it is identical across repeats
    and between traced and untraced runs of the same input.
    """
    timelines = sorted(
        (t.task_id, t.created, t.submitted, t.ready, t.started, t.finished)
        for t in result.timelines.values()
    )
    return digest_of(
        {
            "makespan": result.makespan,
            "num_tasks": result.num_tasks,
            "drain_time": result.drain_time,
            "counters": dict(sorted(result.counters.items())),
            "timelines": digest_of(timelines),
        }
    )


def program_digest(program: Any) -> str:
    """Digest of a generated program's tasks (ids, durations, dependences)."""
    return digest_of(
        [
            [task.task_id, task.duration, [[d.address, d.direction.value] for d in task.dependences]]
            for task in program
        ]
    )


def metric(value: float, unit: str) -> Dict[str, Any]:
    """One entry of the result line's ``metrics`` object."""
    return {"value": value, "unit": unit}


def print_human(workload: str, metrics: Mapping[str, Mapping[str, Any]], notes: Optional[List[str]] = None) -> None:
    """Readable ``name value unit`` lines ahead of the JSON result line."""
    for name, entry in metrics.items():
        print(f"{workload}  {name:<34} {entry['value']:.6g} {entry['unit']}")
    for note in notes or ():
        print(f"{workload}  {note}")
