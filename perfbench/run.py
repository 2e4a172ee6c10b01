#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload headline-cholesky32 --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  Readable ``name value unit`` lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every output
was checked and correct.  Workloads, metrics and the claim format are
described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT) not in sys.path:
    sys.path.insert(0, str(_ROOT))

from perfbench.common import (  # noqa: E402
    DEFAULT_SEED,
    OUT_DIR,
    SRC,
    WORK_DIR,
    BenchmarkError,
    median,
    metric,
    percentile,
    print_human,
    require_program,
    run_child,
)
from perfbench.workloads import BATCH_WORKLOADS, SERVICE_WORKLOAD, WORKLOADS  # noqa: E402

#: The end-to-end metrics every workload reports, with their units.
END_TO_END = (
    ("tasks_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("req_p50_ms", "ms"),
    ("req_p95_ms", "ms"),
    ("first_event_p50_ms", "ms"),
    ("capacity_rps", "1/s"),
)
#: Set-up-only processes a batch run starts before its measuring process.
SETUP_PROCESSES = 3
#: Allowed gap between a traced run's layer self times plus its
#: unattributed time and its traced total, as a share of the total.
ACCOUNTING_TOLERANCE = 0.01


class Report:
    """Metrics and failures of one invocation."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.metrics: Dict[str, Dict[str, Any]] = {}
        self.errors: List[str] = []
        self.notes: List[str] = []
        self.attempted = 0
        self.failed = 0

    def set_end_to_end(self, values: Dict[str, float]) -> None:
        # A failed request's latency is infinite; JSON has no infinity.
        self.metrics = {
            name: metric(values[name] if math.isfinite(values[name]) else sys.float_info.max, unit)
            for name, unit in END_TO_END
        }

    def emit(self) -> int:
        print_human(self.workload, self.metrics, self.notes)
        error_rate = self.failed / self.attempted if self.attempted else 1.0
        print(f"{self.workload}  {'error_rate':<34} {error_rate:.6g} ratio ({self.failed}/{self.attempted})")
        for error in self.errors[:20]:
            print(f"{self.workload}  ERROR {error}")
        if len(self.errors) > 20:
            print(f"{self.workload}  ... {len(self.errors) - 20} more errors")
        correct = not self.errors and self.failed == 0 and self.attempted > 0
        print(
            json.dumps(
                {
                    "correct": correct,
                    "attempted": max(1, self.attempted),
                    "failed": self.failed if self.attempted else 1,
                    "metrics": self.metrics,
                }
            )
        )
        return 0 if correct else 1


# ----------------------------------------------------------------------
# batch workloads
# ----------------------------------------------------------------------
def _batch_child(workload: str, seed: int, *extra: str) -> Dict[str, Any]:
    return run_child("perfbench.batch_child", ["--workload", workload, "--seed", str(seed), *extra])


def _check_batch(report: Report, samples: List[Dict[str, Any]]) -> None:
    """Per-process errors, and identical simulated outcomes across processes."""
    for index, sample in enumerate(samples):
        report.attempted += len(sample["sim_s"])
        if sample["errors"]:
            report.failed += len(sample["sim_s"])
            report.errors.extend(f"process {index}: {error}" for error in sample["errors"])
    for key in ("digest", "program_digest"):
        seen = sorted({sample[key] for sample in samples})
        if len(seen) > 1:
            report.errors.append(f"{key} differs between processes: {seen}")


def run_batch(workload: str, seed: int, seconds: float, report: Report) -> None:
    """Set-up-only processes, then one process timing calls for the rest of the time."""
    started = time.perf_counter()
    setups = [_batch_child(workload, seed, "--probe", "--setup-only")["setup_s"] for _ in range(SETUP_PROCESSES)]
    budget = seconds - (time.perf_counter() - started)
    sample = _batch_child(workload, seed, "--probe", "--budget-s", f"{budget:.3f}")
    _check_batch(report, [sample])
    sim_s = sample["sim_s"]
    first_event_s = sample["first_event_s"]
    setups.append(sample["setup_s"])
    tasks = sample["tasks"]
    report.set_end_to_end(
        {
            "tasks_per_s": median([tasks / s for s in sim_s]),
            "setup_s": median(setups),
            "peak_rss_mb": sample["peak_rss_mb"],
            "req_p50_ms": median(sim_s) * 1e3,
            "req_p95_ms": percentile(sim_s, 0.95) * 1e3,
            "first_event_p50_ms": median(first_event_s) * 1e3,
            "capacity_rps": len(sim_s) / sum(sim_s),
        }
    )
    report.notes.append(
        f"input: {tasks} tasks, makespan {sample['makespan']} cycles, "
        f"program digest {sample['program_digest']}, result digest {sample['digest']}"
    )
    report.notes.append(
        f"samples: {len(sim_s)} simulate_request calls and {len(first_event_s)} first events in one "
        f"fresh process (peak RSS from it); set-up in {len(setups)} fresh processes"
    )
    report.notes.append(
        f"times are speed-corrected (perfbench/speed.py); median host speed of the measuring "
        f"process {sample['speed']:.3f} of the reference speed"
    )


def run_batch_traced(workload: str, seed: int, seconds: float, report: Report) -> None:
    """Alternate untraced and traced samples; layers come from the traced ones."""
    from perfbench.layers import complete

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    trace_path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    started = time.perf_counter()
    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    while True:
        elapsed = time.perf_counter() - started
        if traced and elapsed + elapsed / len(traced) > seconds:
            break
        plain.append(_batch_child(workload, seed))
        traced.append(_batch_child(workload, seed, "--trace-out", str(trace_path)))
    _check_batch(report, plain + traced)
    for sample in traced:
        trace = sample["trace"]
        if sample["unrestored"]:
            report.errors.append(f"wrappers left installed: {sample['unrestored']}")
        gap = abs(trace["layer_self_s"] + trace["unattributed_s"] - trace["traced_total_s"])
        if gap > ACCOUNTING_TOLERANCE * trace["traced_total_s"]:
            report.errors.append(f"layer self times miss the traced total by {gap:.6f} s")
    names = traced[0]["trace"]["values"].keys()
    values = {name: median([sample["trace"]["values"][name] for sample in traced]) for name in names}
    plain_s = median([s for sample in plain for s in sample["sim_s"]])
    values["trace.overhead_frac"] = median([sample["sim_s"][0] for sample in traced]) / plain_s - 1.0
    values["client.sent"] = len(traced)
    values["client.failed"] = sum(1 for sample in traced if sample["errors"])
    report.metrics = complete(values)
    report.notes.append(
        f"traced samples: {len(traced)} (+{len(plain)} untraced); spans per sample: "
        f"{traced[-1]['trace']['spans']}; chrome trace: {trace_path.relative_to(_ROOT)}"
    )


# ----------------------------------------------------------------------
# service-stream
# ----------------------------------------------------------------------
def _fresh_work_dir(tag: str) -> Path:
    work = WORK_DIR / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


def _remove_work_dir(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK_DIR.rmdir()
    except OSError:
        pass  # another run still uses it


def _check_service(report: Report, outcomes: List[Any]) -> None:
    from perfbench.service_load import check_outcomes

    problems = check_outcomes(outcomes)
    report.attempted += len(outcomes)
    report.failed += len({session_id for session_id, _message in problems})
    report.errors.extend(message for _session_id, message in problems)


def run_service(seed: int, seconds: float, report: Report) -> None:
    from perfbench.service_load import end_to_end, make_plan, run_pass

    plan = make_plan(seed, seconds)
    work = _fresh_work_dir("service")
    try:
        result = run_pass(plan, work, probe=True)
    finally:
        _remove_work_dir(work)
    outcomes = result.phases.open_outcomes + result.phases.closed_outcomes
    _check_service(report, outcomes)
    report.set_end_to_end(end_to_end(result))
    kinds = [outcome.item.kind for outcome in outcomes]
    report.notes.append(
        f"samples: req and first_event {len(result.phases.open_outcomes)} (open loop), "
        f"closed-loop requests {len(result.phases.closed_outcomes)}, server spawns {len(result.setup_s)}"
    )
    report.notes.append(
        "mix: " + ", ".join(f"{kind} {kinds.count(kind)}" for kind in ("inline", "ref", "restore"))
        + f"; cache hits {sum(1 for o in outcomes if o.cached)}"
    )
    assert result.probe is not None
    report.notes.append(
        f"times are speed-corrected with the server's probe (perfbench/speed.py); median host speed "
        f"of the server {result.probe.speed():.3f} of the reference speed"
    )


def run_service_traced(seed: int, seconds: float, report: Report) -> None:
    """An untraced and a traced pass over the same requests, half the time each."""
    from perfbench.layers import complete, simulated_metrics
    from perfbench.service_load import make_plan, run_pass, simulated_totals

    plan = make_plan(seed, seconds / 2)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    trace_path = OUT_DIR / f"trace-{SERVICE_WORKLOAD}-seed{seed}.json"
    passes = []
    for traced in (False, True):
        work = _fresh_work_dir("service-trace")
        try:
            passes.append(run_pass(plan, work, trace_path if traced else None, spawns=1))
        finally:
            _remove_work_dir(work)
    plain, traced_pass = passes
    for one in passes:
        _check_service(report, one.phases.open_outcomes + one.phases.closed_outcomes)

    trace = json.loads(trace_path.read_text())
    if trace["unrestored"]:
        report.errors.append(f"wrappers left installed: {trace['unrestored']}")
    values = dict(trace["values"])
    outcomes = traced_pass.phases.open_outcomes + traced_pass.phases.closed_outcomes
    values.update(simulated_metrics(simulated_totals(outcomes)))

    def cpu_per_request(one: Any) -> float:
        done = sum(1 for o in one.phases.open_outcomes + one.phases.closed_outcomes if o.error is None)
        return one.usage["cpu_s"] / max(1, done)

    values["trace.overhead_frac"] = cpu_per_request(traced_pass) / cpu_per_request(plain) - 1.0
    snapshot_sizes = [
        len(json.dumps(o.item.document)) / 1024.0 for o in outcomes if o.item.kind == "restore"
    ]
    values["snapshot.doc_kb"] = median(snapshot_sizes)
    values["client.lag_p95_ms"] = percentile(traced_pass.phases.lags_ms, 0.95)
    values["client.sent"] = len(outcomes)
    values["client.failed"] = sum(1 for o in outcomes if o.error is not None)
    report.metrics = complete(values)
    report.notes.append(
        f"server CPU {trace['server_cpu_s']:.3f} s traced, {plain.usage['cpu_s']:.3f} s untraced; "
        f"spans {trace['spans']}; chrome trace: {trace_path.with_suffix('').relative_to(_ROOT)}.trace.json"
    )


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    try:
        require_program()
    except BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    report = Report(args.workload)
    if args.workload in BATCH_WORKLOADS:
        runner = run_batch_traced if args.trace else run_batch
        runner(args.workload, args.seed, args.seconds, report)
    else:
        runner = run_service_traced if args.trace else run_service
        runner(args.seed, args.seconds, report)
    return report.emit()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
