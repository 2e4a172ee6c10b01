"""One batch measurement, run in a fresh process.

Times set-up (imports, program generation, request normalisation).  With
``--setup-only`` that is all.  Otherwise it makes ``simulate_request``
calls until ``--budget-s`` seconds after the process started, each followed
by ``FIRST_EVENTS_PER_CALL`` first-event samples (``open_session`` until an
``advance`` returns an event), every timed interval from a collected heap;
reads the peak RSS after the first call; and checks the results.  With
``--probe`` a ``speed.SpeedProbe`` runs from the first line on, and
every time reported is corrected to the reference speed.  With
``--trace-out`` the simulator layers are wrapped first, one call is made,
and the run's span aggregates are returned.

Prints one JSON object as its last line.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import sys  # noqa: E402

if "--probe" in sys.argv:
    # Started before anything else so that set-up is corrected too.
    from .speed import SpeedProbe

    _PROBE = SpeedProbe().start()
else:
    _PROBE = None

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from typing import Any, Dict, List, Tuple  # noqa: E402

#: Timed calls made whatever the budget.
MIN_CALLS = 3
#: First-event samples taken after each timed call.
FIRST_EVENTS_PER_CALL = 3
#: Seconds kept free at the end of the budget for the checks.
CHECK_RESERVE_S = 1.0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--budget-s", type=float, default=0.0, help="lifetime budget of the timed calls")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--probe", action="store_true", help="correct times with a speed probe")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace_out:
        from .layers import SIMULATOR_TARGETS
        from .tracer import Target, Tracer

        tracer = Tracer()
        tracer.install(SIMULATOR_TARGETS + (Target("perfbench.workloads", None, "dm_pressure_program", "apps.build"),))

    from repro.runtime.dependence_analysis import ready_order_is_valid
    from repro.sim.driver import simulate_request

    from .common import program_digest, result_digest
    from .workloads import PINS, batch_request

    request, program = batch_request(args.workload, args.seed)
    setup_end = time.perf_counter()
    if args.setup_only:
        _stop_probe()
        print(json.dumps({"setup_s": _length(_STARTED, setup_end)}))
        return 0

    simulate = simulate_request if tracer is None else tracer.wrap(simulate_request, "bench.simulate")
    calls = 1 if tracer is not None else MIN_CALLS
    deadline = _STARTED + args.budget_s - CHECK_RESERVE_S
    sim_spans: List[Tuple[float, float]] = []
    first_event_spans: List[Tuple[float, float]] = []
    digests: List[str] = []
    errors: List[str] = []
    loop_started = time.perf_counter()
    while len(sim_spans) < calls or (
        tracer is None
        and time.perf_counter() + (time.perf_counter() - loop_started) / len(sim_spans) <= deadline
    ):
        result = None  # free the previous result before building the next
        # Each timed interval starts from a collected heap, so the garbage
        # collector's pauses land alike in every sample.
        gc.collect()
        started = time.perf_counter()
        result = simulate(request)
        sim_spans.append((started, time.perf_counter()))
        if len(sim_spans) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        digests.append(result_digest(result))
        if not result.completed_all():
            errors.append("not every task completed")
        if tracer is None:
            for _ in range(FIRST_EVENTS_PER_CALL):
                gc.collect()
                first_event_spans.append(first_event(request))

    _stop_probe()
    report: Dict[str, Any] = {
        "setup_s": _length(_STARTED, setup_end),
        "sim_s": [_length(*span) for span in sim_spans],
        "first_event_s": [_length(*span) for span in first_event_spans],
        "speed": _PROBE.speed() if _PROBE is not None else 1.0,
        "peak_rss_mb": peak_rss_mb,
        "tasks": result.num_tasks,
        "makespan": result.makespan,
        "digest": digests[0],
        "program_digest": program_digest(program),
        "counters": dict(result.counters),
    }
    if len(set(digests)) > 1:
        errors.append(f"result digest differs between calls: {sorted(set(digests))}")

    if tracer is not None:
        tracer.uninstall()
        report["unrestored"] = tracer.unrestored()
        report["trace"] = trace_report(tracer, result, args.workload)
        report["spans_written"] = tracer.write_chrome_trace(args.trace_out)

    # Every call has the first one's digest, which covers every task
    # timeline, so one dependence check covers them all.
    if not ready_order_is_valid(program, result.start_order()):
        errors.append("start order violates a dependence")
    pin = PINS.get(args.workload)
    if pin is not None:
        if result.makespan != pin.makespan:
            errors.append(f"makespan {result.makespan} != pinned {pin.makespan}")
        if result.num_tasks != pin.num_tasks:
            errors.append(f"num_tasks {result.num_tasks} != pinned {pin.num_tasks}")
        if report["digest"] != pin.digest:
            errors.append(f"result digest {report['digest']} != pinned {pin.digest}")
    report["errors"] = errors
    print(json.dumps(report))
    return 0


def _stop_probe() -> None:
    if _PROBE is not None:
        _PROBE.stop()


def _length(start: float, end: float) -> float:
    """Seconds from ``start`` to ``end``, corrected when the probe ran."""
    return _PROBE.correct(start, end) if _PROBE is not None else end - start


def first_event(request: Any) -> Tuple[float, float]:
    """``open_session`` until an ``advance`` returns an event: start and end."""
    from repro.sim.session import open_session

    started = time.perf_counter()
    with open_session(request) as session:
        while True:
            step = session.advance()
            if step.events or step.finished:
                break
    return started, time.perf_counter()


def trace_report(tracer: Any, result: Any, workload: str) -> Dict[str, Any]:
    """Per-layer values of one traced batch run, plus its accounting check."""
    from .layers import SpanTable, simulated_metrics, simulator_metrics

    table = SpanTable(tracer.aggregate(), tracer.counts())
    backend, other = ("nanos", "hil") if workload.startswith("nanos") else ("hil", "nanos")
    values = simulator_metrics(table, {backend: None, other: set()})
    values.update(
        simulated_metrics(
            {
                "events": result.counters.get("events_processed", 0),
                "tasks": result.num_tasks,
                "busy_frac": result.worker_busy_fraction(),
                "counters": result.counters,
            }
        )
    )
    # Program generation runs before the simulation, outside its root span.
    total = table.total_s("bench.simulate")
    unattributed = table.self_s("bench.simulate")
    layers = table.all_self_s() - unattributed - table.self_s("apps.build")
    values["trace.unattributed_frac"] = unattributed / total if total else 0.0
    return {
        "values": values,
        "traced_total_s": total,
        "layer_self_s": layers,
        "unattributed_s": unattributed,
        "spans": tracer.span_count(),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
