"""Start ``picos-experiment serve`` with the layer wrappers or the speed probe.

Usage: ``python -m perfbench.launch_server --trace-out PATH -- serve ...``
or ``python -m perfbench.launch_server --speed-out PATH -- serve ...``

The server starts through its public entry point,
``repro.experiments.cli.main``, and stops when SIGTERM drains it.

* ``--trace-out``: the wrappers go in before the server is built and come
  out again when it stops; the span aggregates are written to ``PATH`` as
  JSON, with the spans themselves in Chrome trace-event form next to it
  (``PATH`` with ``.trace.json``).
* ``--speed-out``: a ``speed.SpeedProbe`` runs for the server's whole life;
  its samples are written to ``PATH`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from typing import Any, Dict, List


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--trace-out")
    mode.add_argument("--speed-out")
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [arg for arg in args.serve_args if arg != "--"]

    if args.speed_out:
        return serve_probed(serve_args, args.speed_out)

    from repro.experiments.cli import main as cli_main

    from .layers import SERVICE_TARGETS, SIMULATOR_TARGETS, SpanTable, service_metrics, simulator_metrics
    from .tracer import Tracer

    tracer = Tracer()
    tracer.install(SIMULATOR_TARGETS + SERVICE_TARGETS)
    cpu_started = time.process_time()
    try:
        code = cli_main(serve_args)
    finally:
        server_cpu_s = time.process_time() - cpu_started
        tracer.uninstall()
    table = SpanTable(tracer.aggregate(), tracer.counts())
    backend_of = tracer.session_backend
    values: Dict[str, Any] = simulator_metrics(
        table,
        {
            "hil": {sid for sid, name in backend_of.items() if name.startswith("hil")},
            "nanos": {sid for sid, name in backend_of.items() if name == "nanos"},
        },
    )
    values.update(service_metrics(tracer, table, server_cpu_s))
    values["trace.unattributed_frac"] = values["server.self_s"] / server_cpu_s if server_cpu_s else 0.0
    chrome_path = args.trace_out[: -len(".json")] + ".trace.json" if args.trace_out.endswith(".json") else args.trace_out + ".trace.json"
    report = {
        "values": values,
        "server_cpu_s": server_cpu_s,
        "layer_self_s": table.all_self_s(),
        "unrestored": tracer.unrestored(),
        "spans": tracer.span_count(),
        "spans_written": tracer.write_chrome_trace(chrome_path),
    }
    with open(args.trace_out, "w") as handle:
        json.dump(report, handle)
    return code


def _exit_on_sigterm(signum: int, _frame: object) -> None:
    raise SystemExit(128 + signum)


def serve_probed(serve_args: List[str], speed_out: str) -> int:
    from .speed import SpeedProbe

    # The server installs its SIGTERM handler just after it announces its
    # port; a SIGTERM in between must still reach the ``finally`` below.
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    probe = SpeedProbe().start()
    try:
        from repro.experiments.cli import main as cli_main

        return cli_main(serve_args)
    finally:
        probe.stop()
        with open(speed_out, "w") as handle:
            json.dump(probe.samples, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
