"""Command-line interface: ``picos-experiment <experiment>``.

Runs any table or figure of the paper from a terminal::

    picos-experiment table4
    picos-experiment fig8 --jobs 8
    picos-experiment fig11 --full --cache-dir /tmp/picos-cache
    picos-experiment all --quick

Each subcommand accepts only the flags it reads
(``picos-experiment <command> --help`` lists them); any other flag is a
usage error.  ``--quick`` shrinks the problem sizes so an experiment
finishes in seconds (useful for smoke testing); ``--full`` selects the
complete paper matrix where a reduced default exists (Figure 11).

Simulations fan out over a process pool (``--jobs``, defaulting to every
CPU) and memoize their results in an on-disk cache (``--cache-dir``,
defaulting to ``$PICOS_CACHE_DIR`` or ``.picos-cache``), so re-rendering an
experiment is instant.  ``--backend`` re-targets an experiment's primary
sweep at any registered simulator backend; ``picos-experiment backends``
lists them.

``picos-experiment simulate`` drives one workload through the typed
request/session API instead of a paper figure::

    picos-experiment simulate --workload cholesky --block-size 32
    picos-experiment simulate --workload case3 --backend hil-hw \\
        --workers 4 --until-cycle 20000 --show-events 10

It opens a streaming session, optionally stops delivering events at a
cycle horizon (``--until-cycle``, the early-abort scenario) and prints the
lifecycle-event head plus the session statistics and final result summary.
Checkpoint/resume rides on the same command::

    picos-experiment simulate --workload cholesky --block-size 128 \\
        --checkpoint-at 60000 --checkpoint-to /tmp/chol.snap.json
    picos-experiment simulate --restore /tmp/chol.snap.json

The first invocation snapshots the run at the cycle-60000 boundary (then
finishes it normally); the second resumes from the snapshot document and
produces the bit-exact same result -- see ``docs/snapshots.md``.

``picos-experiment bench`` times the simulators themselves (wall-clock
seconds, engine events per second, peak RSS) and snapshots the numbers as
``BENCH_<date>.json`` at the repository root::

    picos-experiment bench                      # the full default matrix
    picos-experiment bench --quick              # the CI smoke matrix
    picos-experiment bench --compare BENCH_2026-07-01.json
    picos-experiment bench --quick --profile    # + per-cell cProfile report

``--compare`` additionally diffs the fresh run against an earlier
snapshot, flagging wall-time regressions cell by cell (cells present in
only one snapshot are reported as added/removed, never an error).
``--profile`` re-runs each cell under ``cProfile`` after the timed pass
and writes the top cumulative functions per cell to a
``<snapshot>.profile.txt`` sibling of the JSON snapshot.
``--service`` times the simulation *server* instead of the simulators
(requests per second and slice latency at several concurrency levels);
those cells are never part of the regression gate.

``picos-experiment serve`` starts the simulation service: an asyncio
server accepting typed simulation requests over a newline-delimited-JSON
TCP protocol (plus an HTTP adapter with ``/metrics``, ``/healthz`` and an
SSE ``/simulate``), with per-tenant admission control and an optional
shared on-disk result cache::

    picos-experiment serve --port 9178
    picos-experiment serve --port 0 --cache-dir /tmp/picos-cache \\
        --tenant-sessions teamA=4 --tenant-rate teamA=2e8

It prints one ``serving <proto> on <host>:<port>`` line per listener
(parseable, so ``--port 0`` works for tooling) and runs until SIGINT or
SIGTERM, draining running sessions before exiting.  See
``docs/service.md`` for the protocol and operations guide.

``picos-experiment lint`` runs the repro-lint invariant checker, exactly
like ``python -m repro.lint``::

    picos-experiment lint                     # the installed repro package
    picos-experiment lint src/repro/core      # explicit files or directories
    picos-experiment lint --list-rules
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from types import ModuleType
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from repro.experiments import (
    fig01_granularity,
    fig08_dm_designs,
    fig09_lu_corner,
    fig10_nanos_overhead,
    fig11_scalability,
    table1_benchmarks,
    table2_dm_conflicts,
    table3_resources,
    table4_synthetic,
)
from repro.experiments.runner import RunnerOptions, default_cache_dir
from repro.sim.backend import describe_backends
from repro.sim.hil import HILMode

#: Problem size used by ``--quick`` for the dense / sparse kernels.
QUICK_PROBLEM_SIZE = 1024

#: Signature of every experiment entry: (quick, full, options, backend).
ExperimentRunner = Callable[[bool, bool, RunnerOptions, Optional[str]], str]


def _run_fig01(
    quick: bool, full: bool, options: RunnerOptions, backend: Optional[str]
) -> str:
    problem = QUICK_PROBLEM_SIZE if quick else None
    kwargs = {"backend": backend} if backend else {}
    return fig01_granularity.render_fig01(
        fig01_granularity.run_fig01(problem_size=problem, options=options, **kwargs)
    )


def _run_fig08(
    quick: bool, full: bool, options: RunnerOptions, backend: Optional[str]
) -> str:
    problem = QUICK_PROBLEM_SIZE if quick else None
    kwargs = {"backend": backend} if backend else {}
    return fig08_dm_designs.render_fig08(
        fig08_dm_designs.run_fig08(problem_size=problem, options=options, **kwargs)
    )


def _run_fig09(
    quick: bool, full: bool, options: RunnerOptions, backend: Optional[str]
) -> str:
    problem = QUICK_PROBLEM_SIZE if quick else None
    kwargs = {"backend": backend} if backend else {}
    return fig09_lu_corner.render_fig09(
        fig09_lu_corner.run_fig09(problem_size=problem, options=options, **kwargs)
    )


def _run_fig10(
    quick: bool, full: bool, options: RunnerOptions, backend: Optional[str]
) -> str:
    return fig10_nanos_overhead.render_fig10(
        fig10_nanos_overhead.run_fig10(options=options)
    )


def _run_fig11(
    quick: bool, full: bool, options: RunnerOptions, backend: Optional[str]
) -> str:
    matrix = fig11_scalability.FIG11_FULL_MATRIX if full else None
    if quick:
        matrix = {"heat": (64,), "cholesky": (64,), "lu": (32,), "sparselu": (64,)}
    simulators = fig11_scalability.FIG11_SIMULATORS
    if backend:
        simulators = tuple(
            label
            for label, name in fig11_scalability.FIG11_BACKENDS.items()
            if name == backend
        )
        if not simulators:
            comparands = ", ".join(fig11_scalability.FIG11_BACKENDS.values())
            raise SystemExit(
                f"fig11 compares {comparands}; --backend {backend!r} is not one of them"
            )
    return fig11_scalability.render_fig11(
        fig11_scalability.run_fig11(
            matrix=matrix, simulators=simulators, options=options
        )
    )


def _run_table1(
    quick: bool, full: bool, options: RunnerOptions, backend: Optional[str]
) -> str:
    return table1_benchmarks.render_table1(table1_benchmarks.run_table1(options=options))


def _run_table2(
    quick: bool, full: bool, options: RunnerOptions, backend: Optional[str]
) -> str:
    problem = QUICK_PROBLEM_SIZE if quick else None
    hil_backends = tuple(mode.backend_name for mode in HILMode)
    if backend and backend not in hil_backends:
        raise SystemExit(
            "table2 counts Dependence Memory conflicts, a Picos hardware "
            f"counter; --backend {backend!r} must be one of "
            + ", ".join(hil_backends)
        )
    kwargs = {"backend": backend} if backend else {}
    return table2_dm_conflicts.render_table2(
        table2_dm_conflicts.run_table2(problem_size=problem, options=options, **kwargs)
    )


def _run_table3(
    quick: bool, full: bool, options: RunnerOptions, backend: Optional[str]
) -> str:
    return table3_resources.render_table3(table3_resources.run_table3(options=options))


def _run_table4(
    quick: bool, full: bool, options: RunnerOptions, backend: Optional[str]
) -> str:
    modes = table4_synthetic.TABLE4_MODES
    if backend:
        modes = tuple(mode for mode in modes if mode.backend_name == backend)
        if not modes:
            comparands = ", ".join(m.backend_name for m in table4_synthetic.TABLE4_MODES)
            raise SystemExit(
                f"table4 compares {comparands}; --backend {backend!r} is not one of them"
            )
    return table4_synthetic.render_table4(
        table4_synthetic.run_table4(modes=modes, options=options)
    )


class Experiment(NamedTuple):
    """One table or figure: its module, runner and flags."""

    module: ModuleType
    run: ExperimentRunner
    #: Which of --quick/--full/--backend the runner reads; its subcommand
    #: accepts exactly these plus --jobs/--cache-dir/--no-cache.
    flags: Tuple[str, ...] = ()

    @property
    def title(self) -> str:
        """The first line of the module docstring ("Figure 8: ...")."""
        return (self.module.__doc__ or "").split("\n", 1)[0].rstrip(".")


EXPERIMENTS: Dict[str, Experiment] = {
    "fig1": Experiment(fig01_granularity, _run_fig01, ("--quick", "--backend")),
    "fig8": Experiment(fig08_dm_designs, _run_fig08, ("--quick", "--backend")),
    "fig9": Experiment(fig09_lu_corner, _run_fig09, ("--quick", "--backend")),
    "fig10": Experiment(fig10_nanos_overhead, _run_fig10),
    "fig11": Experiment(fig11_scalability, _run_fig11, ("--quick", "--full", "--backend")),
    "table1": Experiment(table1_benchmarks, _run_table1),
    "table2": Experiment(table2_dm_conflicts, _run_table2, ("--quick", "--backend")),
    "table3": Experiment(table3_resources, _run_table3),
    "table4": Experiment(table4_synthetic, _run_table4, ("--backend",)),
}


def render_backends() -> str:
    """One line per registered simulator backend."""
    lines = ["registered simulator backends:"]
    for name, description in describe_backends().items():
        lines.append(f"  {name:<10} {description}")
    return "\n".join(lines)


def run_simulate(args: argparse.Namespace) -> int:
    """Drive one workload through a streaming session (see module docs)."""
    from repro.sim.request import SimulationRequest
    from repro.sim.session import open_session
    from repro.sim.snapshot import SnapshotError, load_snapshot, save_snapshot
    from repro.sim.snapshot import restore as restore_session

    if args.checkpoint_at is not None and args.checkpoint_to is None:
        raise SystemExit("--checkpoint-at requires --checkpoint-to PATH")
    faults = ()
    if args.fault:
        from repro.faults.scenario import FaultConfigurationError, parse_fault_spec

        try:
            faults = tuple(parse_fault_spec(spec) for spec in args.fault)
        except FaultConfigurationError as exc:
            raise SystemExit(f"--fault: {exc}") from None
    lines = []
    if args.restore is not None:
        if faults:
            raise SystemExit(
                "--fault cannot be combined with --restore: armed scenarios "
                "travel inside the snapshot document"
            )
        try:
            snapshot = load_snapshot(args.restore)
            session = restore_session(snapshot)
        except SnapshotError as exc:
            raise SystemExit(str(exc)) from None
        request = session.request
        lines.append(
            f"restored: kind={snapshot.kind!r} cycle={snapshot.cycle} "
            f"backend={request.backend!r} workers={request.num_workers} "
            f"from {args.restore}"
        )
    else:
        request = SimulationRequest.for_workload(
            args.workload,
            block_size=args.block_size,
            problem_size=args.problem_size,
            backend=args.backend,
            num_workers=args.workers,
            faults=faults,
        )
        try:
            session = open_session(request)
        except ValueError as exc:
            # Unknown workloads and benchmarks missing --block-size surface
            # here (program construction); give a CLI error, not a traceback.
            raise SystemExit(str(exc)) from None
        lines.append(
            f"request: workload={args.workload!r} backend={args.backend!r} "
            f"workers={args.workers} cache_key={request.cache_key()}"
        )
        for spec, scenario in zip(args.fault or [], faults):
            lines.append(f"fault armed: {scenario.kind.value} ({spec})")
    shown: list = []
    if args.checkpoint_to is not None:
        # Snapshot at the requested cycle boundary (0 = before any work),
        # then let the run continue below: the snapshot is copy-on-capture,
        # so finishing this session does not disturb the saved document.
        at = args.checkpoint_at if args.checkpoint_at is not None else 0
        if at > 0:
            for event in session.advance(at).events:
                if len(shown) < args.show_events:
                    shown.append(event)
        snapshot = session.checkpoint()
        save_snapshot(snapshot, args.checkpoint_to)
        lines.append(
            f"checkpoint: kind={snapshot.kind!r} cycle={snapshot.cycle} "
            f"digest={snapshot.digest} -> {args.checkpoint_to}"
        )
    if args.show_events > 0 or args.until_cycle is not None:
        for event in session.events(until_cycle=args.until_cycle):
            if len(shown) < args.show_events:
                shown.append(event)
    stats = session.stats()
    if shown:
        lines.append(f"first {len(shown)} lifecycle events:")
        for event in shown:
            lines.append(f"  cycle {event.cycle:>10}  {event.kind:<9} task {event.task_id}")
    if args.until_cycle is not None:
        lines.append(
            f"stopped at cycle horizon {args.until_cycle}: "
            f"{stats.tasks_retired}/{stats.tasks_submitted} tasks retired, "
            f"{stats.events_delivered} events delivered"
        )
    result = session.result()
    lines.append(
        f"result: makespan={result.makespan} speedup={result.speedup:.2f} "
        f"tasks={result.num_tasks} simulator={result.simulator}"
    )
    if "faults_injected" in result.counters:
        lines.append(
            f"faults: injected={result.counters['faults_injected']} "
            f"recovered={result.counters['faults_recovered']}"
        )
    print("\n".join(lines))
    return 0


def _parse_tenant_value(entries, what: str, convert):
    """Parse repeated ``tenant=value`` CLI options into a dict."""
    parsed = {}
    for entry in entries or []:
        tenant, sep, raw = entry.partition("=")
        if not sep or not tenant:
            raise SystemExit(f"--{what} expects TENANT=VALUE, got {entry!r}")
        try:
            parsed[tenant] = convert(raw)
        except ValueError:
            raise SystemExit(f"--{what}: invalid value {raw!r} for {tenant!r}") from None
    return parsed


def run_serve(args: argparse.Namespace) -> int:
    """Start the simulation service in the foreground (see module docs)."""
    import asyncio

    from repro.service import ServerConfig, TenantQuota, serve_until_interrupted

    sessions_by_tenant = _parse_tenant_value(
        args.tenant_sessions, "tenant-sessions", int
    )
    rate_by_tenant = _parse_tenant_value(args.tenant_rate, "tenant-rate", float)
    tenant_quotas = {
        tenant: TenantQuota(
            max_sessions=sessions_by_tenant.get(tenant),
            cycles_per_second=rate_by_tenant.get(tenant),
        )
        for tenant in set(sessions_by_tenant) | set(rate_by_tenant)
    }
    config = ServerConfig(
        host=args.host,
        port=args.port,
        http_port=None if args.no_http else args.http_port,
        # Serving caches only on request: a server writing into the default
        # experiment cache directory unasked would be a surprise.
        cache_dir=args.cache_dir,
        max_sessions=args.max_sessions,
        default_quota=TenantQuota(
            max_sessions=args.default_tenant_sessions,
            cycles_per_second=args.default_tenant_rate,
        ),
        tenant_quotas=tenant_quotas,
        idle_timeout=args.idle_timeout,
    )
    if args.slice_cycles is not None:
        config.slice_cycles = args.slice_cycles
    try:
        asyncio.run(serve_until_interrupted(config))
    except KeyboardInterrupt:
        pass
    return 0


def run_bench_command(args: argparse.Namespace) -> int:
    """Time the simulators and snapshot/compare the numbers (see module docs)."""
    import dataclasses as _dataclasses

    from repro.bench import (
        DEFAULT_REGRESSION_THRESHOLD,
        compare_documents,
        default_specs,
        gate_specs,
        load_bench_document,
        profile_specs,
        render_comparison,
        render_results,
        run_bench,
        write_bench_file,
        write_profile_file,
    )

    if args.service:
        from repro.bench import run_service_bench, service_bench_file_name

        results = run_service_bench(progress=print)
        print()
        print(render_results(results))
        if args.output:
            out_path = write_bench_file(
                results,
                directory=os.path.dirname(args.output) or ".",
                file_name=os.path.basename(args.output),
            )
        else:
            # BENCH_service_<date>.json: outside the regression gate's
            # BENCH_2*.json baseline glob -- service cells never gate.
            out_path = write_bench_file(results, file_name=service_bench_file_name())
        print(f"\nwrote {out_path}")
        return 0
    if args.compare is None and (
        args.fail_on_regression or args.fail_threshold is not None
    ):
        # A gate without a baseline would silently always pass.
        raise SystemExit(
            "--fail-on-regression/--fail-threshold require --compare "
            "(there is no baseline to regress against otherwise)"
        )
    # Load the baseline before writing anything: the default output name is
    # date-stamped, so a same-day --compare target would otherwise be
    # overwritten before it was read.
    baseline = load_bench_document(args.compare) if args.compare else None
    specs = gate_specs() if args.gate else default_specs(quick=args.quick)
    if args.backend:
        specs = [
            _dataclasses.replace(spec, backends=(args.backend,)) for spec in specs
        ]
    if args.repeats > 1:
        specs = [_dataclasses.replace(spec, repeats=args.repeats) for spec in specs]
    results = run_bench(specs, progress=print)
    print()
    print(render_results(results))
    if args.output:
        out_path = write_bench_file(
            results,
            directory=os.path.dirname(args.output) or ".",
            file_name=os.path.basename(args.output),
        )
    else:
        out_path = write_bench_file(results)
    print(f"\nwrote {out_path}")
    if args.profile:
        # Separate profiled pass: the timings above stay honest, and the
        # report explaining them lands next to the snapshot.
        reports = profile_specs(specs, progress=print)
        profile_path = write_profile_file(reports, out_path)
        print(f"wrote {profile_path}")
    if baseline is not None:
        threshold = (
            args.fail_threshold
            if args.fail_threshold is not None
            else DEFAULT_REGRESSION_THRESHOLD
        )
        comparisons, only_old, only_new = compare_documents(
            baseline, load_bench_document(out_path), threshold=threshold
        )
        print(f"\ncomparison against {args.compare}:")
        print(render_comparison(comparisons, only_old, only_new))
        if args.fail_on_regression and not comparisons:
            # A gate that matched nothing gates nothing: treat the silent
            # no-op (wrong baseline file, drifted matrices) as a failure
            # so CI cannot stay green while comparing thin air.
            print(
                f"\nFAIL: no cell of this run matches {args.compare}; "
                "the regression gate has nothing to compare",
                file=sys.stderr,
            )
            return 1
        regressions = [comp for comp in comparisons if comp.regressed]
        if args.fail_on_regression and regressions:
            print(
                f"\nFAIL: {len(regressions)} cell(s) regressed beyond "
                f"{threshold:.0%} against {args.compare}",
                file=sys.stderr,
            )
            return 1
    return 0


def _at_least_one(text: str) -> int:
    """``type=`` of the count flags (``--jobs``, ``--workers``, ...)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


#: The flags an experiment may read beyond --jobs/--cache-dir/--no-cache.
_EXPERIMENT_FLAGS: Dict[str, Dict[str, Any]] = {
    "--quick": dict(
        action="store_true",
        help="use reduced problem sizes so the experiment finishes in seconds",
    ),
    "--full": dict(
        action="store_true",
        help="use the complete paper matrix where a reduced default exists",
    ),
    "--backend": dict(
        metavar="NAME",
        help="re-target the experiment's sweep at one simulator backend "
        "(hil-full, hil-hw, hil-comm, nanos, perfect, or a plug-in)",
    ),
}


def _add_simulate_parser(commands: Any) -> None:
    simulate = commands.add_parser(
        "simulate",
        help="drive one workload through the streaming session API",
        description="Drive one workload through a streaming session.",
    )
    simulate.set_defaults(handler=run_simulate)
    source = simulate.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--workload",
        metavar="NAME",
        help="benchmark (cholesky, lu, ...) or synthetic case (case1..case7)",
    )
    source.add_argument(
        "--restore",
        metavar="PATH",
        help="resume a run from a snapshot document instead of opening a "
        "fresh workload",
    )
    simulate.add_argument(
        "--block-size",
        type=int,
        metavar="N",
        help="block size of the benchmark (unused for synthetic cases)",
    )
    simulate.add_argument(
        "--problem-size",
        type=int,
        metavar="N",
        help="problem-size override (default: the paper's size)",
    )
    simulate.add_argument(
        "--backend",
        default="hil-full",
        metavar="NAME",
        help="simulator backend to run (default: hil-full)",
    )
    simulate.add_argument(
        "--workers",
        type=_at_least_one,
        default=12,
        metavar="N",
        help="worker cores to simulate (default: 12, as in the paper)",
    )
    simulate.add_argument(
        "--until-cycle",
        type=int,
        metavar="CYCLE",
        help="stop delivering lifecycle events at this cycle (early abort)",
    )
    simulate.add_argument(
        "--show-events",
        type=int,
        default=0,
        metavar="K",
        help="print the first K lifecycle events of the run",
    )
    simulate.add_argument(
        "--checkpoint-at",
        type=int,
        metavar="CYCLE",
        help="snapshot the run at this cycle boundary (0 = before any "
        "work); the run then continues to completion as usual",
    )
    simulate.add_argument(
        "--checkpoint-to",
        metavar="PATH",
        help="write the snapshot document to PATH (required with "
        "--checkpoint-at; without it, snapshots before any work)",
    )
    simulate.add_argument(
        "--fault",
        action="append",
        metavar="SPEC",
        help="arm one fault scenario (repeatable); SPEC is "
        "KIND@TRIGGER[:OPT=V...], e.g. "
        "'kill-worker@cycle=5000:worker=3' or "
        "'drop-event@p=0.01:class=ready:seed=7' (see docs/faults.md)",
    )


def _add_bench_parser(commands: Any) -> None:
    bench = commands.add_parser(
        "bench",
        help="time the simulators and write a BENCH_<date>.json snapshot",
        description="Time the simulators and snapshot/compare the numbers.",
    )
    bench.set_defaults(handler=run_bench_command)
    bench.add_argument(
        "--quick",
        action="store_true",
        help="time the reduced CI smoke matrix",
    )
    bench.add_argument(
        "--backend",
        metavar="NAME",
        help="time only this simulator backend in every cell",
    )
    bench.add_argument(
        "--output",
        metavar="PATH",
        help="where to write the benchmark snapshot "
        "(default: ./BENCH_<today>.json)",
    )
    bench.add_argument(
        "--compare",
        metavar="PATH",
        help="diff the fresh run against an earlier BENCH_*.json snapshot",
    )
    bench.add_argument(
        "--profile",
        action="store_true",
        help="after timing, re-run each cell under cProfile and write the "
        "top-25 cumulative functions per cell to <snapshot>.profile.txt "
        "next to the BENCH_<date>.json snapshot",
    )
    bench.add_argument(
        "--repeats",
        type=_at_least_one,
        default=1,
        metavar="N",
        help="timing repeats per cell; the best wall time is kept (default: 1)",
    )
    bench.add_argument(
        "--gate",
        action="store_true",
        help="time the regression-gate matrix instead of the default/quick "
        "one: few large cells where a 15%% wall-time change is signal, all "
        "present in every committed full snapshot (overrides --quick)",
    )
    bench.add_argument(
        "--fail-threshold",
        type=float,
        metavar="FRACTION",
        help="relative wall-time growth that counts as a regression when "
        "comparing (default: 0.25; the CI gate uses 0.15)",
    )
    bench.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="exit non-zero when the --compare diff contains a regression "
        "(turns the bench job into a CI gate instead of an artifact upload)",
    )
    bench.add_argument(
        "--service",
        action="store_true",
        help="time the simulation service instead of the simulators "
        "(requests/s and slice latency at 1/16/64 concurrent sessions; "
        "writes BENCH_service_<date>.json, which the regression gate "
        "never reads)",
    )


def _add_serve_parser(commands: Any) -> None:
    serve = commands.add_parser(
        "serve",
        help="start the simulation service",
        description="Start the simulation service in the foreground.",
    )
    serve.set_defaults(handler=run_serve)
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        metavar="ADDR",
        help="address to bind the listeners to (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=9178,
        metavar="N",
        help="TCP (NDJSON) port; 0 picks an ephemeral port (default: 9178)",
    )
    serve.add_argument(
        "--http-port",
        type=int,
        default=0,
        metavar="N",
        help="HTTP adapter port (/metrics, /healthz, SSE /simulate); "
        "0 picks an ephemeral port (default: 0)",
    )
    serve.add_argument(
        "--no-http",
        action="store_true",
        help="disable the HTTP adapter entirely",
    )
    serve.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="directory of the shared on-disk result cache "
        "(default: no cache)",
    )
    serve.add_argument(
        "--max-sessions",
        type=int,
        metavar="N",
        help="server-wide concurrent-session cap (default: unlimited)",
    )
    serve.add_argument(
        "--default-tenant-sessions",
        type=int,
        metavar="N",
        help="per-tenant concurrent-session quota applied to tenants "
        "without an explicit --tenant-sessions entry (default: unlimited)",
    )
    serve.add_argument(
        "--default-tenant-rate",
        type=float,
        metavar="CYCLES",
        help="per-tenant simulated-cycles-per-second throttle applied to "
        "tenants without an explicit --tenant-rate entry (default: none)",
    )
    serve.add_argument(
        "--tenant-sessions",
        action="append",
        metavar="TENANT=N",
        help="concurrent-session quota of one tenant (repeatable)",
    )
    serve.add_argument(
        "--tenant-rate",
        action="append",
        metavar="TENANT=CYCLES",
        help="cycles-per-second throttle of one tenant (repeatable)",
    )
    serve.add_argument(
        "--slice-cycles",
        type=_at_least_one,
        metavar="N",
        help="default cooperative-slice cycle budget "
        "(requests may override via their stream options)",
    )
    serve.add_argument(
        "--idle-timeout",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="evict sessions that were accepted but never run after this "
        "long idle (default: 300)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the command-line argument parser: one subparser per command."""
    parser = argparse.ArgumentParser(
        prog="picos-experiment",
        description="Reproduce the tables and figures of the Picos ISPASS 2016 paper.",
    )
    commands = parser.add_subparsers(
        dest="experiment", required=True, metavar="COMMAND", title="commands"
    )
    runner = argparse.ArgumentParser(add_help=False)
    runner.set_defaults(
        handler=_run_experiments, quick=False, full=False, backend=None
    )
    runner.add_argument(
        "--jobs",
        type=_at_least_one,
        metavar="N",
        help="simulation jobs to run in parallel (default: all CPUs)",
    )
    runner.add_argument(
        "--cache-dir",
        metavar="PATH",
        help="directory of the on-disk result cache "
        "(default: $PICOS_CACHE_DIR or .picos-cache)",
    )
    runner.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache for this run",
    )
    for name, experiment in EXPERIMENTS.items():
        command = commands.add_parser(
            name, parents=[runner], help=experiment.title, description=experiment.title
        )
        for flag in experiment.flags:
            command.add_argument(flag, **_EXPERIMENT_FLAGS[flag])
    every = commands.add_parser(
        "all",
        parents=[runner],
        help="every table and figure above",
        description="Every table and figure; --backend is ignored by the "
        "purely analytic experiments (fig10, table1, table3).",
    )
    for flag, spec in _EXPERIMENT_FLAGS.items():
        every.add_argument(flag, **spec)
    commands.add_parser(
        "backends", help="list the registered simulator backends"
    ).set_defaults(handler=_run_backends)
    _add_simulate_parser(commands)
    _add_bench_parser(commands)
    _add_serve_parser(commands)
    lint = commands.add_parser(
        "lint",
        help="run the repro-lint invariant checker",
        description="Run the repro-lint invariant checker (python -m repro.lint).",
    )
    lint.set_defaults(handler=_run_lint)
    lint.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="file or directory to lint (default: the installed repro package)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered lint rules and exit",
    )
    return parser


def runner_options_from_args(args: argparse.Namespace) -> RunnerOptions:
    """Translate parsed CLI arguments into runner options."""
    jobs = args.jobs if args.jobs is not None else os.cpu_count() or 1
    if args.no_cache:
        cache_dir = None
    elif args.cache_dir is not None:
        cache_dir = args.cache_dir
    else:
        cache_dir = default_cache_dir()
    return RunnerOptions(jobs=jobs, cache_dir=cache_dir)


def _run_experiments(args: argparse.Namespace) -> int:
    options = runner_options_from_args(args)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        start = time.time()
        try:
            output = EXPERIMENTS[name].run(args.quick, args.full, options, args.backend)
        except (SystemExit, ValueError) as exc:
            # An experiment that cannot honour --backend aborts with a
            # message (SystemExit from a wrapper, ValueError from the
            # library specs); under "all" that one is skipped instead of
            # killing the remaining experiments.
            if args.experiment != "all":
                raise SystemExit(str(exc)) from None
            print(f"===== {name} (skipped) =====")
            print(exc)
            print()
            continue
        elapsed = time.time() - start
        print(f"===== {name} ({elapsed:.1f}s) =====")
        print(output)
        print()
    return 0


def _run_backends(args: argparse.Namespace) -> int:
    print(render_backends())
    return 0


def _run_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import main as lint_main

    return lint_main(args.paths + (["--list-rules"] if args.list_rules else []))


def main(argv: Optional[list] = None) -> int:
    """Console-script entry point."""
    args = build_parser().parse_args(argv)
    backend = getattr(args, "backend", None)
    if backend is not None and backend not in describe_backends():
        print(f"unknown backend {backend!r}", file=sys.stderr)
        print(render_backends(), file=sys.stderr)
        return 2
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
