"""service-stream: drive ``picos-experiment serve`` through its NDJSON protocol.

One client process, one asyncio loop, two TCP connections.  A run has two
phases against one server:

* **open loop** -- requests are sent on a fixed schedule (``OPEN_RATE``
  per second, alternating connections) whatever the server's progress;
  each request's latency is timed from the moment it was due, so a stall
  also counts against every request queued behind it;
* **closed loop** -- each connection keeps exactly one session
  outstanding and sends the next request when the previous result
  arrived, until a fixed number of requests is done; completed requests
  per second is the capacity.

Every answer is checked after the run against a batch ``simulate_request``
of the same request.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .common import ROOT, child_env, median, percentile
from .speed import SpeedProbe
from .workloads import ServiceItem, service_items

#: Offered rate of the open-loop phase, requests per second: under a third
#: of what the server completes in the closed loop on a 2-core box.
OPEN_RATE = 24.0
#: Share of the run spent in the open-loop phase; the rest is closed loop.
OPEN_SHARE = 0.6
#: Closed-loop requests per second of the run's closed-loop share.  The
#: phase sends exactly this many, so its work (and the server's memory) is
#: the same on every run; only how long it takes varies.
CLOSED_REQUESTS_PER_S = 100
#: Servers spawned per run to time set-up; the last one takes the load.
SPAWNS = 3
#: Seconds to wait for the server to announce its port.
ANNOUNCE_TIMEOUT_S = 30.0
#: Latency recorded for a failed request: it misses any limit.
FAILED_LATENCY_MS = float("inf")
#: With two or more CPUs, the client runs on the first and the server on
#: the second.  Left to itself the scheduler sometimes puts both on one
#: CPU, where they take turns; closed-loop capacity then swung by 40%
#: between runs of the same requests.
CPUS = sorted(os.sched_getaffinity(0))[:2]


class ServerProcess:
    """``picos-experiment serve`` in a subprocess, optionally traced."""

    def __init__(
        self, cache_dir: Path, log_path: Path, trace_out: Optional[Path] = None, speed_out: Optional[Path] = None
    ) -> None:
        serve = ["serve", "--port", "0", "--no-http", "--cache-dir", str(cache_dir), "--idle-timeout", "120"]
        if trace_out is not None:
            command = [sys.executable, "-m", "perfbench.launch_server", "--trace-out", str(trace_out), "--", *serve]
        elif speed_out is not None:
            command = [sys.executable, "-m", "perfbench.launch_server", "--speed-out", str(speed_out), "--", *serve]
        else:
            command = [sys.executable, "-m", "repro.experiments.cli", *serve]
        self._log = open(log_path, "ab")
        self.started = time.perf_counter()
        cpus = CPUS[1:2]
        self.process = subprocess.Popen(
            command,
            cwd=str(ROOT),
            env=child_env(),
            stdout=subprocess.PIPE,
            stderr=self._log,
            bufsize=0,
            preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if cpus else None,
        )
        self.port = self._read_port()
        self.announced = time.perf_counter()

    def _read_port(self) -> int:
        deadline = time.monotonic() + ANNOUNCE_TIMEOUT_S
        assert self.process.stdout is not None
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            ready, _, _ = select.select([self.process.stdout], [], [], max(0.0, remaining))
            if not ready:
                self.stop()
                raise RuntimeError("server did not announce its port in time")
            chunk = self.process.stdout.read(1)
            if not chunk:
                self.stop()
                raise RuntimeError("server exited before announcing its port")
            line += chunk
        text = line.decode().strip()
        if not text.startswith("serving ndjson on "):
            self.stop()
            raise RuntimeError(f"unexpected announce line {text!r}")
        return int(text.rsplit(":", 1)[1])

    def stop(self) -> Dict[str, float]:
        """SIGTERM, reap, and return the process's peak RSS and CPU time."""
        usage: Dict[str, float] = {}
        if self.process.returncode is None:
            self.process.send_signal(signal.SIGTERM)
            deadline = time.monotonic() + 30.0
            while True:
                pid, status, rusage = os.wait4(self.process.pid, os.WNOHANG)
                if pid:
                    self.process.returncode = os.waitstatus_to_exitcode(status)
                    usage = {
                        "peak_rss_mb": rusage.ru_maxrss / 1024.0,
                        "cpu_s": rusage.ru_utime + rusage.ru_stime,
                    }
                    break
                if time.monotonic() > deadline:
                    self.process.kill()
                    self.process.wait()
                    break
                time.sleep(0.02)
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()
        return usage


@dataclass
class Outcome:
    """What the client saw of one request."""

    item: ServiceItem
    due: float
    sent: float = 0.0
    first_event: Optional[float] = None
    done: Optional[float] = None
    result: Optional[Dict[str, Any]] = None
    cached: bool = False
    checkpoint: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    finished: asyncio.Future = field(default_factory=lambda: asyncio.get_running_loop().create_future())

    def finish(self, now: float, error: Optional[str] = None) -> None:
        if self.done is None:
            self.done = now
            self.error = error
            self.finished.set_result(None)


def wire_frames(item: ServiceItem) -> bytes:
    """The frames that start one request, encoded once ahead of timing."""
    sid = item.session_id
    if item.kind == "restore":
        frames: List[Dict[str, Any]] = [
            {"type": "restore", "id": sid, "snapshot": item.document},
            {"type": "checkpoint", "id": sid},
            {"type": "run", "id": sid},
        ]
    else:
        frames = [{"type": "open", "id": sid, "request": item.document}, {"type": "run", "id": sid}]
    return b"".join(json.dumps(frame, separators=(",", ":")).encode() + b"\n" for frame in frames)


class Connection:
    """One NDJSON connection; frames are routed to outcomes by session id."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.pending: Dict[str, Outcome] = {}
        self.reader_task: Optional[asyncio.Task] = None

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port, limit=64 * 1024 * 1024)
        hello = json.loads(await reader.readline())
        if hello.get("type") != "hello":
            raise RuntimeError(f"expected a hello frame, got {hello}")
        connection = cls(reader, writer)
        connection.reader_task = asyncio.get_running_loop().create_task(connection._read())
        return connection

    def send(self, outcome: Outcome, data: bytes) -> None:
        self.pending[outcome.item.session_id] = outcome
        outcome.sent = time.perf_counter()
        self.writer.write(data)

    async def _read(self) -> None:
        try:
            while True:
                line = await self.reader.readline()
                if not line:
                    break
                now = time.perf_counter()
                frame = json.loads(line)
                outcome = self.pending.get(frame.get("id"))
                if outcome is None:
                    continue
                kind = frame.get("type")
                if kind == "events":
                    if outcome.first_event is None:
                        outcome.first_event = now
                elif kind == "checkpoint":
                    outcome.checkpoint = frame
                elif kind == "result":
                    outcome.result = frame["result"]
                    outcome.cached = bool(frame.get("cached"))
                    del self.pending[outcome.item.session_id]
                    outcome.finish(now)
                elif kind in ("rejected", "error", "evicted", "cancelled"):
                    del self.pending[outcome.item.session_id]
                    outcome.finish(now, f"{kind}: {frame.get('code')} {frame.get('error', '')}".strip())
        finally:
            now = time.perf_counter()
            for outcome in list(self.pending.values()):
                outcome.finish(now, "connection closed")
            self.pending.clear()

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        if self.reader_task is not None:
            await self.reader_task


@dataclass
class Phases:
    """Everything one load pass measured."""

    open_outcomes: List[Outcome]
    closed_outcomes: List[Outcome]
    closed_began: float
    closed_elapsed_s: float
    lags_ms: List[float]


async def _drive(
    port: int, open_items: Sequence[Tuple[ServiceItem, bytes]], closed_items: Sequence[Tuple[ServiceItem, bytes]]
) -> Phases:
    connections = [await Connection.open(port), await Connection.open(port)]
    try:
        # Open loop: fixed schedule, latency timed from each due time.
        open_outcomes: List[Outcome] = []
        lags: List[float] = []
        start = time.perf_counter() + 0.05
        for index, (item, data) in enumerate(open_items):
            due = start + index / OPEN_RATE
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            outcome = Outcome(item, due)
            connections[index % 2].send(outcome, data)
            lags.append((outcome.sent - due) * 1e3)
            open_outcomes.append(outcome)
        await asyncio.wait_for(asyncio.gather(*(o.finished for o in open_outcomes)), timeout=60.0)

        # Closed loop: one outstanding session per connection.
        closed_outcomes: List[Outcome] = []
        pool = iter(closed_items)
        began = time.perf_counter()

        async def client(connection: Connection) -> None:
            while True:
                entry = next(pool, None)
                if entry is None:
                    return
                outcome = Outcome(entry[0], time.perf_counter())
                connection.send(outcome, entry[1])
                closed_outcomes.append(outcome)
                await asyncio.wait_for(outcome.finished, timeout=60.0)

        await asyncio.gather(*(client(connection) for connection in connections))
        elapsed = time.perf_counter() - began
        return Phases(open_outcomes, closed_outcomes, began, elapsed, lags)
    finally:
        for connection in connections:
            await connection.close()


@dataclass
class Plan:
    """The generated inputs of one service-stream pass."""

    open_items: List[Tuple[ServiceItem, bytes]]
    closed_items: List[Tuple[ServiceItem, bytes]]


def make_plan(seed: int, seconds: float) -> Plan:
    """The requests of a ``seconds``-long pass: open-loop ones, then closed-loop ones."""
    open_s = seconds * OPEN_SHARE
    closed_s = seconds - open_s
    open_count = max(1, int(open_s * OPEN_RATE))
    closed_count = max(1, int(closed_s * CLOSED_REQUESTS_PER_S))
    items = [(item, wire_frames(item)) for item in service_items(seed, open_count + closed_count)]
    return Plan(items[:open_count], items[open_count:])


@dataclass
class PassResult:
    """One server's life: set-up samples, load phases, resource usage.

    ``probe`` holds the loaded server's speed probe when the pass ran with
    ``probe=True`` (``setup_s`` is then corrected too), else ``None``.
    """

    setup_s: List[float]
    phases: Phases
    usage: Dict[str, float]
    probe: Optional[SpeedProbe] = None

    def length(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end``, corrected when the pass was probed.

        The server's probe alone corrects: the server does most of a
        request's work, and in the closed loop it is the bottleneck.  Its
        probes' own time stays in, as they delayed a request only when they
        ran while it was being served.
        """
        if self.probe is None:
            return end - start
        return self.probe.correct(start, end, subtract=False)


def run_pass(
    plan: Plan, work: Path, trace_out: Optional[Path] = None, spawns: int = SPAWNS, probe: bool = False
) -> PassResult:
    """Spawn the server ``spawns`` times (timing each), load the last one.

    With ``probe`` every server runs a speed probe, and the times of the
    pass are corrected with it (``speed.py``).
    """
    cache_dir = work / "cache"
    setups: List[float] = []
    server: Optional[ServerProcess] = None
    speed_out = work / "speed.json" if probe else None
    for spawn in range(spawns):
        last = spawn == spawns - 1
        server = ServerProcess(cache_dir, work / "server.log", trace_out if last else None, speed_out)
        if not last:
            server.stop()
            setups.append(_setup_length(speed_out, server))
    assert server is not None
    # The generated requests are millions of objects, and the answers pile
    # up during the run; a full collection of them would stall the load
    # generator for most of a second, so it does not collect while loading.
    gc.collect()
    gc.freeze()
    gc.disable()
    allowed = os.sched_getaffinity(0)
    if len(CPUS) > 1:
        os.sched_setaffinity(0, CPUS[:1])
    try:
        phases = asyncio.run(_drive(server.port, plan.open_items, plan.closed_items))
    finally:
        os.sched_setaffinity(0, allowed)
        gc.enable()
        gc.unfreeze()
        usage = server.stop()
    setups.append(_setup_length(speed_out, server))
    return PassResult(setups, phases, usage, SpeedProbe.load(str(speed_out)) if speed_out else None)


def _setup_length(speed_out: Optional[Path], server: ServerProcess) -> float:
    """Spawn to announce, corrected with the stopped server's probe."""
    if speed_out is None:
        return server.announced - server.started
    return SpeedProbe.load(str(speed_out)).correct(server.started, server.announced, subtract=False)


# ----------------------------------------------------------------------
# checking and reporting
# ----------------------------------------------------------------------
def check_outcomes(outcomes: Sequence[Outcome]) -> List[Tuple[str, str]]:
    """Compare every answer with a batch run of the same request.

    Returns ``(session id, problem)`` pairs; an empty list means every
    answer was right.
    """
    from repro.service.protocol import result_to_document
    from repro.sim.driver import simulate_request

    problems: List[Tuple[str, str]] = []
    expected_docs: Dict[Any, Dict[str, Any]] = {}
    for outcome in outcomes:
        item = outcome.item

        def problem(message: str) -> None:
            problems.append((item.session_id, f"{item.session_id} ({item.kind}): {message}"))

        if outcome.error is not None:
            problem(outcome.error)
            continue
        key = item.request if item.kind == "ref" else id(item)
        expected = expected_docs.get(key)
        if expected is None:
            if item.expected is None:
                item.expected = simulate_request(item.request)
            expected = expected_docs[key] = json.loads(json.dumps(result_to_document(item.expected)))
        if outcome.result != expected:
            problem("result differs from the batch run")
        if item.kind == "restore":
            checkpoint = outcome.checkpoint
            if checkpoint is None or checkpoint.get("cycle") != item.snapshot_cycle:
                problem(f"checkpoint of the restored session is not at cycle {item.snapshot_cycle}")
            if outcome.result is not None and outcome.result.get("makespan") != item.expected.makespan:
                problem("restored run's makespan differs from the straight run")
        if item.kind == "inline" and outcome.cached:
            problem("a unique program was answered from the cache")
    return problems


def latency_samples(outcomes: Sequence[Outcome], result: PassResult, first_event: bool = False) -> List[float]:
    """Milliseconds from each due time (``result.length``); failures count as missing any limit."""
    samples = []
    for outcome in outcomes:
        if outcome.error is not None:
            samples.append(FAILED_LATENCY_MS)
            continue
        stamp = outcome.first_event if first_event else outcome.done
        end = stamp if stamp is not None else outcome.done
        assert end is not None
        samples.append(result.length(outcome.due, end) * 1e3)
    return samples


def end_to_end(result: PassResult) -> Dict[str, float]:
    """The end-to-end values of one pass, speed-corrected when it was probed."""
    phases = result.phases
    latencies = latency_samples(phases.open_outcomes, result)
    firsts = latency_samples(phases.open_outcomes, result, first_event=True)
    closed_ok = [o for o in phases.closed_outcomes if o.error is None]
    tasks = sum(int(o.result["num_tasks"]) for o in closed_ok if o.result is not None)
    closed_s = result.length(phases.closed_began, phases.closed_began + phases.closed_elapsed_s)
    return {
        "req_p50_ms": percentile(latencies, 0.50),
        "req_p95_ms": percentile(latencies, 0.95),
        "first_event_p50_ms": percentile(firsts, 0.50),
        "capacity_rps": len(closed_ok) / closed_s,
        "tasks_per_s": tasks / closed_s,
        "setup_s": median(result.setup_s),
        "peak_rss_mb": result.usage.get("peak_rss_mb", 0.0),
    }


def simulated_totals(outcomes: Sequence[Outcome]) -> Dict[str, Any]:
    """Simulated counters summed over the answers the server computed."""
    counters: Dict[str, float] = {}
    events = tasks = 0
    busy = capacity = 0
    for outcome in outcomes:
        result = outcome.result
        if result is None or outcome.cached:
            continue
        events += int(result["counters"].get("events_processed", 0))
        tasks += int(result["num_tasks"])
        for key, value in result["counters"].items():
            if key.endswith("high_water"):
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
        busy += sum(stamps[4] - stamps[3] for stamps in result["timelines"].values())
        capacity += int(result["makespan"]) * int(result["num_workers"])
    return {"events": events, "tasks": tasks, "counters": counters, "busy_frac": busy / capacity if capacity else 0.0}
