"""What the traced run wraps, and how spans become per-layer metrics.

Each layer's metrics say which end-to-end metric they should move, on
which workload; that map is written out in ``perfbench/README.md``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .common import median, metric, percentile
from .tracer import SpanStats, Target, Tracer

# ----------------------------------------------------------------------
# observers: counts taken where the work happens
# ----------------------------------------------------------------------


def _scheduled(tracer, buffer, index, args, kwargs, result) -> None:
    kind = args[2] if len(args) > 2 else kwargs.get("kind")
    buffer.counts[f"engine.scheduled.{kind}"] += 1


def _submit_outcome(tracer, buffer, index, args, kwargs, result) -> None:
    if result.accepted:
        buffer.counts["picos.accepted"] += 1


def _gateway_outcome(tracer, buffer, index, args, kwargs, result) -> None:
    if result.status.value == "stalled":
        buffer.counts["gateway.stalls"] += 1


def _dct_deps(tracer, buffer, index, args, kwargs, result) -> None:
    buffer.counts["dct.deps"] += len(result[0])


def _graph_edges(tracer, buffer, index, args, kwargs, result) -> None:
    buffer.counts["depgraph.edges"] += sum(len(preds) for preds in result.predecessors.values())


def _bind_session(tracer, buffer, index, args, kwargs, result) -> None:
    # SessionRegistry.add(session_id, tenant, session, ticket)
    sid = tracer.session_id(args[1])
    tracer.session_of_object[id(args[3])] = sid
    tracer.session_backend[sid] = args[3].request.backend


def _frame_in(tracer, buffer, index, args, kwargs, result) -> None:
    sid = tracer.session_id(result.get("id"))
    buffer.sids[index] = sid
    tracer.current_frame_sid = sid
    if result.get("type") == "run":
        tracer.run_decoded_ns[sid] = buffer.ends[index]


def _frame_out(tracer, buffer, index, args, kwargs, result) -> None:
    buffer.sids[index] = tracer.session_id(args[0].get("id"))
    buffer.counts["protocol.bytes_out"] += len(result)


def _admitted(tracer, buffer, index, args, kwargs, result) -> None:
    rejected = type(result).__name__ == "Rejection"
    buffer.counts["admission.rejections" if rejected else "admission.admits"] += 1


def _cache_lookup(tracer, buffer, index, args, kwargs, result) -> None:
    buffer.counts["cache.hits" if result is not None else "cache.misses"] += 1


def _session_of_first_arg(tracer, args, kwargs) -> int:
    return tracer.session_of_object.get(id(args[0]), 0)


def _current_frame(tracer, args, kwargs) -> int:
    return tracer.current_frame_sid


def _targets(module: str, owner: Optional[str], prefix: str, methods: Iterable[str]) -> List[Target]:
    return [Target(module, owner, method, f"{prefix}.{method}") for method in methods]


#: The simulator layers, wrapped in every traced run.
SIMULATOR_TARGETS: Tuple[Target, ...] = (
    Target("repro.apps.registry", None, "build_benchmark", "apps.build"),
    Target("repro.sim.engine", "EventQueue", "schedule", "engine.schedule", _scheduled),
    Target("repro.sim.engine", "EventQueue", "dispatch", "engine.dispatch"),
    Target("repro.core.picos", "PicosAccelerator", "submit_task", "picos.submit", _submit_outcome),
    Target("repro.core.picos", "PicosAccelerator", "resume_submission", "picos.resume", _submit_outcome),
    Target("repro.core.picos", "PicosAccelerator", "notify_finish", "picos.finish"),
    Target("repro.core.gateway", "Gateway", "submit", "gateway.submit", _gateway_outcome),
    Target("repro.core.gateway", "Gateway", "resume", "gateway.resume", _gateway_outcome),
    Target("repro.core.gateway", "Gateway", "notify_finished", "gateway.finish"),
    Target("repro.core.dct", "DependenceChainTracker", "process_batch", "dct.batch", _dct_deps),
    Target("repro.core.dct", "DependenceChainTracker", "process_finish_run", "dct.finish"),
    *_targets(
        "repro.core.trs",
        "TaskReservationStation",
        "trs",
        (
            "accept_task",
            "record_dependences",
            "drop_dependence_slots",
            "apply_submission_outcomes",
            "handle_ready_slot",
            "handle_finished",
        ),
    ),
    *_targets("repro.core.scheduler", "TaskScheduler", "sched", ("push", "pop", "try_pop")),
    *_targets("repro.sim.worker", "WorkerPool", "workers", ("reserve", "start_execution", "release")),
    Target("repro.runtime.nanos", None, "build_task_graph", "depgraph.build", _graph_edges),
)

#: The serving layers, wrapped in the traced server process only.
#: ``repro.service.server`` binds its protocol and snapshot functions with
#: ``from ... import``, so they are wrapped under the names it uses.
SERVICE_TARGETS: Tuple[Target, ...] = (
    Target("repro.sim.session", "SimulationSession", "advance", "session.advance", session=_session_of_first_arg),
    Target("repro.service.server", None, "capture", "snapshot.capture", session=_session_of_first_arg),
    Target("repro.service.server", None, "restore_snapshot", "snapshot.restore", session=_current_frame),
    Target("repro.sim.snapshot", "SimulationSnapshot", "from_document", "snapshot.decode", session=_current_frame),
    Target("repro.service.server", None, "decode_frame", "protocol.decode_frame", _frame_in),
    Target("repro.service.server", None, "request_from_document", "protocol.decode_request", session=_current_frame),
    Target("repro.service.server", None, "task_from_document", "protocol.decode_task", session=_current_frame),
    Target("repro.service.server", None, "encode_frame", "protocol.encode_frame", _frame_out),
    Target("repro.service.server", None, "events_to_document", "protocol.encode_events"),
    Target("repro.service.server", None, "result_to_document", "protocol.encode_result"),
    Target("repro.service.admission", "AdmissionController", "admit", "admission.admit", _admitted, _current_frame),
    Target("repro.service.admission", "AdmissionController", "slice_delay", "admission.slice_delay"),
    Target("repro.service.cache", "SharedResultCache", "get", "cache.get", _cache_lookup),
    Target("repro.service.cache", "SharedResultCache", "put", "cache.put"),
    Target("repro.service.sessions", "SessionRegistry", "add", "server.registry_add", _bind_session),
)

#: Event kinds whose scheduling is counted (HIL, then Nanos++).
EVENT_KINDS = (
    "master-done",
    "worker-done",
    "ready-batch",
    "task-visible",
    "submitted",
    "task-done",
    "master-joins",
)

#: Every per-layer metric, in report order: ``(name, unit, better)``.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("apps.build_s", "s", "lower"),
    ("engine.events", "count", "lower"),
    ("engine.events_per_task", "ratio", "lower"),
    ("engine.schedule_calls", "count", "lower"),
    ("engine.schedule_s", "s", "lower"),
    ("engine.dispatch_s", "s", "lower"),
    *((f"engine.scheduled.{kind}", "count", "lower") for kind in EVENT_KINDS),
    ("hil.self_s", "s", "lower"),
    ("picos.submit_calls", "count", "lower"),
    ("picos.resume_calls", "count", "lower"),
    ("picos.accept_ratio", "ratio", "higher"),
    ("picos.submit_s", "s", "lower"),
    ("picos.finish_calls", "count", "lower"),
    ("picos.finish_s", "s", "lower"),
    ("picos.self_s", "s", "lower"),
    ("gateway.submit_s", "s", "lower"),
    ("gateway.stalls", "count", "lower"),
    ("gateway.self_s", "s", "lower"),
    ("dct.batch_calls", "count", "lower"),
    ("dct.batch_s", "s", "lower"),
    ("dct.finish_calls", "count", "lower"),
    ("dct.finish_s", "s", "lower"),
    ("dct.deps", "count", "lower"),
    ("dct.ns_per_dep", "ns", "lower"),
    ("dct.self_s", "s", "lower"),
    ("dct.dm_conflicts", "count", "lower"),
    ("dct.dm_conflict_stall_cycles", "cycles", "lower"),
    ("dct.dm_high_water", "count", "lower"),
    ("dct.vm_high_water", "count", "lower"),
    ("dct.vm_full_stalls", "count", "lower"),
    ("trs.calls", "count", "lower"),
    ("trs.s", "s", "lower"),
    ("trs.tm_full_stalls", "count", "lower"),
    ("trs.tm_high_water", "count", "lower"),
    ("sched.calls", "count", "lower"),
    ("sched.s", "s", "lower"),
    ("sched.ready_high_water", "count", "lower"),
    ("workers.calls", "count", "lower"),
    ("workers.s", "s", "lower"),
    ("workers.busy_frac", "ratio", "higher"),
    ("depgraph.build_s", "s", "lower"),
    ("depgraph.edges", "count", "lower"),
    ("nanos.self_s", "s", "lower"),
    ("session.advance_calls", "count", "lower"),
    ("session.advance_s", "s", "lower"),
    ("session.slice_p50_ms", "ms", "lower"),
    ("session.slice_p95_ms", "ms", "lower"),
    ("snapshot.captures", "count", "higher"),
    ("snapshot.capture_p50_ms", "ms", "lower"),
    ("snapshot.restores", "count", "higher"),
    ("snapshot.restore_p50_ms", "ms", "lower"),
    ("snapshot.doc_kb", "KB", "lower"),
    ("protocol.frames_in", "count", "higher"),
    ("protocol.decode_s", "s", "lower"),
    ("protocol.frames_out", "count", "higher"),
    ("protocol.encode_s", "s", "lower"),
    ("protocol.bytes_out", "bytes", "lower"),
    ("admission.admits", "count", "higher"),
    ("admission.rejections", "count", "lower"),
    ("admission.s", "s", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.get_s", "s", "lower"),
    ("cache.put_s", "s", "lower"),
    ("server.self_s", "s", "lower"),
    ("server.queue_wait_p95_ms", "ms", "lower"),
    ("client.lag_p95_ms", "ms", "lower"),
    ("client.sent", "count", "higher"),
    ("client.failed", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.unattributed_frac", "ratio", "lower"),
)

UNITS: Dict[str, str] = {name: unit for name, unit, _better in PER_LAYER}

#: Span-name prefixes of each timed layer, for self-time sums.
_LAYER_PREFIXES = {
    "picos": ("picos.",),
    "gateway": ("gateway.",),
    "dct": ("dct.",),
}


class SpanTable:
    """Span aggregates of one traced run.

    A queried name ending in ``.`` or ``_`` selects every span it prefixes.
    """

    def __init__(self, stats: Mapping[Tuple[str, int], SpanStats], counts: Mapping[str, int]) -> None:
        self.stats = stats
        self.counts = counts

    def _select(self, names: Sequence[str], sids: Optional[set] = None) -> Iterable[SpanStats]:
        for (name, sid), entry in self.stats.items():
            if any(name == n or (n[-1] in "._" and name.startswith(n)) for n in names):
                if sids is None or sid in sids:
                    yield entry

    def calls(self, *names: str) -> int:
        return sum(entry.calls for entry in self._select(names))

    def total_s(self, *names: str) -> float:
        return sum(entry.total_ns for entry in self._select(names)) / 1e9

    def self_s(self, *names: str, sids: Optional[set] = None) -> float:
        return sum(entry.self_ns for entry in self._select(names, sids)) / 1e9

    def all_self_s(self) -> float:
        return sum(entry.self_ns for entry in self.stats.values()) / 1e9

    def count(self, key: str) -> int:
        return int(self.counts.get(key, 0))


def simulator_metrics(table: SpanTable, dispatch_sids: Mapping[str, Optional[set]]) -> Dict[str, float]:
    """Per-layer metrics of the simulator layers, from spans.

    ``dispatch_sids`` says which sessions' dispatch self time is HIL and
    which is Nanos++ (``None`` selects every session).
    """
    values: Dict[str, float] = {}
    values["apps.build_s"] = table.total_s("apps.build")
    values["engine.schedule_calls"] = table.calls("engine.schedule")
    values["engine.schedule_s"] = table.total_s("engine.schedule")
    values["engine.dispatch_s"] = table.total_s("engine.dispatch")
    for kind in EVENT_KINDS:
        values[f"engine.scheduled.{kind}"] = table.count(f"engine.scheduled.{kind}")
    values["hil.self_s"] = table.self_s("engine.dispatch", sids=dispatch_sids.get("hil"))
    values["nanos.self_s"] = table.self_s("engine.dispatch", sids=dispatch_sids.get("nanos"))

    submits = table.calls("picos.submit")
    resumes = table.calls("picos.resume")
    values["picos.submit_calls"] = submits
    values["picos.resume_calls"] = resumes
    values["picos.accept_ratio"] = table.count("picos.accepted") / (submits + resumes) if submits + resumes else 0.0
    values["picos.submit_s"] = table.total_s("picos.submit", "picos.resume")
    values["picos.finish_calls"] = table.calls("picos.finish")
    values["picos.finish_s"] = table.total_s("picos.finish")
    values["gateway.submit_s"] = table.total_s("gateway.submit", "gateway.resume")
    values["gateway.stalls"] = table.count("gateway.stalls")
    values["dct.batch_calls"] = table.calls("dct.batch")
    values["dct.batch_s"] = table.total_s("dct.batch")
    values["dct.finish_calls"] = table.calls("dct.finish")
    values["dct.finish_s"] = table.total_s("dct.finish")
    deps = table.count("dct.deps")
    values["dct.deps"] = deps
    values["dct.ns_per_dep"] = values["dct.batch_s"] * 1e9 / deps if deps else 0.0
    for layer, prefixes in _LAYER_PREFIXES.items():
        values[f"{layer}.self_s"] = table.self_s(*prefixes)
    values["trs.calls"] = table.calls("trs.")
    values["trs.s"] = table.total_s("trs.")
    values["sched.calls"] = table.calls("sched.")
    values["sched.s"] = table.total_s("sched.")
    values["workers.calls"] = table.calls("workers.")
    values["workers.s"] = table.total_s("workers.")
    values["depgraph.build_s"] = table.total_s("depgraph.build")
    values["depgraph.edges"] = table.count("depgraph.edges")
    return values


#: Per-layer metrics read from a result's simulated counters.
_SIMULATED_COUNTERS = (
    ("dct.dm_conflicts", "dm_conflicts"),
    ("dct.dm_conflict_stall_cycles", "dm_conflict_stall_cycles"),
    ("dct.dm_high_water", "dm_high_water"),
    ("dct.vm_high_water", "vm_high_water"),
    ("dct.vm_full_stalls", "vm_full_stalls"),
    ("trs.tm_full_stalls", "tm_full_stalls"),
    ("trs.tm_high_water", "tm_high_water"),
    ("sched.ready_high_water", "ready_queue_high_water"),
)


def simulated_metrics(sim: Mapping[str, Any]) -> Dict[str, float]:
    """Per-layer metrics of simulated work, from results.

    ``sim`` holds ``events``, ``tasks``, ``busy_frac`` and the result
    ``counters`` (summed, high-water marks maximised, over several results).
    """
    events = float(sim["events"])
    tasks = float(sim["tasks"])
    values = {
        "engine.events": events,
        "engine.events_per_task": events / tasks if tasks else 0.0,
        "workers.busy_frac": float(sim["busy_frac"]),
    }
    for name, key in _SIMULATED_COUNTERS:
        values[name] = float(sim["counters"].get(key, 0))
    return values


def service_metrics(tracer: Tracer, table: SpanTable, server_cpu_s: float) -> Dict[str, float]:
    """Per-layer metrics of the serving layers (traced server process)."""
    values: Dict[str, float] = {}
    def durations_ms(span: str) -> List[float]:
        return [(end - start) / 1e6 for _sid, start, end in tracer.spans_named(span)]

    slices = durations_ms("session.advance")
    values["session.advance_calls"] = len(slices)
    values["session.advance_s"] = table.total_s("session.advance")
    values["session.slice_p50_ms"] = median(slices)
    values["session.slice_p95_ms"] = percentile(slices, 0.95)
    captures = durations_ms("snapshot.capture")
    restores = durations_ms("snapshot.restore")
    values["snapshot.captures"] = len(captures)
    values["snapshot.capture_p50_ms"] = median(captures)
    values["snapshot.restores"] = len(restores)
    values["snapshot.restore_p50_ms"] = median(restores)
    values["protocol.frames_in"] = table.calls("protocol.decode_frame")
    values["protocol.decode_s"] = table.total_s("protocol.decode_")
    values["protocol.frames_out"] = table.calls("protocol.encode_frame")
    values["protocol.encode_s"] = table.total_s("protocol.encode_")
    values["protocol.bytes_out"] = table.count("protocol.bytes_out")
    values["admission.admits"] = table.count("admission.admits")
    values["admission.rejections"] = table.count("admission.rejections")
    values["admission.s"] = table.total_s("admission.")
    hits, misses = table.count("cache.hits"), table.count("cache.misses")
    values["cache.hits"] = hits
    values["cache.misses"] = misses
    values["cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values["cache.get_s"] = table.total_s("cache.get")
    values["cache.put_s"] = table.total_s("cache.put")
    values["server.self_s"] = max(0.0, server_cpu_s - table.all_self_s())
    first_advance: Dict[int, int] = {}
    for sid, start, _end in tracer.spans_named("session.advance"):
        first_advance[sid] = min(start, first_advance.get(sid, start))
    waits = [(first_advance[sid] - decoded) / 1e6 for sid, decoded in tracer.run_decoded_ns.items() if sid in first_advance]
    values["server.queue_wait_p95_ms"] = percentile(waits, 0.95)
    return values


def complete(values: Mapping[str, float]) -> Dict[str, Dict[str, Any]]:
    """Every per-layer metric, 0 where the workload does not reach a layer."""
    unknown = sorted(set(values) - set(UNITS))
    if unknown:
        raise KeyError(f"metrics without a declaration: {unknown}")
    return {name: metric(float(values.get(name, 0.0)), unit) for name, unit, _better in PER_LAYER}
