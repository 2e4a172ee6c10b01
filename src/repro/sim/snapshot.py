"""Checkpoint/restore snapshots of sliced simulation sessions.

A :class:`SimulationSnapshot` freezes everything a resumable run needs --
the request, the engine's pending event schedule, the accelerator (or
software-runtime) state and the session's delivery counters -- into plain
JSON-safe primitives, so that :func:`restore` can rebuild a session that
continues *bit-exactly* where the captured one stood: same makespan, same
per-task timelines, same hardware counters, same lifecycle-event stream.
``docs/snapshots.md`` describes the contract and the tests that pin it.

Three snapshot kinds cover a session's lifecycle: ``initial`` (before the
first ``advance``; only the request is stored -- the only kind non-stepper
backends produce before they finish), ``mid-run`` (between ``advance``
slices; the complete mutable simulator state travels in the ``state``
document) and ``finished`` (the full result document).  :func:`capture`
copies every piece of state into fresh lists and dictionaries, so a
snapshot never aliases the live session.

Canonical state schema
----------------------

The paper's three Picos memories -- the TRS Task Memory (TM0/TMX) and the
DCT's Dependence and Version Memories (DM/VM) -- are encoded through one
schema table each (``_TM0_SCHEMA``, ``_TMX_SCHEMA``, ``_DM_SCHEMA``,
``_VM_SCHEMA``).  A row names the document key, the flat datapath's array,
the reference record's attribute, the reset value of invalid entries and
the handle kind; one gather and one scatter routine serve every memory on
both the flat integer-handle datapath and the object-based reference
oracle (``core/reference/``).  Both therefore encode to the *same*
document: ``-1`` for absent handles, packed slot handles (``trs_id *
per_trs + tm_index * stride + dep_index``) for slot references, and
invalid entries at their reset values (every allocation path overwrites
them before reading, so this is invisible to the simulation).  A run
captured under ``REPRO_REFERENCE_DATAPATH=1`` restores onto the flat
datapath and vice versa.  The VM's ``_dm_handle`` back-links are not
stored: they cache the DM's content and are recomputed on restore, which
is what lets a fork re-home live versions into a *wider* DM.

What-if forks
-------------

``restore(snapshot, config=...)`` (or :func:`fork`) resumes a mid-run
snapshot under a modified :class:`~repro.core.config.PicosConfig`.
Latency knobs may change freely; the TM/VM/DM set geometry and the DM hash
function must not, and the DM may only widen (live ways keep their set and
way index, and the VM free list grows behind the surviving entries).

On-disk format
--------------

:func:`save_snapshot` writes the document as one JSON object keyed by a
:func:`~repro.core.hashing.stable_digest` over its canonical
serialisation; :func:`load_snapshot` verifies the format version and the
digest, so corruption (or a schema drift without a version bump) fails
loudly instead of replaying garbage.
"""

from __future__ import annotations

import dataclasses
import json
from collections import deque
from itertools import compress
from pathlib import Path
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

from repro.core.config import PicosConfig
from repro.core.dct import StallReason
from repro.core.gateway import PendingSubmission
from repro.core.hashing import stable_digest
from repro.core.packets import TaskSlotRef
from repro.core.reference.dependence_memory import DMWay
from repro.core.reference.task_memory import DependenceSlot, TaskEntry
from repro.core.reference.version_memory import VersionEntry
from repro.core.stats import PicosStats
from repro.faults.payloads import FaultRedeliver, FaultTimer
from repro.runtime.nanos import NanosRuntimeSimulator
from repro.runtime.task import Task, TaskProgram
from repro.sim.engine import Event
from repro.sim.hil import HILSimulator
from repro.sim.request import InlineProgramRef
from repro.sim.results import TaskTimeline
from repro.sim.session import SimulationSession, open_session

__all__ = [
    "KIND_FINISHED",
    "KIND_INITIAL",
    "KIND_MID_RUN",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "SimulationSnapshot",
    "SnapshotError",
    "capture",
    "fork",
    "load_snapshot",
    "restore",
    "save_snapshot",
]

#: Format tag of the on-disk document (`format` field).
SNAPSHOT_FORMAT = "picos-snapshot"
#: Schema version; bump on any change to the state documents below.
#: Version 2: faulted HIL runs queue ready notifications as ``ready-batch``
#: events (version 1 queued them as ``task-visible``).
SNAPSHOT_VERSION = 2

#: Snapshot kinds (see the module docstring).
KIND_INITIAL = "initial"
KIND_MID_RUN = "mid-run"
KIND_FINISHED = "finished"

#: PicosConfig fields that must be identical between the captured and the
#: forked configuration of a mid-run restore: they size the state arrays
#: the snapshot re-homes into.  (The DM design itself is checked separately
#: -- widening is allowed.)
_GEOMETRY_FIELDS = (
    "num_trs",
    "num_dct",
    "tm_entries",
    "max_deps_per_task",
    "vm_entries",
    "dm_sets",
)

#: PicosStats counters in dataclass order (the ``extra`` map travels
#: separately as sorted pairs).
_STATS_FIELDS = tuple(
    f.name for f in dataclasses.fields(PicosStats) if f.name != "extra"
)


class SnapshotError(RuntimeError):
    """A snapshot could not be captured, decoded, restored or forked."""


# ----------------------------------------------------------------------
# event payload codec
# ----------------------------------------------------------------------
# Engine event payloads are a small closed vocabulary: ``None``, a bare
# int, an int list (ready-task cycle-cluster), an int pair (worker/task),
# a master job ``(kind, sub)`` whose sub-payload is a Task (create), an
# int pair (dispatch) or an int (finish), or -- in a faulted run -- a
# fault timer / pending redelivery.  Ints travel raw; everything else is
# tagged so the decoder needs no knowledge of the event kind.
def _payload_to_document(payload: Any) -> Any:
    if payload is None:
        return ["none"]
    if type(payload) is int:
        return payload
    if type(payload) is list:
        return ["l", list(payload)]
    if type(payload) is tuple:
        first, second = payload
        if type(first) is str:  # a master job
            return ["j", first, _payload_to_document(second)]
        return ["t", first, second]
    if isinstance(payload, Task):
        return ["task", payload.task_id]
    if isinstance(payload, FaultTimer):
        return ["fto", payload.index, payload.tag, payload.arg]
    if isinstance(payload, FaultRedeliver):
        return ["frd", payload.index, payload.kind, _payload_to_document(payload.payload)]
    raise SnapshotError(f"unencodable event payload: {payload!r}")


def _payload_from_document(document: Any, program: TaskProgram) -> Any:
    if type(document) is int:
        return document
    tag = document[0]
    if tag == "none":
        return None
    if tag == "l":
        return list(document[1])
    if tag == "t":
        return (document[1], document[2])
    if tag == "task":
        return program.task(document[1])
    if tag == "j":
        return (document[1], _payload_from_document(document[2], program))
    if tag == "fto":
        return FaultTimer(document[1], document[2], document[3])
    if tag == "frd":
        return FaultRedeliver(
            document[1], document[2], _payload_from_document(document[3], program)
        )
    raise SnapshotError(f"unknown payload tag {tag!r}")


# ----------------------------------------------------------------------
# engine queue codec
# ----------------------------------------------------------------------
def _queue_document(queue: Any) -> Dict[str, Any]:
    current, buckets = queue.snapshot_events()
    return {
        "now": queue.now,
        "processed": queue.processed,
        "current": [
            [event.time, event.kind, _payload_to_document(event.payload)]
            for event in current
        ],
        "buckets": [
            [
                time,
                [
                    [event.kind, _payload_to_document(event.payload)]
                    for event in events
                ],
            ]
            for time, events in buckets
        ],
    }


def _restore_queue(queue: Any, document: Dict[str, Any], program: TaskProgram) -> None:
    current = [
        Event(time, kind, _payload_from_document(payload, program))
        for time, kind, payload in document["current"]
    ]
    buckets = [
        (
            time,
            [
                Event(time, kind, _payload_from_document(payload, program))
                for kind, payload in events
            ],
        )
        for time, events in document["buckets"]
    ]
    queue.restore_events(document["now"], document["processed"], current, buckets)


# ----------------------------------------------------------------------
# timelines, lifecycle log, stats
# ----------------------------------------------------------------------
def _timelines_document(timelines: Dict[int, TaskTimeline]) -> List[List[int]]:
    return [
        [t.task_id, t.created, t.submitted, t.ready, t.started, t.finished]
        for t in (timelines[task_id] for task_id in sorted(timelines))
    ]


def _timelines_from_document(document: List[List[int]]) -> Dict[int, TaskTimeline]:
    return {row[0]: TaskTimeline(*row) for row in document}


def _stats_document(stats: PicosStats) -> Dict[str, Any]:
    return {
        "fields": [getattr(stats, name) for name in _STATS_FIELDS],
        "extra": [[key, value] for key, value in sorted(stats.extra.items())],
    }


def _restore_stats(stats: PicosStats, document: Dict[str, Any]) -> None:
    values = document["fields"]
    if len(values) != len(_STATS_FIELDS):
        raise SnapshotError("stats document does not match the counter inventory")
    for name, value in zip(_STATS_FIELDS, values):
        setattr(stats, name, value)
    stats.extra = {key: value for key, value in document["extra"]}


# ----------------------------------------------------------------------
# Picos memory codec: TM0/TMX, DM and VM, one schema table each
# ----------------------------------------------------------------------
# How a field's value crosses the datapath boundary.  The flat arrays
# already hold the canonical integers; a reference record holds ``None``
# for an absent handle and a TaskSlotRef for a slot reference.
_PLAIN = "plain"
#: ``Optional[int]``, ``None`` encoded as ``-1``.
_OPTIONAL = "optional"
#: ``Optional[TaskSlotRef]``, packed by the adapter's slot codec.
_SLOT = "slot"


class _Field(NamedTuple):
    """One row of a memory's schema table."""

    #: Document key of the column.
    key: str
    #: Parallel array attribute on the flat datapath.
    flat: str
    #: Record attribute (and constructor keyword) on the reference datapath.
    ref: str
    #: The value an invalid entry encodes as.
    reset: Any
    #: How the value crosses the datapath boundary.
    handle: str = _PLAIN


_Schema = Tuple[_Field, ...]

# Each memory's entries are addressed by one flat offset: the TM index
# (TM0), ``tm_index * stride + dep_index`` (TMX), the way handle ``set *
# ways + way`` (DM) and the VM index (VM).  Which entries are live is the
# memory's shape, not a field: it travels as the ``valid`` column (and,
# for the TMX, as the per-entry ``dep_count``).
_TM0_SCHEMA = (
    _Field("task_id", "_task_id", "task_id", -1),
    _Field("num_deps", "_num_deps", "num_deps", 0),
    _Field("ready_deps", "_ready_deps", "ready_deps", 0),
)
_TMX_SCHEMA = (
    _Field("slot_address", "_slot_address", "address", 0),
    _Field("slot_vm_index", "_slot_vm_index", "vm_index", -1, _OPTIONAL),
    _Field("slot_ready", "_slot_ready", "ready", False),
    _Field("slot_predecessor", "_slot_predecessor", "predecessor", -1, _SLOT),
    _Field("slot_is_producer", "_slot_is_producer", "is_producer", False),
)
_DM_SCHEMA = (
    _Field("input_only", "_input_only", "input_only", True),
    _Field("tag", "_tag", "tag", -1),
    _Field("latest", "_latest_vm_index", "latest_vm_index", -1, _OPTIONAL),
    _Field("live", "_live_versions", "live_versions", 0),
    _Field("access", "_access_count", "access_count", 0),
)
_VM_SCHEMA = (
    _Field("address", "_address", "address", 0),
    _Field("producer", "_producer", "producer", -1, _SLOT),
    _Field("producer_finished", "_producer_finished", "producer_finished", False),
    _Field("last_consumer", "_last_consumer", "last_consumer", -1, _SLOT),
    _Field("consumers_arrived", "_consumers_arrived", "consumers_arrived", 0),
    _Field("consumers_finished", "_consumers_finished", "consumers_finished", 0),
    _Field("next_version", "_next_version", "next_version", -1, _OPTIONAL),
)
#: Scalar state, by attribute name on both datapaths; the document key
#: drops the leading underscore.
_TM_SCALARS = ("_high_water",)
_DM_SCALARS = ("conflicts", "allocations", "_occupied", "_high_water")
_VM_SCALARS = ("_high_water", "_total_allocations")


def _encode(value: Any, handle: str, codec: Any) -> Any:
    """A reference record's field value as its canonical integer."""
    if handle == _PLAIN:
        return value
    if value is None:
        return -1
    return codec.encode(value) if handle == _SLOT else value


def _decode(value: Any, handle: str, codec: Any) -> Any:
    """A canonical integer as a reference record's field value."""
    if handle == _PLAIN:
        return value
    if value < 0:
        return None
    return codec.decode(value) if handle == _SLOT else value


def _gather(
    schema: _Schema,
    total: int,
    offsets: List[int],
    records: List[Any],
    memory: Any,
    codec: Any,
) -> Dict[str, Any]:
    """One memory's canonical columns, invalid entries at their reset values.

    ``offsets`` lists every valid entry.  On the flat datapath (``codec``
    is ``None``) the values come from ``memory``'s arrays; on the reference
    datapath from the attributes of the entry's record in ``records``.
    """
    columns: Dict[str, Any] = {}
    for field in schema:
        column = [field.reset] * total
        if codec is None:
            values = getattr(memory, field.flat)
            for offset in offsets:
                column[offset] = values[offset]
        else:
            for offset, record in zip(offsets, records):
                column[offset] = _encode(getattr(record, field.ref), field.handle, codec)
        columns[field.key] = column
    return columns


def _scatter(
    schema: _Schema,
    document: Dict[str, Any],
    sources: List[int],
    targets: List[int],
    total: int,
    memory: Any,
    codec: Any,
) -> List[Tuple[int, Dict[str, Any]]]:
    """Decode one memory's live entries into a ``total``-entry target.

    The live entry at ``sources[i]`` of the document moves to offset
    ``targets[i]`` of the target (they differ when a fork widens the DM).
    On the flat datapath every schema array of ``memory`` is rewritten in
    place and nothing is returned; on the reference datapath the decoded
    fields come back as ``(target offset, record keywords)`` pairs to build
    records from.
    """
    if codec is None:
        for field in schema:
            values = document[field.key]
            array = getattr(memory, field.flat)
            if sources == targets:
                # Captured columns are canonical already: copy them whole
                # (a grown VM pads its new entries with the reset value).
                array[:] = values
                array.extend([field.reset] * (total - len(values)))
            else:
                array[:] = [field.reset] * total
                for source, target in zip(sources, targets):
                    array[target] = values[source]
        return []
    return [
        (target, {f.ref: _decode(document[f.key][source], f.handle, codec) for f in schema})
        for source, target in zip(sources, targets)
    ]


def _live(column: List[Any]) -> Tuple[List[int], List[Any]]:
    """Offsets and records of the live entries of a ``_valid`` array (flat)
    or of a record list holding ``None`` for invalid entries (reference)."""
    offsets = list(compress(range(len(column)), column))
    return offsets, list(map(column.__getitem__, offsets))


def _mask(total: int, offsets: Iterable[int]) -> List[bool]:
    """A ``valid`` column: ``True`` exactly at ``offsets``."""
    mask = [False] * total
    for offset in offsets:
        mask[offset] = True
    return mask


def _scalars(memory: Any, names: Tuple[str, ...]) -> Dict[str, Any]:
    return {name.lstrip("_"): getattr(memory, name) for name in names}


def _restore_scalars(memory: Any, names: Tuple[str, ...], document: Dict[str, Any]) -> None:
    for name in names:
        setattr(memory, name, document[name.lstrip("_")])


def _tm_document(trs: Any) -> Dict[str, Any]:
    tm = trs.task_memory
    codec = getattr(trs, "_codec", None)
    stride = tm.max_deps_per_task
    entries, records = _live(tm._valid if codec is None else tm._slots)
    # The TMX slots of an entry are its first ``dep_count`` ones.
    dep_count = [0] * tm.entries
    slots: List[int] = []
    for index, entry in zip(entries, records):
        count = tm._dep_count[index] if codec is None else len(entry.dep_slots)
        dep_count[index] = count
        slots.extend(range(index * stride, index * stride + count))
    slot_records = [slot for entry in records for slot in entry.dep_slots] if codec else []
    return {
        "entries": tm.entries,
        "stride": stride,
        "valid": _mask(tm.entries, entries),
        **_gather(_TM0_SCHEMA, tm.entries, entries, records, tm, codec),
        "dep_count": dep_count,
        **_gather(_TMX_SCHEMA, tm.entries * stride, slots, slot_records, tm, codec),
        "free": list(tm._free),
        **_scalars(tm, _TM_SCALARS),
    }


def _restore_tm(trs: Any, document: Dict[str, Any]) -> None:
    tm = trs.task_memory
    if tm.entries != document["entries"] or tm.max_deps_per_task != document["stride"]:
        raise SnapshotError(
            "TM geometry mismatch: the snapshot was taken with "
            f"{document['entries']}x{document['stride']} slots, the restore "
            f"target has {tm.entries}x{tm.max_deps_per_task}"
        )
    codec = getattr(trs, "_codec", None)
    stride = tm.max_deps_per_task
    entries = list(compress(range(tm.entries), document["valid"]))
    dep_count = document["dep_count"]
    slots: List[int] = []
    for index in entries:
        slots.extend(range(index * stride, index * stride + dep_count[index]))
    tm0 = _scatter(_TM0_SCHEMA, document, entries, entries, tm.entries, tm, codec)
    tmx = _scatter(_TMX_SCHEMA, document, slots, slots, tm.entries * stride, tm, codec)
    if codec is None:
        tm._valid[:] = _mask(tm.entries, entries)
        tm._dep_count[:] = dep_count
    else:
        tm._slots = [None] * tm.entries
        for index, fields in tm0:
            tm._slots[index] = TaskEntry(tm_index=index, **fields)
        for offset, fields in tmx:
            index, dep = divmod(offset, stride)
            slot = DependenceSlot(dep_index=dep, **fields)
            slot.slot_ref = TaskSlotRef(trs_id=trs.trs_id, tm_index=index, dep_index=dep)
            tm._slots[index].dep_slots.append(slot)
    tm._free[:] = list(document["free"])
    tm._by_task_id = {document["task_id"][index]: index for index in entries}
    _restore_scalars(tm, _TM_SCALARS, document)


def _dm_document(dm: Any, codec: Any) -> Dict[str, Any]:
    ways = dm.ways_per_set
    total = dm.num_sets * ways
    handles, records = _live(
        dm._valid
        if codec is None
        else [way if way.valid else None for set_ways in dm._sets for way in set_ways]
    )
    return {
        "sets": dm.num_sets,
        "ways": ways,
        "valid": _mask(total, handles),
        **_gather(_DM_SCHEMA, total, handles, records, dm, codec),
        **_scalars(dm, _DM_SCALARS),
    }


def _restore_dm(dm: Any, document: Dict[str, Any], codec: Any) -> None:
    old_ways = document["ways"]
    new_ways = dm.ways_per_set
    if dm.num_sets != document["sets"]:
        raise SnapshotError(
            f"DM set-count mismatch: snapshot has {document['sets']} sets, "
            f"the restore target has {dm.num_sets}"
        )
    if new_ways < old_ways:
        raise SnapshotError(
            f"cannot narrow the DM on restore: snapshot has {old_ways} ways "
            f"per set, the restore target only {new_ways}"
        )
    # A widened DM keeps every live way at its set and way index.
    sources = list(compress(range(len(document["valid"])), document["valid"]))
    targets = [handle // old_ways * new_ways + handle % old_ways for handle in sources]
    total = dm.num_sets * new_ways
    ways = _scatter(_DM_SCHEMA, document, sources, targets, total, dm, codec)
    if codec is None:
        dm._valid[:] = _mask(total, targets)
    else:
        dm._sets[:] = [[DMWay() for _ in range(new_ways)] for _ in range(dm.num_sets)]
        for handle, fields in ways:
            set_index, way_index = divmod(handle, new_ways)
            dm._sets[set_index][way_index] = DMWay(valid=True, **fields)
    _restore_scalars(dm, _DM_SCALARS, document)


def _vm_document(vm: Any, codec: Any) -> Dict[str, Any]:
    indices, records = _live(vm._valid if codec is None else vm._slots)
    return {
        "entries": vm.entries,
        "valid": _mask(vm.entries, indices),
        **_gather(_VM_SCHEMA, vm.entries, indices, records, vm, codec),
        "free": list(vm._free),
        **_scalars(vm, _VM_SCALARS),
    }


def _restore_vm(vm: Any, document: Dict[str, Any], dm: Any, codec: Any) -> None:
    old_entries = document["entries"]
    new_entries = vm.entries
    if new_entries < old_entries:
        raise SnapshotError(
            f"cannot shrink the VM on restore: snapshot has {old_entries} "
            f"entries, the restore target only {new_entries}"
        )
    live = list(compress(range(old_entries), document["valid"]))
    entries = _scatter(_VM_SCHEMA, document, live, live, new_entries, vm, codec)
    if codec is None:
        vm._valid[:] = _mask(new_entries, live)
        # The DM back-link is a cache of the DM's content; recomputing it
        # (instead of storing it) is what re-homes live versions into a
        # forked, wider DM.
        vm._dm_handle[:] = [
            dm.lookup(vm._address[index]) if vm._valid[index] else -1
            for index in range(new_entries)
        ]
    else:
        vm._slots = [None] * new_entries
        for index, fields in entries:
            vm._slots[index] = VersionEntry(vm_index=index, **fields)
    # A widened VM (DM widening implies a larger effective VM) keeps the
    # captured free list behind the brand-new entries, so recycling order
    # for the surviving entries is untouched and fresh entries hand out in
    # ascending index order, exactly like a cold VM's.
    vm._free[:] = [*range(new_entries - 1, old_entries - 1, -1), *document["free"]]
    _restore_scalars(vm, _VM_SCALARS, document)


# ----------------------------------------------------------------------
# DCT, Gateway, accelerator facade
# ----------------------------------------------------------------------
def _dct_document(dct: Any) -> Dict[str, Any]:
    codec = getattr(dct, "_codec", None)
    return {
        "dm": _dm_document(dct.dm, codec),
        "vm": _vm_document(dct.vm, codec),
        "blocked": sorted(getattr(dct, "_inner", dct)._blocked_addresses),
    }


def _restore_dct(dct: Any, document: Dict[str, Any]) -> None:
    codec = getattr(dct, "_codec", None)
    _restore_dm(dct.dm, document["dm"], codec)
    _restore_vm(dct.vm, document["vm"], dct.dm, codec)
    getattr(dct, "_inner", dct)._blocked_addresses = set(document["blocked"])


def _gateway_document(gateway: Any) -> Dict[str, Any]:
    pending = gateway._pending
    pending_document = None
    if pending is not None:
        pending_document = {
            "task": pending.task.task_id,
            "trs": pending.trs_id,
            "tm_index": pending.tm_index,
            "next_dep_index": pending.next_dep_index,
            "reason": None if pending.reason is None else pending.reason.value,
            "retries": pending.retries,
        }
    return {
        "next_trs": gateway._next_trs,
        "pending": pending_document,
        "slots": [
            [task_id, trs_id, tm_index]
            for task_id, (trs_id, tm_index) in sorted(gateway._slot_of_task.items())
        ],
    }


def _restore_gateway(
    gateway: Any, document: Dict[str, Any], program: TaskProgram
) -> None:
    gateway._next_trs = document["next_trs"]
    pending = document["pending"]
    if pending is None:
        gateway._pending = None
    else:
        reason = pending["reason"]
        gateway._pending = PendingSubmission(
            task=program.task(pending["task"]),
            trs_id=pending["trs"],
            tm_index=pending["tm_index"],
            next_dep_index=pending["next_dep_index"],
            reason=None if reason is None else StallReason(reason),
            retries=pending["retries"],
        )
    gateway._slot_of_task = {
        task_id: (trs_id, tm_index)
        for task_id, trs_id, tm_index in document["slots"]
    }


def _scheduler_document(scheduler: Any) -> Dict[str, Any]:
    return {
        "queue": list(scheduler._queue),
        "scheduled": scheduler._total_scheduled,
        "max_occupancy": scheduler._max_occupancy,
    }


def _restore_scheduler(scheduler: Any, document: Dict[str, Any]) -> None:
    scheduler._queue = deque(document["queue"])
    scheduler._total_scheduled = document["scheduled"]
    scheduler._max_occupancy = document["max_occupancy"]


def _accel_document(accel: Any) -> Dict[str, Any]:
    arbiter = accel.arbiter
    return {
        "stats": _stats_document(accel.stats),
        "arbiter": {
            "to_trs": arbiter.messages_to_trs,
            "to_dct": arbiter.messages_to_dct,
            "load": [arbiter._per_dct_load[index] for index in range(arbiter.num_dct)],
        },
        "trs": [_tm_document(trs) for trs in accel.trs_instances],
        "dct": [_dct_document(dct) for dct in accel.dct_instances],
        "gateway": _gateway_document(accel.gateway),
        "deps_of_task": [
            [task_id, accel._deps_of_task[task_id]]
            for task_id in sorted(accel._deps_of_task)
        ],
        "submitted": accel._submitted,
        "finished": accel._finished,
        "scheduler": _scheduler_document(accel.scheduler),
    }


def _restore_accel(accel: Any, document: Dict[str, Any], program: TaskProgram) -> None:
    if len(document["trs"]) != len(accel.trs_instances) or len(
        document["dct"]
    ) != len(accel.dct_instances):
        raise SnapshotError(
            "accelerator geometry mismatch: the snapshot has "
            f"{len(document['trs'])} TRS / {len(document['dct'])} DCT "
            f"instances, the restore target "
            f"{len(accel.trs_instances)} / {len(accel.dct_instances)}"
        )
    # All TRS/DCT/Gateway instances share the accelerator's PicosStats
    # object; restoring it once in place keeps that aliasing intact.
    _restore_stats(accel.stats, document["stats"])
    arbiter = accel.arbiter
    arbiter.messages_to_trs = document["arbiter"]["to_trs"]
    arbiter.messages_to_dct = document["arbiter"]["to_dct"]
    arbiter._per_dct_load = {
        index: load for index, load in enumerate(document["arbiter"]["load"])
    }
    for trs, trs_document in zip(accel.trs_instances, document["trs"]):
        _restore_tm(trs, trs_document)
    for dct, dct_document in zip(accel.dct_instances, document["dct"]):
        _restore_dct(dct, dct_document)
    _restore_gateway(accel.gateway, document["gateway"], program)
    accel._deps_of_task = {
        task_id: count for task_id, count in document["deps_of_task"]
    }
    accel._submitted = document["submitted"]
    accel._finished = document["finished"]
    _restore_scheduler(accel.scheduler, document["scheduler"])


def _workers_document(pool: Any) -> Dict[str, Any]:
    return {
        "states": [
            [w.busy_until, w.tasks_executed, w.busy_cycles, w.current_task]
            for w in pool._workers
        ],
        "idle": list(pool._idle),
    }


def _restore_workers(pool: Any, document: Dict[str, Any]) -> None:
    states = document["states"]
    if len(states) != pool.num_workers:
        raise SnapshotError(
            f"worker-count mismatch: snapshot has {len(states)} workers, "
            f"the restore target {pool.num_workers}"
        )
    for worker, row in zip(pool._workers, states):
        worker.busy_until = row[0]
        worker.tasks_executed = row[1]
        worker.busy_cycles = row[2]
        worker.current_task = row[3]
    pool._idle[:] = list(document["idle"])


# ----------------------------------------------------------------------
# simulator codecs
# ----------------------------------------------------------------------
def _restore_fault_plan(sim: Any, state: Dict[str, Any]) -> None:
    plan = sim._fault_plan
    document = state.get("faults")
    if document is None:
        if plan is not None:
            raise SnapshotError(
                "the restore request arms fault scenarios but the snapshot "
                "carries no armed-fault state"
            )
        return
    if plan is None:
        raise SnapshotError(
            "snapshot carries armed-fault state but the restore request "
            "arms no fault scenarios"
        )
    plan.restore_state(document)


def _hil_state_document(sim: HILSimulator) -> Dict[str, Any]:
    return {
        "pending_new": [task.task_id for task in sim._pending_new],
        "new_free_at": sim._picos_new_free_at,
        "finish_free_at": sim._picos_finish_free_at,
        "master_busy": sim._master_busy,
        "finish_jobs": list(sim._master_finish_jobs),
        "dispatch_jobs": [[task_id, worker] for task_id, worker in sim._master_dispatch_jobs],
        "next_create_index": sim._next_create_index,
        "finished_tasks": sim._finished_tasks,
        "submission_blocked": sim._submission_blocked,
        "ready_batch_extra": sim._ready_batch_extra,
        "ready": _scheduler_document(sim.ready),
        "workers": _workers_document(sim.workers),
        "accel": _accel_document(sim.accel),
    }


def _restore_hil(sim: HILSimulator, state: Dict[str, Any]) -> None:
    program = sim.program
    sim._pending_new = deque(program.task(task_id) for task_id in state["pending_new"])
    sim._picos_new_free_at = state["new_free_at"]
    sim._picos_finish_free_at = state["finish_free_at"]
    sim._master_busy = state["master_busy"]
    sim._master_finish_jobs = deque(state["finish_jobs"])
    sim._master_dispatch_jobs = deque(
        (task_id, worker) for task_id, worker in state["dispatch_jobs"]
    )
    sim._next_create_index = state["next_create_index"]
    sim._finished_tasks = state["finished_tasks"]
    sim._submission_blocked = state["submission_blocked"]
    sim._ready_batch_extra = state["ready_batch_extra"]
    _restore_scheduler(sim.ready, state["ready"])
    _restore_workers(sim.workers, state["workers"])
    _restore_accel(sim.accel, state["accel"], program)


def _nanos_state_document(sim: NanosRuntimeSimulator) -> Dict[str, Any]:
    return {
        "master_joins_at": sim._master_joins_at,
        "idle_workers": list(sim._idle_workers),
        "remaining_preds": [
            [task_id, sim._remaining_preds[task_id]]
            for task_id in sorted(sim._remaining_preds)
        ],
        "submitted": sorted(
            task_id for task_id, done in sim._submitted.items() if done
        ),
        "ready_pool": list(sim._ready_pool),
        "finished": sim._finished,
        "makespan": sim._makespan,
    }


def _restore_nanos(sim: NanosRuntimeSimulator, state: Dict[str, Any]) -> None:
    sim._master_joins_at = state["master_joins_at"]
    sim._idle_workers = list(state["idle_workers"])
    sim._remaining_preds = {
        task_id: count for task_id, count in state["remaining_preds"]
    }
    submitted = set(state["submitted"])
    sim._submitted = {task.task_id: task.task_id in submitted for task in sim.program}
    sim._ready_pool = deque(state["ready_pool"])
    sim._finished = state["finished"]
    sim._makespan = state["makespan"]


def _simulator_codec(sim: Any) -> Tuple[str, Any, Any]:
    """The state label and the capture/restore pair for ``sim``'s type."""
    if isinstance(sim, HILSimulator):
        return "hil", _hil_state_document, _restore_hil
    if isinstance(sim, NanosRuntimeSimulator):
        return "nanos", _nanos_state_document, _restore_nanos
    raise SnapshotError(
        f"no snapshot codec for simulator type {type(sim).__name__}"
    )


def _simulator_state_document(sim: Any) -> Dict[str, Any]:
    label, encode, _ = _simulator_codec(sim)
    log = sim._lifecycle_log
    document: Dict[str, Any] = {
        "simulator": label,
        "queue": _queue_document(sim.queue),
        "timelines": _timelines_document(sim._timelines),
        "log": [] if log is None else [list(entry) for entry in log],
        **encode(sim),
    }
    # Armed-fault state travels under the optional ``faults`` key;
    # unfaulted runs get no key at all.
    if sim._fault_plan is not None:
        document["faults"] = sim._fault_plan.snapshot_state()
    return document


def _restore_simulator_state(sim: Any, state: Dict[str, Any]) -> None:
    label, _, decode = _simulator_codec(sim)
    if state.get("simulator") != label:
        raise SnapshotError(
            f"snapshot state is for simulator {state.get('simulator')!r}, the "
            f"restore target runs {label!r}"
        )
    sim._prepared = True
    _restore_queue(sim.queue, state["queue"], sim.program)
    sim._timelines = _timelines_from_document(state["timelines"])
    if sim._lifecycle_log is not None:
        sim._lifecycle_log[:] = [tuple(entry) for entry in state["log"]]
    decode(sim, state)
    _restore_fault_plan(sim, state)


# ----------------------------------------------------------------------
# the snapshot value object
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class SimulationSnapshot:
    """A frozen, JSON-safe image of one simulation session.

    All fields hold plain JSON-compatible primitives (the request, state
    and result travel as their document forms), so the in-memory snapshot
    and its on-disk serialisation are the same value -- :attr:`digest` is
    stable across a save/load round trip.
    """

    #: ``initial``, ``mid-run`` or ``finished``.
    kind: str
    #: Backend name the session ran on.
    backend: str
    #: Cycle horizon the snapshot was taken at (0 for ``initial``, the
    #: stepper horizon for ``mid-run``, the drain time for ``finished``).
    cycle: int
    #: The session's request as a protocol document (streamed tasks folded
    #: into an inline program, so the restored run needs no side channel).
    request: Dict[str, Any]
    #: Session delivery counters (events delivered / ready / retired seen,
    #: current cycle), restored verbatim.
    counters: Dict[str, int]
    #: Full simulator state (``mid-run`` only).
    state: Optional[Dict[str, Any]]
    #: Full result document (``finished`` only).
    result: Optional[Dict[str, Any]]

    def _payload(self) -> Dict[str, Any]:
        return {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "kind": self.kind,
            "backend": self.backend,
            "cycle": self.cycle,
            "request": self.request,
            "counters": self.counters,
            "state": self.state,
            "result": self.result,
        }

    @property
    def digest(self) -> str:
        """Content digest over the canonical JSON serialisation."""
        payload = self._payload()
        return stable_digest(
            json.dumps(payload, sort_keys=True, separators=(",", ":"))
        )

    def document(self) -> Dict[str, Any]:
        """The on-disk document: the payload plus its own digest."""
        document = self._payload()
        document["digest"] = self.digest
        return document

    @classmethod
    def from_document(cls, document: Dict[str, Any]) -> "SimulationSnapshot":
        """Decode (and verify) a snapshot document.

        Raises :class:`SnapshotError` on a foreign format, an unsupported
        version, or -- when the document carries a ``digest`` field -- a
        digest mismatch (corruption, or hand-edited state).
        """
        if not isinstance(document, dict):
            raise SnapshotError("a snapshot document must be a JSON object")
        if document.get("format") != SNAPSHOT_FORMAT:
            raise SnapshotError(
                f"not a {SNAPSHOT_FORMAT} document "
                f"(format={document.get('format')!r})"
            )
        if document.get("version") != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"unsupported snapshot version {document.get('version')!r} "
                f"(this build reads version {SNAPSHOT_VERSION})"
            )
        try:
            snapshot = cls(
                kind=document["kind"],
                backend=document["backend"],
                cycle=document["cycle"],
                request=document["request"],
                counters=document["counters"],
                state=document["state"],
                result=document["result"],
            )
        except KeyError as error:
            raise SnapshotError(f"snapshot document misses field {error}") from error
        if snapshot.kind not in (KIND_INITIAL, KIND_MID_RUN, KIND_FINISHED):
            raise SnapshotError(f"unknown snapshot kind {snapshot.kind!r}")
        expected = document.get("digest")
        if expected is not None and expected != snapshot.digest:
            raise SnapshotError(
                "snapshot digest mismatch: the document was corrupted or "
                "edited after capture"
            )
        return snapshot


# ----------------------------------------------------------------------
# capture
# ----------------------------------------------------------------------
def capture(session: SimulationSession) -> SimulationSnapshot:
    """Snapshot ``session`` at its current cycle boundary.

    Copy-on-capture: every piece of mutable state is encoded into fresh
    JSON primitives here, so the snapshot shares nothing with the live
    session.  Valid in any state except closed.
    """
    # Imported here, not at module level: the service package imports this
    # module (server-side checkpoint/restore), so a top-level import of its
    # protocol codecs would be circular.
    from repro.service.protocol import request_to_document, result_to_document

    if session.closed:
        raise SnapshotError("cannot capture a closed session")
    request = session.request
    if session._streamed:
        # Fold streamed tasks into an inline program so the snapshot is
        # self-contained: the restored session re-assembles exactly the
        # program this one would simulate.
        request = dataclasses.replace(
            request, program=InlineProgramRef(session._assembled_program())
        )
    request_document = request_to_document(request)
    counters = {
        "delivered": session._delivered,
        "ready_seen": session._ready_seen,
        "retired_seen": session._retired_seen,
        "current_cycle": session._current_cycle,
    }
    result = session._result
    if result is not None:
        return SimulationSnapshot(
            kind=KIND_FINISHED,
            backend=request.backend,
            cycle=result.drain_time,
            request=request_document,
            counters=counters,
            state=None,
            result=result_to_document(result),
        )
    stepper = session._stepper
    if stepper is None:
        return SimulationSnapshot(
            kind=KIND_INITIAL,
            backend=request.backend,
            cycle=0,
            request=request_document,
            counters=counters,
            state=None,
            result=None,
        )
    return SimulationSnapshot(
        kind=KIND_MID_RUN,
        backend=request.backend,
        cycle=stepper._horizon,
        request=request_document,
        counters=counters,
        state=_simulator_state_document(stepper._sim),
        result=None,
    )


# ----------------------------------------------------------------------
# restore / fork
# ----------------------------------------------------------------------
def _forked_request(snapshot, request, config):  # type: ignore[no-untyped-def]
    if snapshot.kind == KIND_FINISHED:
        raise SnapshotError(
            "cannot fork a finished snapshot: there is nothing left to run"
        )
    if "config" not in request.accepted_parameters():
        raise SnapshotError(
            f"backend {request.backend!r} takes no Picos configuration; "
            "it cannot be forked"
        )
    if snapshot.kind == KIND_MID_RUN:
        old = request.resolved_config()
        if old is None:
            old = PicosConfig()
        for name in _GEOMETRY_FIELDS:
            if getattr(old, name) != getattr(config, name):
                raise SnapshotError(
                    f"cannot fork mid-run: structural field {name!r} differs "
                    f"({getattr(old, name)!r} -> {getattr(config, name)!r}); "
                    "only latency knobs and DM widening may change"
                )
        if old.dm_design.uses_pearson != config.dm_design.uses_pearson:
            raise SnapshotError(
                "cannot fork mid-run across DM hash functions: live "
                "addresses would re-home to different sets"
            )
        if config.dm_design.ways < old.dm_design.ways:
            raise SnapshotError(
                "mid-run forks may widen the DM, never narrow it "
                f"({old.dm_design.ways} -> {config.dm_design.ways} ways)"
            )
    return dataclasses.replace(request, config=config, dm_design=None)


def restore(
    snapshot: SimulationSnapshot, *, config: Optional[PicosConfig] = None
) -> SimulationSession:
    """Rebuild a live session from ``snapshot``.

    The restored session continues bit-exactly where the captured one
    stood: running it to completion yields a result field-for-field equal
    to the uninterrupted run's.  With ``config`` the remainder of a
    mid-run (or the whole of an initial) snapshot executes under the
    modified configuration instead -- see the module docstring for the
    compatibility rules.
    """
    # Lazy for the same layering reason as in capture().
    from repro.service.protocol import request_from_document, result_from_document

    request = request_from_document(snapshot.request)
    if config is not None:
        request = _forked_request(snapshot, request, config)
    session = open_session(request)
    if not isinstance(session, SimulationSession):
        raise SnapshotError(
            f"backend {request.backend!r} opened a "
            f"{type(session).__name__} session, which restore() cannot "
            "populate"
        )
    session._delivered = snapshot.counters.get("delivered", 0)
    session._ready_seen = snapshot.counters.get("ready_seen", 0)
    session._retired_seen = snapshot.counters.get("retired_seen", 0)
    session._current_cycle = snapshot.counters.get("current_cycle", 0)
    if snapshot.kind == KIND_INITIAL:
        return session
    session.seal()
    if snapshot.kind == KIND_FINISHED:
        if snapshot.result is None:
            raise SnapshotError("finished snapshot carries no result document")
        session._result = result_from_document(snapshot.result)
        return session
    if snapshot.kind != KIND_MID_RUN:
        raise SnapshotError(f"unknown snapshot kind {snapshot.kind!r}")
    if snapshot.state is None:
        raise SnapshotError("mid-run snapshot carries no state document")
    factory = getattr(session._backend, "make_stepper", None)
    if factory is None:
        raise SnapshotError(
            f"backend {request.backend!r} provides no stepper; a mid-run "
            "snapshot of it cannot exist"
        )
    stepper = factory(
        session._assembled_program(), **session.request.simulate_kwargs()
    )
    _restore_simulator_state(stepper._sim, snapshot.state)
    stepper._horizon = snapshot.cycle
    stepper.finished = stepper._sim.queue.empty
    session._stepper = stepper
    return session


def fork(
    snapshot: SimulationSnapshot, config: PicosConfig
) -> SimulationSession:
    """Resume ``snapshot`` under a modified configuration (what-if run)."""
    return restore(snapshot, config=config)


# ----------------------------------------------------------------------
# on-disk persistence
# ----------------------------------------------------------------------
def save_snapshot(
    snapshot: SimulationSnapshot, path: Union[str, Path]
) -> Path:
    """Write ``snapshot`` to ``path`` as one digest-keyed JSON object."""
    target = Path(path)
    target.write_text(
        json.dumps(snapshot.document(), sort_keys=True) + "\n", encoding="utf-8"
    )
    return target


def load_snapshot(path: Union[str, Path]) -> SimulationSnapshot:
    """Read, verify and decode a snapshot written by :func:`save_snapshot`."""
    source = Path(path)
    try:
        document = json.loads(source.read_text(encoding="utf-8"))
    except OSError as error:
        raise SnapshotError(f"cannot read snapshot {source}: {error}") from error
    except json.JSONDecodeError as error:
        raise SnapshotError(f"{source} is not valid JSON: {error}") from error
    if not isinstance(document, dict):
        raise SnapshotError(f"{source} does not hold a snapshot object")
    if "digest" not in document:
        raise SnapshotError(f"{source} carries no digest; refusing to load")
    return SimulationSnapshot.from_document(document)
