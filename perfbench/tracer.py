"""Span tracer that measures the program's layers from outside.

:class:`Tracer` replaces public functions and methods of ``repro.sim``,
``repro.core``, ``repro.runtime`` and ``repro.service`` with wrappers that
record one span per call: name, start, end, parent span and session id.
The simulator's hot paths look these methods up on instances, so patching
the classes before a simulator is built is enough; names a module bound
with ``from ... import`` are patched where that module looks them up.

Spans live in memory, in flat per-thread arrays, until the run ends.  A
span's self time is its duration minus the time its direct children cover;
because calls nest on each thread, the self times of all spans on a thread
add up exactly to the time its top-level spans cover.
"""

from __future__ import annotations

import importlib
import json
import threading
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: At most this many spans per thread go into the Chrome trace file; the
#: aggregates always cover every span.
EXPORT_LIMIT = 50_000

_MISSING = object()


class _Buffer:
    """The spans of one thread, as parallel flat arrays."""

    def __init__(self, thread_name: str) -> None:
        self.thread_name = thread_name
        self.names = array("l")
        self.parents = array("l")
        self.sids = array("l")
        self.starts = array("q")
        self.ends = array("q")
        self.stack: List[int] = []
        self.counts: Dict[str, int] = defaultdict(int)


#: ``observe(tracer, buffer, span_index, args, kwargs, result)``, called
#: after the span closed, so its own cost is not in the span.
Observer = Callable[["Tracer", _Buffer, int, tuple, dict, Any], None]


@dataclass(frozen=True)
class Target:
    """One function or method to wrap."""

    module: str
    owner: Optional[str]  # class name, or None for a module-level name
    attribute: str
    span: str
    observe: Optional[Observer] = None
    #: ``session(tracer, args, kwargs)`` names the session id index of a
    #: top-level span at its start, so child spans inherit it.
    session: Optional[Callable[["Tracer", tuple, dict], int]] = None


@dataclass
class SpanStats:
    """Aggregate of every span with one name and one session id."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0


class Tracer:
    """Records spans from wrapped functions; see the module docstring."""

    def __init__(self) -> None:
        self.span_names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.session_names: List[str] = [""]
        self._session_ids: Dict[str, int] = {"": 0}
        #: ``id(SimulationSession)`` -> session id index (service runs).
        self.session_of_object: Dict[int, int] = {}
        #: Session id index -> simulator backend name (service runs).
        self.session_backend: Dict[int, str] = {}
        #: Session id index -> when its ``run`` frame was decoded (ns).
        self.run_decoded_ns: Dict[int, int] = {}
        #: Session id index of the frame decoded last (main thread).
        self.current_frame_sid = 0
        self._buffers: List[_Buffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Target, Any, Any]] = []

    # ------------------------------------------------------------------
    # identifiers
    # ------------------------------------------------------------------
    def name_id(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return index

    def session_id(self, name: Optional[str]) -> int:
        if not isinstance(name, str):
            return 0
        index = self._session_ids.get(name)
        if index is None:
            index = self._session_ids[name] = len(self.session_names)
            self.session_names.append(name)
        return index

    def buffer(self) -> _Buffer:
        buffer = getattr(self._local, "buffer", None)
        if buffer is None:
            buffer = self._local.buffer = _Buffer(threading.current_thread().name)
            with self._lock:
                self._buffers.append(buffer)
        return buffer

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def wrap(
        self,
        function: Callable,
        span: str,
        observe: Optional[Observer] = None,
        session: Optional[Callable[["Tracer", tuple, dict], int]] = None,
    ) -> Callable:
        """A wrapper recording one ``span`` per call of ``function``."""
        name_id = self.name_id(span)
        local = self._local
        make_buffer = self.buffer
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            buffer = getattr(local, "buffer", None) or make_buffer()
            stack = buffer.stack
            index = len(buffer.names)
            if stack:
                parent = stack[-1]
                sid = buffer.sids[parent]
            else:
                parent = -1
                sid = session(tracer, args, kwargs) if session is not None else 0
            buffer.names.append(name_id)
            buffer.parents.append(parent)
            buffer.sids.append(sid)
            buffer.ends.append(0)
            stack.append(index)
            buffer.starts.append(clock())
            try:
                result = function(*args, **kwargs)
            finally:
                buffer.ends[index] = clock()
                stack.pop()
            if observe is not None:
                observe(tracer, buffer, index, args, kwargs, result)
            return result

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        traced.__name__ = getattr(function, "__name__", span)
        traced.__doc__ = getattr(function, "__doc__", None)
        return traced

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def install(self, targets: Sequence[Target]) -> None:
        """Wrap every target; :meth:`uninstall` puts the originals back."""
        for target in targets:
            owner, original = _resolve(target)
            if original is _MISSING:
                raise AttributeError(f"{target.module}.{target.owner}.{target.attribute} is not defined there")
            if isinstance(original, (staticmethod, classmethod)):
                wrapped: Any = type(original)(self.wrap(original.__func__, target.span, target.observe, target.session))
            else:
                wrapped = self.wrap(original, target.span, target.observe, target.session)
            setattr(owner, target.attribute, wrapped)
            self._patches.append((target, owner, original))

    def uninstall(self) -> None:
        """Put every original back, last patched first."""
        for target, owner, original in reversed(self._patches):
            setattr(owner, target.attribute, original)

    def unrestored(self) -> List[str]:
        """Patched attributes that do not hold their original any more."""
        return [
            f"{target.module}:{target.owner or ''}.{target.attribute}"
            for target, _owner, original in self._patches
            if _resolve(target)[1] is not original
        ]

    # ------------------------------------------------------------------
    # aggregation and export
    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        merged: Dict[str, int] = defaultdict(int)
        for buffer in self._buffers:
            for key, value in buffer.counts.items():
                merged[key] += value
        return dict(merged)

    def aggregate(self) -> Dict[Tuple[str, int], SpanStats]:
        """Calls, total and self time per ``(span name, session id)``."""
        stats: Dict[Tuple[int, int], SpanStats] = {}
        for buffer in self._buffers:
            names, parents, sids = buffer.names, buffer.parents, buffer.sids
            durations = [end - start for start, end in zip(buffer.starts, buffer.ends)]
            child_ns = [0] * len(durations)
            for index, parent in enumerate(parents):
                if parent >= 0:
                    child_ns[parent] += durations[index]
            for index, duration in enumerate(durations):
                key = (names[index], sids[index])
                entry = stats.get(key)
                if entry is None:
                    entry = stats[key] = SpanStats()
                entry.calls += 1
                entry.total_ns += duration
                entry.self_ns += duration - child_ns[index]
        return {(self.span_names[name], sid): entry for (name, sid), entry in stats.items()}

    def spans_named(self, span: str) -> Iterator[Tuple[int, int, int]]:
        """``(session id index, start ns, end ns)`` of every span called ``span``."""
        name_id = self._name_ids.get(span)
        for buffer in self._buffers:
            for index, name in enumerate(buffer.names):
                if name == name_id:
                    yield buffer.sids[index], buffer.starts[index], buffer.ends[index]

    def span_count(self) -> int:
        return sum(len(buffer.names) for buffer in self._buffers)

    def write_chrome_trace(self, path: str) -> int:
        """Write spans as Chrome/Perfetto trace-event JSON; returns spans written."""
        events: List[Dict[str, Any]] = []
        origin = min((buffer.starts[0] for buffer in self._buffers if buffer.starts), default=0)
        written = 0
        for tid, buffer in enumerate(self._buffers):
            events.append({"ph": "M", "name": "thread_name", "pid": 1, "tid": tid, "args": {"name": buffer.thread_name}})
            for index in range(min(len(buffer.names), EXPORT_LIMIT)):
                args: Dict[str, Any] = {"span": index, "parent": buffer.parents[index]}
                sid = buffer.sids[index]
                if sid:
                    args["session"] = self.session_names[sid]
                events.append(
                    {
                        "name": self.span_names[buffer.names[index]],
                        "ph": "X",
                        "pid": 1,
                        "tid": tid,
                        "ts": (buffer.starts[index] - origin) / 1000.0,
                        "dur": (buffer.ends[index] - buffer.starts[index]) / 1000.0,
                        "args": args,
                    }
                )
                written += 1
        document = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"spans_recorded": self.span_count(), "spans_written": written},
        }
        with open(path, "w") as handle:
            json.dump(document, handle)
        return written


def _resolve(target: Target) -> Tuple[Any, Any]:
    """``(owner, current attribute)`` of a target, as stored on the owner."""
    owner: Any = importlib.import_module(target.module)
    if target.owner is None:
        return owner, getattr(owner, target.attribute, _MISSING)
    owner = getattr(owner, target.owner)
    return owner, owner.__dict__.get(target.attribute, _MISSING)
