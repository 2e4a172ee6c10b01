"""Importable program-building helpers and test oracles shared by the suite.

These used to live in ``tests/conftest.py``, but ``conftest`` is not a
reliably importable module name: when the benchmark harness is collected in
the same session its own ``benchmarks/conftest.py`` can win the
``sys.modules`` slot and shadow these helpers.  Keeping them in a regular
module (imported as ``tests.helpers``) removes the collision.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.config import DMDesign, PicosConfig
from repro.core.picos import PicosAccelerator
from repro.runtime.nanos import NanosRuntimeSimulator
from repro.runtime.task import Dependence, Direction, Task, TaskProgram
from repro.sim.hil import (
    _EV_READY_BATCH,
    _LOG_READY,
    _LOG_RETIRED,
    HILMode,
    HILSimulator,
)


def make_task(
    task_id: int,
    deps: Sequence[tuple] = (),
    duration: int = 10,
    label: str = "",
) -> Task:
    """Build a task from ``(address, direction)`` tuples."""
    dependences = [
        Dependence(address, direction if isinstance(direction, Direction) else Direction.parse(direction))
        for address, direction in deps
    ]
    return Task(task_id=task_id, dependences=dependences, duration=duration, label=label)


def make_program(spec: Sequence[Sequence[tuple]], durations: Sequence[int] = (), name: str = "test") -> TaskProgram:
    """Build a program from a list of dependence lists.

    ``spec[i]`` is the dependence list of task ``i`` as ``(address,
    direction)`` tuples; ``durations[i]`` optionally overrides the default
    duration of 10 cycles.
    """
    program = TaskProgram(name=name)
    for index, deps in enumerate(spec):
        duration = durations[index] if index < len(durations) else 10
        program.add_task(make_task(index, deps, duration=duration))
    return program


class SaturationCase(NamedTuple):
    """One capacity-corner setup shared by the failure-injection tests and
    the fault matrix: a deliberately tiny accelerator configuration plus a
    program shaped to saturate it."""

    config: PicosConfig
    build_program: Callable[[], TaskProgram]
    #: HIL worker count the case is exercised with.
    workers: int
    #: Hardware counter expected to be non-zero under HW-only simulation
    #: (``None`` when the corner saturates silently).
    stall_counter: Optional[str]


def _tiny_tm_program() -> TaskProgram:
    return make_program(
        [[(0x1000, Direction.INOUT)]] * 10 + [[]] * 5, name="tiny-tm"
    )


def _tiny_vm_program() -> TaskProgram:
    return make_program([[(0x2000, Direction.OUT)]] * 20, name="tiny-vm")


def _tiny_dm_program() -> TaskProgram:
    spec = [[(0x1000 * (i + 1), Direction.INOUT)] for i in range(30)]
    return make_program(spec, name="tiny-dm")


def _tiny_everything_program() -> TaskProgram:
    spec = []
    for i in range(25):
        spec.append(
            [
                (0x1000 * ((i % 5) + 1), Direction.INOUT),
                (0x1000 * ((i % 3) + 6), Direction.IN),
            ]
        )
    return make_program(spec, name="tiny-everything")


def _burst_program() -> TaskProgram:
    return make_program([[]] * 64, durations=[40_000] * 64, name="burst")


#: The capacity corners, by name.  ``tests/test_failure_injection.py``
#: parametrizes its exhaustion matrix over these, and
#: ``tests/test_faults.py`` arms fault scenarios against the same setups
#: so chaos is exercised under resource saturation too.
SATURATION_CASES: Dict[str, SaturationCase] = {
    "tiny-tm": SaturationCase(
        PicosConfig(tm_entries=1), _tiny_tm_program, 4, "tm_full_stalls"
    ),
    "tiny-vm": SaturationCase(
        PicosConfig(vm_entries=2), _tiny_vm_program, 2, None
    ),
    "tiny-dm": SaturationCase(
        PicosConfig(dm_sets=1, dm_design=DMDesign.WAY8),
        _tiny_dm_program,
        2,
        "dm_conflicts",
    ),
    "tiny-everything": SaturationCase(
        PicosConfig(tm_entries=2, vm_entries=3, dm_sets=1, max_deps_per_task=3),
        _tiny_everything_program,
        4,
        None,
    ),
    "burst": SaturationCase(
        PicosConfig(tm_entries=4), _burst_program, 2, None
    ),
}

SATURATION_CASE_NAMES = tuple(SATURATION_CASES)


def drain_functional(accelerator: PicosAccelerator, program: TaskProgram) -> List[int]:
    """Run a program through the accelerator functionally (no timing).

    Tasks are submitted in creation order (retrying stalled submissions
    whenever a task finishes); ready tasks are "executed" immediately in the
    order the Task Scheduler returns them.  Returns the execution order.
    """
    order: List[int] = []
    pending = list(program)
    index = 0
    while index < len(pending) or accelerator.ready_count or accelerator.in_flight:
        progressed = False
        # Submit as many tasks as possible.
        while index < len(pending):
            if accelerator.has_pending_submission:
                if not accelerator.can_resume():
                    break
                result = accelerator.resume_submission()
            else:
                result = accelerator.submit_task(pending[index])
            if not result.accepted:
                break
            index += 1
            progressed = True
        # Execute one ready task and notify its completion.
        task_id = accelerator.pop_ready()
        if task_id is not None:
            order.append(task_id)
            accelerator.notify_finish(task_id)
            progressed = True
        if not progressed:
            raise AssertionError(
                f"functional drain stalled: submitted {index}/{len(pending)}, "
                f"in flight {accelerator.in_flight}"
            )
    return order


# ----------------------------------------------------------------------
# the one-event-per-delivery oracle
# ----------------------------------------------------------------------
class ReferenceHILSimulator(HILSimulator):
    """Test oracle: the HIL platform with one engine event per delivery.

    Production runs coalesce the same-cycle ready notifications of one
    accelerator operation into a ``ready-batch`` cluster, and their
    handlers drain same-cycle runs of their kind in one activation.  This
    oracle schedules one ``ready-batch`` event per notification and
    replaces the three handlers -- by name, since ``step()`` builds the
    handler table from these attributes -- with bodies that retire one
    event per call and never drain.  Batched runs, faulted or not, must
    equal it field for field.
    """

    def _schedule_ready(self, start, ready_list) -> None:
        schedule = self.queue.schedule
        for ready in ready_list:
            schedule(start + ready.latency, _EV_READY_BATCH, ready.task_id)

    def _on_ready_batch(self, task_id: int, now: int) -> None:
        self._timelines[task_id].ready = now
        if self._lifecycle_log is not None:
            self._lifecycle_log.append((now, _LOG_READY, task_id))
        self.ready.push(task_id)
        self._try_dispatch(now)
        self._kick_master(now)

    def _on_worker_done_batched(self, payload: Tuple[int, int], now: int) -> None:
        worker_id, task_id = payload
        self._timelines[task_id].finished = now
        if self._lifecycle_log is not None:
            self._lifecycle_log.append((now, _LOG_RETIRED, task_id))
        self.workers.release(worker_id)
        self._finished_tasks += 1
        if self._hw_only:
            self._process_finish(task_id, now)
        else:
            self._master_finish_jobs.append(task_id)
        self._try_dispatch(now)
        self._kick_master(now)

    def _on_master_done_batched(self, job: Tuple[str, object], now: int) -> None:
        self._master_busy = False
        kind, payload = job
        self._master_done_handlers[kind](payload, now)
        self._kick_master(now)


class ReferenceNanosSimulator(NanosRuntimeSimulator):
    """Test oracle: the Nanos++ model retiring one completion per event."""

    def _on_task_done_batched(self, payload: Tuple[int, int], now: int) -> None:
        worker, task_id = payload
        self._finished += 1
        self._idle_workers.append(worker)
        for successor in self.graph.successors[task_id]:
            self._remaining_preds[successor] -= 1
            self._mark_ready_if_possible(successor, now)
        self._try_dispatch(now)


def reference_simulator(
    backend: str,
    program: TaskProgram,
    num_workers: int,
    config: Optional[PicosConfig] = None,
    faults: Sequence = (),
):
    """The oracle simulator for one ``hil-*`` or ``nanos`` backend run."""
    if backend == "nanos":
        return ReferenceNanosSimulator(program, num_workers, faults=faults)
    return ReferenceHILSimulator(
        program,
        config=config,
        mode=HILMode.from_backend_name(backend),
        num_workers=num_workers,
        faults=faults,
    )
