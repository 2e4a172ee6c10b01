"""Edge cases of the HIL master-job state machine and ready-batch delivery.

The flat, table-driven master dispatcher re-arms the ARM core exactly once
per event-handler activation, and same-cycle ready-task visibility
notifications travel as one ``READY_BATCH`` engine event per cycle-cluster
(see ``docs/hil.md``).  These tests pin the edges the parity matrices do
not reach on their own:

* a kick while a master event is already in flight must be a no-op (one
  job in flight at a time, no double-booked ARM core);
* a kick that schedules at the *current* cycle after the queue head was
  peeked (a ``pop_same_kind`` miss) must still deliver in FIFO order --
  post-peek overtaking, the calendar-queue subtlety of ``docs/engine.md``;
* ready batches interleaved with worker completions at one cycle (the
  ``pop_same_kind`` miss path between the two batch kinds) must stay
  cycle-identical to per-event delivery, including every counter.

Per-event delivery is the one-event-per-call oracle in ``tests/helpers.py``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.config import PicosConfig
from repro.core.scheduler import SchedulingPolicy
from repro.runtime.task import Direction
from repro.sim.engine import EventQueue
from repro.sim.hil import HILMode, HILSimulator
from repro.sim.results import TaskTimeline
from repro.traces.synthetic import random_program

from tests.helpers import ReferenceHILSimulator, make_program

A, B = 0x1000, 0x2000


def fanout_program(readers: int = 8, duration: int = 30):
    """One producer, ``readers`` consumers of the same address."""
    spec = [[(A, Direction.OUT)]] + [[(A, Direction.IN)]] * readers
    return make_program(spec, durations=[duration] * (readers + 1), name="fanout")


def run_all_delivery_modes(program, *, mode, num_workers, config=None, policy=SchedulingPolicy.FIFO):
    """The same simulation, batched and through the per-event oracle."""
    return {
        name: simulator(
            program,
            config=config,
            mode=mode,
            num_workers=num_workers,
            policy=policy,
        ).run()
        for name, simulator in (
            ("batched", HILSimulator),
            ("reference", ReferenceHILSimulator),
        )
    }


def primed_simulator(program, **kwargs) -> HILSimulator:
    """A simulator with timelines initialised, as ``run()`` would do."""
    sim = HILSimulator(program, **kwargs)
    for task in program:
        sim._timelines[task.task_id] = TaskTimeline(task_id=task.task_id)
    return sim


def assert_all_identical(results):
    assert dataclasses.asdict(results["batched"]) == dataclasses.asdict(
        results["reference"]
    ), "batched delivery diverged from the per-event reference"


class TestMasterRearm:
    """Re-arming while a master job is already in flight."""

    def test_second_kick_while_in_flight_is_a_noop(self):
        program = fanout_program()
        sim = primed_simulator(program, mode=HILMode.FULL_SYSTEM, num_workers=2)
        sim._kick_master(0)
        assert sim._master_busy
        assert sim.queue.pending == 1  # one master-done event in flight
        assert sim._next_create_index == 1
        # A re-arm point firing again while the job is in flight must not
        # double-book the ARM core or consume another job.
        sim._kick_master(0)
        assert sim.queue.pending == 1
        assert sim._next_create_index == 1

    def test_rearm_picks_finish_over_dispatch_over_create(self):
        program = fanout_program()
        sim = primed_simulator(program, mode=HILMode.FULL_SYSTEM, num_workers=2)
        # Prime all three job sources, then re-arm once: the AXI-stream
        # arbitration order (finish > dispatch > create) must decide.
        sim._master_finish_jobs.append(7)
        sim._master_dispatch_jobs.append((3, 0))
        sim._kick_master(0)
        event = sim.queue.pop()
        kind, payload = event.payload
        assert kind == "finish"
        assert payload == 7
        assert sim._master_dispatch_jobs  # untouched
        assert sim._next_create_index == 0  # no create consumed

    def test_kick_with_no_work_leaves_master_idle(self):
        program = fanout_program()
        sim = primed_simulator(program, mode=HILMode.FULL_SYSTEM, num_workers=2)
        sim._next_create_index = program.num_tasks  # nothing left to create
        sim._kick_master(0)
        assert not sim._master_busy
        assert sim.queue.pending == 0

    def test_create_throttles_on_full_new_task_fifo(self):
        program = fanout_program(readers=30)
        sim = primed_simulator(program, mode=HILMode.FULL_SYSTEM, num_workers=2)
        for _ in range(sim.NEW_TASK_FIFO_DEPTH):
            sim._pending_new.append(program[0])
        sim._kick_master(0)
        assert not sim._master_busy  # throttled: FIFO full, nothing else to do
        assert sim._next_create_index == 0


class TestKickAtCurrentCycleAfterPeek:
    """Post-peek overtaking: peeks must not commit the queue head."""

    def test_schedule_at_now_after_pop_same_kind_miss(self):
        queue = EventQueue()
        queue.schedule(10, "later", "a")
        # The miss peeks the head without consuming it ...
        assert queue.pop_same_kind("other", 0) is None
        # ... so a kick at the *current* cycle must still overtake it.
        queue.schedule(0, "kick", "b")
        first = queue.pop()
        second = queue.pop()
        assert (first.time, first.kind) == (0, "kick")
        assert (second.time, second.kind) == (10, "later")

    def test_zero_cost_master_jobs_complete_at_the_peeked_cycle(self):
        # With comm_cycles=0 every re-arm schedules its master-done event
        # at the cycle the handler is draining -- after the ready-batch
        # handler already peeked the head via pop_same_kind.  The schedule
        # must stay cycle-identical to per-event delivery.
        config = PicosConfig(comm_cycles=0)
        program = fanout_program(readers=12, duration=25)
        for mode in (HILMode.HW_COMM, HILMode.FULL_SYSTEM):
            results = run_all_delivery_modes(
                program, mode=mode, num_workers=3, config=config
            )
            assert_all_identical(results)
            assert results["batched"].completed_all()


class _MasterClusterCountingQueue:
    """EventQueue proxy counting MASTER_DONE deliveries via pop_same_kind."""

    def __init__(self, inner: EventQueue) -> None:
        self._inner = inner
        self.master_cluster_pops = 0

    def pop_same_kind(self, kind, time):
        event = self._inner.pop_same_kind(kind, time)
        if event is not None and kind == "master-done":
            self.master_cluster_pops += 1
        return event

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestMasterCompletionClusters:
    """Lazy drain of colliding zero-cost master-job completions."""

    def test_zero_cost_jobs_drain_in_one_activation(self):
        # comm_cycles=0 makes every finish/dispatch/create job of HW+comm
        # mode zero-cost, so the serial master's re-arms land at the
        # current cycle and successive completions collide there.  The
        # batched handler must retire those clusters through pop_same_kind
        # in one activation -- and stay bit-exact with the per-event
        # reference, events_processed included (pop_same_kind counts each
        # delivery exactly like a dispatch).
        config = PicosConfig(comm_cycles=0)
        program = fanout_program(readers=12, duration=25)
        sim = HILSimulator(
            program, config=config, mode=HILMode.HW_COMM, num_workers=3
        )
        sim.queue = _MasterClusterCountingQueue(sim.queue)
        batched = sim.run()
        assert batched.completed_all()
        assert sim.queue.master_cluster_pops > 0  # real clusters formed
        reference = ReferenceHILSimulator(
            program, config=config, mode=HILMode.HW_COMM, num_workers=3
        ).run()
        assert dataclasses.asdict(batched) == dataclasses.asdict(reference)

    def test_costed_jobs_never_form_clusters(self):
        # With a non-zero job cost the re-arm always lands in the future,
        # so the drain loop must not even consult the queue: the master
        # timeline stays strictly one event per job.
        config = PicosConfig(comm_cycles=3)
        program = fanout_program(readers=8, duration=25)
        sim = HILSimulator(
            program, config=config, mode=HILMode.HW_COMM, num_workers=3
        )
        sim.queue = _MasterClusterCountingQueue(sim.queue)
        result = sim.run()
        assert result.completed_all()
        assert sim.queue.master_cluster_pops == 0


class TestReadyBatchInterleaving:
    """Cycle-clusters of visibility events against worker completions."""

    def test_fanout_wakeups_coalesce_into_one_engine_event(self):
        # chain_hop_cycles=0 makes a consumer chain wake at one cycle, so
        # the finish of the producer emits a genuine multi-task cluster.
        config = PicosConfig(chain_hop_cycles=0)
        program = fanout_program(readers=8)
        sim = HILSimulator(
            program, config=config, mode=HILMode.HW_ONLY, num_workers=8
        )
        result = sim.run()
        assert result.completed_all()
        assert sim._ready_batch_extra > 0  # at least one real cluster
        reference = ReferenceHILSimulator(
            program, config=config, mode=HILMode.HW_ONLY, num_workers=8
        ).run()
        # Field-for-field identity includes the per-delivered-event
        # accounting: a consumed cluster counts once per notification.
        assert dataclasses.asdict(result) == dataclasses.asdict(reference)

    @pytest.mark.parametrize("mode", list(HILMode), ids=lambda m: m.value)
    def test_clustered_wakeups_interleave_with_completions(self, mode):
        # Equal durations make worker completions land in same-cycle runs;
        # zero-latency wake-ups put ready clusters on those same cycles.
        # The ready-batch drain must stop at interleaved worker-done
        # events (the pop_same_kind miss path) and vice versa.
        config = PicosConfig(chain_hop_cycles=0, wake_latency=0)
        spec = [[(A, Direction.OUT)], [(B, Direction.OUT)]]
        spec += [[(A, Direction.IN)]] * 6
        spec += [[(B, Direction.IN)]] * 6
        program = make_program(spec, durations=[40] * len(spec), name="interleave")
        results = run_all_delivery_modes(
            program, mode=mode, num_workers=4, config=config
        )
        assert_all_identical(results)
        assert results["batched"].completed_all()

    @pytest.mark.parametrize("mode", list(HILMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("seed", [1, 7, 23])
    def test_random_graphs_are_mode_independent(self, mode, seed):
        program = random_program(
            seed, num_tasks=40, num_addresses=12, max_deps=4, max_duration=60
        )
        results = run_all_delivery_modes(program, mode=mode, num_workers=4)
        assert_all_identical(results)

    def test_priority_policies_see_tasks_one_at_a_time(self):
        # A LIFO scheduler observing a whole cluster at once could pick a
        # later task first; the batched handler must feed it task by task,
        # exactly as the per-event reference does.
        config = PicosConfig(chain_hop_cycles=0)
        program = fanout_program(readers=10, duration=100)
        results = run_all_delivery_modes(
            program,
            mode=HILMode.HW_ONLY,
            num_workers=2,
            config=config,
            policy=SchedulingPolicy.LIFO,
        )
        assert_all_identical(results)
