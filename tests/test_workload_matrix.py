"""Every registered workload through every built-in backend's batch path.

The experiment runner, the service and ``perfbench/`` all name their
programs declaratively (:meth:`SimulationRequest.for_workload`) and run
them through :func:`simulate_request`.  This matrix runs each paper
benchmark (at a reduced problem size) and each synthetic Table IV case on
each backend and checks the schedule against the task graph: every task
runs once for exactly its duration, no task starts before a predecessor
finishes, and no makespan beats the work/critical-path bound.
"""

from __future__ import annotations

import pytest

from repro.runtime.dependence_analysis import build_task_graph
from repro.sim.backend import BUILTIN_BACKENDS
from repro.sim.driver import simulate_request
from repro.sim.request import SimulationRequest
from repro.traces.export import available_workloads

WORKERS = 4

#: ``(block size, problem size)`` of each paper benchmark: the same
#: dependence structure as the paper's inputs, few enough tasks to stay fast.
SMALL = {"h264dec": (8, 2)}
DENSE_SMALL = (64, 512)

WORKLOADS = available_workloads()
CASES = [
    (name, *SMALL.get(name, DENSE_SMALL)) for name in WORKLOADS["benchmarks"]
] + [(name, None, None) for name in WORKLOADS["synthetic"]]


def test_the_matrix_covers_every_registered_workload():
    assert {name for name, _, _ in CASES} == {
        "cholesky", "h264dec", "heat", "lu", "mlu", "sparselu",
        "case1", "case2", "case3", "case4", "case5", "case6", "case7",
    }


@pytest.mark.parametrize("backend", sorted(BUILTIN_BACKENDS))
@pytest.mark.parametrize(
    "workload,block_size,problem_size", CASES, ids=[name for name, _, _ in CASES]
)
def test_schedule_respects_the_task_graph(workload, block_size, problem_size, backend):
    request = SimulationRequest.for_workload(
        workload, block_size=block_size, problem_size=problem_size,
        backend=backend, num_workers=WORKERS,
    )
    program = request.program.build()
    assert program.num_tasks > 1
    result = simulate_request(request)

    assert result.num_tasks == program.num_tasks
    assert result.sequential_cycles == program.sequential_cycles
    assert sorted(result.timelines) == sorted(task.task_id for task in program)
    for task in program:
        timeline = result.timelines[task.task_id]
        assert timeline.ready <= timeline.started
        assert timeline.finished - timeline.started == task.duration

    graph = build_task_graph(program)
    for dst, preds in graph.predecessors.items():
        started = result.timelines[dst].started
        for src in preds:
            assert result.timelines[src].finished <= started, (src, dst)

    assert result.makespan == max(t.finished for t in result.timelines.values())
    bound = max(graph.critical_path_length(), -(-program.sequential_cycles // WORKERS))
    assert result.makespan >= bound
