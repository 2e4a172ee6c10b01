"""The benchmark's workloads and its seeded input generators.

The program under test only ever receives the generated inputs: a
``TaskProgram`` or a ``SimulationRequest`` built here from ``--seed``.
Why each workload exists is written down in ``perfbench/README.md``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

#: Workload names, in the order the README and BENCHMARK.json list them.
BATCH_WORKLOADS = ("headline-cholesky32", "dm-pressure", "nanos-cholesky32")
SERVICE_WORKLOAD = "service-stream"
WORKLOADS = BATCH_WORKLOADS + (SERVICE_WORKLOAD,)

#: Worker cores of every batch workload.
BATCH_WORKERS = 32


@dataclass(frozen=True)
class Pin:
    """Pinned simulated outcome of a fixed (unseeded) batch workload."""

    makespan: int
    num_tasks: int
    digest: str


#: Outcomes of the two fixed cholesky/32 traces.  The headline makespan is
#: the repository's reference number; the digests cover the simulated
#: counters and every task timeline (``common.result_digest``), so a change
#: that moves modelled behaviour fails the correctness gate.
PINS: Dict[str, Pin] = {
    "headline-cholesky32": Pin(144_898_097, 45_760, "c214c8c07cbf68c8"),
    "nanos-cholesky32": Pin(2_290_088_264, 45_760, "eeaad9300287ba2e"),
}

# ----------------------------------------------------------------------
# dm-pressure: a seeded synthetic graph that overflows the DM
# ----------------------------------------------------------------------
#: Tasks in the dm-pressure graph.
DM_PRESSURE_TASKS = 20_000
#: Distinct dependence addresses: four times the 512 entries of the
#: default DM (64 sets x 8 ways), so sets fill and conflicts stall the DCT.
DM_PRESSURE_ADDRESSES = 2048
#: Dependences per task, drawn uniformly (mean 9.5).
DM_PRESSURE_DEPS = (4, 15)
#: Task body length in cycles, drawn uniformly.
DM_PRESSURE_DURATION = (500, 5000)


def dm_pressure_program(seed: int) -> Any:
    """Build the dm-pressure task graph for ``seed``.

    Addresses are 64-byte-aligned blocks drawn from a 64 MiB window, so the
    DM set each one hashes to changes with the seed.  Directions are half
    ``in``, a fifth ``out`` and the rest ``inout``.
    """
    from repro.runtime.task import Dependence, Direction, TaskProgram

    rng = random.Random(f"dm-pressure:{seed}")
    addresses = [0x4000_0000 + 64 * block for block in rng.sample(range(1 << 20), DM_PRESSURE_ADDRESSES)]
    directions = [Direction.IN] * 5 + [Direction.OUT] * 2 + [Direction.INOUT] * 3
    program = TaskProgram(name=f"dm-pressure-seed{seed}")
    low, high = DM_PRESSURE_DEPS
    short, long = DM_PRESSURE_DURATION
    for _ in range(DM_PRESSURE_TASKS):
        chosen = rng.sample(addresses, rng.randint(low, high))
        program.create_task(
            [Dependence(address, rng.choice(directions)) for address in chosen],
            duration=rng.randint(short, long),
        )
    return program


def batch_request(workload: str, seed: int) -> Tuple[Any, Any]:
    """The ``(request, program)`` pair a batch workload simulates.

    Building the program is part of set-up; the request is returned
    normalised, as ``simulate_request`` would see it.
    """
    from repro.sim.request import SimulationRequest

    if workload == "headline-cholesky32":
        request = SimulationRequest.for_workload("cholesky", 32, backend="hil-full", num_workers=BATCH_WORKERS)
    elif workload == "nanos-cholesky32":
        request = SimulationRequest.for_workload("cholesky", 32, backend="nanos", num_workers=BATCH_WORKERS)
    elif workload == "dm-pressure":
        request = SimulationRequest.for_program(
            dm_pressure_program(seed), backend="hil-hw", num_workers=BATCH_WORKERS
        )
    else:
        raise ValueError(f"not a batch workload: {workload!r}")
    program = request.build_program()
    return request.normalize(), program


# ----------------------------------------------------------------------
# service-stream: the seeded request mix
# ----------------------------------------------------------------------
#: Share of requests that are unique inline programs (cache misses).
SHARE_INLINE = 0.70
#: Share of requests that name one of ``SERVICE_REFS`` (cache hits after
#: each reference's first request).
SHARE_REF = 0.20
# The remaining share restores a snapshot captured mid-run, checkpoints
# the restored session and runs it to the end.

#: Workload references the hit share draws from (about 36-120 tasks each).
SERVICE_REFS: Tuple[Tuple[str, int, int], ...] = (
    ("cholesky", 64, 512),
    ("lu", 64, 512),
    ("sparselu", 64, 512),
    ("heat", 64, 512),
)
#: Backends of the inline and restore shares.
SERVICE_BACKENDS = ("hil-full", "hil-full", "hil-hw", "nanos")
#: Worker cores of every service request.
SERVICE_WORKERS = 8
#: Tasks per inline program, drawn uniformly.
SERVICE_TASKS = (60, 120)
#: Slice length used while advancing a restore item to its snapshot point.
RESTORE_SLICE_CYCLES = 20_000


@dataclass
class ServiceItem:
    """One request of the service mix, ready to put on the wire."""

    index: int
    kind: str  # "inline", "ref" or "restore"
    request: Any  # SimulationRequest simulated in batch to check the answer
    document: Dict[str, Any]  # request document (open) or snapshot (restore)
    snapshot_cycle: Optional[int] = None
    #: Batch result of ``request`` (filled in when first needed).
    expected: Any = None

    @property
    def session_id(self) -> str:
        return f"r{self.index}"


def _inline_program(rng: random.Random, name: str) -> Any:
    from repro.runtime.task import Dependence, Direction, TaskProgram

    program = TaskProgram(name=name)
    pool = [0x1000 * (1 + block) for block in range(rng.randint(24, 64))]
    directions = (Direction.IN, Direction.IN, Direction.OUT, Direction.INOUT)
    for _ in range(rng.randint(*SERVICE_TASKS)):
        chosen = rng.sample(pool, rng.randint(1, 4))
        program.create_task(
            [Dependence(address, rng.choice(directions)) for address in chosen],
            duration=rng.randint(2_000, 40_000),
        )
    return program


def service_items(seed: int, count: int) -> List[ServiceItem]:
    """The first ``count`` requests of the service mix for ``seed``.

    Restore items carry a snapshot captured mid-run, once half their tasks
    retired; capturing it here keeps that work out of timing.
    """
    from repro.service.protocol import request_to_document
    from repro.sim.request import SimulationRequest
    from repro.sim.session import open_session

    rng = random.Random(f"service-stream:{seed}")
    items: List[ServiceItem] = []
    for index in range(count):
        draw = rng.random()
        if SHARE_INLINE <= draw < SHARE_INLINE + SHARE_REF:
            workload, block, problem = rng.choice(SERVICE_REFS)
            request = SimulationRequest.for_workload(
                workload, block, problem, backend="hil-full", num_workers=SERVICE_WORKERS
            )
            items.append(ServiceItem(index, "ref", request, request_to_document(request)))
            continue
        program = _inline_program(rng, f"svc-{seed}-{index}")
        request = SimulationRequest.for_program(
            program, backend=rng.choice(SERVICE_BACKENDS), num_workers=SERVICE_WORKERS
        )
        if draw < SHARE_INLINE:
            items.append(ServiceItem(index, "inline", request, request_to_document(request)))
            continue
        # Snapshot at the first slice boundary past half the tasks retired,
        # then finish the same session: its result is the straight run's.
        with open_session(request) as session:
            half = len(program) // 2
            while session.stats().tasks_retired < half:
                if session.advance(RESTORE_SLICE_CYCLES).finished:
                    raise RuntimeError(f"request {index} finished before its snapshot point")
            snapshot = session.checkpoint()
            straight = session.result()
        item = ServiceItem(index, "restore", request, snapshot.document(), snapshot.cycle)
        item.expected = straight
        items.append(item)
    return items
