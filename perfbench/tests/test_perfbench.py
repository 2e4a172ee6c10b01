"""Self-tests of the benchmark: ``python3 -m pytest perfbench/tests -q``.

They check the benchmark's own machinery -- seeded generation, the
traced run's bookkeeping, the correctness gate -- not the program.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import layers, service_load, speed, workloads  # noqa: E402
from perfbench.common import DEFAULT_SEED, WORK_DIR, program_digest, result_digest, run_child  # noqa: E402
from perfbench.tracer import Tracer, _resolve  # noqa: E402

HELD_OUT_SEED = 9001


@pytest.fixture()
def work_dir():
    path = WORK_DIR / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)
    with contextlib.suppress(OSError):
        WORK_DIR.rmdir()


# ----------------------------------------------------------------------
# seeded generation
# ----------------------------------------------------------------------
def test_dm_pressure_same_seed_same_digest_and_different_seeds_differ():
    first = program_digest(workloads.dm_pressure_program(DEFAULT_SEED))
    again = program_digest(workloads.dm_pressure_program(DEFAULT_SEED))
    other = program_digest(workloads.dm_pressure_program(DEFAULT_SEED + 1))
    assert first == again
    assert first != other


def test_dm_pressure_shape():
    program = workloads.dm_pressure_program(DEFAULT_SEED)
    counts = [task.num_dependences for task in program]
    assert len(program) == workloads.DM_PRESSURE_TASKS
    assert min(counts) >= workloads.DM_PRESSURE_DEPS[0]
    assert max(counts) <= workloads.DM_PRESSURE_DEPS[1]
    assert len(program.unique_addresses()) > 512  # more than the DM holds


def test_service_mix_is_seeded():
    def digest(seed):
        return [
            (item.kind, json.dumps(item.document, sort_keys=True))
            for item in workloads.service_items(seed, 30)
        ]

    assert digest(DEFAULT_SEED) == digest(DEFAULT_SEED)
    assert digest(DEFAULT_SEED) != digest(DEFAULT_SEED + 1)


# ----------------------------------------------------------------------
# batch runs, traced and untraced
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def dm_pressure_pair():
    trace_out = WORK_DIR / "selftest-dm-pressure.json"
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    common = ["--workload", "dm-pressure", "--seed", str(DEFAULT_SEED)]
    plain = run_child("perfbench.batch_child", common)
    traced = run_child("perfbench.batch_child", common + ["--trace-out", str(trace_out)])
    chrome = json.loads(trace_out.read_text())
    trace_out.unlink()
    return plain, traced, chrome


def test_dm_pressure_has_conflicts_and_no_master(dm_pressure_pair):
    plain, traced, _chrome = dm_pressure_pair
    assert plain["errors"] == []
    assert plain["counters"]["dm_conflicts"] > 0
    values = traced["trace"]["values"]
    assert values["dct.dm_conflicts"] > 0
    assert values["engine.scheduled.master-done"] == 0


def test_traced_run_simulates_the_same_thing(dm_pressure_pair):
    plain, traced, _chrome = dm_pressure_pair
    assert traced["errors"] == []
    assert traced["digest"] == plain["digest"]


def test_traced_run_restores_every_wrapper(dm_pressure_pair):
    _plain, traced, _chrome = dm_pressure_pair
    assert traced["unrestored"] == []


def test_layer_self_times_add_up_to_the_traced_total(dm_pressure_pair):
    _plain, traced, _chrome = dm_pressure_pair
    trace = traced["trace"]
    total = trace["traced_total_s"]
    assert total > 0
    assert abs(trace["layer_self_s"] + trace["unattributed_s"] - total) <= 0.01 * total
    assert trace["values"]["trace.unattributed_frac"] < 0.5


def test_chrome_trace_is_well_formed(dm_pressure_pair):
    _plain, traced, chrome = dm_pressure_pair
    spans = [event for event in chrome["traceEvents"] if event["ph"] == "X"]
    assert len(spans) == traced["spans_written"] > 0
    for event in spans[:1000]:
        assert {"name", "ts", "dur", "pid", "tid", "args"} <= set(event)
        assert event["dur"] >= 0
    assert chrome["otherData"]["spans_recorded"] >= len(spans)


def test_wrappers_are_restored_in_process():
    tracer = Tracer()
    targets = layers.SIMULATOR_TARGETS + layers.SERVICE_TARGETS
    originals = [_resolve(target)[1] for target in targets]
    tracer.install(targets)
    try:
        assert all(_resolve(t)[1] is not o for t, o in zip(targets, originals))
    finally:
        tracer.uninstall()
    assert tracer.unrestored() == []
    assert all(_resolve(t)[1] is o for t, o in zip(targets, originals))


def test_traced_result_matches_untraced_in_process():
    from repro.sim.driver import simulate_request
    from repro.sim.request import SimulationRequest

    def run(backend):
        request = SimulationRequest.for_workload("cholesky", 64, 512, backend=backend, num_workers=8)
        return result_digest(simulate_request(request))

    for backend in ("hil-full", "hil-hw", "nanos"):
        plain = run(backend)
        tracer = Tracer()
        tracer.install(layers.SIMULATOR_TARGETS)
        try:
            traced = run(backend)
        finally:
            tracer.uninstall()
        assert traced == plain
        assert tracer.span_count() > 0


def test_benchmark_json_names_the_reported_metrics():
    from perfbench.run import END_TO_END

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)


def test_every_per_layer_metric_is_reported_once():
    names = [name for name, _unit, _better in layers.PER_LAYER]
    assert len(names) == len(set(names))
    assert set(layers.complete({})) == set(names)
    with pytest.raises(KeyError):
        layers.complete({"no.such_metric": 1.0})


# ----------------------------------------------------------------------
# the speed probe
# ----------------------------------------------------------------------
def test_probe_corrects_to_the_reference_speed():
    probe = speed.SpeedProbe()
    # Twice as slow as the reference for the first second, at it after.
    probe.samples = [(t / 100, 2 * speed.REFERENCE_S) for t in range(100)]
    probe.samples += [(1 + t / 100, speed.REFERENCE_S) for t in range(100)]
    slow = 0.5**speed.EXPONENT
    assert probe.correct(0.2, 0.8, subtract=False) == pytest.approx(0.6 * slow)
    assert probe.correct(1.2, 1.8, subtract=False) == pytest.approx(0.6)
    # The probes' own time inside the interval is taken out first.
    inside = 60 * 2 * speed.REFERENCE_S
    assert probe.correct(0.2, 0.8) == pytest.approx((0.6 - inside) * slow)
    # A short interval is corrected with the probes around it.
    assert probe.correct(0.5, 0.501, subtract=False) == pytest.approx(0.001 * slow)
    # No probe near the interval: the raw length.
    assert probe.correct(10.0, 11.0) == pytest.approx(1.0)


def test_probe_samples_and_restores_the_signal_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    probe = speed.SpeedProbe().start()
    try:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    finally:
        probe.stop()
    assert len(probe.samples) >= 5
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probe.speed() > 0


# ----------------------------------------------------------------------
# service-stream
# ----------------------------------------------------------------------
def test_service_stream_hits_the_cache_and_restores(work_dir):
    plan = service_load.make_plan(DEFAULT_SEED, 4.0)
    result = service_load.run_pass(plan, work_dir, spawns=1, probe=True)
    outcomes = result.phases.open_outcomes + result.phases.closed_outcomes
    assert service_load.check_outcomes(outcomes) == []
    assert result.probe is not None and result.probe.samples
    assert sum(1 for o in outcomes if o.cached) > 0
    restored = [o for o in outcomes if o.item.kind == "restore"]
    assert restored and all(o.checkpoint is not None for o in restored)
    assert result.usage["peak_rss_mb"] > 0


def test_wrong_service_answer_is_caught():
    item = workloads.service_items(DEFAULT_SEED, 1)[0]

    async def outcome_with(result):
        outcome = service_load.Outcome(item, 0.0)
        outcome.result = result
        outcome.finish(1.0)
        return outcome

    from repro.service.protocol import result_to_document
    from repro.sim.driver import simulate_request

    good = json.loads(json.dumps(result_to_document(simulate_request(item.request))))
    bad = dict(good, makespan=good["makespan"] + 1)
    assert service_load.check_outcomes([asyncio.run(outcome_with(good))]) == []
    assert service_load.check_outcomes([asyncio.run(outcome_with(bad))]) != []


# ----------------------------------------------------------------------
# the command itself
# ----------------------------------------------------------------------
def test_failed_check_makes_the_command_fail(capsys):
    from perfbench.run import Report

    report = Report("headline-cholesky32")
    report.attempted = 2
    report.errors.append("makespan 1 != pinned 2")
    assert report.emit() == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False


def test_command_fails_without_the_program(work_dir):
    shutil.copy(ROOT / "BENCHMARK.json", work_dir / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", work_dir / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dm-pressure", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(work_dir),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


@pytest.mark.parametrize("seed", [DEFAULT_SEED, HELD_OUT_SEED])
def test_dm_pressure_passes_the_gate_on_default_and_held_out_seed(seed):
    sample = run_child("perfbench.batch_child", ["--workload", "dm-pressure", "--seed", str(seed)])
    assert sample["errors"] == []
    assert sample["tasks"] == workloads.DM_PRESSURE_TASKS
