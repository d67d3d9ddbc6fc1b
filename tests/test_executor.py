"""Compute-backend tests: determinism, chunking invariance, clean shutdown.

The contract under test (docs/PARALLEL.md): the ``process`` backend is
bit-identical to ``serial`` for *any* worker count and chunk size, and a
run — finished or fault-aborted — leaves behind no worker processes and no
shared-memory segments.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.align.seedextend import Alignment, SeedExtendAligner
from repro.core.api import get_workload, run_alignment
from repro.engines.base import EngineConfig
from repro.errors import ConfigurationError, RankFailureError, WorkerCrashError
from repro.faults import parse_fault_spec
from repro.machine.config import cori_knl
from repro.runtime.executor import (
    AUTO_MIN_PROBE_TASKS,
    AutoExecutor,
    ProcessExecutor,
    SerialExecutor,
    active_shm_segments,
    make_task_executor,
)

N_TASK_CAP = 120  # plenty of chunk boundaries, still fast per example


@pytest.fixture(scope="module")
def workload():
    return get_workload("micro", seed=11)


@pytest.fixture(scope="module")
def serial(workload):
    return SerialExecutor(workload, SeedExtendAligner())


@pytest.fixture(scope="module")
def pools(workload):
    """One persistent pool per worker count, shared across examples."""
    executors = {
        w: ProcessExecutor(workload, SeedExtendAligner(), workers=w)
        for w in (1, 2, 3)
    }
    yield executors
    for ex in executors.values():
        ex.close()


def _fields(al: Alignment) -> dict:
    return dataclasses.asdict(al)


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    workers=st.sampled_from([1, 2, 3]),
    indices=st.lists(st.integers(min_value=0, max_value=N_TASK_CAP - 1),
                     min_size=0, max_size=48),
)
def test_process_backend_matches_serial_fieldwise(
        serial, pools, workers, indices):
    """Any (worker count, task subset) is bit-identical: the chunk
    boundaries move with both, uneven last chunks included."""
    ex = pools[workers]
    got = ex.align_tasks(indices)
    want = serial.align_tasks(indices)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert _fields(g) == _fields(w)


def test_empty_batch(serial, pools, workload):
    assert serial.align_tasks([]) == []
    assert pools[2].align_tasks([]) == []
    # the serial path must short-circuit *before* touching the aligner:
    # model-kernel runs hold aligner=None and an empty group would
    # otherwise explode on align_batch (asymmetric with process)
    assert SerialExecutor(workload, None).align_tasks([]) == []


def test_chunk_size_policy(pools):
    """A call splits evenly over the workers (ceiling division)."""
    assert pools[3]._chunk_size(10) == 4
    assert pools[3]._chunk_size(2) == 1
    assert pools[2]._chunk_size(9) == 5
    assert pools[1]._chunk_size(9) == 9
    before = pools[3].stats()["chunks"]
    pools[3].align_tasks(range(10))  # chunks of 4, 4, 2
    assert pools[3].stats()["chunks"] - before == 3


def test_stats_shape(workload):
    ex = ProcessExecutor(workload, SeedExtendAligner(), workers=2)
    try:
        ex.align_tasks(range(9))
        s = ex.stats()
        assert s["backend"] == "process"
        assert s["batches"] == 1
        assert s["tasks"] == 9
        assert s["chunks"] >= 1
        assert s["failed_batches"] == 0
        # the honest three-way split: submit-only, wait-for-workers,
        # rehydration-only (merge_s no longer hides the wait)
        for key in ("dispatch_s", "wait_s", "merge_s"):
            assert s[key] >= 0
        total_chunks = sum(w["chunks"] for w in s["per_worker"].values())
        assert total_chunks == s["chunks"]
    finally:
        ex.close()


def test_worker_rows_round_trip_to_objects(workload, serial, pools):
    """The worker return path: packed rows rehydrate to the serial objects."""
    from repro.runtime.executor import _pack_rows, _rehydrate

    idx = np.arange(24)
    want = serial.align_tasks(idx)
    rows = _pack_rows(want)
    assert rows.shape == (24, 7)
    for r, al in zip(rows, want):
        assert list(r) == [al.score, al.begin_a, al.end_a, al.begin_b,
                           al.end_b, al.cells, int(al.terminated_early)]
    assert _rehydrate(workload.tasks, idx, rows) == want
    assert pools[2].align_tasks(idx) == want


def test_output_array_grows_and_is_reused(workload, serial):
    """Batches larger than the current capacity reallocate transparently."""
    ex = ProcessExecutor(workload, SeedExtendAligner(), workers=2)
    try:
        small = ex.align_tasks(range(6))
        cap_after_small = ex._out.capacity
        big = ex.align_tasks(range(96))
        assert ex._out.capacity >= 96 > cap_after_small
        # and shrinking back reuses the big array (no reallocation)
        name = ex._out.name
        again = ex.align_tasks(range(6))
        assert ex._out.name == name
        for got, want in zip(small + big + again,
                             serial.align_tasks(range(6))
                             + serial.align_tasks(range(96))
                             + serial.align_tasks(range(6))):
            assert _fields(got) == _fields(want)
    finally:
        ex.close()


def test_model_kernel_always_gets_serial(workload):
    """No aligner -> no kernel batches -> a pool request is an error."""
    assert isinstance(make_task_executor(workload, None), SerialExecutor)
    with pytest.raises(ConfigurationError, match="kernel='real'"):
        make_task_executor(workload, None, backend="process", workers=4)


def test_model_kernel_auto_is_rejected(workload):
    """auto is a pool request too: no quiet downgrade to serial."""
    with pytest.raises(ConfigurationError, match="kernel='real'"):
        make_task_executor(workload, None, backend="auto", workers=4)


def test_unknown_backend_rejected(workload):
    with pytest.raises(ConfigurationError):
        make_task_executor(workload, SeedExtendAligner(), backend="threads")


# -- shutdown hygiene --------------------------------------------------------


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except OSError:
        return False
    return True


def test_close_reaps_workers_and_segments(workload):
    baseline = active_shm_segments()  # other fixtures may hold segments
    ex = ProcessExecutor(workload, SeedExtendAligner(), workers=2)
    ex.align_tasks(range(6))
    assert active_shm_segments() - baseline  # store is live while running
    pids = list(ex._pool._processes)
    assert pids and all(_alive(p) for p in pids)
    ex.close()
    ex.close()  # idempotent
    assert active_shm_segments() == baseline
    assert not any(_alive(p) for p in pids)


def test_resource_tracker_claims_balance(workload, monkeypatch):
    """Every parent-side tracker registration is released exactly once.

    Guards the fork-context subtlety: workers share the parent's resource
    tracker, so an extra worker-side unregister (or a missing parent-side
    unlink) would unbalance the tracker's cache and spew KeyError noise at
    interpreter exit.
    """
    from multiprocessing import resource_tracker

    events: list[tuple[str, str]] = []
    real_register = resource_tracker.register
    real_unregister = resource_tracker.unregister

    def register(name, rtype):
        if rtype == "shared_memory":
            events.append(("+", name))
        return real_register(name, rtype)

    def unregister(name, rtype):
        if rtype == "shared_memory":
            events.append(("-", name))
        return real_unregister(name, rtype)

    monkeypatch.setattr(resource_tracker, "register", register)
    monkeypatch.setattr(resource_tracker, "unregister", unregister)

    ex = ProcessExecutor(workload, SeedExtendAligner(), workers=2)
    ex.align_tasks(range(5))
    ex.close()

    registered = [n for op, n in events if op == "+"]
    unregistered = [n for op, n in events if op == "-"]
    assert sorted(registered) == sorted(unregistered)
    assert len(set(registered)) == len(registered)


def test_fault_abort_leaves_no_leaks(workload, monkeypatch):
    """A rank death mid-run still tears the pool + segments down — and,
    since the kernel only runs once the simulation has drained, spends no
    kernel time on work the abort throws away."""
    calls = []
    real = ProcessExecutor.align_tasks
    monkeypatch.setattr(
        ProcessExecutor, "align_tasks",
        lambda self, idx: calls.append(len(idx)) or real(self, idx))
    baseline = active_shm_segments()
    machine = cori_knl(1, app_cores_per_node=4)
    cfg = EngineConfig(backend="process", workers=2)
    with pytest.raises(RankFailureError):
        run_alignment(workload, 1, "bsp-micro", config=cfg, machine=machine,
                      kernel="real", fault_plan=parse_fault_spec("kill=r1@0"))
    assert calls == []
    assert active_shm_segments() == baseline
    # the counter is live: the same run without the kill does dispatch
    run_alignment(workload, 1, "bsp-micro", config=cfg, machine=machine,
                  kernel="real")
    assert sum(calls) == workload.n_tasks
    assert active_shm_segments() == baseline


# -- failure paths -----------------------------------------------------------


def test_worker_exception_cancels_and_keeps_counters_consistent(workload):
    """A mid-batch worker exception must not half-update the stats."""
    # 3 workers split the 6 tasks into [0, 1], [10**9, 3], [4, 5]: the
    # failing chunk is the middle one, so chunk 0's result is already in
    # hand when the failure surfaces
    ex = ProcessExecutor(workload, SeedExtendAligner(), workers=3)
    try:
        assert ex._chunk_size(6) == 2
        with pytest.raises(IndexError):
            ex.align_tasks([0, 1, 10**9, 3, 4, 5])
        s = ex.stats()
        assert s["failed_batches"] == 1
        assert s["batches"] == 0 and s["tasks"] == 0 and s["chunks"] == 0
        assert s["per_worker"] == {}
        # the pool survives a task-level exception and stays usable
        assert len(ex.align_tasks(range(6))) == 6
        assert ex.stats()["batches"] == 1
    finally:
        ex.close()


def test_worker_crash_raises_typed_error_no_leak(workload):
    """SIGKILLed workers surface as WorkerCrashError, not a cf internal."""
    import signal

    baseline = active_shm_segments()
    ex = ProcessExecutor(workload, SeedExtendAligner(), workers=2)
    try:
        ex.align_tasks(range(8))  # spin the workers up
        for pid in list(ex._pool._processes):
            os.kill(pid, signal.SIGKILL)
        with pytest.raises(WorkerCrashError, match="worker process died"):
            ex.align_tasks(range(8))
        assert ex.stats()["failed_batches"] == 1
    finally:
        ex.close()
    assert active_shm_segments() == baseline


# -- the auto chooser --------------------------------------------------------


def test_auto_single_core_commits_serial_without_a_pool(workload, serial,
                                                        monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    baseline = active_shm_segments()
    with AutoExecutor(workload, SeedExtendAligner()) as ex:
        assert ex.chosen == "serial"
        assert ex.stats()["auto_reason"] == "single_core"
        got = ex.align_tasks(range(40))
        want = serial.align_tasks(range(40))
        for g, w in zip(got, want):
            assert _fields(g) == _fields(w)
        # no pool, no shared memory — the cheap path really is cheap
        assert ex._process is None
        assert active_shm_segments() == baseline


def test_auto_tiny_batches_never_probe_the_pool(workload, serial,
                                                monkeypatch):
    """Sub-probe-size batches (async callback groups) stay inline forever."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    baseline = active_shm_segments()
    with AutoExecutor(workload, SeedExtendAligner()) as ex:
        for _ in range(10):
            got = ex.align_tasks(range(AUTO_MIN_PROBE_TASKS - 1))
        assert ex.chosen == "probing"
        assert ex._process is None
        assert active_shm_segments() == baseline
        want = serial.align_tasks(range(AUTO_MIN_PROBE_TASKS - 1))
        for g, w in zip(got, want):
            assert _fields(g) == _fields(w)


def test_auto_probes_then_commits(workload, serial, monkeypatch):
    """Big batches advance serial probe -> pool probe -> a committed choice."""
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    baseline = active_shm_segments()
    with AutoExecutor(workload, SeedExtendAligner(), workers=2) as ex:
        want = serial.align_tasks(range(80))
        for _ in range(5):
            got = ex.align_tasks(range(80))
            for g, w in zip(got, want):
                assert _fields(g) == _fields(w)
        assert ex.chosen in ("serial", "process")
        s = ex.stats()
        assert s["auto_probe_serial_pps"] > 0
        assert s["auto_probe_process_pps"] > 0
        assert s["auto_reason"] in ("measured_pool_faster",
                                    "pool_cannot_pay")
        # the measurements and the commitment must agree
        chose_pool = AutoExecutor.decide(s["auto_probe_serial_pps"],
                                         s["auto_probe_process_pps"])
        assert (ex.chosen == "process") == chose_pool
    assert active_shm_segments() == baseline


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="pool cannot win without spare cores")
def test_auto_picks_process_on_kernel_heavy_workload(workload):
    """With real spare cores, sustained big batches should engage the pool."""
    with AutoExecutor(workload, SeedExtendAligner()) as ex:
        for _ in range(4):
            ex.align_tasks(range(N_TASK_CAP))
        s = ex.stats()
        # the decision must match the measurements on this machine; on a
        # quiet >=2-core box that means the pool (kernel work dominates
        # the ~1 ms/chunk IPC at this batch size)
        assert (ex.chosen == "process") == AutoExecutor.decide(
            s["auto_probe_serial_pps"], s["auto_probe_process_pps"])


def test_auto_decision_rule():
    assert AutoExecutor.decide(100.0, 200.0)
    assert not AutoExecutor.decide(100.0, 100.0)  # hysteresis: tie -> serial
    assert not AutoExecutor.decide(100.0, 104.0)


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(indices=st.lists(st.integers(min_value=0, max_value=N_TASK_CAP - 1),
                        min_size=0, max_size=12))
def test_auto_backend_deterministic_and_matches_serial(workload, serial,
                                                       indices):
    """backend=auto is bit-identical to serial for any task subset, twice."""
    with AutoExecutor(workload, SeedExtendAligner()) as ex:
        first = ex.align_tasks(indices)
        second = ex.align_tasks(indices)
    want = serial.align_tasks(indices)
    assert len(first) == len(second) == len(want)
    for f, s, w in zip(first, second, want):
        assert _fields(f) == _fields(s) == _fields(w)


def test_engine_run_with_auto_backend_matches_serial(workload):
    machine = cori_knl(1, app_cores_per_node=4)
    base = run_alignment(workload, 1, "bsp-micro", config=EngineConfig(),
                         machine=machine, kernel="real")
    auto = run_alignment(workload, 1, "bsp-micro",
                         config=EngineConfig(backend="auto", workers=2),
                         machine=machine, kernel="real")
    assert base.wall_time == auto.wall_time
    assert len(base.alignments) == len(auto.alignments)
    for a, b in zip(base.alignments, auto.alignments):
        assert _fields(a) == _fields(b)


@pytest.mark.parametrize("config", [
    EngineConfig(backend="process", workers=2),
    EngineConfig(backend="auto"),
    EngineConfig(workers=2),
])
def test_run_alignment_rejects_pool_knobs_on_model_kernel(workload, config):
    """A micro run with kernel="model" never calls the kernel, so pool
    knobs there are a ConfigurationError, as on the macro engines."""
    machine = cori_knl(1, app_cores_per_node=4)
    with pytest.raises(ConfigurationError, match="kernel='real'"):
        run_alignment(workload, 1, "bsp-micro", config=config,
                      machine=machine, kernel="model")


def test_engine_results_identical_across_backends(workload):
    """Whole-run lockdown at the engine level (field-by-field)."""
    baseline = active_shm_segments()
    machine = cori_knl(1, app_cores_per_node=4)
    base = run_alignment(workload, 1, "async-micro", config=EngineConfig(),
                         machine=machine, kernel="real")
    par = run_alignment(
        workload, 1, "async-micro",
        config=EngineConfig(backend="process", workers=3),
        machine=machine, kernel="real")
    assert base.wall_time == par.wall_time
    assert np.array_equal(base.memory_high_water, par.memory_high_water)
    assert len(base.alignments) == len(par.alignments)
    for a, b in zip(base.alignments, par.alignments):
        assert _fields(a) == _fields(b)
    assert active_shm_segments() == baseline


# -- sharded workloads (docs/PARALLEL.md) ------------------------------------


def test_sharded_workload_publishes_one_store(workload, serial):
    """A sharded concrete workload runs through the pool like any other:
    its ``reads``/``tasks`` delegation feeds the one pool-lifetime store,
    published once however many batches follow."""
    from repro.pipeline.sharded import ShardedWorkload

    baseline = active_shm_segments()
    sw = ShardedWorkload.from_workload(workload, shard_tasks=97,
                                       max_resident_shards=2)
    rng = np.random.default_rng(4)
    idx = rng.choice(workload.n_tasks, size=N_TASK_CAP, replace=False)
    want = serial.align_tasks(idx)
    try:
        with ProcessExecutor(sw, SeedExtendAligner(), workers=3) as ex:
            store = {name for name, _, _ in
                     ex._store.spec["arrays"].values()}
            assert active_shm_segments() - baseline == store
            for _ in range(2):
                got = ex.align_tasks(idx)
                assert len(got) == len(want)
                for a, b in zip(got, want):
                    assert _fields(a) == _fields(b)
                # still the same store, plus the output array: no batch
                # published anything of its own
                assert active_shm_segments() - baseline == \
                    store | {ex._out.name}
    finally:
        sw.close()
    assert active_shm_segments() == baseline
