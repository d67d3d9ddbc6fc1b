"""Tests for the message-level (micro) engines on a concrete workload."""

import numpy as np
import pytest

from repro.core.api import get_workload
from repro.engines.base import EngineConfig
from repro.engines.micro import MicroAsyncEngine, MicroBSPEngine
from repro.errors import ConfigurationError
from repro.machine.config import cori_knl


@pytest.fixture(scope="module")
def wl():
    return get_workload("micro", seed=11)


@pytest.fixture(scope="module")
def machine():
    return cori_knl(2, app_cores_per_node=8)  # 16 ranks


def test_micro_bsp_runs(wl, machine):
    res = MicroBSPEngine().run(wl, machine)
    assert res.wall_time > 0
    res.breakdown.validate(rtol=0.05)
    assert res.breakdown.summary("compute_align").sum == pytest.approx(
        wl.task_costs.sum(), rel=1e-9
    )


def test_micro_async_runs(wl, machine):
    res = MicroAsyncEngine().run(wl, machine)
    assert res.wall_time > 0
    assert res.breakdown.summary("compute_align").sum == pytest.approx(
        wl.task_costs.sum(), rel=1e-9
    )
    # every distinct (rank, remote read) pair pulled exactly once
    a = wl.assignment(machine.total_ranks)
    assert res.details["rpc_calls"] == int(a.lookups.sum())


def test_micro_engines_reject_huge_rank_counts(wl):
    with pytest.raises(ConfigurationError):
        MicroBSPEngine().run(wl, cori_knl(128))


def test_micro_real_kernel_produces_alignments():
    wl = get_workload("micro", seed=11)
    machine = cori_knl(1, app_cores_per_node=4)
    res = MicroAsyncEngine().run(wl, machine, kernel="real")
    assert res.alignments is not None
    assert len(res.alignments) == wl.n_tasks
    scores = np.array([a.score for a in res.alignments])
    assert np.all(scores >= 0)
    # true 30x-coverage overlaps: most alignments should extend well past
    # the bare 13-mer seed
    assert np.mean(scores > 13) > 0.5


def test_micro_bsp_and_async_compute_identical_work(wl, machine):
    bsp = MicroBSPEngine().run(wl, machine)
    asy = MicroAsyncEngine().run(wl, machine)
    assert bsp.breakdown.summary("compute_align").sum == pytest.approx(
        asy.breakdown.summary("compute_align").sum
    )


def test_micro_comm_only_mode(wl, machine):
    cfg = EngineConfig().comm_only()
    bsp = MicroBSPEngine(config=cfg).run(wl, machine)
    asy = MicroAsyncEngine(config=cfg).run(wl, machine)
    assert bsp.breakdown.summary("compute_align").sum == 0
    assert asy.breakdown.summary("compute_align").sum == 0
    assert bsp.wall_time > 0 and asy.wall_time > 0


def test_micro_async_window_respected(wl, machine):
    # a window of 1 serializes pulls: strictly more visible latency than a
    # wide window
    narrow = MicroAsyncEngine(config=EngineConfig(async_window=1)).run(wl, machine)
    wide = MicroAsyncEngine(config=EngineConfig(async_window=256)).run(wl, machine)
    assert narrow.wall_time >= wide.wall_time


def test_micro_deterministic(wl, machine):
    r1 = MicroAsyncEngine().run(wl, machine)
    r2 = MicroAsyncEngine().run(wl, machine)
    assert r1.wall_time == r2.wall_time


@pytest.mark.parametrize("churn", [False, True], ids=["plain", "churn"])
@pytest.mark.parametrize("engine", ["bsp-micro", "async-micro"])
def test_cells_booked_to_the_rank_that_executed_each_task(engine, churn, wl,
                                                          machine):
    """``cells`` per rank == kernel cells of the tasks that rank executed.

    The executing rank is read off the trace (one ``task<i>`` compute
    phase per task, on the executor's lane — under churn that is not
    always ``plan.assigned``), the per-task cells off a direct kernel call.
    """
    from repro.align.seedextend import SeedExtendAligner
    from repro.core.api import run_alignment
    from repro.faults import parse_fault_spec
    from repro.obs import MetricsRegistry, Tracer
    from repro.runtime.executor import SerialExecutor

    cells_of = np.array([
        al.cells for al in
        SerialExecutor(wl, SeedExtendAligner()).align_tasks(range(wl.n_tasks))
    ])
    tracer = Tracer()
    metrics = MetricsRegistry(machine.total_ranks)
    # the churn goldens' plan; bsp needs several rounds for it to land
    res = run_alignment(
        wl, machine.nodes, engine, machine=machine, kernel="real",
        config=(EngineConfig(exchange_memory_fraction=1e-5) if churn
                else EngineConfig()),
        tracer=tracer, metrics=metrics, fault_seed=7,
        fault_plan=(parse_fault_spec("evict=r1@0.005:grace=0.01,join=r3@0.02")
                    if churn else None))

    want = np.zeros(machine.total_ranks)
    executed_by = np.full(wl.n_tasks, -1)
    for e in tracer.phase_events():
        if e.category == "compute_align":
            t = int(e.name.removeprefix("task"))
            assert executed_by[t] == -1, f"task {t} executed twice"
            executed_by[t] = e.rank
            want[e.rank] += cells_of[t]
    assert (executed_by >= 0).all()
    assigned = wl.micro_plan(machine.total_ranks).assigned
    assert (executed_by != assigned).any() == churn
    assert want.sum() > 0
    assert np.array_equal(metrics.get("cells"), want)
    assert metrics.get("tasks").sum() == len(res.alignments) == wl.n_tasks


@pytest.mark.parametrize("engine", [MicroBSPEngine, MicroAsyncEngine])
def test_untraced_run_names_no_task_phase(engine, wl, machine, monkeypatch):
    """Without a tracer nothing reads a phase's name, so none is built."""
    from repro.runtime.context import SpmdContext

    names = []
    real = SpmdContext.charge

    def charge(self, category, rank, seconds, name=""):
        if category == "compute_align":
            names.append(name)
        return real(self, category, rank, seconds, name)

    monkeypatch.setattr(SpmdContext, "charge", charge)
    engine().run(wl, machine)
    assert len(names) == wl.n_tasks
    assert set(names) == {""}
