"""Tests for the macro BSP/Async engines against a small workload."""

import numpy as np
import pytest

from repro.engines.async_ import AsyncEngine
from repro.engines.base import EngineConfig, ExecutionMode
from repro.engines.bsp import BSPEngine
from repro.errors import ConfigurationError
from repro.genome.datasets import DatasetSpec
from repro.machine.config import cori_knl
from repro.pipeline.workload import StatisticalWorkload


def small_spec(mean_len=2000.0):
    return DatasetSpec(
        name="engine_unit",
        species="synthetic",
        n_reads=4000,
        n_tasks=60_000,
        coverage=20.0,
        error_rate=0.1,
        mean_read_length=mean_len,
        length_sigma=0.3,
    )


@pytest.fixture(scope="module")
def wl():
    return StatisticalWorkload(small_spec(), seed=7)


@pytest.fixture(scope="module")
def machine():
    return cori_knl(2)


def test_bsp_run_basic(wl, machine):
    res = BSPEngine().run(wl.assignment(machine.total_ranks), machine)
    assert res.wall_time > 0
    assert res.exchange_rounds >= 1
    res.breakdown.validate()
    f = res.breakdown.fractions()
    assert abs(sum(f.values()) - 1.0) < 1e-6


def test_async_run_basic(wl, machine):
    res = AsyncEngine().run(wl.assignment(machine.total_ranks), machine)
    assert res.wall_time > 0
    assert res.exchange_rounds == 0
    res.breakdown.validate()


def test_rank_count_mismatch_rejected(wl, machine):
    bad = wl.assignment(8)
    with pytest.raises(ConfigurationError):
        BSPEngine().run(bad, machine)
    with pytest.raises(ConfigurationError):
        AsyncEngine().run(bad, machine)


def test_comm_only_mode_removes_alignment(wl, machine):
    a = wl.assignment(machine.total_ranks)
    cfg = EngineConfig().comm_only()
    assert cfg.mode is ExecutionMode.COMM_ONLY
    for engine in (BSPEngine(config=cfg), AsyncEngine(config=cfg)):
        res = engine.run(a, machine)
        assert res.breakdown.summary("compute_align").sum == 0.0
        assert res.wall_time > 0


def test_comm_only_faster_than_full(wl, machine):
    a = wl.assignment(machine.total_ranks)
    full = BSPEngine().run(a, machine)
    comm = BSPEngine(config=EngineConfig().comm_only()).run(a, machine)
    assert comm.wall_time < full.wall_time


def test_deterministic_runs(wl, machine):
    a = wl.assignment(machine.total_ranks)
    r1 = BSPEngine().run(a, machine)
    r2 = BSPEngine().run(a, machine)
    assert r1.wall_time == r2.wall_time
    assert np.array_equal(r1.breakdown.comm, r2.breakdown.comm)


def test_async_hides_communication(wl, machine):
    """Visible async comm must not exceed its raw pull latency."""
    a = wl.assignment(machine.total_ranks)
    res = AsyncEngine().run(a, machine)
    raw = res.details["raw_comm"]
    assert np.all(res.breakdown.comm <= raw + 1e-12)


def test_memory_accounting(wl, machine):
    """BSP footprint carries the exchange buffers; async only a window."""
    from repro.engines import common

    a = wl.assignment(machine.total_ranks)
    bsp = BSPEngine().run(a, machine)
    asy = AsyncEngine().run(a, machine)
    # BSP holds at least its per-round receive volume beyond fixed state
    assert bsp.max_memory_per_rank >= (
        common.BSP_BASE_MEMORY
        + float(a.recv_bytes.max()) / bsp.exchange_rounds
    )
    # async in-flight data is bounded by the window, independent of volume
    avg_read = a.lookup_bytes.sum() / a.lookups.sum()
    bound = (
        common.ASYNC_BASE_MEMORY
        + float(a.partition_bytes.max())
        + float(a.tasks_per_rank.max()) * common.ASYNC_TASK_RECORD_BYTES
        + AsyncEngine().config.async_window * avg_read
    )
    assert asy.max_memory_per_rank <= bound * (1 + 1e-9)


def test_bsp_multi_round_when_memory_tight(wl):
    """Shrinking the exchange budget must force more rounds."""
    machine = cori_knl(2)
    a = wl.assignment(machine.total_ranks)
    one = BSPEngine(config=EngineConfig(exchange_memory_fraction=1.0))
    tight = BSPEngine(config=EngineConfig(exchange_memory_fraction=0.0001))
    assert tight.num_rounds(machine, a) > one.num_rounds(machine, a)


def test_bsp_round_sizing_respects_budget(wl, machine):
    a = wl.assignment(machine.total_ranks)
    engine = BSPEngine()
    rounds = engine.num_rounds(machine, a)
    budget = engine.exchange_budget(machine, a)
    assert a.recv_bytes.max() / rounds <= budget * (1 + 1e-9)


def test_engine_config_validation():
    with pytest.raises(ConfigurationError):
        EngineConfig(exchange_memory_fraction=0.0)
    with pytest.raises(ConfigurationError):
        EngineConfig(async_window=0)


def test_noise_increases_sync_without_isolation(wl):
    """68-core (non-isolated) runs absorb OS noise as synchronization."""
    iso = cori_knl(1, app_cores_per_node=64)
    noisy = cori_knl(1, app_cores_per_node=68)
    res_iso = BSPEngine().run(wl.assignment(64), iso)
    res_noisy = BSPEngine().run(wl.assignment(68), noisy)
    # per-rank compute drops with more cores...
    assert (res_noisy.breakdown.summary("compute_align").avg
            < res_iso.breakdown.summary("compute_align").avg)
    # ...but sync fraction grows
    assert (res_noisy.breakdown.fractions()["sync"]
            > res_iso.breakdown.fractions()["sync"])


def test_single_rank_machine(wl):
    machine = cori_knl(1, app_cores_per_node=1)
    res = BSPEngine().run(wl.assignment(1), machine)
    # no remote reads, no comm
    assert res.breakdown.summary("comm").sum == 0.0
    res2 = AsyncEngine().run(wl.assignment(1), machine)
    assert res2.breakdown.summary("comm").sum == 0.0


def test_sync_time_matches_between_engines(wl, machine):
    """Paper: 'the synchronization time between the two versions is
    practically the same across scales' (dominated by compute imbalance)."""
    a = wl.assignment(machine.total_ranks)
    bsp = BSPEngine().run(a, machine)
    asy = AsyncEngine().run(a, machine)
    s_b = bsp.breakdown.summary("sync").avg
    s_a = asy.breakdown.summary("sync").avg
    assert s_a == pytest.approx(s_b, rel=0.35)
