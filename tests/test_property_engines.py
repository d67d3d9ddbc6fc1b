"""Property-based tests on engine/workload invariants (hypothesis)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.engines.async_ import AsyncEngine
from repro.engines.base import EngineConfig
from repro.engines.bsp import BSPEngine
from repro.engines.common import bsp_num_rounds, exchange_budget
from repro.genome.datasets import DatasetSpec
from repro.machine.config import cori_knl
from repro.pipeline.workload import StatisticalWorkload

SLOW = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def make_wl(n_reads, n_tasks, mean_len, seed):
    spec = DatasetSpec(
        name="prop", species="synthetic",
        n_reads=n_reads, n_tasks=n_tasks,
        coverage=15.0, error_rate=0.1,
        mean_read_length=float(mean_len), length_sigma=0.3,
    )
    return StatisticalWorkload(spec, seed=seed)


@SLOW
@given(
    n_reads=st.integers(min_value=64, max_value=2000),
    n_tasks=st.integers(min_value=200, max_value=20_000),
    mean_len=st.integers(min_value=300, max_value=5000),
    ranks=st.sampled_from([1, 3, 16, 64]),
    seed=st.integers(min_value=0, max_value=10),
)
def test_assignment_invariants(n_reads, n_tasks, mean_len, ranks, seed):
    wl = make_wl(n_reads, n_tasks, mean_len, seed)
    a = wl.assignment(ranks)
    # conservation
    assert int(a.tasks_per_rank.sum()) == n_tasks
    assert int(a.reads_per_rank.sum()) == n_reads
    assert a.partition_bytes.sum() == pytest.approx(wl.read_lengths.sum())
    # requester/server mirror
    assert a.lookups.sum() == pytest.approx(a.incoming_lookups.sum())
    assert a.lookup_bytes.sum() == pytest.approx(a.incoming_bytes.sum())
    # local-pair compute is a subset of total compute
    assert np.all(a.local_pair_seconds <= a.compute_seconds + 1e-12)
    # everything nonnegative
    for arr in (a.compute_seconds, a.lookups, a.lookup_bytes,
                a.incoming_lookups, a.incoming_bytes, a.partition_bytes):
        assert np.all(arr >= 0)


@SLOW
@given(
    n_tasks=st.integers(min_value=500, max_value=20_000),
    nodes=st.sampled_from([1, 2, 4]),
    seed=st.integers(min_value=0, max_value=5),
)
def test_breakdowns_always_tile_wall_time(n_tasks, nodes, seed):
    wl = make_wl(500, n_tasks, 1000, seed)
    machine = cori_knl(nodes, app_cores_per_node=16)
    a = wl.assignment(machine.total_ranks)
    for engine in (BSPEngine(), AsyncEngine()):
        res = engine.run(a, machine)
        res.breakdown.validate()  # raises on violation
        assert res.wall_time > 0
        assert np.all(res.memory_high_water > 0)


@SLOW
@given(seed=st.integers(min_value=0, max_value=20))
def test_async_never_slower_than_serial_sum(seed):
    """Overlap can only help: wall <= compute + comm + overhead + barriers."""
    wl = make_wl(400, 5000, 1500, seed)
    machine = cori_knl(2, app_cores_per_node=8)
    a = wl.assignment(machine.total_ranks)
    res = AsyncEngine(config=EngineConfig(noise_fraction=0.0)).run(a, machine)
    raw = res.details["raw_comm"]
    serial_bound = float(
        (a.compute_seconds + raw).max()
        + res.breakdown.summary("compute_overhead").max
        + 1.0  # barriers and ramp slack
    )
    assert res.wall_time <= serial_bound


@SLOW
@given(
    frac=st.floats(min_value=0.01, max_value=1.0),
    seed=st.integers(min_value=0, max_value=5),
)
def test_bsp_rounds_monotone_in_budget(frac, seed):
    wl = make_wl(800, 8000, 4000, seed)
    machine = cori_knl(2, app_cores_per_node=8)
    a = wl.assignment(machine.total_ranks)
    tight = EngineConfig(exchange_memory_fraction=frac)
    loose = EngineConfig(exchange_memory_fraction=1.0)
    assert (bsp_num_rounds(tight, machine, a)
            >= bsp_num_rounds(loose, machine, a))
    # and the rounds actually respect the budget
    rounds = bsp_num_rounds(tight, machine, a)
    assert (a.recv_bytes.max() / rounds
            <= exchange_budget(tight, machine, a) * (1 + 1e-9))


@SLOW
@given(nodes=st.sampled_from([2, 4, 8]), seed=st.integers(min_value=0, max_value=5))
def test_comm_only_is_a_lower_bound(nodes, seed):
    wl = make_wl(600, 10_000, 2000, seed)
    machine = cori_knl(nodes, app_cores_per_node=8)
    a = wl.assignment(machine.total_ranks)
    for engine_cls in (BSPEngine, AsyncEngine):
        full = engine_cls(config=EngineConfig(noise_fraction=0.0)).run(a, machine)
        comm = engine_cls(
            config=EngineConfig(noise_fraction=0.0).comm_only()
        ).run(a, machine)
        assert comm.wall_time <= full.wall_time + 1e-9
