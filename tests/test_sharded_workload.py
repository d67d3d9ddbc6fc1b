"""Sharded out-of-core workload tests.

The contract under test (docs/ARCHITECTURE.md "Sharded workloads"):
``shard_tasks`` and ``max_resident_shards`` are *memory* knobs — for any
values, a :class:`~repro.pipeline.sharded.ShardedWorkload` must produce
field-identical assignments, identical micro plans, and bit-identical run
signatures to the materialized path on every engine, while never holding
more than the resident-shard budget in memory (enforced by the
:class:`~repro.machine.memory.NodeMemory` ledger, observable through
``store.stats()``).

Also covers the two satellite fixes that ride along: the
:class:`StatisticalWorkload` stage-1 partition memo, and the workload
cache keying on the full calibration tuple.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import errors
from repro.align import cost as cost_mod
from repro.core.api import (
    clear_workload_cache,
    get_workload,
    run_alignment,
)
from repro.errors import ConfigurationError, PartitionError
from repro.genome.datasets import DATASETS, DatasetSpec
from repro.pipeline.sharded import ShardedWorkload, ShardStore, _KeyBuckets
from repro.pipeline.workload import StatisticalWorkload

ENGINES = ("bsp", "async", "hybrid", "bsp-micro", "async-micro")

ASSIGNMENT_FIELDS = (
    "reads_per_rank", "partition_bytes", "tasks_per_rank",
    "compute_seconds", "local_pair_seconds", "lookups", "lookup_bytes",
    "incoming_lookups", "incoming_bytes",
)

#: small statistical preset for the synthetic sharding tests — real Table-1
#: shape, but cheap enough to aggregate several times per test run
TINY_STAT = DatasetSpec(
    name="tiny_stat_test", species="test", n_reads=4_000, n_tasks=150_000,
    coverage=10.0, error_rate=0.1, mean_read_length=3_000,
    length_sigma=0.5, genome_size=1_000_000, sequence_level=False,
)


@pytest.fixture(scope="module")
def concrete():
    return get_workload("micro", seed=11)


def shard_sizes(n_tasks: int) -> tuple[int, ...]:
    return (1, 7, n_tasks, n_tasks + 1)


def assert_assignments_equal(a, b, context: str) -> None:
    for field in ASSIGNMENT_FIELDS:
        x, y = getattr(a, field), getattr(b, field)
        assert np.array_equal(x, y), f"{context}: {field} diverged"
    assert a.total_reads == b.total_reads
    assert a.total_tasks == b.total_tasks


# -- bit-identity vs the materialized path -----------------------------------


@pytest.mark.parametrize("num_ranks", [1, 3, 8])
def test_assignment_field_identity_all_shard_sizes(concrete, num_ranks):
    base = concrete.assignment(num_ranks)
    for shard in shard_sizes(concrete.n_tasks):
        sw = ShardedWorkload.from_workload(concrete, shard_tasks=shard,
                                           max_resident_shards=2)
        try:
            assert_assignments_equal(
                sw.assignment(num_ranks), base,
                f"shard={shard} P={num_ranks}",
            )
        finally:
            sw.close()


def test_micro_plan_identity_all_shard_sizes(concrete):
    base = concrete.micro_plan(8)
    for shard in shard_sizes(concrete.n_tasks):
        sw = ShardedWorkload.from_workload(concrete, shard_tasks=shard,
                                           max_resident_shards=2)
        try:
            plan = sw.micro_plan(8)
            for field in ("boundaries", "assigned", "owner_a", "owner_b",
                          "remote_read"):
                assert np.array_equal(getattr(plan, field),
                                      getattr(base, field)), \
                    f"shard={shard}: {field} diverged"
        finally:
            sw.close()


@pytest.mark.parametrize("engine", ENGINES)
def test_run_signature_identity_all_engines(concrete, engine):
    """Satellite: every shard size hits the materialized digest, 5 engines."""
    base = run_alignment(concrete, 2, engine, cores_per_node=4).signature()
    for shard in shard_sizes(concrete.n_tasks):
        sw = ShardedWorkload.from_workload(concrete, shard_tasks=shard,
                                           max_resident_shards=2)
        try:
            sig = run_alignment(sw, 2, engine, cores_per_node=4).signature()
            assert sig == base, (
                f"{engine} shard={shard}: sharded run signature diverged "
                f"from the materialized path"
            )
        finally:
            sw.close()


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    shard=st.integers(min_value=1, max_value=2000),
    num_ranks=st.sampled_from([1, 2, 5, 8]),
)
def test_assignment_identity_property(shard, num_ranks):
    """Any (shard size, rank count) reproduces the materialized fields."""
    concrete = get_workload("micro", seed=11)
    sw = ShardedWorkload.from_workload(concrete, shard_tasks=shard,
                                       max_resident_shards=3)
    try:
        assert_assignments_equal(
            sw.assignment(num_ranks), concrete.assignment(num_ranks),
            f"shard={shard} P={num_ranks}",
        )
    finally:
        sw.close()


# -- synthetic (paper-scale) backing -----------------------------------------


def test_synthetic_shard_size_invariance():
    """The generator blocks make shard size invisible in the aggregates."""
    a = None
    for shard in (1 << 15, 12_345, TINY_STAT.n_tasks + 1):
        sw = ShardedWorkload.synthetic(TINY_STAT, seed=5, shard_tasks=shard,
                                       max_resident_shards=2)
        try:
            cur = sw.assignment(16)
            if a is None:
                a = cur
            else:
                assert_assignments_equal(cur, a, f"shard={shard}")
        finally:
            sw.close()
    assert a.tasks_per_rank.sum() == TINY_STAT.n_tasks


def test_synthetic_matches_statistical_stage1():
    """Stage-1 partition agrees with StatisticalWorkload for same spec/seed."""
    sw = ShardedWorkload.synthetic(TINY_STAT, seed=5, shard_tasks=1 << 15)
    st_wl = StatisticalWorkload(TINY_STAT, seed=5)
    try:
        assert np.array_equal(sw.read_lengths, st_wl.read_lengths)
        a, b = sw.assignment(8), st_wl.assignment(8)
        assert np.array_equal(a.reads_per_rank, b.reads_per_rank)
        assert np.array_equal(a.partition_bytes, b.partition_bytes)
    finally:
        sw.close()


def test_synthetic_is_macro_only():
    sw = ShardedWorkload.synthetic(TINY_STAT, seed=0, shard_tasks=1 << 15)
    try:
        assert not sw.is_concrete
        with pytest.raises(ConfigurationError, match="synthetic"):
            sw.micro_plan(4)
        with pytest.raises(ConfigurationError, match="synthetic"):
            _ = sw.reads
        with pytest.raises(ConfigurationError, match="message-level"):
            run_alignment(sw, 2, "bsp-micro", cores_per_node=4)
    finally:
        sw.close()


def test_synthetic_rejects_sequence_level_specs():
    with pytest.raises(ConfigurationError, match="sequence-level"):
        ShardedWorkload.synthetic(DATASETS["micro"])


# -- resident-shard budget / spill -------------------------------------------


def test_store_bounds_resident_memory(concrete):
    sw = ShardedWorkload.from_workload(concrete, shard_tasks=100,
                                       max_resident_shards=2)
    try:
        sw.assignment(8)
        stats = sw.store.stats()
        assert stats["n_shards"] == -(-concrete.n_tasks // 100)
        assert stats["resident"] <= 2
        assert stats["peak_resident_bytes"] <= stats["budget_bytes"]
        assert stats["evictions"] > 0 and stats["spilled"] > 0
        # a second full pass reloads from spill instead of rebuilding
        builds = stats["builds"]
        sw.micro_plan(8)
        stats = sw.store.stats()
        assert stats["builds"] == builds
        assert stats["reloads"] > 0
    finally:
        sw.close()


def test_store_single_shard_never_spills(concrete):
    sw = ShardedWorkload.from_workload(
        concrete, shard_tasks=concrete.n_tasks, max_resident_shards=1)
    try:
        sw.assignment(4)
        stats = sw.store.stats()
        assert stats["n_shards"] == 1
        assert stats["evictions"] == 0 and stats["spilled"] == 0
    finally:
        sw.close()


@pytest.mark.parametrize("num_ranks,n_buckets", [(5, None), (200, 64), (7, 3)])
def test_key_buckets_drain_global_sorted_distinct_keys(tmp_path, num_ranks,
                                                       n_buckets):
    n_reads = 1_000
    rng = np.random.default_rng(4)
    shards = [rng.integers(0, num_ranks * n_reads, 3_000) for _ in range(4)]
    shards[2] = np.concatenate([shards[2], shards[0][:500]])  # cross-shard dups
    shards.insert(1, np.array([], dtype=np.int64))
    buckets = _KeyBuckets(num_ranks, n_reads, str(tmp_path), n_buckets)
    for keys in shards:
        before = keys.copy()
        buckets.add(keys)
        assert np.array_equal(keys, before), "add() must not reorder its input"
    assert any(tmp_path.iterdir())
    runs = list(buckets.drain())
    assert 1 < len(runs) <= buckets.n_buckets
    for run in runs:
        assert np.all(np.diff(run) > 0)
    for prev, nxt in zip(runs, runs[1:]):
        assert prev[-1] < nxt[0]
    assert np.array_equal(np.concatenate(runs), np.unique(np.concatenate(shards)))
    assert list(tmp_path.iterdir()) == [], "bucket files must be removed"


def test_sharded_corrupt_read_column_fails_typed(concrete):
    """An out-of-range read id raises instead of wrapping to another rank."""
    def build(_sid, lo, hi):
        read_a = np.ascontiguousarray(concrete.tasks.read_a[lo:hi]).copy()
        if lo == 0:
            read_a[0] = -1
        return {"read_a": read_a,
                "read_b": np.ascontiguousarray(concrete.tasks.read_b[lo:hi]),
                "cost": np.ascontiguousarray(concrete.task_costs[lo:hi])}

    sw = ShardedWorkload(concrete.name, concrete.read_lengths,
                         concrete.n_tasks, build, shard_tasks=97,
                         max_resident_shards=2, backing=concrete)
    try:
        with pytest.raises(PartitionError, match="out of range"):
            sw.assignment(4)
        with pytest.raises(PartitionError, match="out of range"):
            sw.micro_plan(4)
    finally:
        sw.close()


def test_failed_pass_leaves_no_stale_bucket_keys(concrete):
    """A pass that raises mid-stream must not leak its dedup keys into the
    next one: a retry at another rank count reproduces the materialized
    exchange exactly, and only shard spills are left in the store's dir."""
    sw = ShardedWorkload.from_workload(concrete, shard_tasks=97,
                                       max_resident_shards=2)
    build, failed = sw.store._build, []

    def flaky(sid, lo, hi):
        if sid == 5 and not failed:
            failed.append(sid)
            raise OSError(f"shard {sid} unavailable")
        return build(sid, lo, hi)

    sw.store._build = flaky
    try:
        with pytest.raises(OSError, match="shard 5"):
            sw.assignment(8)
        leftovers = [f for f in os.listdir(sw.store.stats()["spill_dir"])
                     if not f.startswith("shard")]
        for num_ranks in (16, 4, 8):
            assert_assignments_equal(
                sw.assignment(num_ranks), concrete.assignment(num_ranks),
                f"retry P={num_ranks}",
            )
        assert leftovers == []
    finally:
        sw.close()


def test_truncated_spill_fails_typed(concrete):
    """A spill cut short (crash, full disk) is reported as a typed error
    naming the shard and file, not a raw zipfile error; the bad copy is
    dropped, so the next pass rebuilds the shard from its source."""
    sw = ShardedWorkload.from_workload(concrete, shard_tasks=97,
                                       max_resident_shards=2)
    try:
        sw.assignment(8)
        path = os.path.join(sw.store.stats()["spill_dir"], "shard0.npz")
        size = os.path.getsize(path)
        with open(path, "r+b") as f:
            f.truncate(size // 2)
        with pytest.raises(errors.ShardSpillError, match="shard 0") as info:
            sw.assignment(16)
        assert path in str(info.value)
        assert isinstance(info.value, errors.ReproError)
        assert_assignments_equal(sw.assignment(16), concrete.assignment(16),
                                 "after a corrupt spill")
    finally:
        sw.close()


def test_spill_is_written_whole_or_not_at_all(concrete, monkeypatch):
    """A spill write that fails midway leaves no file a reload could trust."""
    sw = ShardedWorkload.from_workload(concrete, shard_tasks=97,
                                       max_resident_shards=2)

    def broken_savez(file, **columns):
        if hasattr(file, "write"):
            file.write(b"PK\x03\x04 partial")
        else:
            with open(file, "wb") as f:
                f.write(b"PK\x03\x04 partial")
        raise OSError("no space left on device")

    try:
        monkeypatch.setattr(np, "savez", broken_savez)
        with pytest.raises(OSError, match="no space"):
            sw.assignment(8)
        monkeypatch.undo()
        assert os.listdir(sw.store.stats()["spill_dir"]) == []
        assert_assignments_equal(sw.assignment(8), concrete.assignment(8),
                                 "after a failed spill")
    finally:
        sw.close()


def test_concurrent_renders_share_one_store():
    """Two threads render different rank counts through one 2-shard store:
    each equals a serial render on a fresh workload, the ledger stays in
    budget and both passes remove their key buckets."""
    spec, shard = DATASETS["ecoli30x"], {"shard_tasks": 131_072,
                                          "max_resident_shards": 2}
    sw = ShardedWorkload.synthetic(spec, seed=3, **shard)
    got, errors = {}, []

    def render(num_ranks):
        try:
            got[num_ranks] = sw.assignment(num_ranks)
        except Exception as exc:  # pragma: no cover - the failure mode
            errors.append(exc)

    try:
        threads = [threading.Thread(target=render, args=(p,))
                   for p in (64, 512)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
            assert not t.is_alive()
        assert errors == []
        assert sw.store.ledger.used <= sw.store.budget_bytes
        assert all(f.startswith("shard") for f in
                   os.listdir(sw.store.stats()["spill_dir"]))
    finally:
        sw.close()
    for num_ranks, out in got.items():
        fresh = ShardedWorkload.synthetic(spec, seed=3, **shard)
        try:
            assert_assignments_equal(out, fresh.assignment(num_ranks),
                                     f"P={num_ranks}")
        finally:
            fresh.close()
    assert sorted(got) == [64, 512]


def test_store_validates_knobs():
    with pytest.raises(ConfigurationError):
        ShardStore(10, 0, lambda s, lo, hi: {}, 8)
    with pytest.raises(ConfigurationError):
        ShardStore(10, 4, lambda s, lo, hi: {}, 8, max_resident=0)


def test_close_is_idempotent(concrete):
    sw = ShardedWorkload.from_workload(concrete, shard_tasks=64)
    sw.assignment(4)
    sw.close()
    sw.close()


# -- caches ------------------------------------------------------------------


def test_sharded_workload_caches_per_rank_count(concrete):
    sw = ShardedWorkload.from_workload(concrete, shard_tasks=256)
    try:
        a1 = sw.assignment(8)
        a2 = sw.assignment(8)
        assert a1 is a2
        assert sw.assignment_cache.stats()["hits"] >= 1
        p1 = sw.micro_plan(8)
        assert sw.micro_plan(8) is p1
    finally:
        sw.close()


def test_get_workload_shard_knobs_key_the_cache():
    clear_workload_cache()
    w0 = get_workload("micro", seed=11)
    s1 = get_workload("micro", seed=11, shard_tasks=128)
    s2 = get_workload("micro", seed=11, shard_tasks=128)
    s3 = get_workload("micro", seed=11, shard_tasks=256)
    assert s1 is s2
    assert s1 is not s3 and s1 is not w0
    assert isinstance(s1, ShardedWorkload) and s1.is_concrete
    # the sharded wrapper shares the cached concrete backing
    assert s1._backing is w0


def test_workload_cache_includes_calibration_target():
    """Satellite fix: retargeted calibration must not serve a stale entry.

    Before the fix the cache keyed on ``(name, seed)`` alone, so changing
    a dataset's cost anchor (or registering a variant spec under the same
    name) silently returned the workload calibrated against the *old*
    target.
    """
    clear_workload_cache()
    name = "ecoli30x"
    w1 = get_workload(name, seed=3)
    old = cost_mod.MEAN_TASK_COST[name]
    try:
        cost_mod.MEAN_TASK_COST[name] = old * 10
        w2 = get_workload(name, seed=3)
    finally:
        cost_mod.MEAN_TASK_COST[name] = old
    assert w2 is not w1, "calibration change must miss the cache"
    assert w2.cost_dist.scale == pytest.approx(10 * w1.cost_dist.scale,
                                               rel=1e-9)
    # and the original target hits its original entry again
    assert get_workload(name, seed=3) is w1


def test_statistical_partition_memoized():
    """Satellite fix: stage-1 shares computed once per rank count."""
    wl = StatisticalWorkload(TINY_STAT, seed=1)
    first = wl._partition(8)
    again = wl._partition(8)
    assert first is again
    stats = wl.partition_cache.stats()
    assert stats["hits"] >= 1 and stats["misses"] == 1
    # memoized outputs feed assignment unchanged
    a = wl.assignment(8)
    assert np.array_equal(a.reads_per_rank, first[1])
    assert np.array_equal(a.partition_bytes, first[2])
    # distinct rank counts are distinct entries, not collisions
    b4 = wl._partition(4)
    assert b4[0].size == 5 and first[0].size == 9
