"""Sharded out-of-core workload tests.

The contract under test (docs/ARCHITECTURE.md "Sharded workloads"): for
any nonzero ``shard_tasks`` and any ``max_resident_shards``, a
:class:`~repro.pipeline.sharded.ShardedWorkload` renders field-identical
assignments to the same task rows folded as one resident chunk, while
never holding more than the resident-shard budget in memory (enforced by
the :class:`~repro.machine.memory.NodeMemory` ledger, observable through
``store.stats()``).  Shard knobs on a sequence-level preset give back the
materialized workload itself.

Also covers the two satellite fixes that ride along: the
:class:`StatisticalWorkload` stage-1 partition memo, and the workload
cache keying on the full calibration tuple.
"""

from __future__ import annotations

import importlib.util
import os
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import errors
from repro.align import cost as cost_mod
from repro.core.api import (
    clear_workload_cache,
    get_workload,
    run_alignment,
)
from repro.errors import ConfigurationError, PartitionError
from repro.genome.datasets import DATASETS, DatasetSpec
from repro.pipeline.partition import partition_reads_by_size
from repro.pipeline.sharded import (
    BUCKET_SPAN_LIMIT,
    GEN_BLOCK,
    MAX_KEY_BUCKETS,
    ShardedWorkload,
    ShardStore,
    _KeyBuckets,
)
from repro.pipeline.workload import StatisticalWorkload, TaskRowWorkload

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

#: a shard size that streams TINY_STAT as 15 shards, 13 of them spilled
SMALL_SHARD = 10_000

# the wide-id preset and its pinned boundary rank counts live with the
# assignment goldens
_spec = importlib.util.spec_from_file_location(
    "regen_goldens",
    Path(__file__).resolve().parent.parent / "tools" / "regen_goldens.py")
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)


def synthetic(shard_tasks: int, seed: int = 5,
              max_resident_shards: int = 2) -> ShardedWorkload:
    return ShardedWorkload.synthetic(TINY_STAT, seed=seed,
                                     shard_tasks=shard_tasks,
                                     max_resident_shards=max_resident_shards)


class OneChunk(TaskRowWorkload):
    """Task rows folded as one resident chunk, keys sorted in memory."""

    rows_resident = False

    def __init__(self, name, read_lengths, rows: dict):
        super().__init__(name, read_lengths, rows["cost"].size)
        self._rows = rows

    def _row_chunks(self):
        yield self._rows


@pytest.fixture(scope="module")
def twin() -> OneChunk:
    """The oracle: TINY_STAT's rows at seed 5, never streamed or spilled."""
    sw = synthetic(TINY_STAT.n_tasks)
    try:
        rows = {key: col.copy() for key, col in sw.store.get(0).items()}
    finally:
        sw.close()
    return OneChunk(sw.name, sw.read_lengths, rows)


def assert_assignments_equal(a, b, context: str) -> None:
    for field in ASSIGNMENT_FIELDS:
        x, y = getattr(a, field), getattr(b, field)
        assert np.array_equal(x, y), f"{context}: {field} diverged"
    assert a.total_reads == b.total_reads
    assert a.total_tasks == b.total_tasks


# -- the streamed render vs one resident chunk -------------------------------


@pytest.mark.parametrize("num_ranks", [1, 3, 8, 512])
def test_assignment_field_identity_all_shard_sizes(twin, num_ranks):
    """Streamed through shards, spills and on-disk key buckets, the rows
    render what one in-memory fold of them does: one generator block, an
    unaligned size and ``n_tasks + 1``."""
    base = twin.assignment(num_ranks)
    assert base.tasks_per_rank.sum() == TINY_STAT.n_tasks
    for shard in (GEN_BLOCK, 12_345, TINY_STAT.n_tasks + 1):
        sw = synthetic(shard)
        try:
            assert_assignments_equal(
                sw.assignment(num_ranks), base,
                f"shard={shard} P={num_ranks}",
            )
        finally:
            sw.close()


# -- narrow ids at their type boundaries ------------------------------------


def wide_reference(read_lengths, rows: dict, num_ranks: int) -> dict:
    """The nine assignment arrays and the micro plan's four task columns,
    computed as the renderer did before its ids went narrow: an int64
    owner table, ``np.where`` selects, int64 keys, one ``np.unique``."""
    lengths = np.asarray(read_lengths, dtype=np.int64)
    n_reads = lengths.size
    boundaries = partition_reads_by_size(lengths, num_ranks)
    table = np.repeat(np.arange(num_ranks, dtype=np.int64),
                      np.diff(boundaries))
    read_a = rows["read_a"].astype(np.int64)
    read_b = rows["read_b"].astype(np.int64)
    pick_a, cost = rows["pick_a"], rows["cost"]
    owner_a, owner_b = table[read_a], table[read_b]
    both_local = owner_a == owner_b
    assigned = np.where(pick_a, owner_a, owner_b)
    remote_read = np.where(pick_a, read_b, read_a)
    remote_read[both_local] = -1
    compute = np.zeros(num_ranks)
    np.add.at(compute, assigned, cost)
    local = np.zeros(num_ranks)
    np.add.at(local, assigned[both_local], cost[both_local])
    keys = np.unique(assigned[~both_local] * n_reads
                     + remote_read[~both_local])
    requester, read = keys // n_reads, keys % n_reads
    pulled = lengths[read].astype(np.float64)
    lookup_bytes = np.zeros(num_ranks)
    np.add.at(lookup_bytes, requester, pulled)
    incoming_bytes = np.zeros(num_ranks)
    np.add.at(incoming_bytes, table[read], pulled)

    def count(ranks):
        return np.bincount(ranks, minlength=num_ranks).astype(np.float64)

    prefix = np.concatenate([[0], np.cumsum(lengths)])
    return {
        "reads_per_rank": np.diff(boundaries).astype(np.float64),
        "partition_bytes": np.diff(prefix[boundaries]).astype(np.float64),
        "tasks_per_rank": count(assigned),
        "compute_seconds": compute,
        "local_pair_seconds": local,
        "lookups": count(requester),
        "lookup_bytes": lookup_bytes,
        "incoming_lookups": count(table[read]),
        "incoming_bytes": incoming_bytes,
        "assigned": assigned,
        "owner_a": owner_a,
        "owner_b": owner_b,
        "remote_read": remote_read,
    }


def assert_matches_reference(assignment, ref: dict, context: str) -> None:
    for field in ASSIGNMENT_FIELDS:
        got = getattr(assignment, field)
        assert got.dtype == np.float64, f"{context}: {field} dtype"
        assert got.tobytes() == ref[field].tobytes(), (
            f"{context}: {field} diverged from the wide reference")


class Resident(OneChunk):
    """The same rows through the resident path: the cached micro plan,
    folded as one chunk."""

    rows_resident = True

    @property
    def task_costs(self):
        return self._rows["cost"]


def check_boundary(streamed, rows: dict, num_ranks: int) -> None:
    """The streamed and resident renders of ``rows`` equal the reference,
    and so does the resident micro plan, in its int64 columns."""
    ref = wide_reference(streamed.read_lengths, rows, num_ranks)
    assert_matches_reference(streamed.assignment(num_ranks), ref,
                             f"streamed P={num_ranks}")
    resident = Resident(streamed.name, streamed.read_lengths, rows)
    assert_matches_reference(resident.assignment(num_ranks), ref,
                             f"resident P={num_ranks}")
    plan = resident.micro_plan(num_ranks)
    for column in ("assigned", "owner_a", "owner_b", "remote_read"):
        got = getattr(plan, column)
        assert got.dtype == np.int64, column
        assert np.array_equal(got, ref[column]), (
            f"micro plan P={num_ranks}: {column} diverged")


@pytest.fixture(scope="module")
def wide():
    """The wide-id preset streamed as four shards under a two-shard
    budget, and all of its rows (random coins) gathered once."""
    sw = ShardedWorkload.synthetic(regen.WIDE_ID_SPEC, seed=0,
                                   shard_tasks=1 << 16,
                                   max_resident_shards=2)
    chunks = [columns for _sid, columns in sw.store]
    rows = {key: np.concatenate([c[key] for c in chunks])
            for key in chunks[0]}
    yield sw, rows
    sw.close()


@pytest.mark.parametrize("num_ranks,owner_type,key_type", [
    (255, np.uint8, np.uint32),
    (256, np.uint8, np.uint32),
    (65_535, np.uint16, np.uint64),
    (65_537, np.uint32, np.uint64),
])
def test_boundary_id_types_render_the_wide_reference(wide, num_ranks,
                                                     owner_type, key_type):
    """Rank counts on both sides of the 8- and 16-bit owner types, with
    the highest rank owning reads, and keys past 2**32 (70 000 reads on
    65 535 ranks and more), which uint32 would wrap: streamed with
    spills, and the same rows resident."""
    sw, rows = wide
    owners = sw._partition(num_ranks).owner_table
    assert owners.dtype == owner_type
    assert owners.max() == num_ranks - 1
    sink = sw._key_sink(num_ranks)
    sink.close()
    assert sink._key_dtype == key_type
    assert (num_ranks * sw.n_reads > 2**32) == (key_type == np.uint64)
    check_boundary(sw, rows, num_ranks)
    assert sw.store.stats()["spilled"] > 0


# -- synthetic (paper-scale) rows --------------------------------------------


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
    sw = synthetic(1 << 15, seed=0)
    try:
        with pytest.raises(ConfigurationError, match="message-level"):
            run_alignment(sw, 2, "bsp-micro", cores_per_node=4)
    finally:
        sw.close()


def test_synthetic_rejects_sequence_level_specs():
    with pytest.raises(ConfigurationError, match="sequence-level"):
        ShardedWorkload.synthetic(DATASETS["micro"])


# -- resident-shard budget / spill -------------------------------------------


def test_store_bounds_resident_memory():
    sw = synthetic(SMALL_SHARD)
    try:
        sw.assignment(8)
        stats = sw.store.stats()
        assert stats["n_shards"] == -(-TINY_STAT.n_tasks // SMALL_SHARD)
        assert stats["resident"] <= 2
        assert stats["peak_resident_bytes"] <= stats["budget_bytes"]
        assert stats["evictions"] > 0 and stats["spilled"] > 0
        # a second full pass reloads from spill instead of rebuilding
        builds = stats["builds"]
        sw.assignment(16)
        stats = sw.store.stats()
        assert stats["builds"] == builds
        assert stats["reloads"] > 0
    finally:
        sw.close()


def test_ledger_charges_what_a_full_shard_holds():
    """A full shard's column bytes are ``bytes_per_shard``: read ids take
    the narrowest unsigned type for the read set and the owner coin is
    one bool."""
    wide = DatasetSpec(
        name="wide_ids_test", species="test", n_reads=70_000,
        n_tasks=100_000, coverage=10.0, error_rate=0.1,
        mean_read_length=3_000, length_sigma=0.5, genome_size=1_000_000,
        sequence_level=False,
    )
    cases = [
        (ShardedWorkload.synthetic(TINY_STAT, seed=5, shard_tasks=40_000),
         {"read_a": np.uint16, "read_b": np.uint16, "pick_a": np.bool_,
          "cost": np.float64}),
        (ShardedWorkload.synthetic(wide, seed=5, shard_tasks=40_000),
         {"read_a": np.uint32, "read_b": np.uint32, "pick_a": np.bool_,
          "cost": np.float64}),
    ]
    for sw, dtypes in cases:
        try:
            columns = sw.store.get(0)
            assert {k: c.dtype for k, c in columns.items()} == {
                k: np.dtype(t) for k, t in dtypes.items()}
            assert len(columns["cost"]) == sw.store.shard_tasks
            assert (sum(c.nbytes for c in columns.values())
                    == sw.store.bytes_per_shard)
        finally:
            sw.close()


def test_two_pass_ecoli30x_render_stays_in_its_narrow_budget():
    """The streamed benchmark's shape: 13 bytes a task (2 + 2 + 1 + 8),
    two full shards at the peak, and the same builds, reloads, evictions
    and spills as with 32-byte rows."""
    sw = ShardedWorkload.synthetic(DATASETS["ecoli30x"], seed=0,
                                   shard_tasks=131_072,
                                   max_resident_shards=2)
    try:
        sw.assignment(8)
        sw.assignment(64)
        stats = sw.store.stats()
    finally:
        sw.close()
    assert sw.store.bytes_per_shard == 13 * 131_072
    assert stats["peak_resident_bytes"] <= stats["budget_bytes"]
    assert stats["peak_resident_bytes"] == 2 * sw.store.bytes_per_shard
    assert {k: stats[k] for k in ("builds", "reloads", "evictions",
                                  "spilled")} == {
        "builds": 18, "reloads": 18, "evictions": 34, "spilled": 18}


def test_store_single_shard_never_spills():
    sw = synthetic(TINY_STAT.n_tasks, max_resident_shards=1)
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


@pytest.mark.parametrize("num_ranks,n_reads,n_buckets,expected", [
    (16, 1 << 30, None, 16),   # one rank per bucket already fits
    (16, 1 << 30, 2, 4),       # 2**33-key buckets double to exactly 2**32
    (16, 1 << 30, 3, 6),       # uneven rank ranges double once
    (3, 1 << 32, 1, 3),        # doubling stops at one rank per bucket
    (200, 1 << 30, None, 64),  # capped at MAX_KEY_BUCKETS
])
def test_key_buckets_store_uint32_offsets_past_32_bit_keys(
        tmp_path, num_ranks, n_reads, n_buckets, expected):
    """Keys beyond 2**32 travel as uint32 offsets from the bucket edge:
    keys on and next to every edge, and duplicated across shards, drain
    to exactly the distinct keys in ascending runs."""
    key_space = num_ranks * n_reads
    assert key_space >= 2**32
    buckets = _KeyBuckets(num_ranks, n_reads, str(tmp_path), n_buckets)
    requested = min(num_ranks, MAX_KEY_BUCKETS, n_buckets or MAX_KEY_BUCKETS)
    assert buckets.n_buckets == expected
    spans = np.diff(buckets._edges)
    assert spans.max() <= BUCKET_SPAN_LIMIT
    if buckets.n_buckets > requested:
        # the span rule doubled: half as many buckets would not fit
        half = _KeyBuckets(num_ranks, n_reads, str(tmp_path),
                           buckets.n_buckets // 2)
        half.close()
        assert half.n_buckets == buckets.n_buckets

    edges = buckets._edges
    on_edges = np.concatenate([edges[:-1], edges[1:] - 1, edges[:-1] + 1,
                               edges[1:] - 2])
    rng = np.random.default_rng(8)
    shards = [np.concatenate([rng.integers(0, key_space, 2_000), part])
              for part in np.array_split(rng.permutation(on_edges), 3)]
    shards[1] = np.concatenate([shards[1], shards[0][::3], on_edges[:5]])
    for keys in shards:
        buckets.add(keys)
    runs = list(buckets.drain())
    assert all(run.dtype == np.int64 for run in runs)
    for run in runs:
        assert np.all(np.diff(run) > 0)
    for prev, nxt in zip(runs, runs[1:]):
        assert prev[-1] < nxt[0]
    assert np.array_equal(np.concatenate(runs),
                          np.unique(np.concatenate(shards)))
    assert list(tmp_path.iterdir()) == []


def test_sharded_pass_uses_at_most_one_bucket_per_shard():
    sw = ShardedWorkload.synthetic(TINY_STAT, seed=5, shard_tasks=1 << 15)
    try:
        assert sw.store.n_shards == 5
        for num_ranks, expected in ((2, 2), (8, 5), (512, 5)):
            sink = sw._key_sink(num_ranks)
            sink.close()
            assert sink.n_buckets == expected
    finally:
        sw.close()


def test_sharded_corrupt_read_column_fails_typed():
    """An out-of-range read id raises instead of wrapping to another rank."""
    source = synthetic(SMALL_SHARD)

    def build(sid, lo, hi):
        columns = source.store._build(sid, lo, hi)
        read_a = columns["read_a"].astype(np.int64)
        if lo == 0:
            read_a[0] = -1
        return {**columns, "read_a": read_a}

    # int64 read_a, uint16 read_b, the bool coin and a float64 cost
    sw = ShardedWorkload(source.name, source.read_lengths, source.n_tasks,
                         build, shard_tasks=SMALL_SHARD,
                         max_resident_shards=2, bytes_per_task=19)
    try:
        with pytest.raises(PartitionError, match="out of range"):
            sw.assignment(4)
        with pytest.raises(PartitionError, match="out of range"):
            sw.micro_plan(4)
    finally:
        sw.close()
        source.close()


def test_failed_pass_leaves_no_stale_bucket_keys(twin):
    """A pass that raises mid-stream must not leak its dedup keys into the
    next one: a retry at another rank count reproduces the resident
    exchange exactly, and only shard spills are left in the store's dir."""
    sw = synthetic(SMALL_SHARD)
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
                sw.assignment(num_ranks), twin.assignment(num_ranks),
                f"retry P={num_ranks}",
            )
        assert leftovers == []
    finally:
        sw.close()


def test_truncated_spill_fails_typed(twin):
    """A spill cut short (crash, full disk) is reported as a typed error
    naming the shard and file, not a short read; the bad copy is
    dropped, so the next pass rebuilds the shard from its source."""
    sw = synthetic(SMALL_SHARD)
    try:
        sw.assignment(8)
        path = os.path.join(sw.store.stats()["spill_dir"], "shard0.cols")
        size = os.path.getsize(path)
        with open(path, "r+b") as f:
            f.truncate(size // 2)
        with pytest.raises(errors.ShardSpillError, match="shard 0") as info:
            sw.assignment(16)
        assert path in str(info.value)
        assert isinstance(info.value, errors.ReproError)
        assert_assignments_equal(sw.assignment(16), twin.assignment(16),
                                 "after a corrupt spill")
    finally:
        sw.close()


def test_spill_is_written_whole_or_not_at_all(twin):
    """A spill write that fails midway leaves no file a reload could trust."""
    sw = synthetic(SMALL_SHARD)
    build, disk_full = sw.store._build, [True]

    class Column(np.ndarray):
        def tofile(self, fid, *args, **kwargs):
            if disk_full:
                fid.write(b"partial")
                raise OSError("no space left on device")
            return np.ndarray.tofile(self, fid, *args, **kwargs)

    sw.store._build = lambda sid, lo, hi: {
        name: col.view(Column) for name, col in build(sid, lo, hi).items()}
    try:
        with pytest.raises(OSError, match="no space"):
            sw.assignment(8)
        disk_full.clear()
        assert os.listdir(sw.store.stats()["spill_dir"]) == []
        assert_assignments_equal(sw.assignment(8), twin.assignment(8),
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


def test_close_is_idempotent():
    sw = synthetic(1 << 14)
    sw.assignment(4)
    sw.close()
    sw.close()


# -- caches ------------------------------------------------------------------


def test_sharded_workload_caches_per_rank_count():
    sw = synthetic(1 << 14)
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
    """A sequence-level preset's task rows are in memory already: shard
    knobs give back the materialized workload.  On a Table-1 preset they
    pick the streamed model and key its cache entries."""
    clear_workload_cache()
    w0 = get_workload("micro", seed=11)
    for shard, resident in ((128, 4), (256, 2)):
        assert get_workload("micro", seed=11, shard_tasks=shard,
                            max_resident_shards=resident) is w0
    s1 = get_workload("ecoli30x", seed=11, shard_tasks=1 << 18)
    s2 = get_workload("ecoli30x", seed=11, shard_tasks=1 << 18)
    s3 = get_workload("ecoli30x", seed=11, shard_tasks=1 << 17)
    s4 = get_workload("ecoli30x", seed=11, shard_tasks=1 << 18,
                      max_resident_shards=2)
    assert s1 is s2
    assert len({id(s1), id(s3), id(s4)}) == 3
    assert isinstance(s1, ShardedWorkload)
    assert isinstance(get_workload("ecoli30x", seed=11), StatisticalWorkload)


@pytest.mark.parametrize("name", sorted(DATASETS))
@pytest.mark.parametrize("knobs", [
    {"shard_tasks": -1},
    {"shard_tasks": 128, "max_resident_shards": 0},
    {"max_resident_shards": 0},
])
def test_get_workload_rejects_bad_shard_knobs(name, knobs):
    with pytest.raises(ConfigurationError, match="shard_tasks"):
        get_workload(name, **knobs)


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
