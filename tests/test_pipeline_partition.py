"""Tests for read partitioning and the task-ownership invariant."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import PartitionError
from repro.pipeline.partition import (
    PartitionMemo,
    assign_tasks_balanced,
    check_ownership_invariant,
    owner_table,
    owners_from_boundaries,
    partition_reads_by_size,
)


def test_partition_balances_bytes():
    rng = np.random.default_rng(0)
    lengths = rng.integers(500, 20_000, 4000)
    bounds = partition_reads_by_size(lengths, 16)
    per_rank = np.array(
        [lengths[bounds[r]: bounds[r + 1]].sum() for r in range(16)]
    )
    assert per_rank.max() / per_rank.mean() < 1.05


def test_partition_covers_all_reads():
    lengths = np.array([10, 20, 30, 40, 50])
    bounds = partition_reads_by_size(lengths, 3)
    assert bounds[0] == 0 and bounds[-1] == 5
    assert np.all(np.diff(bounds) >= 0)


def test_partition_more_ranks_than_reads():
    lengths = np.array([100, 100])
    bounds = partition_reads_by_size(lengths, 8)
    assert bounds[0] == 0 and bounds[-1] == 2
    assert np.all(np.diff(bounds) >= 0)


def test_partition_single_rank():
    bounds = partition_reads_by_size(np.array([5, 5, 5]), 1)
    assert bounds.tolist() == [0, 3]


def test_partition_bad_ranks():
    with pytest.raises(PartitionError):
        partition_reads_by_size(np.array([1]), 0)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=10_000), min_size=1, max_size=500),
    st.integers(min_value=1, max_value=32),
)
def test_partition_property(lengths, ranks):
    lengths = np.array(lengths, dtype=np.int64)
    bounds = partition_reads_by_size(lengths, ranks)
    assert bounds.size == ranks + 1
    assert bounds[0] == 0 and bounds[-1] == lengths.size
    assert np.all(np.diff(bounds) >= 0)
    # byte loads within one max-read of the ideal
    ideal = lengths.sum() / ranks
    loads = np.array([lengths[bounds[r]: bounds[r + 1]].sum() for r in range(ranks)])
    assert loads.max() <= ideal + lengths.max()


def test_owners_from_boundaries():
    bounds = np.array([0, 3, 5, 9])
    owners = owners_from_boundaries(np.array([0, 2, 3, 4, 8]), bounds)
    assert owners.tolist() == [0, 0, 1, 1, 2]


@given(
    st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=30),
)
def test_owner_table_equals_searchsorted_owners(reads_per_rank):
    # zero counts give repeated boundaries (empty ranks), and most draws
    # have more ranks than reads
    boundaries = np.concatenate([[0], np.cumsum(reads_per_rank)])
    table = owner_table(boundaries)
    every_read = np.arange(boundaries[-1])
    # the narrowest type that holds every rank
    assert table.dtype == np.min_scalar_type(len(reads_per_rank) - 1)
    assert np.array_equal(table, owners_from_boundaries(every_read, boundaries))


def test_read_partition_memoized_and_consistent():
    lengths = np.array([5, 1, 1, 9, 4, 4], dtype=np.int64)
    memo = PartitionMemo(lengths, maxsize=4)
    part = memo(4)
    assert memo(4) is part
    assert memo.cache.stats()["misses"] == 1
    assert np.array_equal(part.boundaries, partition_reads_by_size(lengths, 4))
    assert part.reads_per_rank.sum() == lengths.size
    assert part.partition_bytes.sum() == lengths.sum()
    assert np.array_equal(part.owners(np.arange(6)), part.owner_table)
    # more ranks than reads: empty ranks own nothing, every read has an owner
    sparse = memo(16)
    assert sparse.owner_table.size == lengths.size
    assert np.array_equal(
        np.bincount(sparse.owner_table, minlength=16), sparse.reads_per_rank
    )


@pytest.mark.parametrize("bad", [-1, 6])
def test_read_partition_owners_rejects_out_of_range_ids(bad):
    # a bare table gather would wrap -1 to the last rank's reads
    part = PartitionMemo(np.full(6, 10, dtype=np.int64), maxsize=1)(3)
    with pytest.raises(PartitionError, match="out of range"):
        part.owners(np.array([0, bad, 2]))
    assert part.owners(np.array([], dtype=np.int64)).size == 0


def test_assign_tasks_invariant_and_balance():
    rng = np.random.default_rng(1)
    P = 8
    owner_a = rng.integers(0, P, 10_000)
    owner_b = rng.integers(0, P, 10_000)
    assigned = assign_tasks_balanced(owner_a, owner_b, P)
    check_ownership_invariant(assigned, owner_a, owner_b)
    counts = np.bincount(assigned, minlength=P)
    assert counts.max() / counts.mean() < 1.1


def test_assign_tasks_by_cost():
    rng = np.random.default_rng(2)
    P = 4
    n = 5000
    owner_a = rng.integers(0, P, n)
    owner_b = rng.integers(0, P, n)
    costs = rng.lognormal(0, 1.5, n)
    assigned = assign_tasks_balanced(owner_a, owner_b, P, costs=costs)
    check_ownership_invariant(assigned, owner_a, owner_b)
    loads = np.zeros(P)
    np.add.at(loads, assigned, costs)
    assert loads.max() / loads.mean() < 1.2


def test_assign_tasks_validation():
    with pytest.raises(PartitionError):
        assign_tasks_balanced(np.array([0]), np.array([0, 1]), 2)
    with pytest.raises(PartitionError):
        assign_tasks_balanced(np.array([0]), np.array([5]), 2)


def test_invariant_checker_catches_violation():
    with pytest.raises(PartitionError):
        check_ownership_invariant(
            np.array([2]), np.array([0]), np.array([1])
        )
    # valid case passes silently
    check_ownership_invariant(np.array([1]), np.array([0]), np.array([1]))


def test_assign_skew_to_one_owner():
    # all tasks involve rank 0: greedy must offload to the partner owners
    n = 1000
    owner_a = np.zeros(n, dtype=np.int64)
    owner_b = np.arange(n, dtype=np.int64) % 4
    assigned = assign_tasks_balanced(owner_a, owner_b, 4)
    check_ownership_invariant(assigned, owner_a, owner_b)
    counts = np.bincount(assigned, minlength=4)
    # rank 0 cannot end with everything
    assert counts[0] < 0.5 * n
