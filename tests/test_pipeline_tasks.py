"""Tests for the TaskTable structure-of-arrays container."""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.pipeline.tasks import Candidate, TaskTable


def make_table():
    return TaskTable(
        read_a=np.array([0, 1, 2, 0]),
        read_b=np.array([1, 2, 3, 3]),
        pos_a=np.array([5, 0, 7, 2]),
        pos_b=np.array([0, 3, 1, 9]),
        reverse=np.array([False, True, False, True]),
        k=13,
    )


def test_len_and_fields():
    t = make_table()
    assert len(t) == 4
    assert t.k == 13
    assert t.reverse.dtype == bool


def test_candidate_is_the_scalar_view_of_a_row():
    t = make_table()
    c = t.candidate(1)
    assert c == Candidate(read_a=1, read_b=2, pos_a=0, pos_b=3, k=13,
                          reverse=True, shared_seeds=1)
    assert type(c.read_a) is int and type(c.reverse) is bool
    seeded = replace(t, shared_seeds=[4, 5, 6, 7])
    assert seeded.candidate(2).shared_seeds == 6
    # the optional columns ride along when owner or cost is set
    assert seeded.with_owner(np.zeros(4)).with_cost(np.ones(4)).shared_seeds.tolist() == [4, 5, 6, 7]


def test_shared_seeds_length_mismatch_rejected():
    with pytest.raises(PartitionError, match="shared_seeds"):
        replace(make_table(), shared_seeds=[1, 2])


def test_length_mismatch_rejected():
    with pytest.raises(PartitionError):
        TaskTable(
            read_a=np.array([0, 1]),
            read_b=np.array([1]),
            pos_a=np.array([0, 0]),
            pos_b=np.array([0, 0]),
            reverse=np.array([False, False]),
            k=5,
        )


def test_with_owner_and_cost():
    t = make_table()
    owned = t.with_owner(np.array([0, 1, 0, 1]))
    assert owned.owner.tolist() == [0, 1, 0, 1]
    costed = owned.with_cost(np.array([1.0, 2.0, 3.0, 4.0]))
    assert costed.owner is not None and costed.cost is not None
    with pytest.raises(PartitionError):
        t.with_owner(np.array([0]))


def test_tasks_of_rank_and_grouping():
    t = make_table().with_owner(np.array([1, 0, 1, 0]))
    assert t.tasks_of_rank(1).tolist() == [0, 2]
    order, offsets = t.group_by_owner(2)
    assert offsets.tolist() == [0, 2, 4]
    assert sorted(order[:2].tolist()) == [1, 3]


def test_tasks_of_rank_requires_owner():
    with pytest.raises(PartitionError):
        make_table().tasks_of_rank(0)


def test_remote_read_of():
    t = make_table().with_owner(np.array([0, 1, 1, 1]))
    # reads 0,1 owned by rank 0; reads 2,3 by rank 1
    owner_of = lambda ids: np.where(np.asarray(ids) <= 1, 0, 1)
    # rank 1's tasks: indices 1,2,3
    remote = t.remote_read_of(np.array([1, 2, 3]), owner_of, rank=1)
    # task1 = (1,2): read 1 is remote; task2 = (2,3): both local -> -1;
    # task3 = (0,3): read 0 remote
    assert remote.tolist() == [1, -1, 0]


def test_remote_read_of_invariant_violation():
    t = make_table().with_owner(np.array([0, 0, 0, 0]))
    owner_of = lambda ids: np.full(np.asarray(ids).shape, 5)
    with pytest.raises(PartitionError):
        t.remote_read_of(np.array([0]), owner_of, rank=0)
