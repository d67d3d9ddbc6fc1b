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
    owned = replace(seeded, owner=np.zeros(4), cost=np.ones(4))
    assert owned.shared_seeds.tolist() == [4, 5, 6, 7]


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
    with pytest.raises(PartitionError, match="owner"):
        replace(make_table(), owner=np.array([0]))
