"""Tests for repro.utils.arrays (CSR helpers and segmented reductions)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.arrays import (
    bincount_exact,
    chunked_ranges,
    counts_to_offsets,
    group_offsets_by_sorted_key,
    segment_max,
    segment_min,
    segment_sums,
    sorted_unique,
)


def test_counts_to_offsets_basic():
    offsets = counts_to_offsets(np.array([2, 0, 3]))
    assert offsets.tolist() == [0, 2, 2, 5]


def test_counts_to_offsets_empty():
    assert counts_to_offsets(np.array([], dtype=np.int64)).tolist() == [0]


def test_group_offsets_by_sorted_key_matches_bincount():
    keys = np.sort(np.array([0, 0, 2, 2, 2, 5]))
    offsets = group_offsets_by_sorted_key(keys, 6)
    expected = counts_to_offsets(np.bincount(keys, minlength=6))
    assert np.array_equal(offsets, expected)


@given(
    st.lists(st.integers(min_value=0, max_value=9), max_size=200),
)
def test_group_offsets_property(keys):
    keys = np.sort(np.array(keys, dtype=np.int64))
    offsets = group_offsets_by_sorted_key(keys, 10)
    expected = counts_to_offsets(np.bincount(keys, minlength=10))
    assert np.array_equal(offsets, expected)


def test_bincount_exact_range_check():
    with pytest.raises(ValueError):
        bincount_exact(np.array([0, 5]), 5)
    assert bincount_exact(np.array([0, 1, 1]), 4).tolist() == [1, 2, 0, 0]


def test_segment_sums():
    vals = np.array([1.0, 2.0, 3.0, 4.0])
    keys = np.array([0, 1, 0, 1])
    assert segment_sums(vals, keys, 3).tolist() == [4.0, 6.0, 0.0]


def test_segment_sums_shape_mismatch():
    with pytest.raises(ValueError):
        segment_sums(np.array([1.0]), np.array([0, 1]), 2)


def test_segment_max_min():
    vals = np.array([1.0, 5.0, 3.0])
    keys = np.array([0, 0, 1])
    assert segment_max(vals, keys, 2).tolist() == [5.0, 3.0]
    assert segment_min(vals, keys, 2)[0] == 1.0


@given(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=100),
    st.integers(min_value=1, max_value=5),
)
def test_segment_sums_total_preserved(vals, groups):
    vals = np.array(vals)
    keys = np.arange(len(vals)) % groups
    sums = segment_sums(vals, keys, groups)
    assert np.isclose(sums.sum(), vals.sum())


def test_chunked_ranges_cover_exactly():
    ranges = list(chunked_ranges(10, 3))
    assert ranges == [(0, 3), (3, 6), (6, 9), (9, 10)]
    assert list(chunked_ranges(0, 3)) == []


def test_chunked_ranges_bad_chunk():
    with pytest.raises(ValueError):
        list(chunked_ranges(10, 0))


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=997))
def test_chunked_ranges_partition_property(total, chunk):
    covered = 0
    prev_stop = 0
    for start, stop in chunked_ranges(total, chunk):
        assert start == prev_stop
        assert stop - start <= chunk
        assert stop > start
        covered += stop - start
        prev_stop = stop
    assert covered == total


@given(
    st.lists(st.integers(min_value=-(2**62), max_value=2**62), max_size=300),
    st.sampled_from(["as-is", "sorted", "all-equal", "few-distinct"]),
)
def test_sorted_unique_equals_np_unique(values, shape):
    x = np.array(values, dtype=np.int64)
    if shape == "sorted":
        x = np.sort(x)
    elif shape == "all-equal" and x.size:
        x = np.full(x.size, x[0])
    elif shape == "few-distinct":
        x = x % 5 - 2
    got, want = sorted_unique(x), np.unique(x)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def test_sorted_unique_leaves_its_input_alone():
    x = np.array([3, 1, 3, 2], dtype=np.int32)
    assert sorted_unique(x).tolist() == [1, 2, 3]
    assert x.tolist() == [3, 1, 3, 2]
    assert sorted_unique(x).dtype == np.int32
