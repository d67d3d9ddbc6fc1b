"""Structure-of-arrays helpers: group-by, offsets, segmented reductions.

These are the numpy idioms the library uses instead of Python-level loops
(see the hpc-parallel guides: vectorize, avoid copies, mind cache behaviour).
All helpers are pure functions over 1-D arrays.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = [
    "counts_to_offsets",
    "group_offsets_by_sorted_key",
    "segment_sums",
    "segment_max",
    "segment_min",
    "chunked_ranges",
    "bincount_exact",
    "sorted_unique",
]


def counts_to_offsets(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum with a trailing total: ``len == len(counts)+1``.

    ``offsets[i]:offsets[i+1]`` then delimits segment ``i`` of a concatenated
    array, the standard CSR-style layout used throughout the library.
    """
    counts = np.asarray(counts)
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def group_offsets_by_sorted_key(sorted_keys: np.ndarray, num_groups: int) -> np.ndarray:
    """Offsets of each key-group in an already-sorted key array.

    Equivalent to ``counts_to_offsets(bincount(sorted_keys, num_groups))`` but
    computed with ``searchsorted`` (O(G log N) instead of O(N)), which is
    faster when there are few groups over a huge key array.
    """
    sorted_keys = np.asarray(sorted_keys)
    bounds = np.arange(num_groups + 1, dtype=sorted_keys.dtype if sorted_keys.size else np.int64)
    return np.searchsorted(sorted_keys, bounds, side="left").astype(np.int64)


def bincount_exact(keys: np.ndarray, num_groups: int) -> np.ndarray:
    """``np.bincount`` pinned to exactly ``num_groups`` bins (int64)."""
    keys = np.asarray(keys)
    if keys.size and (keys.min() < 0 or keys.max() >= num_groups):
        raise ValueError("key out of range for bincount_exact")
    return np.bincount(keys, minlength=num_groups).astype(np.int64)


def sorted_unique(x: np.ndarray) -> np.ndarray:
    """Sorted distinct values of ``x``: what ``np.unique(x)`` returns.

    Same values, order and dtype, by one sort and a neighbour mask.  numpy
    >= 2.3 routes flag-less ``np.unique`` through a hash table and then
    sorts the survivors anyway, which on mostly-distinct integer keys (the
    deduplicated exchange) is 18-47x slower than sorting outright
    (docs/PERFORMANCE.md "Assignment rendering").
    """
    s = np.sort(x, axis=None)
    if s.size < 2:
        return s
    keep = np.empty(s.size, dtype=bool)
    keep[0] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def segment_sums(values: np.ndarray, keys: np.ndarray, num_groups: int) -> np.ndarray:
    """Sum ``values`` grouped by integer ``keys`` (unsorted), as float64."""
    values = np.asarray(values, dtype=np.float64)
    keys = np.asarray(keys)
    if values.shape != keys.shape:
        raise ValueError("values and keys must have the same shape")
    out = np.zeros(num_groups, dtype=np.float64)
    np.add.at(out, keys, values)
    return out


def segment_max(values: np.ndarray, keys: np.ndarray, num_groups: int,
                initial: float = 0.0) -> np.ndarray:
    """Per-group maximum of ``values`` grouped by unsorted integer ``keys``."""
    values = np.asarray(values, dtype=np.float64)
    keys = np.asarray(keys)
    out = np.full(num_groups, initial, dtype=np.float64)
    np.maximum.at(out, keys, values)
    return out


def segment_min(values: np.ndarray, keys: np.ndarray, num_groups: int,
                initial: float = np.inf) -> np.ndarray:
    """Per-group minimum of ``values`` grouped by unsorted integer ``keys``."""
    values = np.asarray(values, dtype=np.float64)
    keys = np.asarray(keys)
    out = np.full(num_groups, initial, dtype=np.float64)
    np.minimum.at(out, keys, values)
    return out


def chunked_ranges(total: int, chunk: int) -> Iterator[tuple[int, int]]:
    """Yield ``(start, stop)`` half-open ranges covering ``[0, total)``.

    Used to stream over very large virtual arrays (e.g. the 87.6M-task Human
    CCS workload) without materializing them, keeping peak memory O(chunk).
    """
    if chunk <= 0:
        raise ValueError("chunk must be positive")
    start = 0
    while start < total:
        stop = min(start + chunk, total)
        yield start, stop
        start = stop
