"""k-mer histogramming (the global frequency census DiBELLA computes).

In the real pipeline the histogram is computed with a distributed
irregular all-to-all over k-mer owners; here the same owner-partitioned
structure is exposed (`owner_of`) so the distributed version in
:mod:`repro.runtime.collectives` tests can exercise it, while
:func:`count_kmers` provides the shared-memory reference reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.genome.sequence import ReadSet
from repro.kmer.kmers import KmerExtractor

__all__ = ["KmerHistogram", "count_kmers", "owner_of"]


def owner_of(kmers: np.ndarray, num_owners: int) -> np.ndarray:
    """Deterministic owner rank of each packed k-mer.

    A multiplicative hash (Fibonacci hashing) scatters adjacent k-mer values
    across owners, avoiding the hot-spotting a plain modulo would give for
    low-complexity sequence.
    """
    kmers = np.asarray(kmers, dtype=np.uint64)
    h = (kmers * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(33)
    return (h % np.uint64(num_owners)).astype(np.int64)


@dataclass
class KmerHistogram:
    """A frequency table of canonical k-mers.

    Stored sorted-unique: ``kmers`` (uint64, ascending) with parallel
    ``counts`` (int64).  Lookup is a binary search, vectorized over queries.
    """

    kmers: np.ndarray
    counts: np.ndarray
    k: int

    def __post_init__(self) -> None:
        self.kmers = np.asarray(self.kmers, dtype=np.uint64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.kmers.shape != self.counts.shape:
            raise ValueError("kmers/counts length mismatch")

    @property
    def num_distinct(self) -> int:
        return int(self.kmers.size)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def frequency_of(self, queries: np.ndarray) -> np.ndarray:
        """Vectorized lookup: count of each query k-mer (0 when absent)."""
        queries = np.asarray(queries, dtype=np.uint64)
        idx = np.searchsorted(self.kmers, queries)
        out = np.zeros(queries.size, dtype=np.int64)
        if self.kmers.size:
            np.minimum(idx, self.kmers.size - 1, out=idx)
            hit = self.kmers[idx] == queries
            out[hit] = self.counts[idx[hit]]
        return out

    def filtered(self, lo: int, hi: int) -> "KmerHistogram":
        """Keep k-mers with ``lo <= count <= hi`` (the reliable band)."""
        keep = (self.counts >= lo) & (self.counts <= hi)
        return KmerHistogram(self.kmers[keep], self.counts[keep], self.k)

    def multiplicity_spectrum(self, max_count: int = 64) -> np.ndarray:
        """Histogram-of-the-histogram: #distinct k-mers at each multiplicity."""
        clipped = np.minimum(self.counts, max_count)
        return np.bincount(clipped, minlength=max_count + 1)

    def merge(self, other: "KmerHistogram") -> "KmerHistogram":
        """Union two histograms, summing counts (the all-to-all reduction)."""
        if other.k != self.k:
            raise ValueError("cannot merge histograms with different k")
        allk = np.concatenate([self.kmers, other.kmers])
        allc = np.concatenate([self.counts, other.counts])
        uniq, inverse = np.unique(allk, return_inverse=True)
        summed = np.zeros(uniq.size, dtype=np.int64)
        np.add.at(summed, inverse, allc)
        return KmerHistogram(uniq, summed, self.k)


def count_kmers(reads: ReadSet, k: int = 17, canonical: bool = True) -> KmerHistogram:
    """Count canonical k-mers across a read set (shared-memory reference)."""
    extractor = KmerExtractor(k=k, canonical=canonical)
    kmers, _rids, _pos = extractor.extract_readset(reads)
    if kmers.size == 0:
        return KmerHistogram(
            np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64), k
        )
    uniq, counts = np.unique(kmers, return_counts=True)
    return KmerHistogram(uniq, counts.astype(np.int64), k)
