"""Shared-seed detection: from reliable k-mers to candidate overlap pairs.

Every pair of reads sharing a retained (reliable) k-mer becomes a *candidate
overlap*, i.e. one pairwise-alignment task.  Following the paper's
experimental setup, exactly **one seed is extended per candidate pair** ("one
per candidate overlap", Table 1), "simulating expected advances in
seed-selection techniques" — so the candidate generator deduplicates pairs
and keeps the first shared seed's positions.

The pairs are the nonzeros of the sparse product A·Aᵀ over the read × k-mer
occurrence matrix A, the overlap detection diBELLA runs distributed.  Its
serial form here is one sort and a segmented reduction: every occurrence
pair of every retained k-mer is expanded as array rows, the rows are stably
sorted by read pair, and each run keeps its first row (the seed) and its
length (the number of shared seeds).

Orientation: k-mers are canonicalized over strands, and each occurrence
records whether the canonical form equals the read-local forward form.  A
candidate whose two occurrences disagree is a *reverse-strand* candidate; the
aligner then extends against the reverse complement of the second read
(paper Figure 2 shows both orientations must be handled).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.genome.sequence import ReadSet
from repro.kmer.bella import BellaModel
from repro.kmer.histogram import KmerHistogram
from repro.kmer.kmers import KmerExtractor, pack_kmers, revcomp_packed
from repro.pipeline.tasks import TaskTable
from repro.utils.arrays import counts_to_offsets

__all__ = ["SeedIndex", "CandidateGenerator"]

#: Occurrence pairs expanded into rows at once; each range of about this
#: many pairs is reduced to its distinct read pairs before the next range
#: is expanded, which bounds the transient memory of ``generate``.
PAIR_BLOCK = 1 << 16


def _orient(fwd: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical forms of packed forward k-mers, and forward-form flags."""
    rc = revcomp_packed(fwd, k)
    return np.minimum(fwd, rc), fwd <= rc


def extract_with_orientation(codes: np.ndarray, k: int):
    """Canonical k-mers + positions + forward-form flags for one read."""
    fwd, positions = pack_kmers(codes, k)
    canon, is_fwd = _orient(fwd, k)
    return canon, positions, is_fwd


def _occurrences(reads: ReadSet, k: int):
    """``(canonical k-mer, read index, position, forward flag)`` columns of
    every k-mer of ``reads``, from one extraction pass."""
    fwd, read_idx, pos = KmerExtractor(k=k, canonical=False).extract_readset(reads)
    canon, is_fwd = _orient(fwd, k)
    return canon, read_idx, pos, is_fwd


def _in_band(kmers: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Whether each occurrence's k-mer occurs ``lo..hi`` times in ``kmers``.

    The counts come in sorted k-mer order, one per run of equal sorted
    k-mers; each is tested once and spread back over its run's
    occurrences through an argsort.
    """
    counts = np.unique(kmers, return_counts=True)[1]
    keep = np.empty(kmers.size, dtype=bool)
    keep[np.argsort(kmers)] = np.repeat((counts >= lo) & (counts <= hi), counts)
    return keep


class SeedIndex:
    """Occurrence lists of retained k-mers across a read set.

    Flat parallel arrays sorted by k-mer: ``kmers``, ``read_idx``, ``pos``,
    ``is_fwd``; ``group_offsets`` delimits each distinct k-mer's occurrence
    run (CSR layout over distinct k-mers in ``distinct``).  Within a run,
    occurrences keep read-major, position-ascending order.
    """

    def __init__(self, kmers, read_idx, pos, is_fwd):
        order = np.argsort(kmers, kind="stable")
        self.kmers = np.asarray(kmers)[order]
        self.read_idx = np.asarray(read_idx)[order]
        self.pos = np.asarray(pos)[order]
        self.is_fwd = np.asarray(is_fwd)[order]
        if self.kmers.size:
            self.distinct, counts = np.unique(self.kmers, return_counts=True)
            self.group_offsets = counts_to_offsets(counts)
        else:
            self.distinct = np.empty(0, dtype=np.uint64)
            self.group_offsets = np.zeros(1, dtype=np.int64)

    @classmethod
    def build(
        cls,
        reads: ReadSet,
        k: int,
        retained: KmerHistogram | None = None,
    ) -> "SeedIndex":
        """Extract canonical k-mers of all reads, keep those in ``retained``."""
        occ = _occurrences(reads, k)
        if retained is not None:
            keep = retained.frequency_of(occ[0]) > 0
            occ = [c[keep] for c in occ]
        return cls(*occ)

    @property
    def num_occurrences(self) -> int:
        return int(self.kmers.size)

    @property
    def num_distinct(self) -> int:
        return int(self.distinct.size)


def _first_per_pair(key, occ_a, occ_b, shared):
    """Reduce pair rows to one per pair key: the first row of each key's
    run under a stable sort, with ``shared`` summed over the run.

    Stability is what keeps the first seed: rows arrive in loop
    enumeration order, so each run starts with the pair's earliest seed.
    """
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    rows = order[first]
    return key[first], occ_a[rows], occ_b[rows], np.add.reduceat(shared[order], first)


def _concat_first_per_pair(tables):
    """Merge reduced tables, earlier ranges first, into one."""
    return _first_per_pair(*(np.concatenate(c) for c in zip(*tables)))


def _range_pairs(read_idx, occ, later, n_reads):
    """The pairs of occurrence ``occ[i]`` with each of the ``later[i]``
    occurrences after it, in that order, as one row per read pair:
    ``(read-pair key, first occurrence a, first occurrence b, count)``."""
    a = np.repeat(occ, later)
    b = a + 1 + np.arange(a.size) - np.repeat(np.cumsum(later) - later, later)
    # occurrence lists are read-major, so ra <= rb: pairs come normalized
    ra, rb = read_idx[a], read_idx[b]
    key = ra * n_reads + rb
    distinct = ra != rb
    return _first_per_pair(key[distinct], a[distinct], b[distinct],
                           np.ones(np.count_nonzero(distinct), dtype=np.int64))


@dataclass
class CandidateGenerator:
    """Generate alignment tasks from shared reliable k-mers.

    Parameters
    ----------
    k : seed length (paper: 17).
    model : BELLA reliability model providing the multiplicity band; when
        None, ``bounds`` must be given explicitly.
    bounds : explicit ``(lo, hi)`` multiplicity band (overrides ``model``).
    max_occurrences : safety cap on per-k-mer occurrence-list length
        (normally redundant with the BELLA ``hi`` bound).
    """

    k: int = 17
    model: BellaModel | None = None
    bounds: tuple[int, int] | None = None
    max_occurrences: int = 256

    def _band(self) -> tuple[int, int]:
        if self.bounds is not None:
            return self.bounds
        if self.model is not None:
            return self.model.bounds()
        raise ValueError("CandidateGenerator needs either a model or bounds")

    def generate(
        self, reads: ReadSet, histogram: KmerHistogram | None = None
    ) -> TaskTable:
        """All candidate pairs with one seed each, as task-table columns.

        Pairs are normalized to ``read_a < read_b`` (local indices) and
        sorted by ``(read_a, read_b)``.  Enumerating, k-mer by k-mer in
        sorted order, every pair ``i < j`` of each occurrence list of
        length ``2..max_occurrences`` (row-major, self pairs skipped), a
        pair keeps its first seed in that order; ``shared_seeds`` counts
        all of them.  The pairs are expanded as rows and reduced by one
        stable sort by pair (the serial A·Aᵀ), in ranges of about
        ``PAIR_BLOCK`` rows.
        """
        index = self._index(reads, histogram)

        # every kept occurrence pairs with each later one in its list
        offs = index.group_offsets
        sizes = np.diff(offs)
        sizes[(sizes < 2) | (sizes > self.max_occurrences)] = 0
        occ_idx = np.flatnonzero(np.repeat(sizes > 0, np.diff(offs)))
        later = np.repeat(offs[:-1] + sizes, sizes) - occ_idx - 1
        ends = np.cumsum(later)
        total = int(ends[-1]) if ends.size else 0
        cuts = np.searchsorted(ends, np.arange(PAIR_BLOCK, total, PAIR_BLOCK))

        n = max(len(reads), 1)
        merged, pending = [], []
        for start, stop in zip(np.r_[0, cuts], np.r_[cuts, occ_idx.size]):
            pending.append(_range_pairs(index.read_idx, occ_idx[start:stop],
                                        later[start:stop], n))
            # fold the pending ranges in once they outgrow the merged table
            pending_rows = sum(p[0].size for p in pending)
            if pending_rows >= max(PAIR_BLOCK, sum(m[0].size for m in merged)):
                merged, pending = [_concat_first_per_pair(merged + pending)], []
        key, a, b, shared = _concat_first_per_pair(merged + pending)
        return TaskTable(key // n, key % n, index.pos[a], index.pos[b],
                         index.is_fwd[a] != index.is_fwd[b], self.k,
                         shared_seeds=shared)

    def _index(self, reads: ReadSet, histogram: KmerHistogram | None) -> SeedIndex:
        """Seed index of the k-mers in the band, from one extraction pass
        (whose k-mers ``_in_band`` counts when no histogram is given).  Apart from
        ``generate`` so the unfiltered columns are freed before the pairs
        are expanded."""
        lo, hi = self._band()
        occ = _occurrences(reads, self.k)
        if histogram is None:
            keep = _in_band(occ[0], lo, hi)
        else:
            keep = histogram.filtered(lo, hi).frequency_of(occ[0]) > 0
        return SeedIndex(*(c[keep] for c in occ))
