"""Vectorized k-mer extraction with 2-bit packing.

k-mers over the ACGT subset are packed into ``uint64`` words (2 bits/base,
so ``k <= 31``; the paper uses k = 17).  Windows containing ``N`` are skipped,
exactly as real long-read pipelines do.  *Canonical* k-mers — the
lexicographic minimum of a k-mer and its reverse complement — make seed
matching strand-insensitive, which is required because a pair of reads can
overlap in either relative orientation (paper Figure 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SequenceError

__all__ = ["KmerExtractor", "canonical_kmers", "pack_kmers", "unpack_kmer"]

MAX_K = 31


def _check_k(k: int) -> None:
    if not 1 <= k <= MAX_K:
        raise SequenceError(f"k must be in [1, {MAX_K}], got {k}")


def pack_kmers(codes: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Pack every valid length-``k`` window of ``codes`` into uint64.

    Returns ``(packed, positions)`` where ``positions`` are the window start
    offsets of the *valid* (N-free) windows, in increasing order.
    """
    _check_k(k)
    codes = np.asarray(codes, dtype=np.uint8)
    n = codes.size
    if n < k:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)

    # one shift-or pass per base, so memory stays O(n) rather than O(n * k)
    m = n - k + 1
    packed = np.zeros(m, dtype=np.uint64)
    invalid = np.zeros(m, dtype=bool)
    for j in range(k):
        window = codes[j : j + m]
        packed <<= np.uint64(2)
        packed |= window & 3
        invalid |= window > 3
    positions = np.flatnonzero(~invalid)
    packed = packed[positions]
    return packed, positions


def revcomp_packed(packed: np.ndarray, k: int) -> np.ndarray:
    """Reverse complement of packed k-mers, vectorized.

    Complementing a 2-bit base is ``base ^ 3``; reversal swaps base order.
    Implemented with bit-fiddling on the uint64 words.
    """
    _check_k(k)
    x = np.asarray(packed, dtype=np.uint64)
    # Complement all bases at once (only the low 2k bits are meaningful).
    mask = np.uint64((1 << (2 * k)) - 1)
    x = (~x) & mask
    # Reverse 2-bit groups within the low 2k bits: classic bit-reversal by
    # swapping progressively larger chunks, then shift down.
    m2 = np.uint64(0x3333333333333333)
    m4 = np.uint64(0x0F0F0F0F0F0F0F0F)
    m8 = np.uint64(0x00FF00FF00FF00FF)
    m16 = np.uint64(0x0000FFFF0000FFFF)
    x = ((x >> np.uint64(2)) & m2) | ((x & m2) << np.uint64(2))
    x = ((x >> np.uint64(4)) & m4) | ((x & m4) << np.uint64(4))
    x = ((x >> np.uint64(8)) & m8) | ((x & m8) << np.uint64(8))
    x = ((x >> np.uint64(16)) & m16) | ((x & m16) << np.uint64(16))
    x = (x >> np.uint64(32)) | (x << np.uint64(32))
    # The reversed word now holds the bases in the top 2k bits of 64.
    return (x >> np.uint64(64 - 2 * k)).astype(np.uint64)


def canonical_kmers(codes: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical (strand-normalized) packed k-mers and their positions."""
    fwd, positions = pack_kmers(codes, k)
    if fwd.size == 0:
        return fwd, positions
    rc = revcomp_packed(fwd, k)
    return np.minimum(fwd, rc), positions


def unpack_kmer(packed: int, k: int) -> str:
    """Decode one packed k-mer back to an ACGT string (for debugging)."""
    _check_k(k)
    out = []
    value = int(packed)
    for _ in range(k):
        out.append("ACGT"[value & 3])
        value >>= 2
    return "".join(reversed(out))


@dataclass(frozen=True)
class KmerExtractor:
    """Extract canonical k-mers from reads.

    Parameters
    ----------
    k : k-mer length (paper uses 17).
    canonical : normalize over strands (default True).
    """

    k: int = 17
    canonical: bool = True

    def __post_init__(self) -> None:
        _check_k(self.k)

    def extract_readset(self, reads) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All k-mers of a :class:`ReadSet`.

        Returns ``(kmers, read_indices, positions)`` — flat parallel arrays
        across all reads, read-major and by position within a read;
        ``read_indices`` holds *local* read indices.  One vectorized pass
        over the concatenated buffer, not one call per read.
        """
        k = self.k
        kmers, pos = pack_kmers(reads.buffer, k)
        # drop the windows that straddle two reads
        rids = np.searchsorted(reads.offsets, pos, side="right")
        rids -= 1
        keep = pos <= (reads.offsets[1:] - k)[rids]
        kmers = kmers[keep]
        rids = rids[keep]
        pos = pos[keep]
        pos -= reads.offsets[rids]
        if self.canonical:
            kmers = np.minimum(kmers, revcomp_packed(kmers, k))
        return kmers, rids, pos
