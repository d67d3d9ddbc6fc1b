"""Read containers.

:class:`ReadSet` is the library's core sequence container: a
structure-of-arrays (one flat uint8 buffer + CSR offsets) holding all reads
of a partition.  This mirrors how the paper's BSP code stores reads in flat
arrays for locality (§4.6) and keeps numpy operations over all reads
vectorizable.  :class:`Read` is a lightweight per-read view for convenience.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import SequenceError
from repro.genome import alphabet
from repro.utils.arrays import counts_to_offsets

__all__ = ["Read", "ReadSet"]


@dataclass(frozen=True)
class Read:
    """A single long read: an id, its code array, and provenance metadata.

    ``origin`` / ``origin_end`` record where in the reference genome the read
    was sampled from (synthetic data only; -1 when unknown) — used by tests
    and by quality evaluation of overlaps, never by the aligners themselves.
    """

    id: int
    codes: np.ndarray
    name: str = ""
    origin: int = -1
    origin_end: int = -1
    strand: int = 1

    def __len__(self) -> int:
        return int(self.codes.size)

    def __str__(self) -> str:
        return alphabet.decode(self.codes)


class ReadSet:
    """An immutable set of reads in structure-of-arrays layout.

    Attributes
    ----------
    buffer : uint8 array, all read codes concatenated
    offsets : int64 array of length ``len(self)+1``; read ``i`` occupies
        ``buffer[offsets[i]:offsets[i+1]]``
    ids : global read ids (int64); a partition of a distributed read set
        keeps the global ids of its local reads
    names, origins, origin_ends, strands : optional parallel metadata arrays
    """

    def __init__(
        self,
        buffer: np.ndarray,
        offsets: np.ndarray,
        ids: np.ndarray | None = None,
        names: Sequence[str] | None = None,
        origins: np.ndarray | None = None,
        origin_ends: np.ndarray | None = None,
        strands: np.ndarray | None = None,
    ):
        self.buffer = np.ascontiguousarray(buffer, dtype=np.uint8)
        self.offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        if self.offsets.ndim != 1 or self.offsets.size == 0:
            raise SequenceError("offsets must be a 1-D array with a leading 0")
        if self.offsets[0] != 0 or self.offsets[-1] != self.buffer.size:
            raise SequenceError("offsets must start at 0 and end at buffer size")
        if np.any(np.diff(self.offsets) < 0):
            raise SequenceError("offsets must be nondecreasing")
        n = self.offsets.size - 1
        self.ids = (
            np.arange(n, dtype=np.int64)
            if ids is None
            else np.ascontiguousarray(ids, dtype=np.int64)
        )
        if self.ids.size != n:
            raise SequenceError("ids length must match read count")
        self.names = list(names) if names is not None else None
        self.origins = None if origins is None else np.asarray(origins, dtype=np.int64)
        self.origin_ends = (
            None if origin_ends is None else np.asarray(origin_ends, dtype=np.int64)
        )
        self.strands = None if strands is None else np.asarray(strands, dtype=np.int8)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_codes(cls, code_arrays: Iterable[np.ndarray], **kw) -> "ReadSet":
        """Build from an iterable of per-read uint8 code arrays."""
        arrays = [np.asarray(a, dtype=np.uint8) for a in code_arrays]
        lengths = np.array([a.size for a in arrays], dtype=np.int64)
        offsets = counts_to_offsets(lengths)
        buffer = (
            np.concatenate(arrays) if arrays else np.empty(0, dtype=np.uint8)
        )
        return cls(buffer, offsets, **kw)

    @classmethod
    def from_strings(cls, seqs: Iterable[str], **kw) -> "ReadSet":
        """Build from an iterable of ACGTN strings."""
        return cls.from_codes([alphabet.encode(s) for s in seqs], **kw)

    @classmethod
    def from_reads(cls, reads: Iterable[Read]) -> "ReadSet":
        reads = list(reads)
        rs = cls.from_codes(
            [r.codes for r in reads],
            ids=np.array([r.id for r in reads], dtype=np.int64),
            names=[r.name for r in reads],
            origins=np.array([r.origin for r in reads], dtype=np.int64),
            origin_ends=np.array([r.origin_end for r in reads], dtype=np.int64),
            strands=np.array([r.strand for r in reads], dtype=np.int8),
        )
        return rs

    # -- accessors ---------------------------------------------------------

    def __len__(self) -> int:
        return self.offsets.size - 1

    @property
    def lengths(self) -> np.ndarray:
        """Per-read lengths in bases (== bytes, one byte per base)."""
        return np.diff(self.offsets)

    @property
    def total_bases(self) -> int:
        return int(self.buffer.size)

    def codes(self, i: int) -> np.ndarray:
        """Zero-copy view of read ``i``'s code array."""
        return self.buffer[self.offsets[i]: self.offsets[i + 1]]

    def read(self, i: int) -> Read:
        """Materialize read ``i`` with metadata."""
        return Read(
            id=int(self.ids[i]),
            codes=self.codes(i),
            name=self.names[i] if self.names else "",
            origin=int(self.origins[i]) if self.origins is not None else -1,
            origin_end=int(self.origin_ends[i]) if self.origin_ends is not None else -1,
            strand=int(self.strands[i]) if self.strands is not None else 1,
        )

    def __iter__(self) -> Iterator[Read]:
        for i in range(len(self)):
            yield self.read(i)

    def subset(self, indices: np.ndarray) -> "ReadSet":
        """New ReadSet with the given local indices (copies the data)."""
        indices = np.asarray(indices, dtype=np.int64)
        return ReadSet.from_codes(
            [self.codes(int(i)) for i in indices],
            ids=self.ids[indices],
            names=[self.names[int(i)] for i in indices] if self.names else None,
            origins=self.origins[indices] if self.origins is not None else None,
            origin_ends=(
                self.origin_ends[indices] if self.origin_ends is not None else None
            ),
            strands=self.strands[indices] if self.strands is not None else None,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ReadSet(n={len(self)}, bases={self.total_bases})"
