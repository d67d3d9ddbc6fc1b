"""Read and task partitioning (DiBELLA stage 1 and the task redistribution).

* **Reads** are partitioned *uniformly by size* — "a data-independent
  strategy in that no characteristic other than size in memory is
  considered" (§3): contiguous runs of reads whose byte totals are as even
  as possible.
* **Tasks** are redistributed preserving the invariant that *each task is
  assigned to the owner of one or both of the required reads*, with task
  counts roughly balanced across processors (§3).  The implementation is
  the greedy heuristic: stream tasks, give each to the currently
  less-loaded of its two read owners.  The paper calls this "blind"
  partitioning; by-estimated-cost assignment is provided as the ablation
  the paper proposes as future work (§5).
* Every workload class renders assignments from one
  :class:`ReadPartition` per rank count — boundaries, per-rank read and
  byte shares, and the read → owner table the renderers gather from —
  memoized by :class:`PartitionMemo`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.errors import PartitionError
from repro.utils.arrays import counts_to_offsets
from repro.utils.cache import LruCache

__all__ = [
    "partition_reads_by_size",
    "owner_table",
    "ReadPartition",
    "PartitionMemo",
    "assign_tasks_balanced",
    "check_ownership_invariant",
]


def partition_reads_by_size(lengths: np.ndarray, num_ranks: int) -> np.ndarray:
    """Contiguous byte-balanced partition of reads.

    Returns ``boundaries`` of length ``num_ranks + 1``: rank ``r`` owns
    reads ``[boundaries[r], boundaries[r+1])``.  Boundary ``r`` is placed at
    the read index whose byte prefix-sum first reaches ``r/P`` of the total,
    so every rank's byte load is within one read of the ideal.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if num_ranks <= 0:
        raise PartitionError("num_ranks must be positive")
    n = lengths.size
    prefix = np.concatenate([[0], np.cumsum(lengths)])
    total = prefix[-1]
    targets = total * np.arange(num_ranks + 1, dtype=np.float64) / num_ranks
    boundaries = np.searchsorted(prefix, targets, side="left").astype(np.int64)
    boundaries[0] = 0
    boundaries[-1] = n
    # monotonicity can break only on pathological inputs (e.g. zero-length
    # runs); enforce it so every rank gets a valid (possibly empty) range
    np.maximum.accumulate(boundaries, out=boundaries)
    return boundaries


def owners_from_boundaries(read_ids: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """Owner rank of each read id under a contiguous partition.

    One binary search per element: right for a handful of ids (the micro
    engines' :meth:`MicroPlan.owner_of_read`).  Per-task columns go
    through :meth:`ReadPartition.owners`, a table gather ~20x cheaper per
    element.
    """
    read_ids = np.asarray(read_ids, dtype=np.int64)
    owners = np.searchsorted(boundaries, read_ids, side="right") - 1
    return owners.astype(np.int64)


def owner_table(boundaries: np.ndarray) -> np.ndarray:
    """Owner rank of every read id: ``table[i]`` for ``0 <= i < n_reads``.

    Equals :func:`owners_from_boundaries` on every valid id; an empty rank
    (repeated boundaries) simply contributes no entries.
    """
    num_ranks = len(boundaries) - 1
    return np.repeat(np.arange(num_ranks, dtype=np.int64), np.diff(boundaries))


class ReadPartition(NamedTuple):
    """The stage-1 partition of one read set onto ``P`` ranks."""

    boundaries: np.ndarray       # (P + 1,) int64
    reads_per_rank: np.ndarray   # (P,) float64
    partition_bytes: np.ndarray  # (P,) float64
    owner_table: np.ndarray      # (n_reads,) int64, read id -> owner rank

    def owners(self, read_ids: np.ndarray) -> np.ndarray:
        """Owner rank of each read id of a task column (table gather).

        A gather would silently wrap a negative id to the last rank, so
        the column's range is checked first — once per array.
        """
        read_ids = np.asarray(read_ids)
        n_reads = self.owner_table.size
        if read_ids.size and (read_ids.min() < 0 or read_ids.max() >= n_reads):
            raise PartitionError(
                f"read id out of range [0, {n_reads}): column spans "
                f"[{read_ids.min()}, {read_ids.max()}]"
            )
        return self.owner_table[read_ids]


class PartitionMemo:
    """:class:`ReadPartition` of one read set, memoized per rank count.

    The partition depends only on ``(read_lengths, P)`` and the byte prefix
    not even on ``P``, so neither is recomputed on an assignment-cache miss
    (hit counters: ``cache.stats()``).
    """

    def __init__(self, read_lengths: np.ndarray, maxsize: int):
        self.read_lengths = read_lengths
        self.cache: LruCache = LruCache(maxsize)
        self._prefix = counts_to_offsets(read_lengths)

    def _build(self, num_ranks: int) -> ReadPartition:
        boundaries = partition_reads_by_size(self.read_lengths, num_ranks)
        return ReadPartition(
            boundaries,
            np.diff(boundaries).astype(np.float64),
            np.diff(self._prefix[boundaries]).astype(np.float64),
            owner_table(boundaries),
        )

    def __call__(self, num_ranks: int) -> ReadPartition:
        return self.cache.get_or_create(
            num_ranks, lambda: self._build(num_ranks)
        )


def assign_tasks_balanced(
    owner_a: np.ndarray,
    owner_b: np.ndarray,
    num_ranks: int,
    costs: np.ndarray | None = None,
) -> np.ndarray:
    """Assign each task to the owner of read a or read b, balancing load.

    With ``costs=None`` the load is the task *count* (the paper's
    heuristic); with per-task cost estimates it becomes the semi-static
    by-cost variant (§5 future work, exercised by the ablation bench).

    The owner columns come from :meth:`ReadPartition.owners`.

    Returns the assigned rank per task.  The greedy stream is O(T) with a
    Python loop — acceptable for concrete workloads (millions of tasks);
    statistical workloads model the assignment instead.
    """
    owner_a = np.asarray(owner_a, dtype=np.int64)
    owner_b = np.asarray(owner_b, dtype=np.int64)
    if owner_a.shape != owner_b.shape:
        raise PartitionError("owner arrays must have equal shape")
    if owner_a.size and (
        min(owner_a.min(), owner_b.min()) < 0
        or max(owner_a.max(), owner_b.max()) >= num_ranks
    ):
        raise PartitionError("owner rank out of range")
    weights = (
        np.ones(owner_a.size, dtype=np.float64)
        if costs is None
        else np.asarray(costs, dtype=np.float64)
    )
    loads = np.zeros(num_ranks, dtype=np.float64)
    assigned = np.empty(owner_a.size, dtype=np.int64)
    for t in range(owner_a.size):
        a, b = owner_a[t], owner_b[t]
        pick = a if loads[a] <= loads[b] else b
        assigned[t] = pick
        loads[pick] += weights[t]
    return assigned


def check_ownership_invariant(
    assigned: np.ndarray, owner_a: np.ndarray, owner_b: np.ndarray
) -> None:
    """Raise PartitionError unless every task sits with one of its owners."""
    assigned = np.asarray(assigned)
    ok = (assigned == np.asarray(owner_a)) | (assigned == np.asarray(owner_b))
    if not ok.all():
        bad = int(np.count_nonzero(~ok))
        raise PartitionError(
            f"{bad} task(s) assigned to a rank owning neither read"
        )
