"""The task table: alignment tasks in structure-of-arrays layout.

A *task* is one pairwise seed-and-extend alignment: two global read ids, the
seed positions, orientation, and (once known) a cost estimate.  The BSP code
of the paper stores tasks in flat arrays for locality (§4.6); this container
is that flat layout, shared by both engines (the Async engine's
pointer-based-container overhead is *modeled*, §4.6 / Figure 13).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PartitionError

__all__ = ["Candidate", "TaskTable"]


@dataclass(frozen=True)
class Candidate:
    """One task as a scalar record, for the scalar aligner API.

    ``pos_a`` / ``pos_b`` are the seed start offsets in each read (``pos_b``
    is on read b's forward strand even for reverse candidates; the aligner
    performs the coordinate flip).  ``reverse`` marks opposite orientation.
    """

    read_a: int
    read_b: int
    pos_a: int
    pos_b: int
    k: int
    reverse: bool = False
    shared_seeds: int = 1


@dataclass
class TaskTable:
    """Parallel arrays describing all alignment tasks of a workload.

    ``read_a``/``read_b`` are *global* read ids; ``pos_a``/``pos_b`` seed
    offsets; ``reverse`` orientation flags; ``k`` the (single) seed length.
    ``owner`` (assigned rank) and ``cost`` (estimated seconds) are filled in
    by the partitioner / cost model; ``shared_seeds`` (retained k-mers the
    pair shares) by the candidate generator.  Each is optional.
    """

    read_a: np.ndarray
    read_b: np.ndarray
    pos_a: np.ndarray
    pos_b: np.ndarray
    reverse: np.ndarray
    k: int
    owner: np.ndarray | None = None
    cost: np.ndarray | None = None
    shared_seeds: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.read_a = np.asarray(self.read_a, dtype=np.int64)
        self.read_b = np.asarray(self.read_b, dtype=np.int64)
        self.pos_a = np.asarray(self.pos_a, dtype=np.int64)
        self.pos_b = np.asarray(self.pos_b, dtype=np.int64)
        self.reverse = np.asarray(self.reverse, dtype=bool)
        n = self.read_a.size
        for name in ("read_b", "pos_a", "pos_b", "reverse"):
            if getattr(self, name).size != n:
                raise PartitionError(f"task array {name} length mismatch")
        for name, dtype in (("owner", np.int64), ("cost", np.float64),
                            ("shared_seeds", np.int64)):
            if getattr(self, name) is not None:
                setattr(self, name, np.asarray(getattr(self, name), dtype=dtype))
                if getattr(self, name).size != n:
                    raise PartitionError(f"{name} array length mismatch")

    def __len__(self) -> int:
        return int(self.read_a.size)

    def candidate(self, i: int) -> Candidate:
        """Row ``i`` as a scalar :class:`Candidate`."""
        return Candidate(
            int(self.read_a[i]), int(self.read_b[i]),
            int(self.pos_a[i]), int(self.pos_b[i]), self.k,
            bool(self.reverse[i]),
            1 if self.shared_seeds is None else int(self.shared_seeds[i]),
        )
