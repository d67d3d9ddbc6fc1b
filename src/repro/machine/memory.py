"""Per-node simulated memory accounting.

The paper's central memory story: per-node memory limits the BSP exchange
(message buffer) sizes, forcing multiple supersteps at small node counts on
Human CCS (Figures 9, 11), while the Async code keeps at most a bounded set
of in-flight remote reads (<256 MB/core across scales).  The tracker charges
named allocations against each node's application-available budget, records
per-rank high-water marks (what NERSC's job logs report, §4.5), and raises
:class:`MemoryLimitError` on oversubscription so engines must size their
rounds honestly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import MemoryLimitError
from repro.machine.config import MachineSpec
from repro.utils.units import fmt_bytes

__all__ = ["NodeMemory", "MemoryTracker"]


@dataclass
class NodeMemory:
    """Allocation ledger of one node."""

    capacity: float
    used: float = 0.0
    high_water: float = 0.0
    allocations: dict[str, float] = field(default_factory=dict)

    def allocate(self, label: str, nbytes: float) -> None:
        if nbytes < 0:
            raise MemoryLimitError(f"negative allocation {label!r}")
        new_used = self.used + nbytes
        if new_used > self.capacity * (1 + 1e-9):
            raise MemoryLimitError(
                f"allocation {label!r} of {fmt_bytes(nbytes)} exceeds node "
                f"budget ({fmt_bytes(self.used)} used of "
                f"{fmt_bytes(self.capacity)})"
            )
        self.used = new_used
        self.allocations[label] = self.allocations.get(label, 0.0) + nbytes
        self.high_water = max(self.high_water, self.used)

    def free(self, label: str, nbytes: float | None = None) -> None:
        held = self.allocations.get(label, 0.0)
        amount = held if nbytes is None else float(nbytes)
        if amount > held * (1 + 1e-9):
            raise MemoryLimitError(
                f"freeing {fmt_bytes(amount)} of {label!r} but only "
                f"{fmt_bytes(held)} allocated"
            )
        self.allocations[label] = held - amount
        if self.allocations[label] <= 1e-9:
            del self.allocations[label]
        self.used -= amount


class MemoryTracker:
    """Memory ledgers for every node of a machine.

    Rank-level convenience methods charge a rank's node; per-*rank*
    high-water marks are also tracked because the paper reports footprints
    per core (Figure 11).
    """

    def __init__(self, machine: MachineSpec):
        self.machine = machine
        per_node_budget = (
            machine.node.app_memory_per_core * machine.app_cores_per_node
        )
        self.nodes = [NodeMemory(capacity=per_node_budget) for _ in range(machine.nodes)]
        self._rank_used = np.zeros(machine.total_ranks, dtype=np.float64)
        self._rank_high_water = np.zeros(machine.total_ranks, dtype=np.float64)

    def node_of(self, rank: int) -> NodeMemory:
        return self.nodes[self.machine.node_of_rank(rank)]

    def allocate(self, rank: int, label: str, nbytes: float) -> None:
        self.node_of(rank).allocate(f"r{rank}:{label}", nbytes)
        self._rank_used[rank] += nbytes
        self._rank_high_water[rank] = max(
            self._rank_high_water[rank], self._rank_used[rank]
        )

    def free(self, rank: int, label: str, nbytes: float | None = None) -> None:
        node = self.node_of(rank)
        key = f"r{rank}:{label}"
        amount = node.allocations.get(key, 0.0) if nbytes is None else float(nbytes)
        node.free(key, amount)
        self._rank_used[rank] -= amount

    def rank_high_water(self) -> np.ndarray:
        """Per-rank peak footprint (bytes) — Figure 11's quantity."""
        return self._rank_high_water.copy()
