"""Checkpointed migration and elastic-membership rebalancing (churn layer).

Production clusters change membership mid-run: spot semantics evict ranks
with a warning window, elastic allocations add ranks to a job already
underway.  This module is the engine-side machinery for surviving that
churn *conserved and bit-reproducibly*:

* :class:`MigrationLedger` — uniform accounting of honored joins,
  evictions, and checkpoint handoffs (tasks moved, bytes shipped, comm
  seconds charged), surfaced as the ``churn`` section of a run's
  ``details`` and the makespan-under-churn report;
* :func:`executor_map` — deterministic delegation of absent ranks' work to
  current members (micro BSP reassigns at superstep boundaries);
* :class:`ChurnPool` — a deterministic shared work pool for the micro
  async engine: members drain their own items first and claim *orphaned*
  items (owner departed, or not yet joined) in ascending owner order, so
  no unfinished work is ever stranded by a departure.

The macro engines' membership math lives in ``BSPEngine.run`` and
``_pull_churn_events`` in :mod:`repro.engines.common`, each walking the
schedule's one ordered event stream —
this module deliberately sits below ``common`` in the import graph so both
layers can share the ledger.

Everything here is driven by the membership timeline of
:class:`repro.machine.degradation.DegradationSchedule`; nothing draws
randomness, so churn runs stay bit-identical per seed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.errors import RankFailureError

__all__ = ["MigrationLedger", "ChurnPool", "PoolItem", "executor_map"]


@dataclass
class MigrationLedger:
    """Accounting of one run's honored membership events and handoffs."""

    #: ranks whose join was honored, in honor order
    joins: list[int] = field(default_factory=list)
    #: ranks whose eviction departure was honored, in honor order
    evictions: list[int] = field(default_factory=list)
    #: tasks handed off via checkpoint (migrated, *not* redone)
    tasks_migrated: float = 0.0
    #: checkpoint + partition bytes shipped during handoffs
    migration_bytes: float = 0.0
    #: per-rank comm seconds charged to migration transfers, summed
    migration_seconds: float = 0.0

    def record_join(self, rank: int) -> None:
        self.joins.append(int(rank))

    def record_evict(self, rank: int) -> None:
        self.evictions.append(int(rank))

    def record_migration(self, tasks: float, nbytes: float,
                         seconds: float) -> None:
        self.tasks_migrated += float(tasks)
        self.migration_bytes += float(nbytes)
        self.migration_seconds += float(seconds)

    def churn_details(self) -> dict:
        """The uniform ``details["churn"]`` section of a churned run."""
        return {
            "joins_honored": list(self.joins),
            "evictions_honored": list(self.evictions),
            "tasks_migrated": float(self.tasks_migrated),
            "migration_bytes": float(self.migration_bytes),
            "migration_seconds": float(self.migration_seconds),
        }


def executor_map(member_mask: np.ndarray) -> np.ndarray:
    """Who executes each original rank's work under the given membership.

    A member executes its own work; an absent rank's work is delegated to
    ``members[orig % n_members]`` — deterministic, and spreading multiple
    absentees over distinct delegates.
    """
    members = np.flatnonzero(member_mask)
    if members.size == 0:
        raise RankFailureError(
            "no member ranks left; nothing to delegate work to"
        )
    exec_map = np.arange(member_mask.size, dtype=np.int64)
    for orig in np.flatnonzero(~member_mask):
        exec_map[orig] = members[int(orig) % members.size]
    return exec_map


@dataclass(frozen=True)
class PoolItem:
    """One claimable unit of work: an original owner's task group.

    ``rid`` is the remote read the group waits on, or ``-1`` for the
    owner's local-local group (no pull needed).
    """

    orig: int
    rid: int
    tasks: tuple[int, ...]


class ChurnPool:
    """Deterministic shared work pool for the micro async engine.

    Items stay queued under their original owner.  :meth:`claim` serves a
    rank its *own* queue first; once that drains, the rank may claim
    orphaned items — items whose owner is currently not a member (already
    departed, or not yet joined) — in ascending owner order.  Items of a
    present member are never stolen, so a churn plan whose events all land
    after the run finishes leaves every rank doing exactly its own work.
    """

    def __init__(self, items_by_orig: dict[int, list[PoolItem]]):
        self._queues: dict[int, deque[PoolItem]] = {
            orig: deque(items) for orig, items in sorted(items_by_orig.items())
        }

    def claim(self, rank: int, is_member) -> PoolItem | None:
        """Next item for ``rank``, or ``None`` if nothing is claimable now.

        ``is_member(orig)`` is evaluated at call time, so claimability
        tracks the live membership timeline.
        """
        q = self._queues.get(rank)
        if q:
            return q.popleft()
        for orig in self._queues:
            if orig == rank:
                continue
            q = self._queues[orig]
            if q and not is_member(orig):
                return q.popleft()
        return None

    def claimable(self, rank: int, is_member) -> bool:
        """Would :meth:`claim` currently return an item for ``rank``?"""
        q = self._queues.get(rank)
        if q:
            return True
        return any(
            orig != rank and q and not is_member(orig)
            for orig, q in self._queues.items()
        )

    def pending_anywhere(self) -> bool:
        """Is any item still unclaimed (regardless of membership)?"""
        return any(self._queues.values())
