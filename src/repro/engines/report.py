"""Runtime breakdowns: the paper's measurement vocabulary.

Every run produces per-rank times in four categories, matching the stacked
bars of Figures 3, 4, 8, 9, 10:

* ``compute_align`` — "Computation (Alignment)": the seed-and-extend kernel;
* ``compute_overhead`` — "Computation (Overhead)": data structure traversal
  and kernel invocation overhead (flat arrays vs pointer-based containers,
  §4.6 / Figure 13);
* ``comm`` — visible (unhidden) communication latency;
* ``sync`` — barrier / collective waiting, dominated by load imbalance.

Statistics are min/avg/max/sum reductions across ranks (the paper computes
them with global reductions excluded from timing, §4); memory footprints are
per-rank high-water marks (§4.5).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError
from repro.machine.config import MachineSpec
from repro.obs.metrics import CATEGORIES, PhaseTimers
from repro.utils.stats import Summary, summarize

__all__ = ["PhaseTimers", "RuntimeBreakdown", "RunResult", "CATEGORIES",
           "churn_summary"]


def churn_summary(details: dict) -> str | None:
    """One-line makespan-under-churn statement, or ``None`` without churn.

    Reads the uniform ``details["churn"]`` section every engine emits on a
    churned run (:class:`repro.engines.rebalance.MigrationLedger`) and
    renders the report line the resilience story centers on: the job
    finished despite the membership events, and this is what the
    checkpointed handoffs cost.
    """
    churn = details.get("churn")
    if not churn:
        return None
    ev = churn.get("evictions_honored", [])
    jo = churn.get("joins_honored", [])
    bits = [
        f"job finished despite {len(ev)} eviction(s), {len(jo)} join(s)"
    ]
    if ev:
        bits.append("evicted=" + ",".join(f"r{r}" for r in ev))
    if jo:
        bits.append("joined=" + ",".join(f"r{r}" for r in jo))
    bits.append(
        f"migration overhead {churn.get('migration_seconds', 0.0):.6g} s "
        f"({churn.get('tasks_migrated', 0.0):.0f} tasks, "
        f"{churn.get('migration_bytes', 0.0):.0f} bytes moved)"
    )
    return "; ".join(bits)


def _canonical(value) -> str:
    """Type-tagged, platform-stable rendering of one ``details`` value.

    Floats go through ``float.hex`` (exact bits, no repr rounding), dicts
    in sorted key order, so equal values always render equal and nearly
    equal values never do.
    """
    if isinstance(value, bool):
        return f"b:{int(value)}"
    if isinstance(value, (float, np.floating)):
        return f"f:{float(value).hex()}"
    if isinstance(value, (int, np.integer)):
        return f"i:{int(value)}"
    if isinstance(value, str):
        return f"s:{value}"
    if isinstance(value, dict):
        inner = ",".join(
            f"{k}={_canonical(value[k])}" for k in sorted(value)
        )
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(v) for v in value) + "]"
    if isinstance(value, np.ndarray):
        return "a:" + np.ascontiguousarray(value).tobytes().hex()
    return f"r:{value!r}"


@dataclass(frozen=True)
class RuntimeBreakdown:
    """Per-rank category times plus the run's wall-clock duration."""

    engine: str
    machine: MachineSpec
    workload: str
    wall_time: float
    compute_align: np.ndarray
    compute_overhead: np.ndarray
    comm: np.ndarray
    sync: np.ndarray

    def category(self, name: str) -> np.ndarray:
        if name not in CATEGORIES:
            raise SimulationError(f"unknown timing category {name!r}")
        return getattr(self, name)

    def summary(self, name: str) -> Summary:
        return summarize(self.category(name))

    @property
    def per_rank_total(self) -> np.ndarray:
        return (
            self.compute_align + self.compute_overhead + self.comm + self.sync
        )

    def fractions(self) -> dict[str, float]:
        """Average share of each category in the wall-clock runtime.

        Contract: the returned dict *always* carries every key in
        :data:`CATEGORIES`, so callers may index it unconditionally (the
        CLI's ``_print_result`` does).  A zero or negative wall clock — an
        empty workload, or ``--comm-only`` on inputs too small to register —
        yields all-zero fractions rather than a division error or a bare
        ``None``.
        """
        if self.wall_time <= 0:
            return {c: 0.0 for c in CATEGORIES}
        return {
            c: float(self.category(c).mean()) / self.wall_time
            for c in CATEGORIES
        }

    def validate(self, rtol: float = 1e-6) -> None:
        """Per-rank categories must tile the wall clock (within tolerance).

        Every rank is always in exactly one state (computing, communicating,
        or waiting), so category sums must equal the wall time.
        """
        # np.allclose's test, |total - wall| <= 1e-9 + rtol * |wall|, on
        # the worst rank, which is the largest or the smallest total; a
        # NaN anywhere makes both extremes NaN and fails it
        totals = self.per_rank_total
        wall = self.wall_time
        worst = max(float(totals.max(initial=wall)) - wall,
                    wall - float(totals.min(initial=wall)))
        if not worst <= 1e-9 + rtol * abs(wall):
            raise SimulationError(
                f"per-rank breakdown does not tile wall time "
                f"(max deviation {worst:.3e}s of {self.wall_time:.3e}s)"
            )


@dataclass(frozen=True)
class RunResult:
    """Everything one engine run produces."""

    breakdown: RuntimeBreakdown
    #: per-rank peak memory footprint, bytes (Figure 11)
    memory_high_water: np.ndarray
    #: number of BSP communication rounds (1 == single superstep); the
    #: async engine reports 0
    exchange_rounds: int = 0
    #: alignments actually computed (micro runs with the real kernel only)
    alignments: list | None = None
    #: extra engine-specific diagnostics
    details: dict = field(default_factory=dict)

    @property
    def wall_time(self) -> float:
        return self.breakdown.wall_time

    @property
    def max_memory_per_rank(self) -> float:
        return float(self.memory_high_water.max(initial=0.0))

    def signature(self) -> str:
        """SHA-256 digest over a canonical serialization of the whole result.

        Covers every field a run produces: engine/workload identity, the
        wall clock and all four per-rank category vectors (exact float64
        bytes), memory high-water marks, exchange rounds, every alignment
        field-by-field, and the ``details`` dict in canonical form.  The
        golden-signature suite (``tests/test_golden_signatures.py``) pins
        one digest per (engine, workload): any behavioral drift — kernel
        results, the timing model, memory accounting, fault bookkeeping —
        changes the digest, while a pure refactor keeps it.
        """
        h = hashlib.sha256()

        def feed(*parts) -> None:
            for p in parts:
                h.update(str(p).encode())
                h.update(b"\x1f")

        b = self.breakdown
        feed("engine", b.engine, "workload", b.workload,
             "nodes", b.machine.nodes, "ranks", b.machine.total_ranks,
             "wall", float(b.wall_time).hex())
        for c in CATEGORIES:
            h.update(c.encode())
            h.update(np.ascontiguousarray(
                b.category(c), dtype=np.float64).tobytes())
        h.update(b"mem")
        h.update(np.ascontiguousarray(
            self.memory_high_water, dtype=np.float64).tobytes())
        feed("rounds", self.exchange_rounds)
        if self.alignments is None:
            feed("alignments", "none")
        else:
            feed("alignments", len(self.alignments))
            for al in self.alignments:
                feed(al.read_a, al.read_b, al.score,
                     al.begin_a, al.end_a, al.begin_b, al.end_b,
                     int(al.reverse), al.cells, int(al.terminated_early))
        for key in sorted(self.details):
            feed("detail", key, _canonical(self.details[key]))
        return h.hexdigest()
