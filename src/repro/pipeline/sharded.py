"""Sharded, lazily-materialized workloads: paper scale without paper memory.

The paper's headline datasets (E. coli 100x: 24.9M alignment tasks, Human
CCS: 87.6M, Table 1) never fit the "build one giant task table, then slice
it" pattern the materialized workload classes use — holding every task row
in memory before any engine runs caps the reproduction around 10^5 tasks.
diBELLA and the parallel string-graph line of work reach genome scale by
streaming bounded partitions between pipeline stages; this module applies
the same memory-limited idea to workload *construction*:

* :class:`ShardedWorkload` generates (or slices) task rows in fixed-size
  shards, each seeded deterministically by shard-independent generator
  blocks, so the shard size is a pure memory knob — it can never change a
  single result.
* The per-rank aggregates every engine consumes (:meth:`assignment`) are
  accumulated shard-by-shard with in-order ``np.add.at`` folds, which
  reproduce the materialized path's ``bincount``/``segment_sums`` results
  **bit-identically** (both are sequential left-to-right folds into
  float64 bins over the same element order).
* Deduplicated remote-read structure — the one aggregate that genuinely
  needs global state — runs as an external bucket sort: each shard's
  ``(requester, read)`` keys are sorted, deduplicated and appended to
  on-disk range buckets, and finalization walks the buckets in ascending
  key order — the order the materialized path's sorted distinct keys
  (:func:`~repro.utils.arrays.sorted_unique`) fold in.
* Resident shard columns are bounded by :class:`ShardStore`: an LRU of at
  most ``max_resident_shards`` shards, charged against a
  :class:`repro.machine.memory.NodeMemory` ledger (allocate on load, free
  on evict, high-water recorded), with evicted columns spilled to disk —
  or to shared memory, by pointing the spill directory at ``/dev/shm``.

Two backings share all of that machinery:

* :meth:`ShardedWorkload.from_workload` wraps an existing
  :class:`~repro.pipeline.workload.ConcreteWorkload`.  Its streamed
  :meth:`assignment`/:meth:`micro_plan` are bit-identical to the
  materialized ones (golden-signature-pinned), and the micro engines +
  process backend keep working through the ``reads``/``tasks``/
  ``task_costs`` delegation to the backing — they cannot tell the two
  apart (docs/PARALLEL.md).
* :meth:`ShardedWorkload.synthetic` generates Table-1-scale task rows
  from the statistical presets.  Unlike
  :class:`~repro.pipeline.workload.StatisticalWorkload` (which models
  per-rank aggregates directly), this path draws *actual task rows* —
  uniform read pairs, calibrated costs, a deterministic owner coin — and
  derives the exchange structure exactly, so a 10^7–10^8-task macro sweep
  runs with peak workload memory bounded by the resident-shard budget
  (``benchmarks/bench_scale_sweep.py``).
"""

from __future__ import annotations

import os
import tempfile
from collections import OrderedDict
from typing import Callable, Iterator

import numpy as np

from repro.align.cost import AlignmentCostModel
from repro.errors import ConfigurationError
from repro.genome.datasets import DatasetSpec
from repro.machine.memory import NodeMemory
from repro.pipeline.partition import (
    PartitionMemo,
    ReadPartition,
    assign_tasks_balanced,
)
from repro.pipeline.workload import (
    ASSIGNMENT_CACHE_CAP,
    ConcreteWorkload,
    MicroPlan,
    WorkloadAssignment,
    calibrated_cost_dist,
    generate_read_lengths,
    spec_rngs,
)
from repro.utils.arrays import sorted_unique
from repro.utils.cache import LruCache

__all__ = [
    "ShardedWorkload",
    "ShardStore",
    "DEFAULT_SHARD_TASKS",
    "DEFAULT_RESIDENT_SHARDS",
]

#: default tasks per shard: large enough that per-shard numpy dispatch is
#: noise, small enough that a handful of resident shards stay well under
#: one node's budget even on Human CCS
DEFAULT_SHARD_TASKS = 1 << 18

#: default resident-shard budget (shards simultaneously held in memory)
DEFAULT_RESIDENT_SHARDS = 4

#: environment override for where evicted shard columns spill
#: (point at /dev/shm to spill to shared memory instead of disk)
SPILL_DIR_ENV = "REPRO_SHARD_SPILL_DIR"

#: tasks per synthetic generator block — fixed regardless of the shard
#: size, so shard boundaries never change which RNG stream draws a task
GEN_BLOCK = 1 << 16


class ShardStore:
    """Bounded-resident LRU of shard columns with spill + memory ledger.

    ``build(shard_id, lo, hi)`` materializes one shard's columns on first
    touch; at most ``max_resident`` shards stay in memory, accounted
    against a :class:`~repro.machine.memory.NodeMemory` ledger sized to
    ``max_resident * bytes_per_shard`` (so an accounting bug that leaks a
    shard raises :class:`~repro.errors.MemoryLimitError` instead of
    silently growing).  Evicted shards spill once to ``.npz`` files in the
    spill directory and reload from there — cheaper than regenerating
    draws, and the file is the out-of-core copy the resident budget
    assumes exists.
    """

    def __init__(
        self,
        n_tasks: int,
        shard_tasks: int,
        build: Callable[[int, int, int], dict],
        bytes_per_task: int,
        max_resident: int = DEFAULT_RESIDENT_SHARDS,
        spill_dir: str | None = None,
    ):
        if shard_tasks < 1:
            raise ConfigurationError("shard_tasks must be >= 1")
        if max_resident < 1:
            raise ConfigurationError("max_resident_shards must be >= 1")
        self.n_tasks = int(n_tasks)
        self.shard_tasks = int(shard_tasks)
        self.n_shards = -(-self.n_tasks // self.shard_tasks)
        self.max_resident = int(max_resident)
        self._build = build
        self.bytes_per_shard = int(bytes_per_task) * self.shard_tasks
        # the ledger is the budget: eviction keeps `used` under capacity,
        # and `high_water` is the measured peak the scale bench reports
        self.ledger = NodeMemory(
            capacity=float(self.max_resident * self.bytes_per_shard)
        )
        self._resident: OrderedDict[int, dict] = OrderedDict()
        self._tmp = tempfile.TemporaryDirectory(
            prefix="repro-shards-",
            dir=spill_dir or os.environ.get(SPILL_DIR_ENV) or None,
        )
        self._spilled: set[int] = set()
        self.builds = 0
        self.reloads = 0
        self.evictions = 0
        self.hits = 0

    def shard_range(self, shard_id: int) -> tuple[int, int]:
        lo = shard_id * self.shard_tasks
        return lo, min(lo + self.shard_tasks, self.n_tasks)

    def _spill_path(self, shard_id: int) -> str:
        return os.path.join(self._tmp.name, f"shard{shard_id}.npz")

    def _nbytes(self, columns: dict) -> float:
        return float(sum(arr.nbytes for arr in columns.values()))

    def _admit(self, shard_id: int, columns: dict) -> None:
        while len(self._resident) >= self.max_resident:
            old_id, old_cols = self._resident.popitem(last=False)
            if old_id not in self._spilled:
                np.savez(self._spill_path(old_id), **old_cols)
                self._spilled.add(old_id)
            self.ledger.free(f"shard{old_id}")
            self.evictions += 1
        self.ledger.allocate(f"shard{shard_id}", self._nbytes(columns))
        self._resident[shard_id] = columns

    def get(self, shard_id: int) -> dict:
        """This shard's columns (resident, reloaded from spill, or built)."""
        columns = self._resident.get(shard_id)
        if columns is not None:
            self._resident.move_to_end(shard_id)
            self.hits += 1
            return columns
        if shard_id in self._spilled:
            with np.load(self._spill_path(shard_id)) as npz:
                columns = {name: npz[name] for name in npz.files}
            self.reloads += 1
        else:
            lo, hi = self.shard_range(shard_id)
            columns = self._build(shard_id, lo, hi)
            self.builds += 1
        self._admit(shard_id, columns)
        return columns

    def __iter__(self) -> Iterator[tuple[int, dict]]:
        for shard_id in range(self.n_shards):
            yield shard_id, self.get(shard_id)

    @property
    def resident_bytes(self) -> float:
        return self.ledger.used

    @property
    def peak_resident_bytes(self) -> float:
        return self.ledger.high_water

    @property
    def budget_bytes(self) -> float:
        return self.ledger.capacity

    def stats(self) -> dict:
        return {
            "n_shards": self.n_shards,
            "shard_tasks": self.shard_tasks,
            "max_resident": self.max_resident,
            "resident": len(self._resident),
            "resident_bytes": self.resident_bytes,
            "peak_resident_bytes": self.peak_resident_bytes,
            "budget_bytes": self.budget_bytes,
            "builds": self.builds,
            "reloads": self.reloads,
            "evictions": self.evictions,
            "hits": self.hits,
            "spilled": len(self._spilled),
            "spill_dir": self._tmp.name,
        }

    def close(self) -> None:
        self._resident.clear()
        self._spilled.clear()
        try:
            self._tmp.cleanup()
        except (OSError, FileNotFoundError):  # pragma: no cover - teardown
            pass


class _KeyBuckets:
    """External dedup of ``requester * n_reads + read`` keys.

    Each shard's keys are sorted and deduplicated once, then split into
    range buckets on disk (bucket = requester-rank range, which is
    monotone in the key, so every bucket is one contiguous slice of the
    sorted shard and bucket order is global key order).  Draining dedups
    each bucket across shards and yields ascending key runs; processing
    the runs in order folds the same sorted distinct keys, in the same
    order, as the materialized path — the property the bit-identity
    contract rests on.
    """

    def __init__(self, num_ranks: int, n_reads: int, dirpath: str,
                 n_buckets: int | None = None):
        self.n_buckets = min(num_ranks, n_buckets or 64)
        # bucket b holds requesters r with (r * n_buckets) // num_ranks == b,
        # i.e. keys in [edges[b], edges[b + 1])
        first_rank = -(-np.arange(self.n_buckets + 1, dtype=np.int64)
                       * num_ranks // self.n_buckets)
        self._edges = first_rank * n_reads
        self._dir = dirpath
        self._files: dict[int, object] = {}

    def add(self, keys: np.ndarray) -> None:
        if keys.size == 0:
            return
        keys = sorted_unique(np.asarray(keys, dtype=np.int64))
        cuts = np.searchsorted(keys, self._edges)
        for b in range(self.n_buckets):
            lo, hi = cuts[b], cuts[b + 1]
            if hi == lo:
                continue
            f = self._files.get(b)
            if f is None:
                f = open(os.path.join(self._dir, f"bucket{b}.keys"), "ab")
                self._files[b] = f
            keys[lo:hi].tofile(f)

    def drain(self) -> Iterator[np.ndarray]:
        """Ascending runs of globally-distinct keys; removes the files."""
        for f in self._files.values():
            f.close()
        try:
            for b in sorted(self._files):
                path = os.path.join(self._dir, f"bucket{b}.keys")
                keys = np.fromfile(path, dtype=np.int64)
                os.unlink(path)
                if keys.size:
                    yield sorted_unique(keys)
        finally:
            self._files = {}


class ShardedWorkload:
    """A workload no layer ever holds in full (see the module docstring).

    Exposes the same surface the engines consume — ``name``, ``n_reads``,
    ``n_tasks``, ``read_lengths``, :meth:`assignment`, :meth:`micro_plan`
    — plus delegation of ``reads``/``tasks``/``task_costs`` when backed by
    a :class:`~repro.pipeline.workload.ConcreteWorkload` (the micro
    engines and the process backend need row access; the synthetic backing
    is macro-only and refuses).  Read lengths stay materialized — they are
    O(reads), not O(tasks), exactly as the statistical generator already
    does — while task columns live in the bounded :class:`ShardStore`.
    """

    def __init__(
        self,
        name: str,
        read_lengths: np.ndarray,
        n_tasks: int,
        build_shard: Callable[[int, int, int], dict],
        *,
        shard_tasks: int = DEFAULT_SHARD_TASKS,
        max_resident_shards: int = DEFAULT_RESIDENT_SHARDS,
        spill_dir: str | None = None,
        bytes_per_task: int = 24,
        backing: ConcreteWorkload | None = None,
        greedy_assign: bool = True,
    ):
        if n_tasks <= 0:
            raise ConfigurationError("sharded workload needs n_tasks >= 1")
        self.name = name
        self.read_lengths = np.asarray(read_lengths, dtype=np.int64)
        self._n_tasks = int(n_tasks)
        self.shard_tasks = int(shard_tasks)
        self.max_resident_shards = int(max_resident_shards)
        self._backing = backing
        self._greedy = greedy_assign
        self.store = ShardStore(
            n_tasks, shard_tasks, build_shard, bytes_per_task,
            max_resident=max_resident_shards, spill_dir=spill_dir,
        )
        # per-P renderings key on (num_ranks, shard identity): distinct
        # shardings of one spec are distinct cache entries by construction
        self.assignment_cache: LruCache = LruCache(ASSIGNMENT_CACHE_CAP)
        self._plan_cache: LruCache = LruCache(ASSIGNMENT_CACHE_CAP)
        self._partition = PartitionMemo(self.read_lengths,
                                        ASSIGNMENT_CACHE_CAP)

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_workload(
        cls,
        workload: ConcreteWorkload,
        shard_tasks: int = DEFAULT_SHARD_TASKS,
        max_resident_shards: int = DEFAULT_RESIDENT_SHARDS,
        spill_dir: str | None = None,
    ) -> "ShardedWorkload":
        """Shard an existing concrete workload's task table.

        The streamed aggregation is bit-identical to the materialized
        :meth:`ConcreteWorkload.assignment`/:meth:`~ConcreteWorkload.
        micro_plan` for *any* shard size (pinned by the golden-signature
        suite): owners and the greedy assignment are computed shard-by-
        shard with persistent stream state, float accumulators fold in
        the same element order, and the dedup bucket walk matches the
        global sorted-key order.
        """
        tasks = workload.tasks

        def build(_sid: int, lo: int, hi: int) -> dict:
            return {
                "read_a": np.ascontiguousarray(tasks.read_a[lo:hi]),
                "read_b": np.ascontiguousarray(tasks.read_b[lo:hi]),
                "cost": np.ascontiguousarray(workload.task_costs[lo:hi]),
            }

        return cls(
            workload.name,
            workload.read_lengths,
            workload.n_tasks,
            build,
            shard_tasks=shard_tasks,
            max_resident_shards=max_resident_shards,
            spill_dir=spill_dir,
            bytes_per_task=3 * 8,
            backing=workload,
            greedy_assign=True,
        )

    @classmethod
    def synthetic(
        cls,
        spec: DatasetSpec,
        seed: int = 0,
        shard_tasks: int = DEFAULT_SHARD_TASKS,
        max_resident_shards: int = DEFAULT_RESIDENT_SHARDS,
        spill_dir: str | None = None,
        cost_model: AlignmentCostModel | None = None,
        fp_rate: float = 0.3,
    ) -> "ShardedWorkload":
        """Paper-scale task rows generated shard-by-shard from ``spec``.

        Task attributes are drawn in fixed :data:`GEN_BLOCK`-sized
        generator blocks, each from its own RNG stream, so the shard size
        never changes a draw: any ``shard_tasks`` yields bit-identical
        aggregates (the shard-invariance property test).  Per task: both
        reads uniform over the read set (SRA read order carries no genome
        locality, §1), cost from the calibrated
        :class:`~repro.pipeline.workload.TaskCostDistribution`, and a
        deterministic coin picking which read's owner executes the task —
        the vectorized stand-in for the greedy by-count heuristic, which
        preserves the ownership invariant and balances in expectation
        (the O(T) Python greedy loop cannot stream 10^8 tasks).
        """
        if spec.n_reads <= 0 or spec.n_tasks <= 0:
            raise ConfigurationError(
                f"dataset {spec.name!r} has no statistical totals; shard a "
                "sequence-level preset with ShardedWorkload.from_workload"
            )
        # the read lengths and calibration StatisticalWorkload builds, so
        # the stage-1 partition and mean task cost agree between the two
        # generators for the same (spec, seed)
        rngs = spec_rngs(spec, seed)
        n_reads = spec.n_reads
        read_lengths = generate_read_lengths(spec, rngs)
        cost_dist = calibrated_cost_dist(
            spec, rngs, cost_model or AlignmentCostModel(), fp_rate
        )

        # one generator block at a time; memoized so shards smaller than a
        # block do not regenerate it per shard during a sequential pass
        memo: dict = {"id": -1, "cols": None}

        def gen_block(block_id: int) -> dict:
            if memo["id"] == block_id:
                return memo["cols"]
            g0 = block_id * GEN_BLOCK
            m = min(GEN_BLOCK, spec.n_tasks - g0)
            rng = rngs.stream("task-shard", block_id)
            read_a = rng.integers(0, n_reads, m)
            read_b = rng.integers(0, n_reads, m)
            coin = rng.random(m)
            cost = cost_dist.sample_seconds(
                read_lengths[read_a].astype(np.float64),
                read_lengths[read_b].astype(np.float64),
                rng,
            )
            memo["id"] = block_id
            memo["cols"] = {
                "read_a": read_a, "read_b": read_b,
                "coin": coin, "cost": cost,
            }
            return memo["cols"]

        def build(_sid: int, lo: int, hi: int) -> dict:
            parts: dict[str, list] = {
                "read_a": [], "read_b": [], "coin": [], "cost": []
            }
            pos = lo
            while pos < hi:
                block_id = pos // GEN_BLOCK
                cols = gen_block(block_id)
                b0 = block_id * GEN_BLOCK
                s0, s1 = pos - b0, min(hi, b0 + GEN_BLOCK) - b0
                for key in parts:
                    parts[key].append(cols[key][s0:s1])
                pos = b0 + s1
            return {
                key: (vals[0].copy() if len(vals) == 1
                      else np.concatenate(vals))
                for key, vals in parts.items()
            }

        return cls(
            spec.name,
            read_lengths,
            spec.n_tasks,
            build,
            shard_tasks=shard_tasks,
            max_resident_shards=max_resident_shards,
            spill_dir=spill_dir,
            bytes_per_task=4 * 8,
            backing=None,
            greedy_assign=False,
        )

    # -- identity / delegation ----------------------------------------------

    @property
    def is_concrete(self) -> bool:
        """True when backed by a concrete workload (rows + sequences)."""
        return self._backing is not None

    @property
    def n_reads(self) -> int:
        return int(self.read_lengths.size)

    @property
    def n_tasks(self) -> int:
        return self._n_tasks

    def _need_backing(self, what: str) -> ConcreteWorkload:
        if self._backing is None:
            raise ConfigurationError(
                f"sharded workload {self.name!r} is synthetic "
                f"(aggregate-only); {what} needs a concrete backing — "
                f"build one with ShardedWorkload.from_workload"
            )
        return self._backing

    @property
    def reads(self):
        return self._need_backing("read sequences").reads

    @property
    def tasks(self):
        return self._need_backing("the task table").tasks

    @property
    def task_costs(self) -> np.ndarray:
        return self._need_backing("per-task costs").task_costs

    # -- per-P rendering ------------------------------------------------------

    def _shard_plan(self, columns: dict, part: ReadPartition,
                    num_ranks: int, loads: np.ndarray):
        """One shard's (owner_a, owner_b, assigned, remote_read).

        Mirrors :meth:`ConcreteWorkload.micro_plan` element-for-element;
        ``loads`` carries the greedy stream state across shards.  The
        synthetic backing replaces the greedy loop with its per-task coin
        (drawn in the generator block, so it is shard-size independent).
        """
        read_a = columns["read_a"]
        read_b = columns["read_b"]
        owner_a = part.owners(read_a)
        owner_b = part.owners(read_b)
        if self._greedy:
            assigned = assign_tasks_balanced(owner_a, owner_b, num_ranks,
                                             loads=loads)
        else:
            assigned = np.where(columns["coin"] < 0.5, owner_a, owner_b)
        both_local = owner_a == owner_b
        a_local = owner_a == assigned
        remote_read = np.where(
            both_local, -1, np.where(a_local, read_b, read_a)
        ).astype(np.int64)
        return owner_a, owner_b, assigned, remote_read

    def micro_plan(self, num_ranks: int) -> MicroPlan:
        """Per-task rendering for the micro engines (concrete backing only).

        The full per-task arrays are what the message-level engines
        consume, so this necessarily materializes O(tasks) — but it is
        only reachable through a concrete backing, whose scale already
        fits; the arrays are assembled shard-at-a-time from the store.
        """
        self._need_backing("a micro plan")
        key = (num_ranks, self.shard_tasks)
        cached = self._plan_cache.get(key)
        if cached is not None:
            return cached
        part = self._partition(num_ranks)
        n = self.n_tasks
        owner_a = np.empty(n, dtype=np.int64)
        owner_b = np.empty(n, dtype=np.int64)
        assigned = np.empty(n, dtype=np.int64)
        remote_read = np.empty(n, dtype=np.int64)
        loads = np.zeros(num_ranks, dtype=np.float64)
        for sid, columns in self.store:
            lo, hi = self.store.shard_range(sid)
            oa, ob, asg, rem = self._shard_plan(columns, part,
                                                num_ranks, loads)
            owner_a[lo:hi] = oa
            owner_b[lo:hi] = ob
            assigned[lo:hi] = asg
            remote_read[lo:hi] = rem
        plan = MicroPlan(
            num_ranks=num_ranks,
            boundaries=part.boundaries,
            assigned=assigned,
            owner_a=owner_a,
            owner_b=owner_b,
            remote_read=remote_read,
        )
        self._plan_cache.put(key, plan)
        return plan

    def assignment(self, num_ranks: int) -> WorkloadAssignment:
        """Per-rank arrays via streaming aggregation (LRU-cached).

        No global task array exists at any point: per-rank totals fold
        shard-by-shard, and the dedup walks on-disk key buckets.  For a
        concrete backing the result is bit-identical to the materialized
        :meth:`ConcreteWorkload.assignment`; for the synthetic backing it
        is bit-identical across shard sizes.
        """
        key = (num_ranks, self.shard_tasks)
        cached = self.assignment_cache.get(key)
        if cached is not None:
            return cached

        part = self._partition(num_ranks)
        n_reads = self.n_reads
        tasks_count = np.zeros(num_ranks, dtype=np.int64)
        compute_seconds = np.zeros(num_ranks, dtype=np.float64)
        local_pair_seconds = np.zeros(num_ranks, dtype=np.float64)
        loads = np.zeros(num_ranks, dtype=np.float64)
        buckets = _KeyBuckets(num_ranks, n_reads, self.store._tmp.name)
        for _sid, columns in self.store:
            owner_a, owner_b, assigned, remote_read = self._shard_plan(
                columns, part, num_ranks, loads
            )
            cost = columns["cost"]
            tasks_count += np.bincount(assigned, minlength=num_ranks)
            np.add.at(compute_seconds, assigned, cost)
            both_local = owner_a == owner_b
            np.add.at(local_pair_seconds, assigned[both_local],
                      cost[both_local])
            has_remote = remote_read >= 0
            buckets.add(
                assigned[has_remote].astype(np.int64) * n_reads
                + remote_read[has_remote]
            )

        lookups_count = np.zeros(num_ranks, dtype=np.int64)
        lookup_bytes = np.zeros(num_ranks, dtype=np.float64)
        incoming_count = np.zeros(num_ranks, dtype=np.int64)
        incoming_bytes = np.zeros(num_ranks, dtype=np.float64)
        for uniq in buckets.drain():
            req_rank = uniq // n_reads
            read_id = uniq % n_reads
            lengths = self.read_lengths[read_id].astype(np.float64)
            lookups_count += np.bincount(req_rank, minlength=num_ranks)
            np.add.at(lookup_bytes, req_rank, lengths)
            owner = part.owner_table[read_id]
            incoming_count += np.bincount(owner, minlength=num_ranks)
            np.add.at(incoming_bytes, owner, lengths)

        out = WorkloadAssignment(
            name=self.name,
            num_ranks=num_ranks,
            reads_per_rank=part.reads_per_rank,
            partition_bytes=part.partition_bytes,
            tasks_per_rank=tasks_count.astype(np.float64),
            compute_seconds=compute_seconds,
            local_pair_seconds=local_pair_seconds,
            lookups=lookups_count.astype(np.float64),
            lookup_bytes=lookup_bytes,
            incoming_lookups=incoming_count.astype(np.float64),
            incoming_bytes=incoming_bytes,
            total_reads=self.n_reads,
            total_tasks=self.n_tasks,
        )
        self.assignment_cache.put(key, out)
        return out

    def close(self) -> None:
        """Release spill files and resident shards (idempotent)."""
        self.store.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "concrete" if self.is_concrete else "synthetic"
        return (f"ShardedWorkload({self.name!r}, {kind}, "
                f"tasks={self.n_tasks:,}, shard={self.shard_tasks:,}, "
                f"resident<={self.max_resident_shards})")
