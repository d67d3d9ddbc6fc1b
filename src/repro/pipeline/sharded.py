"""Sharded, lazily-materialized workloads: paper scale without paper memory.

The paper's headline datasets (E. coli 100x: 24.9M alignment tasks, Human
CCS: 87.6M, Table 1) never fit the "build one giant task table, then slice
it" pattern the materialized workload classes use — holding every task row
in memory before any engine runs caps the reproduction around 10^5 tasks.
diBELLA and the parallel string-graph line of work reach genome scale by
streaming bounded partitions between pipeline stages; this module applies
the same memory-limited idea to workload *construction*:

* :class:`ShardedWorkload` generates task rows in fixed-size shards, each
  seeded deterministically by shard-independent generator blocks, and
  feeds them one at a time to the task-row renderer a materialized
  workload runs as one chunk
  (:class:`~repro.pipeline.workload.TaskRowWorkload`), so among nonzero
  values the shard size can never change a single bit.
* Deduplicated remote-read structure — the one aggregate that genuinely
  needs global state — runs as an external bucket sort
  (:class:`_KeyBuckets`): each shard's ``(requester, read)`` keys are
  sorted, deduplicated and written to on-disk range buckets as 4-byte
  offsets from the bucket's lower edge, and finalization walks the
  buckets in ascending key order — the order an in-memory
  :func:`~repro.utils.arrays.sorted_unique` folds in.
* Resident shard columns are bounded by :class:`ShardStore`: an LRU of at
  most ``max_resident_shards`` shards, charged against a
  :class:`repro.machine.memory.NodeMemory` ledger (allocate on load, free
  on evict, high-water recorded), with evicted columns spilled to disk —
  or to shared memory, by pointing the spill directory at ``/dev/shm``.

The one row source is :meth:`ShardedWorkload.synthetic`: Table-1-scale
task rows generated from the statistical presets.  Unlike
:class:`~repro.pipeline.workload.StatisticalWorkload` (which models
per-rank aggregates directly), this path draws *actual task rows* —
uniform read pairs, calibrated costs, a deterministic owner coin — and
derives the exchange structure exactly, so a 10^7–10^8-task macro sweep
runs with peak workload memory bounded by the resident-shard budget
(``benchmarks/bench_scale_sweep.py``).  A sequence-level preset's task
table is in memory by construction, so it is never sharded.

A shard holds its columns in the narrowest types their values need, and
the ledger charges exactly those bytes: synthetic rows are ``read_a`` /
``read_b`` in ``np.min_scalar_type(n_reads - 1)``, the bool ``pick_a``
and a float64 ``cost`` (13 bytes a task on ecoli30x, 17 on ecoli100x and
Human CCS).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
from collections import OrderedDict
from typing import Callable, Iterator

import numpy as np

from repro.align.cost import AlignmentCostModel
from repro.errors import ConfigurationError, ShardSpillError
from repro.genome.datasets import DatasetSpec
from repro.machine.memory import NodeMemory
from repro.pipeline.workload import (
    TaskRowWorkload,
    calibrated_cost_dist,
    generate_read_lengths,
    key_dtype,
    spec_rngs,
)
from repro.utils.arrays import sorted_unique

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

#: most key buckets one rendering pass spreads its keys over
MAX_KEY_BUCKETS = 64

#: a bucket's keys are stored as uint32 offsets from its lower edge, so
#: no bucket may span more keys than this
BUCKET_SPAN_LIMIT = 1 << 32


def _row_bytes(dtypes) -> int:
    """Bytes one task row occupies across shard columns of ``dtypes``."""
    return sum(np.dtype(dt).itemsize for dt in dtypes)


class ShardStore:
    """Bounded-resident LRU of shard columns with spill + memory ledger.

    ``build(shard_id, lo, hi)`` materializes one shard's columns on first
    touch; at most ``max_resident`` shards stay in memory, accounted
    against a :class:`~repro.machine.memory.NodeMemory` ledger sized to
    ``max_resident * bytes_per_shard`` (so an accounting bug that leaks a
    shard raises :class:`~repro.errors.MemoryLimitError` instead of
    silently growing).  Evicted shards spill once to the spill directory,
    one file per shard holding its columns' raw bytes back to back (the
    store keeps each column's name, dtype and length), and reload from
    there — cheaper than regenerating draws, and the file is the
    out-of-core copy the resident budget assumes exists.  A spill is
    written under a temporary name and renamed into place, so a failed
    write leaves no file; one that still cannot be read back whole raises
    :class:`~repro.errors.ShardSpillError` and is dropped, so the next
    pass rebuilds the shard.
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
        # shard id -> (name, dtype, length) of its spilled columns, in
        # file order
        self._spilled: dict[int, list] = {}
        self._lock = threading.Lock()
        self.builds = 0
        self.reloads = 0
        self.evictions = 0
        self.hits = 0

    def shard_range(self, shard_id: int) -> tuple[int, int]:
        lo = shard_id * self.shard_tasks
        return lo, min(lo + self.shard_tasks, self.n_tasks)

    def _spill_path(self, shard_id: int) -> str:
        return os.path.join(self._tmp.name, f"shard{shard_id}.cols")

    def _nbytes(self, columns: dict) -> float:
        return float(sum(arr.nbytes for arr in columns.values()))

    def _spill(self, shard_id: int, columns: dict) -> None:
        path = self._spill_path(shard_id)
        part = path + ".part"
        try:
            with open(part, "wb") as f:
                for col in columns.values():
                    col.tofile(f)
            os.replace(part, path)
        except BaseException:
            if os.path.exists(part):
                os.unlink(part)
            raise
        self._spilled[shard_id] = [(name, col.dtype, col.size)
                                   for name, col in columns.items()]

    def _admit(self, shard_id: int, columns: dict) -> None:
        while len(self._resident) >= self.max_resident:
            old_id, old_cols = next(iter(self._resident.items()))
            if old_id not in self._spilled:
                self._spill(old_id, old_cols)
            del self._resident[old_id]
            self.ledger.free(f"shard{old_id}")
            self.evictions += 1
        self.ledger.allocate(f"shard{shard_id}", self._nbytes(columns))
        self._resident[shard_id] = columns

    def get(self, shard_id: int) -> dict:
        """This shard's columns (resident, reloaded from spill, or built).

        Locked, builds included (the synthetic builder memoizes a block):
        renders at different rank counts may stream one store at once.
        """
        with self._lock:
            columns = self._resident.get(shard_id)
            if columns is not None:
                self._resident.move_to_end(shard_id)
                self.hits += 1
                return columns
            if shard_id in self._spilled:
                path = self._spill_path(shard_id)
                layout = self._spilled[shard_id]
                try:
                    with open(path, "rb") as f:
                        columns = {name: np.fromfile(f, dtype, count)
                                   for name, dtype, count in layout}
                        if f.read(1) or any(columns[name].size != count
                                            for name, _, count in layout):
                            raise ValueError("size differs from the spill")
                except (OSError, ValueError) as exc:
                    self._spilled.pop(shard_id)
                    raise ShardSpillError(
                        f"spilled shard {shard_id} at {path} is unreadable: "
                        f"{exc}"
                    ) from exc
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
    sorted shard and bucket order is global key order).  A key is stored
    as its uint32 offset from the bucket's lower edge; the bucket count
    doubles (up to one bucket per rank) until every bucket spans at most
    :data:`BUCKET_SPAN_LIMIT` keys.  Draining dedups each bucket across
    shards, adds the edge back and yields ascending key runs; processing
    the runs in order folds the same sorted distinct keys, in the same
    order, as one in-memory sort — the property the bit-identity
    contract rests on.  Each instance (one pass) owns a fresh directory
    under ``dirpath``, removed by :meth:`drain` or :meth:`close`, so a
    pass that raised leaves no keys for the next.
    """

    def __init__(self, num_ranks: int, n_reads: int, dirpath: str,
                 n_buckets: int | None = None):
        if n_reads > BUCKET_SPAN_LIMIT:
            raise ConfigurationError(
                f"{n_reads} reads exceed the key buckets' 32-bit offsets")
        n_buckets = min(num_ranks, MAX_KEY_BUCKETS,
                        n_buckets or MAX_KEY_BUCKETS)
        while True:
            # bucket b holds requesters r with (r * n_buckets) // num_ranks
            # == b, i.e. keys in [edges[b], edges[b + 1])
            first_rank = -(-np.arange(n_buckets + 1, dtype=np.int64)
                           * num_ranks // n_buckets)
            edges = first_rank * n_reads
            if (np.diff(edges).max() <= BUCKET_SPAN_LIMIT
                    or n_buckets == num_ranks):
                break
            n_buckets = min(2 * n_buckets, num_ranks)
        self.n_buckets = n_buckets
        self._edges = edges
        # the type the renderer builds a pass's keys in
        self._key_dtype = key_dtype(num_ranks, n_reads)
        self._dir = tempfile.mkdtemp(prefix="keys-", dir=dirpath)
        self._files: dict[int, object] = {}

    def add(self, keys: np.ndarray) -> None:
        if keys.size == 0:
            return
        keys = sorted_unique(keys.astype(self._key_dtype, copy=False))
        cuts = np.searchsorted(keys, self._edges)
        lower = self._edges[:-1].astype(keys.dtype)
        offsets = (keys - np.repeat(lower, np.diff(cuts))).astype(
            np.uint32, copy=False)
        for b in range(self.n_buckets):
            lo, hi = cuts[b], cuts[b + 1]
            if hi == lo:
                continue
            f = self._files.get(b)
            if f is None:
                f = open(os.path.join(self._dir, f"bucket{b}.keys"), "wb")
                self._files[b] = f
            offsets[lo:hi].tofile(f)

    def drain(self) -> Iterator[np.ndarray]:
        """Ascending runs of globally-distinct keys; removes the files."""
        for f in self._files.values():
            f.close()
        try:
            for b in sorted(self._files):
                path = os.path.join(self._dir, f"bucket{b}.keys")
                offsets = np.fromfile(path, dtype=np.uint32)
                os.unlink(path)
                if offsets.size:
                    yield (sorted_unique(offsets).astype(np.int64)
                           + self._edges[b])
        finally:
            self.close()

    def close(self) -> None:
        """Close and remove this pass's bucket files (idempotent)."""
        for f in self._files.values():
            f.close()
        self._files = {}
        shutil.rmtree(self._dir, ignore_errors=True)


class ShardedWorkload(TaskRowWorkload):
    """A workload no layer ever holds in full (see the module docstring).

    Rendering is inherited; every shard ``build_shard`` returns carries
    the ``pick_a`` owner coin, since only the one resident chunk of a
    :class:`~repro.pipeline.workload.ConcreteWorkload` runs the greedy
    stream.  It has no reads or task table, so only the macro engines run
    it.  Read lengths stay materialized — they are O(reads), not
    O(tasks) — while task columns live in the bounded :class:`ShardStore`.
    """

    rows_resident = False

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
        bytes_per_task: int,
    ):
        if n_tasks <= 0:
            raise ConfigurationError("sharded workload needs n_tasks >= 1")
        super().__init__(name, np.asarray(read_lengths, dtype=np.int64),
                         int(n_tasks))
        self.store = ShardStore(
            n_tasks, shard_tasks, build_shard, bytes_per_task,
            max_resident=max_resident_shards, spill_dir=spill_dir,
        )

    # -- constructors --------------------------------------------------------

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
        deterministic ``pick_a`` coin (a uniform draw below 0.5) saying
        whether read a's owner, not read b's, executes the task — the
        vectorized stand-in for the greedy by-count heuristic, which
        preserves the ownership invariant and balances in expectation
        (the O(T) Python greedy loop cannot stream 10^8 tasks); the
        renderer uses the coin wherever a chunk carries one.  Read ids are
        stored in ``np.min_scalar_type(n_reads - 1)`` — drawn as int64,
        then narrowed, so every draw is the one a wider column would hold.
        """
        if spec.n_reads <= 0 or spec.n_tasks <= 0:
            raise ConfigurationError(
                f"dataset {spec.name!r} has no statistical totals; a "
                "sequence-level preset's task rows are already in memory"
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

        lengths_f = read_lengths.astype(np.float64)
        # read ids in the narrowest unsigned type that holds them, the
        # owner coin as the bool the renderer reads
        read_id = np.min_scalar_type(n_reads - 1)
        dtypes = {"read_a": read_id, "read_b": read_id,
                  "pick_a": np.dtype(bool), "cost": np.dtype(np.float64)}

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
            pick_a = rng.random(m) < 0.5
            cost = cost_dist.sample_seconds(lengths_f.take(read_a),
                                            lengths_f.take(read_b), rng)
            cols = {"read_a": read_a, "read_b": read_b,
                    "pick_a": pick_a, "cost": cost}
            memo["id"] = block_id
            memo["cols"] = {key: col.astype(dtypes[key], copy=False)
                            for key, col in cols.items()}
            return memo["cols"]

        def build(_sid: int, lo: int, hi: int) -> dict:
            parts: dict[str, list] = {key: [] for key in dtypes}
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
            bytes_per_task=_row_bytes(dtypes.values()),
        )

    # -- per-P rendering ------------------------------------------------------

    def _row_chunks(self) -> Iterator[dict]:
        for _sid, columns in self.store:
            yield columns

    def _key_sink(self, num_ranks: int) -> _KeyBuckets:
        # about one shard's keys per bucket: a drained bucket is no larger
        # than what the resident budget already holds
        return _KeyBuckets(num_ranks, self.n_reads, self.store._tmp.name,
                           self.store.n_shards)

    def close(self) -> None:
        """Release spill files and resident shards (idempotent)."""
        self.store.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ShardedWorkload({self.name!r}, "
                f"tasks={self.n_tasks:,}, shard={self.store.shard_tasks:,}, "
                f"resident<={self.store.max_resident})")
