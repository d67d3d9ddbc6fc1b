"""Workloads: the fixed inputs of the paper's experiments, in two forms.

A *workload* is (reads, alignment tasks, per-task costs).  For any machine
size ``P`` it renders a :class:`WorkloadAssignment` — the per-rank arrays
both engines consume:

* DiBELLA stage-1 read partition (contiguous, byte-balanced);
* task assignment respecting the ownership invariant, balanced by count;
* per-rank alignment compute seconds (the variable-cost kernel work);
* the communication structure: per rank, the *distinct* remote reads it
  must obtain (each retrieved exactly once, §3.2), their byte volume, and
  the mirror image — lookups/bytes it must serve to others.  The BSP
  exchange moves exactly the same deduplicated bytes, just aggregated
  (§3.1), so ``recv_bytes == lookup_bytes`` and ``send_bytes ==
  incoming_bytes``.

:class:`ConcreteWorkload` computes all of this exactly from real reads and
candidate tasks, through :class:`TaskRowWorkload` — the one task-row
renderer, which the sharded workload feeds shard by shard.
:class:`StatisticalWorkload` generates it from calibrated
distributions with totals matching Table 1 exactly, deterministically from a
seed — the substitution for the unavailable SRA datasets (DESIGN.md §2).
"""

from __future__ import annotations

import pickle
from collections import deque
from concurrent.futures import BrokenExecutor
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from repro.align.cost import MEAN_TASK_COST, AlignmentCostModel
from repro.errors import ConfigurationError, WorkerCrashError
from repro.genome.datasets import DatasetSpec
from repro.genome.sequence import ReadSet
from repro.pipeline.partition import (
    PartitionMemo,
    ReadPartition,
    assign_tasks_balanced,
    owners_from_boundaries,
    partition_reads_by_size,
)
from repro.pipeline.tasks import TaskTable
from repro.utils.arrays import counts_to_offsets, sorted_unique
from repro.utils.cache import LruCache
from repro.utils.rng import RngFactory

#: per-workload cap on cached per-P renderings (assignments / micro plans);
#: a sweep revisits each P many times, but rarely needs more than a handful
#: of distinct rank counts live at once
ASSIGNMENT_CACHE_CAP = 16

#: a statistical render of fewer tasks than this stays in the calling
#: process: a one-shot render starts the process's pool, whose first worker
#: takes ~0.3 s to start, and below ~6 M tasks (~0.5 s of serial
#: rendering) it wins nothing back (docs/PERFORMANCE.md "One pool per
#: process")
PROCESS_RENDER_TASKS = 8_000_000

#: rank chunks a process-parallel statistical render is cut into
RENDER_CHUNKS = 32

__all__ = ["WorkloadAssignment", "MicroPlan", "ConcreteWorkload", "StatisticalWorkload"]


@dataclass(frozen=True)
class WorkloadAssignment:
    """Per-rank arrays of one workload rendered onto ``num_ranks`` ranks.

    All arrays have length ``num_ranks``.  Byte quantities are bytes; time
    quantities are seconds of simulated KNL-core work.  The arrays are
    read-only: one rendered assignment is cached per rank count and shared
    by the planner, every engine run, grid workers and service jobs, so an
    in-place write (the fault code adjusts *derived* phase arrays that
    way) must fail loudly instead of corrupting every later run.
    """

    name: str
    num_ranks: int
    # reads (stage-1 partition)
    reads_per_rank: np.ndarray
    partition_bytes: np.ndarray
    # tasks
    tasks_per_rank: np.ndarray
    compute_seconds: np.ndarray
    local_pair_seconds: np.ndarray
    # communication structure (deduplicated remote reads)
    lookups: np.ndarray
    lookup_bytes: np.ndarray
    incoming_lookups: np.ndarray
    incoming_bytes: np.ndarray
    # totals
    total_reads: int
    total_tasks: int

    def __post_init__(self) -> None:
        for name in (
            "reads_per_rank", "partition_bytes", "tasks_per_rank",
            "compute_seconds", "local_pair_seconds", "lookups",
            "lookup_bytes", "incoming_lookups", "incoming_bytes",
        ):
            arr = getattr(self, name)
            if arr.shape != (self.num_ranks,):
                raise ConfigurationError(
                    f"assignment array {name} has shape {arr.shape}, "
                    f"expected ({self.num_ranks},)"
                )
            arr.setflags(write=False)

    # -- derived quantities used by the engines and figures ----------------

    @property
    def recv_bytes(self) -> np.ndarray:
        """BSP exchange: bytes received per rank (== async pull volume)."""
        return self.lookup_bytes

    @property
    def send_bytes(self) -> np.ndarray:
        """BSP exchange: bytes sent per rank (== async serve volume)."""
        return self.incoming_bytes

    @property
    def total_exchange_bytes(self) -> float:
        return float(self.lookup_bytes.sum())

    def single_exchange_estimate(self) -> float:
        """Figure 11's dashed line: memory to exchange all reads at once.

        "The estimate is calculated from the total exchange load, divided by
        the number of processors, plus the average input partition sizes."
        """
        return (
            self.total_exchange_bytes / self.num_ranks
            + float(self.partition_bytes.mean())
        )


@dataclass(frozen=True)
class MicroPlan:
    """Per-task detail of a concrete workload rendered onto P ranks.

    Used by the micro (message-level) engines, which need each task's
    assignment and remote read rather than per-rank aggregates.
    """

    num_ranks: int
    boundaries: np.ndarray        # read partition boundaries (P+1)
    assigned: np.ndarray          # task -> rank
    owner_a: np.ndarray           # task -> owner of read a
    owner_b: np.ndarray           # task -> owner of read b
    remote_read: np.ndarray       # task -> remote read id (-1 if both local)

    def owner_of_read(self, read_ids: np.ndarray) -> np.ndarray:
        return owners_from_boundaries(read_ids, self.boundaries)


def key_dtype(num_ranks: int, n_reads: int) -> np.dtype:
    """The type ``requester * n_reads + read`` keys are built and sorted
    in: the narrowest that holds ``num_ranks * n_reads`` itself, so
    ``n_reads`` fits as a factor (uint32 on ecoli30x, uint64 once the key
    space passes 2**32)."""
    return np.min_scalar_type(num_ranks * n_reads)


class _PlanChunk(NamedTuple):
    """One chunk of task rows placed on the ranks.

    From :meth:`TaskRowWorkload._plan_chunks`, ranks are in the
    partition's narrow owner type and reads in the chunk's read-id type;
    the resident fold passes the micro plan's int64 columns.
    ``remote_read`` is the read the executing rank pulls; it means
    nothing where ``both_local`` is set.
    """

    owner_a: np.ndarray
    owner_b: np.ndarray
    assigned: np.ndarray
    remote_read: np.ndarray
    both_local: np.ndarray
    cost: np.ndarray


class _ResidentKeys:
    """Distinct remote-read keys of resident rows: one in-memory sort."""

    def __init__(self) -> None:
        self._chunks: list[np.ndarray] = []

    def add(self, keys: np.ndarray) -> None:
        self._chunks.append(keys)

    def drain(self) -> Iterator[np.ndarray]:
        if self._chunks:
            keys = sorted_unique(np.concatenate(self._chunks))
            if keys.size:
                yield keys.astype(np.int64, copy=False)

    def close(self) -> None:
        self._chunks = []


class TaskRowWorkload:
    """The one renderer of :meth:`micro_plan` and :meth:`assignment` from
    task rows (``read_a``, ``read_b``, ``cost`` and ``pick_a``).

    Subclasses supply the rows as chunks in task order (:meth:`_row_chunks`)
    and where distinct ``requester * n_reads + read`` keys are deduplicated
    (:meth:`_key_sink`).  Read ids may be any integer type.  A task goes
    to read a's owner where :meth:`_pick_a` is set and to read b's where
    it is clear: the chunk's own bool ``pick_a`` column, unless a
    subclass derives it.  Cost folds are in-order ``np.add.at``, counts
    and bytes are integer sums, and distinct keys (built in
    :func:`key_dtype`, drained as int64) fold ascending, so any chunking
    gives bit-identical arrays.
    """

    #: rows are in memory: :meth:`assignment` folds the cached micro plan
    #: as one chunk, so the greedy stream runs once per rank count
    rows_resident = True

    def __init__(self, name: str, read_lengths: np.ndarray, n_tasks: int):
        self.name = name
        self.read_lengths = read_lengths
        self.n_tasks = n_tasks
        self.assignment_cache: LruCache = LruCache(ASSIGNMENT_CACHE_CAP)
        self._plan_cache: LruCache = LruCache(ASSIGNMENT_CACHE_CAP)
        self._partition = PartitionMemo(self.read_lengths,
                                        ASSIGNMENT_CACHE_CAP)

    @property
    def n_reads(self) -> int:
        return int(self.read_lengths.size)

    def _row_chunks(self) -> Iterator[dict]:
        raise NotImplementedError

    def _key_sink(self, num_ranks: int):
        return _ResidentKeys()

    def _pick_a(self, columns: dict, owner_a: np.ndarray,
                owner_b: np.ndarray, num_ranks: int) -> np.ndarray:
        """Whether read a's owner, not read b's, executes each task."""
        return columns["pick_a"]

    def _plan_chunks(self, num_ranks: int,
                     part: ReadPartition) -> Iterator[_PlanChunk]:
        """Each chunk of rows placed on the ranks (:class:`_PlanChunk`)."""
        for columns in self._row_chunks():
            read_a, read_b = columns["read_a"], columns["read_b"]
            owner_a = part.owners(read_a)
            owner_b = part.owners(read_b)
            pick_a = self._pick_a(columns, owner_a, owner_b, num_ranks)
            # select by arithmetic, not np.where: on a random coin a
            # branchy select mispredicts every other row.  Unsigned
            # differences wrap, and wrap back on the add, so the values
            # are exactly the selected ones
            yield _PlanChunk(
                owner_a, owner_b,
                owner_b + pick_a * (owner_a - owner_b),
                read_a + pick_a * (read_b - read_a),
                owner_a == owner_b,
                columns["cost"],
            )

    def micro_plan(self, num_ranks: int) -> MicroPlan:
        """Per-task rendering for the message-level engines (cached)."""
        return self._plan_cache.get_or_create(
            num_ranks, lambda: self._render_micro_plan(num_ranks))

    def _render_micro_plan(self, num_ranks: int) -> MicroPlan:
        part = self._partition(num_ranks)
        owner_a, owner_b, assigned, remote_read, both_local = (
            np.concatenate(col) for col in
            list(zip(*self._plan_chunks(num_ranks, part)))[:5]
        )
        # the micro engines consume int64 columns, with -1 for a task
        # whose reads are both local
        remote_read = remote_read.astype(np.int64, copy=False)
        remote_read[both_local] = -1
        return MicroPlan(
            num_ranks=num_ranks,
            boundaries=part.boundaries,
            assigned=assigned.astype(np.int64),
            owner_a=owner_a.astype(np.int64),
            owner_b=owner_b.astype(np.int64),
            remote_read=remote_read,
        )

    def assignment(self, num_ranks: int) -> WorkloadAssignment:
        """Render the per-rank arrays for ``num_ranks`` ranks (LRU-cached)."""
        return self.assignment_cache.get_or_create(
            num_ranks, lambda: self._render_assignment(num_ranks))

    def _render_assignment(self, num_ranks: int) -> WorkloadAssignment:
        part = self._partition(num_ranks)
        if self.rows_resident:
            plan = self.micro_plan(num_ranks)
            chunks = [_PlanChunk(plan.owner_a, plan.owner_b, plan.assigned,
                                 plan.remote_read, plan.remote_read < 0,
                                 self.task_costs)]
        else:
            chunks = self._plan_chunks(num_ranks, part)
        n_reads = self.n_reads
        keys_in = key_dtype(num_ranks, n_reads)
        tasks_count = np.zeros(num_ranks, dtype=np.int64)
        compute_seconds = np.zeros(num_ranks, dtype=np.float64)
        local_pair_seconds = np.zeros(num_ranks, dtype=np.float64)
        lookups_count = np.zeros(num_ranks, dtype=np.int64)
        lookup_bytes = np.zeros(num_ranks, dtype=np.int64)
        requests = np.zeros(n_reads, dtype=np.int64)
        keys = self._key_sink(num_ranks)
        try:
            for chunk in chunks:
                assigned, both_local, cost = (
                    chunk.assigned, chunk.both_local, chunk.cost)
                tasks_count += np.bincount(assigned, minlength=num_ranks)
                np.add.at(compute_seconds, assigned, cost)
                np.add.at(local_pair_seconds, assigned[both_local],
                          cost[both_local])
                key = assigned.astype(keys_in)
                key *= n_reads
                key += chunk.remote_read.astype(keys_in, copy=False)
                keys.add(key[~both_local])
            # one (requester, read) pair counts once — "parallel processors
            # retrieve remote reads no more than once" (§3.2).  A run of
            # keys ascends, so each requester's keys are one slice of it,
            # cut where the requester's first key would sit.  Counts and
            # bytes are integers, summed in int64: below 2**53 that is the
            # float64 any order of float adds would give
            for uniq in keys.drain():
                first = int(uniq[0] // n_reads)
                last = int(uniq[-1] // n_reads) + 1
                starts = np.arange(first, last + 1) * n_reads
                cuts = np.searchsorted(uniq, starts)
                per_rank = np.diff(cuts)
                read_id = uniq - np.repeat(starts[:-1], per_rank)
                pulled = counts_to_offsets(self.read_lengths.take(read_id))
                lookups_count[first:last] += per_rank
                lookup_bytes[first:last] += np.diff(pulled[cuts])
                requests += np.bincount(read_id, minlength=n_reads)
        finally:
            keys.close()
        # a rank serves the requests for the reads it owns, one
        # contiguous range of them
        incoming_count = np.diff(counts_to_offsets(requests)[part.boundaries])
        incoming_bytes = np.diff(counts_to_offsets(
            requests * self.read_lengths)[part.boundaries])

        return WorkloadAssignment(
            name=self.name,
            num_ranks=num_ranks,
            reads_per_rank=part.reads_per_rank,
            partition_bytes=part.partition_bytes,
            tasks_per_rank=tasks_count.astype(np.float64),
            compute_seconds=compute_seconds,
            local_pair_seconds=local_pair_seconds,
            lookups=lookups_count.astype(np.float64),
            lookup_bytes=lookup_bytes.astype(np.float64),
            incoming_lookups=incoming_count.astype(np.float64),
            incoming_bytes=incoming_bytes.astype(np.float64),
            total_reads=self.n_reads,
            total_tasks=self.n_tasks,
        )


class ConcreteWorkload(TaskRowWorkload):
    """A workload materialized from real reads and a real task table.

    ``task_costs`` are per-task simulated seconds (from the cost model, or
    measured from the real kernel's cell counts).  The whole table is one
    resident chunk, so its tasks go to the less-loaded owner of their two
    reads in one greedy stream (:func:`assign_tasks_balanced`).
    """

    def __init__(
        self,
        name: str,
        reads: ReadSet,
        tasks: TaskTable,
        task_costs: np.ndarray,
    ):
        if len(tasks) != np.asarray(task_costs).size:
            raise ConfigurationError("task_costs length must match task count")
        super().__init__(name, reads.lengths.astype(np.int64), len(tasks))
        self.reads = reads
        self.tasks = tasks
        self.task_costs = np.asarray(task_costs, dtype=np.float64)

    def _row_chunks(self) -> Iterator[dict]:
        yield {"read_a": self.tasks.read_a, "read_b": self.tasks.read_b,
               "cost": self.task_costs}

    def _pick_a(self, columns, owner_a, owner_b, num_ranks):
        return assign_tasks_balanced(owner_a, owner_b, num_ranks) == owner_a

    @classmethod
    def from_pipeline(
        cls,
        name: str,
        reads: ReadSet,
        k: int = 17,
        bella_model=None,
        bounds: tuple[int, int] | None = None,
        cost_model: AlignmentCostModel | None = None,
        measure_sample: int = 200,
        x_drop: int = 15,
        seed: int = 0,
    ) -> "ConcreteWorkload":
        """Run the full seed pipeline on real reads and cost the tasks.

        Candidates come from shared reliable k-mers (BELLA band); per-task
        costs are estimated from seed geometry with the cost model, then
        rescaled by running the real X-drop kernel on ``measure_sample``
        random tasks and matching the measured mean cell count (so the
        simulated seconds track the actual kernel work on this input).
        """
        from repro.align.seedextend import SeedExtendAligner
        from repro.kmer.seeds import CandidateGenerator

        tasks = CandidateGenerator(k=k, model=bella_model, bounds=bounds).generate(reads)
        cm = cost_model or AlignmentCostModel(x_drop=x_drop)

        # geometric estimate: the seed caps how far each extension can run
        la = reads.lengths[tasks.read_a]
        lb = reads.lengths[tasks.read_b]
        pos_b_oriented = np.where(
            tasks.reverse, lb - (tasks.pos_b + k), tasks.pos_b
        )
        max_left = np.minimum(tasks.pos_a, pos_b_oriented)
        max_right = np.minimum(la - tasks.pos_a - k, lb - pos_b_oriented - k)
        est_overlap = (max_left + max_right + k).astype(np.float64)
        est_cells = cm.estimate_cells(est_overlap)

        scale = 1.0
        if measure_sample and len(tasks):
            rng = np.random.default_rng(seed)
            aligner = SeedExtendAligner(x_drop=x_drop)
            idx = rng.choice(
                len(tasks), size=min(measure_sample, len(tasks)), replace=False
            )
            # one batched wavefront pass over the whole measurement sample
            measured = np.array(
                [
                    al.cells
                    for al in aligner.align_candidates(reads, tasks, idx)
                ],
                dtype=np.float64,
            )
            est_mean = float(est_cells[idx].mean())
            if est_mean > 0 and measured.mean() > 0:
                scale = float(measured.mean()) / est_mean

        costs = cm.cells_to_seconds(est_cells * scale)
        return cls(name, reads, tasks, np.asarray(costs, dtype=np.float64))


@dataclass
class TaskCostDistribution:
    """Mixture model of per-task alignment cost (DESIGN.md §2).

    With probability ``fp_rate`` the candidate is a false positive and the
    X-drop extension dies after a handful of antidiagonals (a small constant
    cost).  Otherwise the pair truly overlaps: the aligned length is a
    uniform fraction of the shorter read and the kernel sweeps its band
    along it.  A final ``scale`` calibrates the mixture's mean to the
    paper's single-core anchors (``MEAN_TASK_COST``).
    """

    cost_model: AlignmentCostModel
    fp_rate: float = 0.3
    min_overlap_frac: float = 0.1
    scale: float = 1.0
    #: lognormal sigma of the per-task cost multiplier: beyond overlap-length
    #: variation, individual extensions vary with error placement, X-drop
    #: wander, and early-termination depth (§4.2 "cannot be easily
    #: determined before runtime").
    task_sigma: float = 1.0

    def sample_seconds(
        self,
        len_a: np.ndarray,
        len_b: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        n = len_a.size
        fp = rng.random(n) < self.fp_rate
        frac = rng.uniform(self.min_overlap_frac, 1.0, n)
        overlap = frac * np.minimum(len_a, len_b)
        seconds = self.cost_model.task_seconds(overlap, fp)
        if self.task_sigma > 0:
            mu = -0.5 * self.task_sigma**2  # mean-one multiplier
            seconds = seconds * rng.lognormal(mu, self.task_sigma, n)
        return self.scale * seconds

    def calibrate(self, mean_len: float, sigma: float, target_mean: float,
                  rng: np.random.Generator, sample: int = 200_000) -> None:
        """Set ``scale`` so the mixture's mean cost equals ``target_mean``."""
        mu = np.log(mean_len) - 0.5 * sigma**2
        la = rng.lognormal(mu, sigma, sample)
        lb = rng.lognormal(mu, sigma, sample)
        self.scale = 1.0
        empirical = float(self.sample_seconds(la, lb, rng).mean())
        self.scale = target_mean / empirical


#: reads generated per RNG block (keeps the draws a function of the read
#: index alone)
READ_BLOCK = 1 << 16


def spec_rngs(spec: DatasetSpec, seed: int) -> RngFactory:
    """The RNG stream family of one ``(dataset, seed)``."""
    # stable (non-salted) name hash so runs reproduce across processes
    name_key = sum((i + 1) * ord(c) for i, c in enumerate(spec.name)) % (2**31)
    return RngFactory(seed).child(name_key)


def generate_read_lengths(spec: DatasetSpec, rngs: RngFactory) -> np.ndarray:
    """Clipped-lognormal read lengths, block-deterministic (int64)."""
    mu = np.log(spec.mean_read_length) - 0.5 * spec.length_sigma**2
    n = spec.n_reads
    out = np.empty(n, dtype=np.int64)
    lo = max(200, int(spec.mean_read_length / 8))
    hi = int(spec.mean_read_length * 8)
    for b0 in range(0, n, READ_BLOCK):
        b1 = min(b0 + READ_BLOCK, n)
        rng = rngs.stream("workload-block", 1, b0 // READ_BLOCK)
        lengths = rng.lognormal(mu, spec.length_sigma, b1 - b0)
        out[b0:b1] = np.clip(lengths, lo, hi).astype(np.int64)
    return out


class _RankDraws(NamedTuple):
    """What the per-rank loop of one ``P``-rank statistical render reads."""

    rngs: RngFactory
    cost_dist: TaskCostDistribution
    lengths_f: np.ndarray       # read lengths, float64
    boundaries: np.ndarray      # the ``P + 1`` read-partition boundaries
    n_tasks: int
    cost_sigma: float


def _render_ranks(draws: _RankDraws, lo: int, hi: int, sums: np.ndarray,
                  requests: np.ndarray) -> None:
    """Draw ranks ``lo .. hi - 1`` of a statistical render.

    ``sums`` has one column per rank of the range and four rows: compute
    seconds, local-pair seconds, distinct remote reads and their bytes.
    ``requests`` gains one for each distinct remote read a rank pulls.
    Each rank draws from its own ``(P, rank)`` stream and writes only its
    own column, so any cut of the ranks into ranges, rendered in any
    process, gives the same bits.
    """
    lengths_f, boundaries = draws.lengths_f, draws.boundaries
    n_reads = lengths_f.size
    num_ranks = boundaries.size - 1
    base, extra = divmod(draws.n_tasks, num_ranks)
    for rank in range(lo, hi):
        n_r = base + (rank < extra)
        if n_r == 0:
            continue
        rng = draws.rngs.stream("workload-block", 2, num_ranks, rank)
        # local read of each task: one of this rank's reads (by byte weight
        # a longer read seeds more tasks, but uniform-by-read is an
        # adequate model for cost purposes)
        lo_r, hi_r = int(boundaries[rank]), int(boundaries[rank + 1])
        if hi_r > lo_r:
            local_reads = rng.integers(lo_r, hi_r, n_r)
        else:
            local_reads = rng.integers(0, n_reads, n_r)
        partners = rng.integers(0, n_reads, n_r)

        len_local = lengths_f[local_reads]
        len_partner = lengths_f[partners]
        costs = draws.cost_dist.sample_seconds(len_local, len_partner, rng)
        if draws.cost_sigma > 0:
            costs = costs * float(rng.lognormal(
                -0.5 * draws.cost_sigma**2, draws.cost_sigma))
        col = rank - lo
        sums[0, col] = costs.sum()

        partner_local = (partners >= lo_r) & (partners < hi_r)
        sums[1, col] = costs[partner_local].sum()

        remote = sorted_unique(partners[~partner_local])
        sums[2, col] = remote.size
        sums[3, col] = lengths_f[remote].sum()
        requests[remote] += 1  # `remote` is distinct: no lost updates


#: a pool worker's draws for the last render key it was given
_WORKER_DRAWS: tuple[bytes, _RankDraws] | None = None


def _key_draws(key: bytes) -> _RankDraws:
    """The draws of the render ``key`` names, rebuilt when it changes.

    ``key`` pickles ``(spec, rngs, cost_dist, P, cost_sigma)``.  The read
    lengths and the partition are rebuilt from it (~5 ms), as the
    workload built them, rather than sent: ecoli100x's 0.7 MiB of lengths
    would travel with every chunk.
    """
    global _WORKER_DRAWS
    if _WORKER_DRAWS is None or _WORKER_DRAWS[0] != key:
        spec, rngs, cost_dist, num_ranks, cost_sigma = pickle.loads(key)
        lengths = generate_read_lengths(spec, rngs)
        _WORKER_DRAWS = key, _RankDraws(
            rngs, cost_dist, lengths.astype(np.float64),
            partition_reads_by_size(lengths, num_ranks), spec.n_tasks,
            cost_sigma)
    return _WORKER_DRAWS[1]


def _render_chunk(key: bytes, lo: int,
                  hi: int) -> tuple[np.ndarray, np.ndarray]:
    """A pool worker's render of ranks ``lo .. hi - 1``: sums and requests."""
    draws = _key_draws(key)
    sums = np.zeros((4, hi - lo))
    # each rank of the chunk requests a read at most once
    requests = np.zeros(draws.lengths_f.size,
                        dtype=np.min_scalar_type(hi - lo))
    _render_ranks(draws, lo, hi, sums, requests)
    return sums, requests


def _share_chunks(submit, key: bytes, workers: int, draws: _RankDraws,
                  cuts: list[int], sums: np.ndarray,
                  requests: np.ndarray) -> None:
    """Render the rank chunks ``cuts`` delimits in the pool and here.

    The workers take chunks from the low end, the caller from the high
    end, until the two meet.  A chunk goes to the pool only when it is
    submitted, at most one per worker, so no more than ``workers`` of the
    pool's processes render beside the caller (a queued second chunk would
    start one more of them), the caller never takes a chunk a worker was
    given, and no future is ever cancelled (on Python 3.11 a pool that
    breaks while it holds a cancelled future kills its own manager thread,
    which then skips its clean-up).  A worker's chunk is folded (its
    columns copied, its request row added in exact int64) as soon as the
    caller finds it finished, and then dropped.  On a failure every chunk
    still in the pool is awaited before the error propagates, so no
    render outlives its call.
    """
    submitted: deque = deque()  # (chunk, future), ascending
    low, high = 0, len(cuts) - 1  # chunks low .. high - 1 are nobody's yet
    try:
        while submitted or low < high:
            while low < high and len(submitted) < workers:
                submitted.append((low, submit(
                    _render_chunk, key, cuts[low], cuts[low + 1])))
                low += 1
            if submitted and (low == high or submitted[0][1].done()):
                chunk, future = submitted.popleft()
                chunk_sums, chunk_requests = future.result()
                sums[:, cuts[chunk]:cuts[chunk + 1]] = chunk_sums
                requests += chunk_requests
            else:
                high -= 1
                lo, hi = cuts[high], cuts[high + 1]
                _render_ranks(draws, lo, hi, sums[:, lo:hi], requests)
    except BaseException:
        futures_wait([future for _, future in submitted])
        raise


def calibrated_cost_dist(
    spec: DatasetSpec,
    rngs: RngFactory,
    cost_model: AlignmentCostModel,
    fp_rate: float,
) -> TaskCostDistribution:
    """Task-cost mixture whose mean matches the paper's anchor for ``spec``."""
    cost_dist = TaskCostDistribution(cost_model, fp_rate=fp_rate)
    target = MEAN_TASK_COST.get(spec.name)
    if target is None:
        # datasets without a paper anchor: extrapolate from read scale
        target = float(cost_model.task_seconds(0.55 * spec.mean_read_length))
    cost_dist.calibrate(
        spec.mean_read_length,
        spec.length_sigma,
        target,
        rngs.stream("workload-block", 0xC0DE),
    )
    return cost_dist


class StatisticalWorkload:
    """Table-1-exact workload generated from calibrated distributions.

    Read lengths are materialized once (block-deterministic).  Per machine
    size ``P``, per-rank task aggregates are drawn from per-``(P, rank)``
    RNG streams: task counts are balanced exactly (the paper's by-count
    partitioning), task partners are uniform over reads (SRA read order is
    unstructured relative to genome position, so the stage-1 partition sees
    an unstructured interaction graph — the "no inherent locality" property
    of §1), and costs come from :class:`TaskCostDistribution`.

    Determinism: identical ``(spec, seed, P)`` reproduce bit-identical
    assignments, on any number of CPUs; totals (reads, tasks, bytes moved)
    are P-independent.
    """

    #: Cluster dispersion coefficients.  Task costs and remote-read demand
    #: are not independent across a rank's tasks: reads from the same genome
    #: region (repeats, high-error stretches, hubs of the overlap graph)
    #: cluster on the rank that owns them, so per-rank sums fluctuate like
    #: sums of T/P *correlated clusters* rather than T/P independent tasks.
    #: The net effect is a mean-one lognormal per-rank multiplier with
    #: ``sigma = kappa * sqrt(P / T)`` — shrinking as more tasks average out
    #: (1 node) and growing toward the strong-scaling limit, which is
    #: exactly the behaviour of the paper's load imbalance (Figure 5) and
    #: exchange-load spread (Figure 6).
    cost_kappa: float = 6.0
    comm_kappa: float = 8.0

    def __init__(
        self,
        spec: DatasetSpec,
        seed: int = 0,
        cost_model: AlignmentCostModel | None = None,
        fp_rate: float = 0.3,
    ):
        if spec.n_reads <= 0 or spec.n_tasks <= 0:
            raise ConfigurationError(
                f"dataset {spec.name!r} has no statistical totals; "
                "sequence-level presets must go through the real pipeline"
            )
        self.spec = spec
        self.name = spec.name
        self.seed = seed
        self.rngs = spec_rngs(spec, seed)
        self.cost_model = cost_model or AlignmentCostModel()
        self.read_lengths = generate_read_lengths(spec, self.rngs)
        self.cost_dist = calibrated_cost_dist(spec, self.rngs,
                                              self.cost_model, fp_rate)
        self.assignment_cache: LruCache = LruCache(ASSIGNMENT_CACHE_CAP)
        self._partition = PartitionMemo(self.read_lengths,
                                        ASSIGNMENT_CACHE_CAP)
        self.partition_cache = self._partition.cache

    @property
    def n_reads(self) -> int:
        return self.spec.n_reads

    @property
    def n_tasks(self) -> int:
        return self.spec.n_tasks

    # -- per-P rendering -------------------------------------------------------

    def assignment(self, num_ranks: int) -> WorkloadAssignment:
        """Render the per-rank arrays for ``num_ranks`` ranks (LRU-cached)."""
        return self.assignment_cache.get_or_create(
            num_ranks, lambda: self._render_assignment(num_ranks))

    def _render_assignment(self, num_ranks: int) -> WorkloadAssignment:
        n_reads = self.n_reads
        n_tasks = self.n_tasks
        lengths = self.read_lengths
        part = self._partition(num_ranks)
        boundaries = part.boundaries

        base, extra = divmod(n_tasks, num_ranks)
        tasks_per_rank = np.full(num_ranks, base, dtype=np.float64)
        tasks_per_rank[:extra] += 1

        cluster_scale = np.sqrt(num_ranks / n_tasks)
        cost_sigma = self.cost_kappa * cluster_scale
        comm_sigma = self.comm_kappa * cluster_scale

        draws = _RankDraws(self.rngs, self.cost_dist,
                           lengths.astype(np.float64), boundaries, n_tasks,
                           cost_sigma)
        sums = np.zeros((4, num_ranks))
        requests = np.zeros(n_reads, dtype=np.int64)
        chunks = min(RENDER_CHUNKS, num_ranks)
        cpus = 1
        if n_tasks >= PROCESS_RENDER_TASKS:
            from repro.runtime import pool

            cpus = min(pool.usable_cpus(), chunks)
        if cpus == 1:
            _render_ranks(draws, 0, num_ranks, sums, requests)
        else:
            # the caller and `cpus - 1` of the process's pool workers
            # render the chunks
            key = pickle.dumps((self.spec, self.rngs, self.cost_dist,
                                num_ranks, cost_sigma))
            try:
                _share_chunks(pool.submit, key, cpus - 1, draws,
                              [num_ranks * i // chunks
                               for i in range(chunks + 1)],
                              sums, requests)
            except BrokenExecutor as exc:
                raise WorkerCrashError(
                    f"a render worker died while drawing {self.name} on "
                    f"{num_ranks} ranks; nothing was cached, and the next "
                    f"render starts a fresh pool.  A spawned worker "
                    f"imports the main script: keep its top-level code "
                    f"under `if __name__ == \"__main__\":`"
                ) from exc
        compute_seconds, local_pair_seconds, lookups, lookup_bytes = sums

        # Serve side: what each owner receives is a sum over the reads it
        # owns, i.e. a prefix difference at `boundaries`.  This re-associates
        # the sums, which is exact only because request counts and byte
        # lengths are integers far below 2**53 — every order gives the same
        # float64.  The cost folds above (`compute_seconds`,
        # `local_pair_seconds`) are not integer-valued and keep their order.
        incoming = np.diff(
            counts_to_offsets(requests)[boundaries]).astype(np.float64)
        incoming_bytes = np.diff(
            counts_to_offsets(requests * lengths)[boundaries]
        ).astype(np.float64)

        if comm_sigma > 0 and num_ranks > 1:
            # per-rank demand clustering (Figure 6's exchange-load spread);
            # the serve side is rescaled so requester/server totals match
            rng = self.rngs.stream("workload-block", 3, num_ranks)
            factor = rng.lognormal(-0.5 * comm_sigma**2, comm_sigma, num_ranks)
            old_lookups, old_bytes = lookups.sum(), lookup_bytes.sum()
            lookups *= factor
            lookup_bytes *= factor
            if old_lookups > 0:
                incoming *= lookups.sum() / old_lookups
                incoming_bytes *= lookup_bytes.sum() / old_bytes

        return WorkloadAssignment(
            name=self.name,
            num_ranks=num_ranks,
            reads_per_rank=part.reads_per_rank,
            partition_bytes=part.partition_bytes,
            tasks_per_rank=tasks_per_rank,
            compute_seconds=compute_seconds,
            local_pair_seconds=local_pair_seconds,
            lookups=lookups,
            lookup_bytes=lookup_bytes,
            incoming_lookups=incoming,
            incoming_bytes=incoming_bytes,
            total_reads=n_reads,
            total_tasks=n_tasks,
        )
