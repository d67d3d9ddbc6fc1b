"""Pluggable compute backends for the micro engines' kernel batches.

The paper's whole premise is exploiting all 68 cores of a Cori KNL node,
yet the reproduction's micro engines ran every batched X-drop call on a
single Python core.  This module closes that gap with a *compute backend*
abstraction over :meth:`~repro.align.seedextend.SeedExtendAligner.
align_batch`:

* ``serial`` — :class:`SerialExecutor` runs the batch inline, exactly as
  the engines always did;
* ``process`` — :class:`ProcessExecutor` fans the batch out to the
  process's one worker pool (:mod:`repro.runtime.pool`).  The workload's
  sequence bytes and task descriptors are published once per executor in
  POSIX shared memory (:class:`SharedReadStore` wraps the existing numpy
  arrays — the ``ReadSet`` code buffer / CSR offsets and the flat
  ``TaskTable`` columns).  Per batch, each chunk carries the store's
  names, the kernel parameters and ``(task_index_chunk,
  output_offset)`` — never sequence copies; a worker attaches the store
  it was last given, aligns its chunk with the batched wavefront kernel,
  and writes compact ``(n, 7)`` int64 result rows **directly into a
  preallocated shared-memory output array at their chunk offsets**.
  Nothing is pickled on the return path beyond a ``(pid, seconds,
  count)`` triple; the parent rehydrates :class:`Alignment` objects from
  the shared rows (:meth:`align_tasks`).
* ``auto`` — :func:`make_task_executor` picks one of the two before the
  run, from what the run already knows: the pool when the process may
  use two CPUs or more and the workload has at least
  :data:`AUTO_POOL_TASKS` tasks, serial otherwise.

Who calls: the micro engines record the tasks their simulation executes
and resolve the recording once, after it drains, in a few kernel calls of
up to ``engines.micro.FLUSH_TASKS`` tasks each — so every backend sees
large batches whichever engine ran, and one store published when the
executor opens serves the whole run.

Determinism contract: the batched kernel is bit-identical to the scalar
kernel per pair (``repro.align.batch``), so chunk boundaries cannot change
any result; chunks write disjoint row ranges of the output array at their
submission offsets; and simulated time never touches the backend (it only
spends real wall-clock).  A ``process`` or ``auto`` run is therefore
bit-identical to a ``serial`` run for any worker count — locked down by
``tests/test_executor.py`` and the golden-signature suite.

When ``serial`` wins: dispatching a chunk costs roughly a millisecond of
IPC and starting the pool's workers ~0.3 s, which a run of a few hundred
tasks cannot earn back and one of a few thousand earns back only
sometimes; :data:`AUTO_POOL_TASKS` is where a cold pool always measured
faster (``docs/PARALLEL.md``; ``docs/PERFORMANCE.md`` "Kernel dispatch"
for the kernel itself).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import BrokenExecutor
from concurrent.futures import wait as futures_wait
from multiprocessing import shared_memory

import numpy as np

from repro.align.seedextend import Alignment, SeedExtendAligner
from repro.errors import ConfigurationError, WorkerCrashError
from repro.runtime import pool

__all__ = [
    "BACKENDS",
    "TaskExecutor",
    "SerialExecutor",
    "ProcessExecutor",
    "AUTO_POOL_TASKS",
    "SharedReadStore",
    "make_task_executor",
    "active_shm_segments",
]

#: the valid ``EngineConfig.backend`` values
BACKENDS = ("serial", "process", "auto")

#: int64 columns of one result row: score, begin_a, end_a, begin_b, end_b,
#: cells, terminated_early
_ROW_WIDTH = 7

#: names of shared-memory segments created and not yet unlinked by this
#: process — the leak oracle ``tests/test_executor.py`` asserts empties
#: after every run, including fault-aborted ones
_ACTIVE_SEGMENTS: set[str] = set()


def active_shm_segments() -> frozenset[str]:
    """Shared-memory segments currently owned (created, not yet unlinked)."""
    return frozenset(_ACTIVE_SEGMENTS)


def _task_pairs(codes, tasks, task_indices) -> list[tuple]:
    """``align_batch`` argument tuples for the given task indices.

    ``codes`` maps a global read id to its uint8 code array.  Shared by the
    serial backend and the pool workers so both build byte-identical batch
    inputs in identical order.
    """
    k = tasks.k
    return [
        (
            codes(int(tasks.read_a[i])),
            codes(int(tasks.read_b[i])),
            int(tasks.pos_a[i]),
            int(tasks.pos_b[i]),
            k,
            bool(tasks.reverse[i]),
            int(tasks.read_a[i]),
            int(tasks.read_b[i]),
        )
        for i in task_indices
    ]


def _pack_rows(alignments) -> np.ndarray:
    """Compact ``(n, 7)`` int64 rows for a list of alignments."""
    out = np.empty((len(alignments), _ROW_WIDTH), dtype=np.int64)
    for j, al in enumerate(alignments):
        out[j, 0] = al.score
        out[j, 1] = al.begin_a
        out[j, 2] = al.end_a
        out[j, 3] = al.begin_b
        out[j, 4] = al.end_b
        out[j, 5] = al.cells
        out[j, 6] = al.terminated_early
    return out


def _rehydrate(tasks, idx: np.ndarray, rows: np.ndarray) -> list[Alignment]:
    """Alignment objects from result rows + the task columns the parent owns."""
    out: list[Alignment] = []
    for j in range(rows.shape[0]):
        i = int(idx[j])
        out.append(Alignment(
            read_a=int(tasks.read_a[i]),
            read_b=int(tasks.read_b[i]),
            score=int(rows[j, 0]),
            begin_a=int(rows[j, 1]),
            end_a=int(rows[j, 2]),
            begin_b=int(rows[j, 3]),
            end_b=int(rows[j, 4]),
            reverse=bool(tasks.reverse[i]),
            cells=int(rows[j, 5]),
            terminated_early=bool(rows[j, 6]),
        ))
    return out


class TaskExecutor:
    """Common surface of the compute backends.

    ``align_tasks(task_indices)`` returns one
    :class:`~repro.align.seedextend.Alignment` per index, in input order.
    ``aligner`` is ``None`` in model-kernel runs — engines then skip the
    call entirely.
    Executors are context managers; :meth:`close` is idempotent and must
    run even when a fault plan aborts the engine mid-run (the engines hold
    the executor in a ``with`` block).
    """

    backend: str = "serial"
    aligner: SeedExtendAligner | None = None

    def align_tasks(self, task_indices) -> list[Alignment]:
        raise NotImplementedError

    def stats(self) -> dict:
        """Wall-clock dispatch/wait/merge accounting (empty for serial)."""
        return {"backend": self.backend}

    def close(self) -> None:
        pass

    def __enter__(self) -> "TaskExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SerialExecutor(TaskExecutor):
    """Inline execution: one batched wavefront call on the calling core."""

    backend = "serial"

    def __init__(self, workload, aligner: SeedExtendAligner | None):
        self.workload = workload
        self.aligner = aligner

    def align_tasks(self, task_indices) -> list[Alignment]:
        if len(task_indices) == 0:
            return []
        return self.aligner.align_batch(
            _task_pairs(self.workload.reads.codes, self.workload.tasks,
                        task_indices)
        )


# -- process backend ---------------------------------------------------------


class SharedReadStore:
    """The workload's read bytes + task columns, in POSIX shared memory.

    Wraps the *existing* numpy arrays — the ``ReadSet``'s flat uint8 code
    buffer and int64 CSR offsets, plus the five flat ``TaskTable`` columns
    — one segment each, copied once at pool start.  Workers attach by name
    and reconstruct zero-copy ndarray views, so per-batch traffic is task
    indices in, rows written straight into the shared output array out.
    """

    def __init__(self, workload):
        arrays = {
            "buffer": workload.reads.buffer,
            "offsets": workload.reads.offsets,
            "read_a": workload.tasks.read_a,
            "read_b": workload.tasks.read_b,
            "pos_a": workload.tasks.pos_a,
            "pos_b": workload.tasks.pos_b,
            "reverse": workload.tasks.reverse,
        }
        self._segments: list[shared_memory.SharedMemory] = []
        self._closed = False
        self.spec: dict = {"k": int(workload.tasks.k), "arrays": {}}
        try:
            for name, arr in arrays.items():
                arr = np.ascontiguousarray(arr)
                shm = shared_memory.SharedMemory(
                    create=True, size=max(1, arr.nbytes)
                )
                _ACTIVE_SEGMENTS.add(shm.name)
                self._segments.append(shm)
                view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
                view[...] = arr
                self.spec["arrays"][name] = (shm.name, arr.shape, arr.dtype.str)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Unlink every segment (idempotent; safe mid-construction)."""
        if self._closed:
            return
        for shm in self._segments:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            _ACTIVE_SEGMENTS.discard(shm.name)
        self._segments = []
        self._closed = True


class _SharedOutput:
    """Preallocated ``(capacity, 7)`` int64 result array in shared memory.

    Sized from the first batch's task count and **reused across batches**;
    grows geometrically (new segment, old unlinked) when a later batch is
    larger, so reallocation is rare.  Chunks write disjoint row ranges at
    their submission offsets, which is what makes the return path
    zero-copy: the parent reads results where the workers left them.
    """

    def __init__(self):
        self._shm: shared_memory.SharedMemory | None = None
        self.capacity = 0
        self.name: str | None = None
        self.view: np.ndarray | None = None

    def ensure(self, n: int) -> None:
        """Guarantee room for ``n`` rows (contents are batch-scratch)."""
        if n <= self.capacity:
            return
        cap = max(n, 2 * self.capacity)
        self.close()
        shm = shared_memory.SharedMemory(
            create=True, size=max(1, cap * _ROW_WIDTH * 8)
        )
        _ACTIVE_SEGMENTS.add(shm.name)
        self._shm = shm
        self.capacity = cap
        self.name = shm.name
        self.view = np.ndarray((cap, _ROW_WIDTH), dtype=np.int64,
                               buffer=shm.buf)

    def close(self) -> None:
        if self._shm is None:
            return
        self.view = None
        self._shm.close()
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
        _ACTIVE_SEGMENTS.discard(self._shm.name)
        self._shm = None
        self.capacity = 0
        self.name = None


class _WorkerState:
    """A pool worker's view of one shared store + a private aligner."""

    def __init__(self, spec: dict, x_drop: int, scoring):
        self.spec = spec
        self.aligner = SeedExtendAligner(x_drop=x_drop, scoring=scoring)
        self._out_shm: shared_memory.SharedMemory | None = None
        self._out_name: str | None = None
        self._out_view: np.ndarray | None = None
        self._shms: list[shared_memory.SharedMemory] = []
        arrays: dict[str, np.ndarray] = {}
        for name, (shm_name, shape, dtype) in spec["arrays"].items():
            shm = shared_memory.SharedMemory(name=shm_name)
            self._shms.append(shm)
            arrays[name] = np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=shm.buf
            )
        self.buffer = arrays["buffer"]
        self.offsets = arrays["offsets"]
        self.tasks = _TaskColumns(
            read_a=arrays["read_a"], read_b=arrays["read_b"],
            pos_a=arrays["pos_a"], pos_b=arrays["pos_b"],
            reverse=arrays["reverse"], k=spec["k"],
        )

    def codes(self, read_id: int) -> np.ndarray:
        return self.buffer[self.offsets[read_id]: self.offsets[read_id + 1]]

    def output(self, name: str, capacity: int) -> np.ndarray:
        """Writable view of the parent's shared output array.

        Cached between chunks; re-attaches only when the parent grew the
        array (growth means a fresh segment under a fresh name).
        """
        if name != self._out_name:
            if self._out_shm is not None:
                self._out_shm.close()
            self._out_shm = shared_memory.SharedMemory(name=name)
            self._out_name = name
            self._out_view = np.ndarray((capacity, _ROW_WIDTH),
                                        dtype=np.int64,
                                        buffer=self._out_shm.buf)
        return self._out_view

    def close(self) -> None:
        """Drop this worker's mappings; the parent owns the segments."""
        self.buffer = self.offsets = self.tasks = self._out_view = None
        for shm in (*self._shms, self._out_shm):
            if shm is not None:
                shm.close()


class _TaskColumns:
    """Duck-typed stand-in for :class:`~repro.pipeline.tasks.TaskTable`."""

    def __init__(self, read_a, read_b, pos_a, pos_b, reverse, k):
        self.read_a = read_a
        self.read_b = read_b
        self.pos_a = pos_a
        self.pos_b = pos_b
        self.reverse = reverse
        self.k = k


#: a pool worker's state for the last store it was given
_WORKER_STATE: _WorkerState | None = None


def _align_chunk(spec: dict, x_drop: int, scoring, indices: np.ndarray,
                 offset: int, out_name: str,
                 out_capacity: int) -> tuple[int, float, int]:
    """Worker entry: align one chunk, write rows into the shared output.

    The worker keeps the last store it was given attached.  A spawned
    worker shares its parent's resource tracker, so attaching re-registers
    a segment idempotently and the parent's ``unlink()`` stays the one
    clean-up.  Rows land in the parent's output array at ``[offset,
    offset + len(indices))``; only a ``(pid, seconds, count)`` triple is
    pickled back.
    """
    global _WORKER_STATE
    st = _WORKER_STATE
    if st is None or st.spec != spec or st.aligner.x_drop != x_drop \
            or st.aligner.scoring != scoring:
        if st is not None:
            st.close()
        st = _WORKER_STATE = _WorkerState(spec, x_drop, scoring)
    t0 = time.perf_counter()
    alignments = st.aligner.align_batch(
        _task_pairs(st.codes, st.tasks, indices)
    )
    out = st.output(out_name, out_capacity)
    out[offset: offset + len(alignments)] = _pack_rows(alignments)
    return os.getpid(), time.perf_counter() - t0, len(alignments)


class ProcessExecutor(TaskExecutor):
    """Kernel batches on the process's worker pool, over a shared store.

    Each batch splits evenly into ``workers`` chunks, which run on the
    pool of :mod:`repro.runtime.pool`.  Chunks write disjoint output rows
    at their submission offsets, so chunking is invisible in the output.
    """

    backend = "process"

    def __init__(self, workload, aligner: SeedExtendAligner,
                 workers: int):
        if workers < 1:
            raise ConfigurationError("process backend needs workers >= 1")
        self.workload = workload
        self.aligner = aligner
        self.workers = workers
        self._stats = {
            "batches": 0, "chunks": 0, "tasks": 0, "failed_batches": 0,
            "dispatch_s": 0.0, "wait_s": 0.0, "merge_s": 0.0,
        }
        self._per_worker: dict[int, dict] = {}
        self._store = SharedReadStore(workload)
        self._out = _SharedOutput()
        self._closed = False

    def _chunk_size(self, n: int) -> int:
        return max(1, -(-n // self.workers))

    def _crash(self, n: int) -> WorkerCrashError:
        return WorkerCrashError(
            f"a worker process died while aligning a {n}-task batch "
            f"(chunks: workers={self.workers}); the next batch starts a "
            f"fresh pool — rerun with backend='serial' to isolate"
        )

    def _run_chunks(self, idx: np.ndarray) -> np.ndarray:
        """Fan one batch out; return the filled view of the output rows.

        ``dispatch_s`` counts future submission only, ``wait_s`` the wait
        for worker completion.  On any chunk failure the other chunks are
        awaited, not cancelled (so no straggler writes into a reused
        output array, and the shared pool never holds a cancelled
        future), the batch counters stay untouched except
        ``failed_batches``, and a broken pool is reported as the typed
        :class:`~repro.errors.WorkerCrashError`.
        """
        n = int(idx.size)
        self._out.ensure(n)
        chunk = self._chunk_size(n)
        args = (self._store.spec, self.aligner.x_drop, self.aligner.scoring)
        t0 = time.perf_counter()
        futures = []
        try:
            for s in range(0, n, chunk):
                futures.append(pool.submit(
                    _align_chunk, *args, idx[s: s + chunk], s,
                    self._out.name, self._out.capacity,
                ))
            t1 = time.perf_counter()
            results = [fut.result() for fut in futures]
        except BaseException as exc:
            futures_wait(futures)
            self._stats["failed_batches"] += 1
            if isinstance(exc, BrokenExecutor):
                raise self._crash(n) from exc
            raise
        t2 = time.perf_counter()
        for pid, align_s, _count in results:
            w = self._per_worker.setdefault(
                pid, {"chunks": 0, "align_wall_s": 0.0}
            )
            w["chunks"] += 1
            w["align_wall_s"] += align_s
        st = self._stats
        st["batches"] += 1
        st["chunks"] += len(futures)
        st["tasks"] += n
        st["dispatch_s"] += t1 - t0
        st["wait_s"] += t2 - t1
        return self._out.view[:n]

    def align_tasks(self, task_indices) -> list[Alignment]:
        idx = np.asarray(task_indices, dtype=np.int64)
        if idx.size == 0:
            return []
        rows = self._run_chunks(idx)
        t0 = time.perf_counter()
        out = _rehydrate(self.workload.tasks, idx, rows)
        self._stats["merge_s"] += time.perf_counter() - t0
        return out

    def stats(self) -> dict:
        return {
            "backend": self.backend,
            "workers": self.workers,
            **self._stats,
            "per_worker": {
                pid: dict(w) for pid, w in sorted(self._per_worker.items())
            },
        }

    def close(self) -> None:
        """Unlink the shared segments (idempotent); the pool stays."""
        if self._closed:
            return
        self._closed = True
        self._store.close()
        self._out.close()


# -- backend selection -------------------------------------------------------

#: fewest tasks at which ``auto`` takes the pool: the smallest prefix of
#: ``ecoli30x_tiny`` (4 096 to 61 931 tasks) on which a cold pool beat
#: serial in every run, 5 fresh interleaved processes a size on 2 vCPU
#: (docs/PARALLEL.md "When serial wins")
AUTO_POOL_TASKS = 32_768


def make_task_executor(workload, aligner: SeedExtendAligner | None, *,
                       backend: str = "serial",
                       workers: int = 1) -> TaskExecutor:
    """Build the backend an engine run charges its kernel batches through.

    ``backend="auto"`` is decided here, once: the pool when this process
    may use two CPUs or more and the workload has at least
    :data:`AUTO_POOL_TASKS` tasks, serial otherwise.  Its chunk count is
    ``workers`` when that is above 1, else one per usable CPU.
    Model-kernel runs (``aligner is None``) never invoke the kernel, so
    they get the (free) serial backend; asking for a pool there is a
    :class:`~repro.errors.ConfigurationError`, as everywhere else the
    kernel does not run (:func:`repro.core.api.check_micro_knobs`).
    """
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown backend {backend!r}; choose from {list(BACKENDS)}"
        )
    if aligner is None and backend != "serial":
        raise ConfigurationError(
            f"backend={backend!r} needs the alignment kernel; this run "
            f"never invokes it (kernel='model') — use kernel='real'"
        )
    if backend == "auto":
        cpus = pool.usable_cpus()
        if cpus >= 2 and workload.n_tasks >= AUTO_POOL_TASKS:
            backend, workers = "process", workers if workers > 1 else cpus
        else:
            backend = "serial"
    if backend == "serial":
        return SerialExecutor(workload, aligner)
    return ProcessExecutor(workload, aligner, workers=workers)
