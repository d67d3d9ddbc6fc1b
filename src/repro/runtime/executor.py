"""Pluggable compute backends for the micro engines' kernel batches.

The paper's whole premise is exploiting all 68 cores of a Cori KNL node,
yet the reproduction's micro engines ran every batched X-drop call on a
single Python core.  This module closes that gap with a *compute backend*
abstraction over :meth:`~repro.align.seedextend.SeedExtendAligner.
align_batch`:

* ``serial`` — :class:`SerialExecutor` runs the batch inline, exactly as
  the engines always did;
* ``process`` — :class:`ProcessExecutor` fans the batch out to a pool of
  **persistent** worker processes.  Workers are seeded exactly once, at
  pool start, with the workload's sequence bytes and task descriptors via
  POSIX shared memory (:class:`SharedReadStore` wraps the existing numpy
  arrays — the ``ReadSet`` code buffer / CSR offsets and the flat
  ``TaskTable`` columns).  Per batch, workers receive only
  ``(task_index_chunk, output_offset)`` descriptors — never sequence
  copies — align their chunk with the batched wavefront kernel, and write
  compact ``(n, 7)`` int64 result rows **directly into a preallocated
  shared-memory output array at their chunk offsets**.  Nothing is
  pickled on the return path beyond a ``(pid, seconds, count)`` triple;
  the parent rehydrates :class:`Alignment` objects from the shared rows
  (:meth:`align_tasks`).
* ``auto`` — :class:`AutoExecutor` measures, then chooses.  The first
  real batches run serial to sample kernel throughput; if the machine has
  spare cores and the batches are big enough to amortize dispatch, the
  next batches probe a process pool, and whichever side measures faster
  wins the rest of the run.  Single-core machines and runs too small to
  fill the probe commit to serial without ever paying for a pool, so
  ``auto`` is a safe default everywhere.

Who calls: the micro engines record the tasks their simulation executes
and resolve the recording once, after it drains, in a few kernel calls of
up to ``engines.micro.FLUSH_TASKS`` tasks each — so every backend sees
large batches whichever engine ran, and one store published at pool
start serves the whole run.

Determinism contract: the batched kernel is bit-identical to the scalar
kernel per pair (``repro.align.batch``), so chunk boundaries cannot change
any result; chunks write disjoint row ranges of the output array at their
submission offsets; and simulated time never touches the backend (it only
spends real wall-clock).  A ``process`` or ``auto`` run is therefore
bit-identical to a ``serial`` run for any worker count — locked down by
``tests/test_executor.py`` and the golden-signature suite.

When ``serial`` wins: dispatching a chunk costs roughly a millisecond of
IPC and starting the pool tens of milliseconds, which a run of a few
hundred tasks cannot earn back — ``auto`` exists precisely to make that
call from measurements instead of folklore; see ``docs/PARALLEL.md`` for
the design discussion and ``docs/PERFORMANCE.md`` ("Kernel dispatch")
for the measurements.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory

import numpy as np

from repro.align.seedextend import Alignment, SeedExtendAligner
from repro.errors import ConfigurationError, WorkerCrashError

__all__ = [
    "BACKENDS",
    "TaskExecutor",
    "SerialExecutor",
    "ProcessExecutor",
    "AutoExecutor",
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

    def stats(self) -> dict:
        return {"backend": self.backend}


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


def _pool_context():
    """Start-method context for the pool: ``fork`` wherever available.

    Forked workers share the parent's resource-tracker process, so their
    attach-time re-registration of the shared segments is an idempotent
    set-add and the parent's ``unlink()`` stays the single owner of the
    cleanup.  (Under ``spawn`` each worker gets its *own* tracker, which
    must be disowned instead — see :class:`_WorkerState`.)
    """
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platform
        return multiprocessing.get_context()


def _disown_tracker_claim(shm: shared_memory.SharedMemory) -> None:
    """Hand a worker-side attach registration back to the parent.

    On < 3.13, attaching also *registers* the segment with the worker's
    own resource tracker (spawn/forkserver), which would unlink it a
    second time after the parent already has and warn about a leak that
    never happened.  The parent owns the lifecycle.
    """
    try:  # pragma: no cover - exercised only under spawn
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


class _WorkerState:
    """Per-worker-process view of the shared store + a private aligner."""

    def __init__(self, spec: dict, x_drop: int, scoring,
                 disown_tracker: bool = False):
        self._disown = disown_tracker
        self._out_shm: shared_memory.SharedMemory | None = None
        self._out_name: str | None = None
        self._out_view: np.ndarray | None = None
        self._shms: list[shared_memory.SharedMemory] = []
        arrays: dict[str, np.ndarray] = {}
        for name, (shm_name, shape, dtype) in spec["arrays"].items():
            shm = shared_memory.SharedMemory(name=shm_name)
            if disown_tracker:
                _disown_tracker_claim(shm)
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
        self.aligner = SeedExtendAligner(x_drop=x_drop, scoring=scoring)

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
            shm = shared_memory.SharedMemory(name=name)
            if self._disown:
                _disown_tracker_claim(shm)
            self._out_shm = shm
            self._out_name = name
            self._out_view = np.ndarray((capacity, _ROW_WIDTH),
                                        dtype=np.int64, buffer=shm.buf)
        return self._out_view


class _TaskColumns:
    """Duck-typed stand-in for :class:`~repro.pipeline.tasks.TaskTable`."""

    def __init__(self, read_a, read_b, pos_a, pos_b, reverse, k):
        self.read_a = read_a
        self.read_b = read_b
        self.pos_a = pos_a
        self.pos_b = pos_b
        self.reverse = reverse
        self.k = k


_WORKER_STATE: _WorkerState | None = None


def _worker_init(spec: dict, x_drop: int, scoring,
                 disown_tracker: bool = False) -> None:
    global _WORKER_STATE
    _WORKER_STATE = _WorkerState(spec, x_drop, scoring, disown_tracker)


def _align_chunk(indices: np.ndarray, offset: int, out_name: str,
                 out_capacity: int) -> tuple[int, float, int]:
    """Worker entry: align one chunk, write rows into the shared output.

    Results land directly in the parent's preallocated output array at
    ``[offset, offset + len(indices))`` — score, begin_a, end_a, begin_b,
    end_b, cells, terminated_early per row — so the only thing pickled
    back is this ``(pid, seconds, count)`` triple.
    """
    st = _WORKER_STATE
    t0 = time.perf_counter()
    alignments = st.aligner.align_batch(
        _task_pairs(st.codes, st.tasks, indices)
    )
    out = st.output(out_name, out_capacity)
    out[offset: offset + len(alignments)] = _pack_rows(alignments)
    return os.getpid(), time.perf_counter() - t0, len(alignments)


class ProcessExecutor(TaskExecutor):
    """Persistent worker pool over the shared read store.

    Each batch splits evenly across the workers (one chunk per worker).
    Chunks write disjoint output rows at their submission offsets, so
    chunking is invisible in the output.
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
        try:
            ctx = _pool_context()
            self._pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=ctx,
                initializer=_worker_init,
                initargs=(self._store.spec, aligner.x_drop, aligner.scoring,
                          ctx.get_start_method() != "fork"),
            )
        except BaseException:
            self._store.close()
            self._out.close()
            raise
        self._closed = False

    def _chunk_size(self, n: int) -> int:
        return max(1, -(-n // self.workers))

    def _crash(self, n: int, exc: BrokenProcessPool) -> WorkerCrashError:
        return WorkerCrashError(
            f"a worker process died while aligning a {n}-task batch "
            f"(pool: workers={self.workers}); "
            f"the pool cannot be reused — rerun with backend='serial' to "
            f"isolate, or backend='auto' to let the run choose"
        )

    def _run_chunks(self, idx: np.ndarray) -> np.ndarray:
        """Fan one batch out; return the filled view of the output rows.

        ``dispatch_s`` counts future submission only, ``wait_s`` the wait
        for worker completion.  On any worker failure the outstanding
        futures are cancelled and awaited (so no straggler writes into a
        reused output array), the batch counters stay untouched except
        ``failed_batches``, and :class:`BrokenProcessPool` is wrapped in
        the typed :class:`~repro.errors.WorkerCrashError`.
        """
        n = int(idx.size)
        self._out.ensure(n)
        chunk = self._chunk_size(n)
        t0 = time.perf_counter()
        try:
            futures = [
                self._pool.submit(
                    _align_chunk, idx[s: s + chunk], s,
                    self._out.name, self._out.capacity,
                )
                for s in range(0, n, chunk)
            ]
        except BrokenProcessPool as exc:
            self._stats["failed_batches"] += 1
            raise self._crash(n, exc) from exc
        t1 = time.perf_counter()
        results: list[tuple[int, float, int]] = []
        try:
            for fut in futures:
                results.append(fut.result())
        except BaseException as exc:
            for fut in futures:
                fut.cancel()
            futures_wait(futures)
            self._stats["failed_batches"] += 1
            if isinstance(exc, BrokenProcessPool):
                raise self._crash(n, exc) from exc
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
        """Stop the pool, then unlink the shared segments (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=True)
        self._store.close()
        self._out.close()


# -- adaptive backend --------------------------------------------------------

#: real batches sampled per candidate backend before ``auto`` commits
AUTO_PROBE_BATCHES = 2

#: batches below this task count neither advance the probe nor get
#: dispatched to a committed pool — per-chunk IPC (~1 ms) cannot pay for
#: itself under the batched kernel's per-task cost at this size
AUTO_MIN_PROBE_TASKS = 16

#: measured pool throughput must beat serial by this factor to win —
#: hysteresis so measurement noise near the crossover keeps the cheaper
#: (no-pool) configuration
AUTO_ADVANTAGE = 1.05


class AutoExecutor(TaskExecutor):
    """Measure-then-choose backend: probe serial and the pool, keep the winner.

    The chooser is cpu-count- and workload-aware without a model: on a
    single-core machine it commits to serial immediately (a pool can only
    lose); otherwise the first :data:`AUTO_PROBE_BATCHES` meaningfully
    sized batches run serial to sample tasks/sec, the next ones run
    through a lazily started :class:`ProcessExecutor`, and the side that
    measured faster (pool discounted by :data:`AUTO_ADVANTAGE`) executes
    the rest of the run.  Batches smaller than
    :data:`AUTO_MIN_PROBE_TASKS` always run inline — they neither inform
    nor use the pool.  Every path is bit-identical (same kernel, same
    order), so probing is invisible in the results.
    """

    backend = "auto"

    def __init__(self, workload, aligner: SeedExtendAligner,
                 workers: int = 1):
        self.workload = workload
        self.aligner = aligner
        cpus = os.cpu_count() or 1
        #: pool size the process candidate would use: the explicit
        #: ``workers`` knob when set (> 1), else one worker per core
        #: (capped — beyond 8 the probe itself gets expensive)
        self.workers = workers if workers > 1 else max(1, min(cpus, 8))
        self._serial = SerialExecutor(workload, aligner)
        self._process: ProcessExecutor | None = None
        self._chosen: TaskExecutor | None = None
        self._reason: str | None = None
        self._serial_samples: list[tuple[int, float]] = []
        self._process_samples: list[tuple[int, float]] = []
        self._pool_start_s = 0.0
        self._closed = False
        if cpus < 2:
            self._commit(self._serial, "single_core")

    # -- decision ------------------------------------------------------------

    @staticmethod
    def decide(serial_pps: float, process_pps: float) -> bool:
        """True when the measured pool throughput justifies the pool."""
        return process_pps >= AUTO_ADVANTAGE * serial_pps

    @staticmethod
    def _pps(samples: list[tuple[int, float]]) -> float:
        tasks = sum(n for n, _ in samples)
        seconds = sum(s for _, s in samples)
        return tasks / seconds if seconds > 0 else float("inf")

    def _commit(self, executor: TaskExecutor, reason: str) -> None:
        self._chosen = executor
        self._reason = reason
        if executor is not self._process and self._process is not None:
            self._process.close()
            self._process = None

    def _probe(self, task_indices) -> list[Alignment]:
        """Route one batch while undecided; commit when samples suffice."""
        n = len(task_indices)
        if n < AUTO_MIN_PROBE_TASKS or \
                len(self._serial_samples) < AUTO_PROBE_BATCHES:
            target, samples = self._serial, self._serial_samples
        else:
            if self._process is None:
                t0 = time.perf_counter()
                try:
                    self._process = ProcessExecutor(
                        self.workload, self.aligner, workers=self.workers,
                    )
                except OSError:  # pragma: no cover - resource exhaustion
                    self._commit(self._serial, "pool_unavailable")
                    return self._serial.align_tasks(task_indices)
                self._pool_start_s = time.perf_counter() - t0
            target, samples = self._process, self._process_samples
        t0 = time.perf_counter()
        out = target.align_tasks(task_indices)
        if n >= AUTO_MIN_PROBE_TASKS:
            samples.append((n, time.perf_counter() - t0))
        if len(self._process_samples) >= AUTO_PROBE_BATCHES:
            if self.decide(self._pps(self._serial_samples),
                           self._pps(self._process_samples)):
                self._commit(self._process, "measured_pool_faster")
            else:
                self._commit(self._serial, "pool_cannot_pay")
        return out

    # -- TaskExecutor surface ------------------------------------------------

    def align_tasks(self, task_indices) -> list[Alignment]:
        if len(task_indices) == 0:
            return []
        if self._chosen is None:
            return self._probe(task_indices)
        # committed — but sub-probe-size batches stay inline even when
        # the pool won: per-chunk IPC dominates at that size
        if (self._chosen is self._process
                and len(task_indices) < AUTO_MIN_PROBE_TASKS):
            return self._serial.align_tasks(task_indices)
        return self._chosen.align_tasks(task_indices)

    @property
    def chosen(self) -> str:
        """The committed backend name, or ``"probing"`` while undecided."""
        if self._chosen is None:
            return "probing"
        return "process" if self._chosen is self._process else "serial"

    def stats(self) -> dict:
        s = {
            "backend": self.backend,
            "workers": self.workers,
            "chosen": self.chosen,
            "auto_reason": self._reason or "probing",
            "auto_chose_process": float(self._chosen is not None
                                        and self._chosen is self._process),
            "auto_pool_start_s": self._pool_start_s,
        }
        if self._serial_samples:
            s["auto_probe_serial_pps"] = self._pps(self._serial_samples)
        if self._process_samples:
            s["auto_probe_process_pps"] = self._pps(self._process_samples)
        if self._process is not None:
            inner = self._process.stats()
            inner.pop("backend")
            inner.pop("workers")
            s.update(inner)
        return s

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._process is not None:
            self._process.close()
            self._process = None


def make_task_executor(workload, aligner: SeedExtendAligner | None, *,
                       backend: str = "serial",
                       workers: int = 1) -> TaskExecutor:
    """Build the backend an engine run charges its kernel batches through.

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
    if backend == "serial":
        return SerialExecutor(workload, aligner)
    if backend == "auto":
        return AutoExecutor(workload, aligner, workers=workers)
    return ProcessExecutor(workload, aligner, workers=workers)
