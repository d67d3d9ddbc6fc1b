"""Admission-controlled run queue: many jobs, fixed compute.

The multiplexing layer between the job API and the engines.  A
:class:`RunQueue` owns:

* a **bounded backlog** — submissions beyond ``backlog`` queued jobs are
  rejected with the typed :class:`~repro.errors.QueueFullError` (the HTTP
  layer maps it to 429), so overload produces backpressure instead of an
  unbounded queue;
* **FIFO-with-priority scheduling** — a heap ordered by
  ``(-priority, submission_seq)``; only the head is ever considered for
  admission (no low-priority bypass when the head is waiting on
  resources), which makes admission order a testable contract;
* **admission control** — ``slots`` worker threads, plus a per-job budget
  of worker processes and bytes charged against a
  :class:`~repro.machine.memory.NodeMemory` ledger, so concurrent jobs
  cannot oversubscribe the process pool or the node: a job is admitted
  only when both its worker count and its memory estimate fit what is
  currently free.  Budgets that could *never* fit are rejected at submit
  (fail fast, not deadlock);
* **single-flight execution** — submissions whose
  :meth:`~repro.service.jobs.JobRequest.cache_key` matches an in-flight
  job coalesce onto it as followers: the engine runs **once** and every
  follower receives the same :class:`~repro.engines.report.RunResult`
  object (bit-identical signatures), marked ``cache_source="coalesced"``;
* a **result cache** — completed results publish to a counted
  :class:`~repro.utils.cache.LruCache` under the request's canonical
  key, so an identical later submission completes instantly with
  ``cache_hit=True`` and the cached object itself (its signature is
  bit-identical to the fresh run's);
* **cancellation** — QUEUED jobs cancel immediately (a cancelled leader
  promotes its oldest follower to a fresh queue entry); RUNNING jobs get
  a flag the :class:`~repro.service.events.ProgressTracer` checks at
  every trace event, aborting the engine mid-run with
  :class:`~repro.errors.JobCancelledError` while its ``with``-held
  executors tear down cleanly (no shared-memory leak — the stress test
  asserts ``active_shm_segments()`` empties);
* **bounded history** — a finished job keeps its status record, but its
  event log and result are released once :data:`RETAINED_JOBS` newer
  jobs have reached a terminal state (completion order, every terminal
  path counted), so the server's memory follows what is in flight, not
  how many jobs it has served;
* **clean shutdown** — jobs still QUEUED are cancelled with the typed
  :class:`~repro.errors.JobCancelledError` (never silently dropped, never
  hanging the server thread), running jobs either finish or — with
  ``cancel_running=True`` — abort via the same flag, and the worker
  threads are joined.
"""

from __future__ import annotations

import heapq
import itertools
import os
import threading
from collections import deque

from repro.engines.report import RunResult
from repro.errors import (
    ConfigurationError,
    JobCancelledError,
    MemoryLimitError,
    QueueFullError,
    ServiceError,
)
from repro.machine.memory import NodeMemory
from repro.service.jobs import Job, JobRequest, JobState, execute_request
from repro.utils.cache import LruCache
from repro.utils.units import fmt_bytes

__all__ = ["RunQueue", "DEFAULT_CACHE_ENTRIES", "RETAINED_JOBS",
           "DEFAULT_SERVICE_MEMORY_BYTES", "BASE_JOB_BYTES",
           "PER_WORKER_BYTES", "REAL_KERNEL_BYTES"]

#: default bound on cached results — entries are whole RunResults (per-rank
#: arrays + alignments), so the cap is deliberately modest
DEFAULT_CACHE_ENTRIES = 64

#: finished jobs that keep their event log and result; an older one keeps
#: only its status record (its events and result then answer 410)
RETAINED_JOBS = 64

#: default service memory budget jobs are admitted against (2 GiB)
DEFAULT_SERVICE_MEMORY_BYTES = 2 * 1024 ** 3

#: admission estimate: every job charges this floor (workload columns,
#: assignment arrays, result vectors)
BASE_JOB_BYTES = 32 * 1024 ** 2

#: admission estimate: each process-backend worker adds a forked
#: interpreter plus its shared-memory attachments
PER_WORKER_BYTES = 16 * 1024 ** 2

#: admission estimate: real-kernel runs additionally hold the read store
#: and the shared output array
REAL_KERNEL_BYTES = 64 * 1024 ** 2


class RunQueue:
    """Bounded, budgeted, single-flight job queue over the engines.

    ``slots`` is the number of concurrently *running* jobs (one worker
    thread each); ``total_workers`` bounds the summed process-pool
    workers of admitted jobs (defaults to the machine's core count);
    ``memory_bytes`` is the admission ledger capacity.  Use as a context
    manager, or call :meth:`shutdown` — queued jobs are then cancelled
    with the typed error rather than left to hang.
    """

    def __init__(
        self,
        slots: int = 2,
        backlog: int = 64,
        total_workers: int | None = None,
        memory_bytes: float = DEFAULT_SERVICE_MEMORY_BYTES,
        cache: LruCache | None = None,
        start: bool = True,
    ):
        if slots < 1:
            raise ConfigurationError("RunQueue needs slots >= 1")
        if backlog < 1:
            raise ConfigurationError("RunQueue needs backlog >= 1")
        self.slots = slots
        self.backlog = backlog
        self.cache = (cache if cache is not None
                      else LruCache(DEFAULT_CACHE_ENTRIES))
        self._cond = threading.Condition()
        self._heap: list[tuple[int, int, Job]] = []
        self._seq = itertools.count()
        self._jobs: dict[str, Job] = {}
        self._keys: dict[str, str] = {}
        self._inflight: dict[str, Job] = {}
        self._followers: dict[str, list[Job]] = {}
        self._mem = NodeMemory(capacity=float(memory_bytes))
        self._workers_total = total_workers or (os.cpu_count() or 1)
        self._workers_free = self._workers_total
        self._shutdown = False
        #: job ids in the order admission granted them resources — the
        #: observable priority contract (tests assert on it)
        self.admission_order: list[str] = []
        self._executions: dict[str, int] = {}
        self._counters = {
            "submitted": 0, "executed": 0, "cache_hits": 0,
            "coalesced": 0, "failed": 0, "cancelled": 0, "rejected": 0,
        }
        #: terminal jobs still holding their payload, oldest first; its
        #: own lock, since a job turns terminal with ``_cond`` held or not
        self._retained: deque[Job] = deque()
        self._retain_lock = threading.Lock()
        self._released = 0
        self._threads: list[threading.Thread] = []
        if start:
            self.start()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._threads:
            return
        self._threads = [
            threading.Thread(target=self._worker_loop,
                             name=f"runqueue-slot{i}", daemon=True)
            for i in range(self.slots)
        ]
        for t in self._threads:
            t.start()

    def __enter__(self) -> "RunQueue":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def shutdown(self, cancel_running: bool = False,
                 timeout: float = 60.0) -> None:
        """Stop accepting, cancel the backlog, join the workers.

        Every job still QUEUED — heap leaders and their followers alike —
        is moved to CANCELLED with a typed
        :class:`~repro.errors.JobCancelledError` recorded, so no client
        is left streaming a job that will never run.  Running jobs finish
        normally unless ``cancel_running`` flags them for the tracer
        abort.  Idempotent.
        """
        with self._cond:
            self._shutdown = True
            drained: list[Job] = []
            while self._heap:
                _, _, job = heapq.heappop(self._heap)
                if job.done:
                    continue
                drained.append(job)
            for job in drained:
                followers = [f for f in self._followers.pop(job.id, [])
                             if not f.done]
                key = self._keys[job.id]
                if self._inflight.get(key) is job:
                    del self._inflight[key]
                for j in (job, *followers):
                    j.cancelled(
                        "queue shut down before the job was admitted "
                        "(JobCancelledError)"
                    )
                    self._counters["cancelled"] += 1
            if cancel_running:
                for job in self._jobs.values():
                    if job.state in (JobState.ADMITTED, JobState.RUNNING):
                        job.request_cancel()
            self._cond.notify_all()
        for t in self._threads:
            t.join(timeout)

    # -- submission ----------------------------------------------------------

    def _budget(self, request: JobRequest) -> dict:
        """Admission estimate: worker processes + bytes for one request.

        Mirrors the executor's sizing rules: serial jobs hold one worker
        (the slot thread itself); ``process`` holds its configured pool;
        ``auto`` with the default ``workers=1`` would build a one-per-core
        pool capped at 8 (:class:`~repro.runtime.executor.AutoExecutor`),
        so that is what admission reserves.
        """
        cfg = request.engine_config()
        workers = 1
        if cfg.backend != "serial":
            if cfg.backend == "auto" and cfg.workers == 1:
                workers = max(1, min(os.cpu_count() or 1, 8))
            else:
                workers = max(1, cfg.workers)
        nbytes = BASE_JOB_BYTES + workers * PER_WORKER_BYTES
        if request.kernel == "real":
            nbytes += REAL_KERNEL_BYTES
        return {"workers": workers, "bytes": float(nbytes)}

    def submit(self, request: JobRequest) -> Job:
        """Validate, dedupe, admit-or-queue one request; returns its Job.

        Raises :class:`~repro.errors.QueueFullError` when the backlog is
        at capacity (HTTP 429), :class:`~repro.errors.ConfigurationError`
        on an invalid or never-admittable request, and
        :class:`~repro.errors.ServiceError` after shutdown.
        """
        request.validate()
        key = request.cache_key()
        budget = self._budget(request)
        if budget["workers"] > self._workers_total:
            raise ConfigurationError(
                f"request needs {budget['workers']} pool workers but the "
                f"queue budget is {self._workers_total}; lower workers= or "
                f"raise total_workers"
            )
        if budget["bytes"] > self._mem.capacity:
            raise ConfigurationError(
                f"request is budgeted at {fmt_bytes(budget['bytes'])} but "
                f"the queue's memory ledger holds "
                f"{fmt_bytes(self._mem.capacity)}; it could never be "
                f"admitted"
            )
        job = Job(request)
        job.budget = budget
        job.on_terminal = self._retire
        with self._cond:
            if self._shutdown:
                raise ServiceError("queue is shut down; not accepting jobs")
            self._jobs[job.id] = job
            self._keys[job.id] = key
            self._counters["submitted"] += 1
            cached = self.cache.get(key)
            if cached is not None:
                self._counters["cache_hits"] += 1
                job.finish(cached, cache_hit=True, source="cache")
                return job
            leader = self._inflight.get(key)
            if leader is not None and not leader.done:
                job.coalesced_into = leader.id
                self._followers.setdefault(leader.id, []).append(job)
                self._counters["coalesced"] += 1
                return job
            if len(self._heap) >= self.backlog:
                del self._jobs[job.id]
                del self._keys[job.id]
                self._counters["submitted"] -= 1
                self._counters["rejected"] += 1
                raise QueueFullError(
                    f"backlog full ({self.backlog} queued jobs); "
                    f"retry after the queue drains"
                )
            heapq.heappush(self._heap, (-job.priority, next(self._seq), job))
            self._inflight[key] = job
            self._cond.notify()
        return job

    # -- queries -------------------------------------------------------------

    def get(self, job_id: str) -> Job:
        with self._cond:
            job = self._jobs.get(job_id)
        if job is None:
            raise ConfigurationError(f"unknown job {job_id!r}")
        return job

    def jobs(self) -> list[Job]:
        """All known jobs, submission-ordered."""
        with self._cond:
            return list(self._jobs.values())

    def executions(self, key: str) -> int:
        """Engine executions performed for one cache key (dedup oracle)."""
        with self._cond:
            return self._executions.get(key, 0)

    def stats(self) -> dict:
        with self._cond:
            running = sum(
                1 for j in self._jobs.values()
                if j.state in (JobState.ADMITTED, JobState.RUNNING)
            )
            with self._retain_lock:
                released = self._released
            return {
                **self._counters,
                "released": released,
                "backlog": len(self._heap),
                "running": running,
                "slots": self.slots,
                "workers_free": self._workers_free,
                "workers_total": self._workers_total,
                "memory_used": self._mem.used,
                "memory_capacity": self._mem.capacity,
                "memory_high_water": self._mem.high_water,
                "cache": self.cache.stats(),
            }

    def _retire(self, job: Job) -> None:
        """A job turned terminal: release the payload of the oldest ones.

        Runs on every terminal transition, some with ``_cond`` held, so
        it takes only the ring's own lock.
        """
        with self._retain_lock:
            self._retained.append(job)
            while len(self._retained) > RETAINED_JOBS:
                self._retained.popleft().release()
                self._released += 1

    # -- cancellation --------------------------------------------------------

    def cancel(self, job_id: str) -> Job:
        """Cancel one job; immediate when QUEUED, flagged when RUNNING.

        A queued leader with coalesced followers promotes its oldest
        live follower to a fresh queue entry, so one client's DELETE
        never discards another client's work.  Cancelling a running
        leader *does* cancel its followers — the single execution they
        were riding is aborted (documented in docs/SERVICE.md).
        """
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                raise ConfigurationError(f"unknown job {job_id!r}")
            if job.done:
                return job
            if job.state == JobState.QUEUED:
                if job.coalesced_into is not None:
                    peers = self._followers.get(job.coalesced_into, [])
                    if job in peers:
                        peers.remove(job)
                else:
                    self._promote_followers(job)
                job.cancelled("cancelled by client request")
                self._counters["cancelled"] += 1
                self._cond.notify_all()
                return job
            job.request_cancel()
            return job

    def _promote_followers(self, leader: Job) -> None:
        """Re-queue the oldest live follower of a cancelled queued leader."""
        key = self._keys[leader.id]
        if self._inflight.get(key) is leader:
            del self._inflight[key]
        followers = [f for f in self._followers.pop(leader.id, [])
                     if not f.done]
        if not followers:
            return
        new_leader, *rest = followers
        new_leader.coalesced_into = None
        new_leader.budget = dict(leader.budget)
        self._inflight[key] = new_leader
        for f in rest:
            f.coalesced_into = new_leader.id
        if rest:
            self._followers[new_leader.id] = rest
        heapq.heappush(
            self._heap, (-new_leader.priority, next(self._seq), new_leader)
        )

    # -- the worker loop -----------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                job = self._pop_admittable()
                while job is None:
                    if self._shutdown:
                        return
                    self._cond.wait(timeout=1.0)
                    job = self._pop_admittable()
            self._run_job(job)

    def _pop_admittable(self) -> Job | None:
        """Admit the heap head if its budget fits; None otherwise.

        Only the head is considered — FIFO-with-priority means a large
        head waiting for resources is *not* bypassed by a smaller later
        job.  Called under the condition lock.
        """
        while self._heap:
            _, _, job = self._heap[0]
            if job.done:
                heapq.heappop(self._heap)
                continue
            if job.budget["workers"] > self._workers_free:
                return None
            try:
                self._mem.allocate(job.id, job.budget["bytes"])
            except MemoryLimitError:
                return None
            self._workers_free -= job.budget["workers"]
            heapq.heappop(self._heap)
            job.mark_admitted()
            self.admission_order.append(job.id)
            return job
        return None

    def _collect_followers(self, job: Job, key: str) -> list[Job]:
        """Detach a finishing leader's followers; called under the lock."""
        followers = [f for f in self._followers.pop(job.id, [])
                     if not f.done]
        if self._inflight.get(key) is job:
            del self._inflight[key]
        return followers

    def _run_job(self, job: Job) -> None:
        key = self._keys[job.id]
        try:
            try:
                job.mark_running()
                result: RunResult = execute_request(job)
            except JobCancelledError as exc:
                with self._cond:
                    followers = self._collect_followers(job, key)
                job.cancelled(str(exc))
                with self._cond:
                    self._counters["cancelled"] += 1 + len(followers)
                for f in followers:
                    f.cancelled(
                        f"coalesced leader {job.id} was cancelled mid-run"
                    )
            except Exception as exc:
                with self._cond:
                    followers = self._collect_followers(job, key)
                job.fail(exc)
                with self._cond:
                    self._counters["failed"] += 1 + len(followers)
                for f in followers:
                    f.fail(exc)
            else:
                with self._cond:
                    self.cache.put(key, result)
                    followers = self._collect_followers(job, key)
                    self._counters["executed"] += 1
                    self._executions[key] = self._executions.get(key, 0) + 1
                job.finish(result)
                for f in followers:
                    f.finish(result, cache_hit=True, source="coalesced")
        finally:
            with self._cond:
                self._mem.free(job.id)
                self._workers_free += job.budget["workers"]
                self._cond.notify_all()
