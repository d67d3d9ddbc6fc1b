"""Jobs: one client-submitted engine run, as an explicit state machine.

A :class:`Job` wraps exactly one :func:`repro.core.api.run_alignment`
invocation (any registered engine, including ``engine="auto"`` via the
cost-model planner) and moves through::

    QUEUED -> ADMITTED -> RUNNING -> DONE
         \\-> DONE (cache hit / coalesced)    RUNNING -> FAILED
         \\-> CANCELLED                       RUNNING -> CANCELLED

Transitions are validated (:class:`~repro.errors.JobStateError` on an
illegal move), timestamped, and mirrored as ``state`` events into the
job's :class:`~repro.service.events.JobEventLog`, so a client streaming
the job sees the same machine this module enforces.

Failures are captured *typed*: the exception class name and message land
in ``job.error`` (``ReproError`` subclasses keep their subsystem-specific
names — ``RankFailureError``, ``WorkerCrashError``, ... — which is what a
client needs to decide between retry and reconfigure).

:class:`JobRequest` is the canonical submission: workload + engine +
knobs + fault spec.  Its :meth:`~JobRequest.cache_key` is the result
cache's identity — a SHA-256 over every field that can move a result bit,
and *only* those.  The compute backend knobs (``backend``/``workers``)
are excluded: the executor is contractually bit-identical to the serial
path (pinned by the golden-signature suite).  Of the sharding knobs only
one fact enters the key: whether a Table-1 preset runs as streamed task
rows (``shard_tasks > 0``), a different model from the statistical one.
Shard size and resident budget stay out (any nonzero size gives the same
bits), and a sequence-level preset ignores the knobs altogether.
"""

from __future__ import annotations

import hashlib
import itertools
import threading
import time
from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Mapping

from repro.engines.base import EngineConfig, check_int
from repro.engines.registry import available_engines, get_engine
from repro.engines.report import RunResult
from repro.errors import ConfigurationError, JobStateError
from repro.genome.datasets import DATASETS
from repro.pipeline.sharded import DEFAULT_RESIDENT_SHARDS
from repro.service.events import JobEventLog, ProgressTracer

__all__ = ["JobState", "JobRequest", "Job", "TERMINAL_STATES",
           "execute_request", "EXECUTION_ONLY_KNOBS"]


class JobState:
    """The job lifecycle vocabulary (plain strings: JSON-friendly)."""

    QUEUED = "QUEUED"
    ADMITTED = "ADMITTED"
    RUNNING = "RUNNING"
    DONE = "DONE"
    FAILED = "FAILED"
    CANCELLED = "CANCELLED"


TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.CANCELLED}
)

_TRANSITIONS: dict[str, frozenset[str]] = {
    JobState.QUEUED: frozenset({JobState.ADMITTED, JobState.DONE,
                                JobState.FAILED, JobState.CANCELLED}),
    JobState.ADMITTED: frozenset({JobState.RUNNING, JobState.CANCELLED,
                                  JobState.FAILED}),
    JobState.RUNNING: frozenset({JobState.DONE, JobState.FAILED,
                                 JobState.CANCELLED}),
    JobState.DONE: frozenset(),
    JobState.FAILED: frozenset(),
    JobState.CANCELLED: frozenset(),
}

#: EngineConfig knobs that cannot move a result bit (docs/PARALLEL.md's
#: determinism contract) and are therefore excluded from the cache key
EXECUTION_ONLY_KNOBS = ("backend", "workers")

#: the integer request fields and their least value (``None``: any)
_INT_FIELDS = {"seed": 0, "shard_tasks": 0, "max_resident_shards": 1,
               "nodes": 1, "cores_per_node": 1, "fault_seed": 0,
               "priority": None}


@dataclass(frozen=True)
class JobRequest:
    """One canonical run submission.

    ``config`` holds :class:`~repro.engines.base.EngineConfig` field
    overrides by name (the HTTP layer passes the request JSON's
    ``config`` object straight through); unknown names are rejected.
    ``priority`` breaks FIFO order in the queue (higher first) and is
    *not* part of the cache identity.
    """

    workload: str = "micro"
    seed: int = 0
    shard_tasks: int = 0
    max_resident_shards: int = DEFAULT_RESIDENT_SHARDS
    engine: str = "bsp"
    nodes: int = 2
    cores_per_node: int = 8
    kernel: str = "model"
    faults: str | None = None
    fault_seed: int = 0
    comm_only: bool = False
    config: Mapping[str, Any] = field(default_factory=dict)
    priority: int = 0

    _CONFIG_FIELDS = frozenset(f.name for f in fields(EngineConfig))

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "JobRequest":
        """Build and validate a request from decoded JSON."""
        known = {f.name for f in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"unknown request field(s) {sorted(unknown)}; "
                f"accepted: {sorted(known)}"
            )
        req = cls(**payload)
        req.validate()
        return req

    def engine_config(self) -> EngineConfig:
        """The resolved :class:`EngineConfig` (overrides applied, validated)."""
        overrides = dict(self.config)
        bad = set(overrides) - self._CONFIG_FIELDS
        if bad:
            raise ConfigurationError(
                f"unknown EngineConfig override(s) {sorted(bad)}; "
                f"accepted: {sorted(self._CONFIG_FIELDS)}"
            )
        cfg = replace(EngineConfig(), **overrides)
        return cfg.comm_only() if self.comm_only else cfg

    def validate(self) -> None:
        """Fail fast — a request that cannot run is rejected at submit.

        Every field's type is checked first, so a wrongly typed JSON
        value is a :class:`ConfigurationError`, never a ``TypeError``.
        """
        for name, least in _INT_FIELDS.items():
            check_int(name, getattr(self, name), least)
        for name in ("workload", "engine", "kernel", "faults"):
            value = getattr(self, name)
            if not (isinstance(value, str)
                    or name == "faults" and value is None):
                raise ConfigurationError(
                    f"{name} must be a string, got {value!r}")
        if not isinstance(self.comm_only, bool):
            raise ConfigurationError(
                f"comm_only must be true or false, got {self.comm_only!r}")
        if not isinstance(self.config, Mapping):
            raise ConfigurationError(
                f"config must be a JSON object, got {self.config!r}")
        if self.workload not in DATASETS:
            raise ConfigurationError(
                f"unknown workload {self.workload!r}; "
                f"available: {sorted(DATASETS)}"
            )
        if self.engine != "auto":
            get_engine(self.engine)  # ConfigurationError on typos
        if self.kernel not in ("model", "real"):
            raise ConfigurationError(
                f"kernel must be 'model' or 'real', got {self.kernel!r}"
            )
        from repro.core.api import check_micro_knobs

        # engine_config() validates the overrides
        check_micro_knobs(self.engine, self.engine_config(), self.kernel)
        micro = self.engine != "auto" and get_engine(self.engine).is_micro
        if micro and not DATASETS[self.workload].sequence_level:
            raise ConfigurationError(
                f"engine {self.engine!r} is a message-level engine and "
                f"needs a sequence-level workload; {self.workload!r} is "
                f"a statistical preset"
            )
        if self.faults:
            from repro.faults import parse_fault_spec

            parse_fault_spec(self.faults)  # ConfigurationError on bad specs

    def cache_key(self) -> str:
        """SHA-256 identity over every result-affecting field.

        Execution-only knobs (:data:`EXECUTION_ONLY_KNOBS`) are absent, so
        e.g. a ``backend="process"`` resubmission of a cached serial run
        is a hit.  The sharding knobs add one term, and only where they
        pick the streamed model: ``shard_tasks > 0`` on a Table-1 preset.
        """
        cfg = self.engine_config()
        parts = [
            f"workload={self.workload}", f"seed={self.seed}",
            f"engine={self.engine}", f"nodes={self.nodes}",
            f"cores={self.cores_per_node}", f"kernel={self.kernel}",
            f"faults={self.faults or ''}", f"fault_seed={self.fault_seed}",
        ]
        if self.shard_tasks and not DATASETS[self.workload].sequence_level:
            parts.append("rows=streamed")
        for f in sorted(self._CONFIG_FIELDS - set(EXECUTION_ONLY_KNOBS)):
            value = getattr(cfg, f)
            if isinstance(value, float):
                value = value.hex()
            parts.append(f"cfg.{f}={value}")
        return hashlib.sha256("\x1f".join(parts).encode()).hexdigest()

    def summary(self) -> dict:
        """The request as a JSON-safe dict (status endpoints)."""
        return {
            "workload": self.workload, "seed": self.seed,
            "engine": self.engine, "nodes": self.nodes,
            "cores_per_node": self.cores_per_node, "kernel": self.kernel,
            "faults": self.faults, "fault_seed": self.fault_seed,
            "comm_only": self.comm_only,
            "shard_tasks": self.shard_tasks,
            "max_resident_shards": self.max_resident_shards,
            "config": dict(self.config), "priority": self.priority,
        }


_job_ids = itertools.count(1)


def _next_job_id() -> str:
    return f"job-{next(_job_ids)}"


class Job:
    """One submission moving through the lifecycle.

    Thread-safe: the queue's worker threads drive transitions while HTTP
    handler threads poll ``state`` and stream ``events``.  ``wait()``
    blocks until the job reaches a terminal state.
    """

    def __init__(self, request: JobRequest, job_id: str | None = None):
        self.id = job_id or _next_job_id()
        self.request = request
        self.priority = request.priority
        #: the job's event log and result; both become ``None`` once
        #: :meth:`release` drops them
        self.events: JobEventLog | None = JobEventLog()
        self.result: RunResult | None = None
        #: ``len(events)`` when the log was released
        self.released_events = 0
        #: called with the job once it is terminal, before ``wait()``
        #: returns; the run queue sets it to age out finished jobs
        self.on_terminal: Callable[["Job"], None] | None = None
        self.error: dict | None = None
        self.cache_hit = False
        #: ``"cache"`` (served from the result cache), ``"coalesced"``
        #: (follower of an identical in-flight job), or ``None`` (fresh)
        self.cache_source: str | None = None
        #: leader job id when this submission was coalesced
        self.coalesced_into: str | None = None
        #: admission budget the queue reserved: {"workers": n, "bytes": b}
        self.budget: dict = {}
        self.created_at = time.time()
        self.admitted_at: float | None = None
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self._state = JobState.QUEUED
        self._lock = threading.Lock()
        self._cancel = threading.Event()
        self._done = threading.Event()
        self.events.append("state", state=self._state, job=self.id)

    # -- state machine -------------------------------------------------------

    @property
    def state(self) -> str:
        return self._state

    @property
    def done(self) -> bool:
        return self._state in TERMINAL_STATES

    @property
    def expired(self) -> bool:
        """True once :meth:`release` dropped the event log and result."""
        return self.events is None

    @property
    def cancel_requested(self) -> bool:
        return self._cancel.is_set()

    def _transition(self, new_state: str, **event_args: Any) -> None:
        with self._lock:
            if new_state not in _TRANSITIONS[self._state]:
                raise JobStateError(
                    f"job {self.id}: illegal transition "
                    f"{self._state} -> {new_state}"
                )
            self._state = new_state
            self.events.append("state", state=new_state, job=self.id,
                               **event_args)
            if new_state not in TERMINAL_STATES:
                return
            self.finished_at = time.time()
            self.events.append(
                "done", state=new_state, job=self.id,
                cache_hit=self.cache_hit,
                error=self.error,
            )
            self.events.close()
        # outside the job's lock: the hook may release another job
        if self.on_terminal is not None:
            self.on_terminal(self)
        self._done.set()

    def mark_admitted(self) -> None:
        self.admitted_at = time.time()
        self._transition(JobState.ADMITTED)

    def mark_running(self) -> None:
        self.started_at = time.time()
        self._transition(JobState.RUNNING)

    def finish(self, result: RunResult, cache_hit: bool = False,
               source: str | None = None) -> None:
        self.result = result
        self.cache_hit = cache_hit
        self.cache_source = source
        self._transition(JobState.DONE, cache_hit=cache_hit)

    def fail(self, exc: BaseException) -> None:
        """Typed error capture: class name + message, never a traceback."""
        self.error = {"type": type(exc).__name__, "message": str(exc)}
        self._transition(JobState.FAILED, error=self.error)

    def cancelled(self, reason: str) -> None:
        self.error = {"type": "JobCancelledError", "message": reason}
        self._transition(JobState.CANCELLED, reason=reason)

    def request_cancel(self) -> None:
        """Flag the job; a running engine aborts at its next trace event."""
        self._cancel.set()

    def release(self) -> None:
        """Drop the event log and result of a finished job.

        Only references go: a stream already replaying the log holds its
        own and drains to its ``done`` frame.  The status record stays,
        with the event count at release and ``expired`` set.
        """
        self.released_events = len(self.events)
        # the log first: a reader that finds no result checks ``expired``
        self.events = None
        self.result = None

    def wait(self, timeout: float | None = None) -> bool:
        """Block until terminal; True when the job finished in time."""
        return self._done.wait(timeout)

    def as_dict(self) -> dict:
        """JSON-safe status view (the ``GET /jobs/{id}`` body)."""
        events = self.events
        return {
            "id": self.id,
            "state": self._state,
            "priority": self.priority,
            "request": self.request.summary(),
            "cache_hit": self.cache_hit,
            "cache_source": self.cache_source,
            "coalesced_into": self.coalesced_into,
            "error": self.error,
            "budget": dict(self.budget),
            "created_at": self.created_at,
            "admitted_at": self.admitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "events": (self.released_events if events is None
                       else len(events)),
            "expired": self.expired,
        }


# -- execution ---------------------------------------------------------------

def execute_request(job: Job) -> RunResult:
    """Run one job's request with a progress tracer attached.

    Called from a queue worker thread with the job already RUNNING.
    Jobs prepare concurrently: the process-wide workload, machine and
    per-P caches are thread-safe and build each key once.
    """
    from repro.core.api import get_workload, make_machine, run_alignment

    req = job.request
    config = req.engine_config()
    workload = get_workload(
        req.workload, seed=req.seed, shard_tasks=req.shard_tasks,
        max_resident_shards=req.max_resident_shards,
    )
    machine = make_machine(req.nodes, req.cores_per_node)
    tracer = ProgressTracer(job)
    fault_plan = None
    if req.faults:
        from repro.faults import parse_fault_spec

        fault_plan = parse_fault_spec(req.faults)
    return run_alignment(
        workload, req.nodes, req.engine, config=config,
        cores_per_node=req.cores_per_node, machine=machine,
        tracer=tracer, fault_plan=fault_plan, fault_seed=req.fault_seed,
        kernel=req.kernel,
    )


def known_engines() -> tuple[str, ...]:
    """Engine choices a request may name (registry + ``auto``)."""
    return tuple(available_engines()) + ("auto",)
