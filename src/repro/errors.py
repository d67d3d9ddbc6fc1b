"""Exception hierarchy for :mod:`repro`.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch the whole family with one clause while still distinguishing subsystems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all exceptions raised by the repro library."""


class ConfigurationError(ReproError):
    """A machine, workload, or engine was configured inconsistently."""


class SequenceError(ReproError):
    """Invalid sequence data (bad alphabet, empty read, malformed FASTA...)."""


class AlignmentError(ReproError):
    """Alignment kernel misuse (bad seed position, invalid scoring...)."""


class SimulationError(ReproError):
    """Discrete-event simulation reached an inconsistent state."""


class DeadlockError(SimulationError):
    """The event queue drained while simulated processes were still blocked."""


class MemoryLimitError(SimulationError):
    """A simulated allocation exceeded the per-node memory budget."""


class AccountingError(SimulationError):
    """Per-rank phase times failed to tile the wall clock (conservation)."""


class FaultError(SimulationError):
    """An injected fault could not be absorbed by the runtime."""


class RpcTimeoutError(FaultError):
    """An RPC exhausted its retry budget without receiving a response."""


class RankFailureError(FaultError):
    """A rank died permanently and the engine could not degrade gracefully."""


class PartitionError(ReproError):
    """Read/task partitioning violated an invariant."""


class ShardSpillError(ReproError):
    """A spilled workload shard could not be read back (truncated/corrupt)."""


class ExecutorError(ReproError):
    """The compute backend failed outside the simulation model."""


class ServiceError(ReproError):
    """The job service (queue/cache/HTTP layer) reached an invalid state."""


class JobStateError(ServiceError):
    """A job was driven through an illegal state transition."""


class JobCancelledError(ServiceError):
    """A job was cancelled — by a client, or by queue shutdown.

    Raised *inside* a running job by the progress-tracer sink (the next
    trace event after the cancel request aborts the engine mid-run; the
    engines hold their executors in ``with`` blocks, so pools and shared
    memory tear down cleanly), and recorded as the typed error of jobs
    still QUEUED when the queue shuts down."""


class QueueFullError(ServiceError):
    """The run queue's bounded backlog rejected a submission (HTTP 429)."""


class JobExpiredError(ServiceError):
    """A finished job's event log and result were released (HTTP 410).

    The run queue keeps the payload of the most recent finished jobs
    only; an older job keeps its status record, but its events and
    result are gone."""


class WorkerCrashError(ExecutorError):
    """A process-backend worker died mid-batch.

    Wraps :class:`concurrent.futures.process.BrokenProcessPool` so callers
    never have to catch a ``concurrent.futures`` internal: the message
    carries the pool shape (workers, chunk size) and the failing batch's
    task count, which is what a reproduction needs.  The pool is unusable
    afterwards; ``close()`` still tears down cleanly (no shm leak)."""
