"""Alignment-as-a-service: jobs, queue, cache, events, HTTP API.

The layer ROADMAP.md's production-scale story needs on top of the
engines: many clients submit runs, a bounded admission-controlled queue
multiplexes them over fixed compute, identical requests coalesce into a
single engine execution, completed results serve from a signature-stable
cache, and progress streams back over Server-Sent Events — all stdlib,
no new runtime dependency.  See docs/SERVICE.md for the API reference.
"""

from repro.service.events import (
    DEFAULT_EVENT_CAP,
    PROGRESS_EVERY,
    JobEventLog,
    ProgressTracer,
)
from repro.service.http import ServiceHandler, ServiceServer
from repro.service.jobs import (
    EXECUTION_ONLY_KNOBS,
    TERMINAL_STATES,
    Job,
    JobRequest,
    JobState,
    execute_request,
    known_engines,
)
from repro.service.queue import (
    DEFAULT_CACHE_ENTRIES,
    DEFAULT_SERVICE_MEMORY_BYTES,
    RunQueue,
)

__all__ = [
    "DEFAULT_CACHE_ENTRIES",
    "DEFAULT_EVENT_CAP",
    "DEFAULT_SERVICE_MEMORY_BYTES",
    "EXECUTION_ONLY_KNOBS",
    "PROGRESS_EVERY",
    "Job",
    "JobEventLog",
    "JobRequest",
    "JobState",
    "ProgressTracer",
    "RunQueue",
    "ServiceHandler",
    "ServiceServer",
    "TERMINAL_STATES",
    "execute_request",
    "known_engines",
]
