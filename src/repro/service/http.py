"""Stdlib HTTP front-end for the run queue: JSON control, SSE progress.

No framework, no new dependency — a
:class:`http.server.ThreadingHTTPServer` whose handler threads talk to one
shared :class:`~repro.service.queue.RunQueue`.  The API surface:

``POST /jobs``
    Submit a :class:`~repro.service.jobs.JobRequest` as JSON.  201 with
    the job's status body; 400 on an invalid request
    (:class:`~repro.errors.ConfigurationError`) or a ``Content-Length``
    that is not a non-negative integer, 413 for a body over
    :data:`MAX_BODY_BYTES` (not read), 429 when the bounded backlog is
    full (:class:`~repro.errors.QueueFullError`, with a ``Retry-After``
    hint), 503 once the queue has shut down.

``GET /jobs``
    Every known job (submission order) plus queue counters.

``GET /jobs/{id}``
    One job's status: state, cache/coalescing markers, typed error,
    admission budget, timestamps, event count, ``expired``.

``GET /jobs/{id}/events[?since=N]``
    The job's event log as Server-Sent Events — ``state`` transitions,
    tracer-derived ``phase``/``fault``/``churn`` events, periodic
    ``progress`` estimates, and a terminal ``done`` event, after which
    the stream closes.  ``since`` (a non-negative integer, else 400)
    replays from a sequence number, so a reconnecting client can resume
    where it dropped off.  410 :class:`~repro.errors.JobExpiredError`
    once the job has expired.

``GET /jobs/{id}/result``
    The completed result: signature, wall clock, category fractions,
    engine details.  409 while the job is still live, 500 with the typed
    error for FAILED, 410 for CANCELLED, 410
    :class:`~repro.errors.JobExpiredError` once the job has expired.

``DELETE /jobs/{id}``
    Cancel: immediate for queued jobs, flagged (engine aborts at its next
    trace event) for running ones.  202 with the current status body.

``GET /healthz``
    Liveness probe for scripts and CI.

A job *expires* once :data:`~repro.service.queue.RETAINED_JOBS` newer
jobs have finished: the queue drops its event log and result and keeps
the status record, so ``GET /jobs`` and ``GET /jobs/{id}`` still answer
200 for it (with ``"expired": true``).  A replay already under way holds
its own reference to the log and still ends with the ``done`` frame.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.engines.report import RunResult
from repro.errors import ConfigurationError, QueueFullError, ServiceError
from repro.service.events import JobEventLog
from repro.service.jobs import Job, JobRequest, JobState
from repro.service.queue import RunQueue

__all__ = ["ServiceHandler", "ServiceServer", "MAX_BODY_BYTES"]

#: largest ``POST /jobs`` body read; a JobRequest is well under 1 KiB
MAX_BODY_BYTES = 64 * 1024


def _json_safe(value: Any) -> Any:
    """Recursively render engine detail payloads as JSON-encodable data."""
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item"):
        try:
            return _json_safe(value.item())  # numpy scalar
        except (ValueError, TypeError):
            pass
    if hasattr(value, "tolist"):
        return _json_safe(value.tolist())  # numpy array
    return str(value)


def result_payload(job: Job, result: RunResult) -> dict:
    """The ``GET /jobs/{id}/result`` body for a DONE job."""
    b = result.breakdown
    return {
        "id": job.id,
        "state": job.state,
        "cache_hit": job.cache_hit,
        "cache_source": job.cache_source,
        "signature": result.signature(),
        "engine": b.engine,
        "workload": b.workload,
        "wall_time": float(b.wall_time),
        "fractions": b.fractions(),
        "exchange_rounds": int(result.exchange_rounds),
        "max_memory_per_rank": result.max_memory_per_rank,
        "alignments": (None if result.alignments is None
                       else len(result.alignments)),
        "details": _json_safe(result.details),
    }


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes the API onto the server's shared :class:`RunQueue`."""

    server_version = "repro-service/1.0"

    @property
    def queue(self) -> RunQueue:
        return self.server.queue

    def log_message(self, format: str, *args: Any) -> None:
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    # -- plumbing ------------------------------------------------------------

    def _send_json(self, status: int, payload: dict,
                   extra_headers: dict | None = None) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _error(self, status: int, exc_type: str, message: str,
               extra_headers: dict | None = None) -> None:
        self._send_json(status, {"error": exc_type, "message": message},
                        extra_headers)

    def _expired(self, job: Job) -> None:
        self._error(
            410, "JobExpiredError",
            f"job {job.id} has expired: newer jobs finished and its "
            f"events and result were released; GET /jobs/{job.id} still "
            f"has its status",
        )

    def _job_or_404(self, job_id: str) -> Job | None:
        try:
            return self.queue.get(job_id)
        except ConfigurationError as exc:
            self._error(404, "NotFound", str(exc))
            return None

    # -- verbs ---------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if urlsplit(self.path).path != "/jobs":
            self._error(404, "NotFound", f"no POST route {self.path!r}")
            return
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            self._error(400, "BadRequest",
                        "Content-Length must be a non-negative integer")
            return
        if length > MAX_BODY_BYTES:
            self._error(413, "PayloadTooLarge",
                        f"body of {length} bytes is over the "
                        f"{MAX_BODY_BYTES}-byte limit")
            return
        raw = self.rfile.read(length) if length else b"{}"
        try:
            payload = json.loads(raw or b"{}")
        except json.JSONDecodeError as exc:
            self._error(400, "BadRequest", f"body is not JSON: {exc}")
            return
        if not isinstance(payload, dict):
            self._error(400, "BadRequest", "body must be a JSON object")
            return
        try:
            request = JobRequest.from_dict(payload)
            job = self.queue.submit(request)
        except QueueFullError as exc:
            self._error(429, "QueueFullError", str(exc),
                        {"Retry-After": "1"})
            return
        except ConfigurationError as exc:
            self._error(400, "ConfigurationError", str(exc))
            return
        except ServiceError as exc:
            self._error(503, "ServiceError", str(exc))
            return
        self._send_json(201, job.as_dict())

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        split = urlsplit(self.path)
        path = split.path.rstrip("/") or "/"
        if path == "/healthz":
            stats = self.queue.stats()
            self._send_json(200, {"ok": True, "jobs": stats["submitted"],
                                  "running": stats["running"]})
            return
        if path == "/jobs":
            self._send_json(200, {
                "jobs": [j.as_dict() for j in self.queue.jobs()],
                "stats": self.queue.stats(),
            })
            return
        parts = path.strip("/").split("/")
        if not parts or parts[0] != "jobs" or len(parts) not in (2, 3):
            self._error(404, "NotFound", f"no GET route {self.path!r}")
            return
        job = self._job_or_404(parts[1])
        if job is None:
            return
        if len(parts) == 2:
            self._send_json(200, job.as_dict())
            return
        if parts[2] == "events":
            query = parse_qs(split.query)
            try:
                since = int(query.get("since", ["0"])[0])
                if since < 0:
                    raise ValueError(since)
            except ValueError:
                self._error(400, "BadRequest",
                            "since must be a non-negative integer")
                return
            events = job.events  # once: a release may drop it any time
            if events is None:
                self._expired(job)
            else:
                self._stream_events(events, since)
            return
        if parts[2] == "result":
            self._send_result(job)
            return
        self._error(404, "NotFound", f"no GET route {self.path!r}")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        parts = urlsplit(self.path).path.strip("/").split("/")
        if len(parts) != 2 or parts[0] != "jobs":
            self._error(404, "NotFound", f"no DELETE route {self.path!r}")
            return
        try:
            job = self.queue.cancel(parts[1])
        except ConfigurationError as exc:
            self._error(404, "NotFound", str(exc))
            return
        self._send_json(202, job.as_dict())

    # -- bodies --------------------------------------------------------------

    def _send_result(self, job: Job) -> None:
        result = job.result  # once: a release may drop it any time
        if job.state == JobState.DONE and result is not None:
            self._send_json(200, result_payload(job, result))
        elif job.expired:
            self._expired(job)
        elif job.state == JobState.FAILED:
            self._send_json(500, {"id": job.id, "state": job.state,
                                  "error": job.error})
        elif job.state == JobState.CANCELLED:
            self._send_json(410, {"id": job.id, "state": job.state,
                                  "error": job.error})
        else:
            self._error(
                409, "NotFinished",
                f"job {job.id} is {job.state}; stream "
                f"/jobs/{job.id}/events or poll until it is terminal",
            )

    def _stream_events(self, events: JobEventLog, since: int) -> None:
        """Tail a job's event log as an SSE stream until it closes.

        Each wake-up of the tail is one batch of frames and one socket
        write; the bytes are those of writing the frames one by one.
        The log closes at the job's terminal transition, so the stream
        always ends with the ``done`` event; a vanished client surfaces
        as a broken pipe and simply ends the handler thread.
        """
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        try:
            for body in events.frames(since=since, poll=1.0):
                self.wfile.write(body.encode())
                self.wfile.flush()
        except (BrokenPipeError, ConnectionResetError, OSError):
            return


class _Server(ThreadingHTTPServer):
    daemon_threads = True  # SSE handler threads must not block exit
    queue: RunQueue
    verbose: bool


class ServiceServer:
    """One HTTP listener bound to one run queue.

    ``port=0`` binds an ephemeral port (tests read ``.port`` back).  When
    the server built its own queue it also owns its shutdown; a queue
    passed in stays the caller's to tear down.  Context-manager use gives
    start/stop; ``serve_forever()`` is the CLI's foreground mode.
    """

    def __init__(self, queue: RunQueue | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 verbose: bool = False, **queue_kwargs: Any):
        self.queue = queue if queue is not None else RunQueue(**queue_kwargs)
        self._owns_queue = queue is None
        self.httpd = _Server((host, port), ServiceHandler)
        self.httpd.queue = self.queue
        self.httpd.verbose = verbose
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    def url(self, path: str = "/") -> str:
        return f"http://{self.host}:{self.port}{path}"

    def start(self) -> "ServiceServer":
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, name="repro-service",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self, cancel_running: bool = True) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        if self._owns_queue:
            self.queue.shutdown(cancel_running=cancel_running)

    def serve_forever(self) -> None:
        """Foreground mode (``python -m repro serve``); Ctrl-C returns."""
        try:
            self.httpd.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            self.httpd.server_close()
            if self._owns_queue:
                self.queue.shutdown(cancel_running=True)

    def __enter__(self) -> "ServiceServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()
