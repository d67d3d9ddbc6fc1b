"""Per-job progress events: the bus between a running engine and clients.

Two pieces:

* :class:`JobEventLog` — an append-only, capped, thread-safe event log
  with blocking iteration.  Every job owns one; the HTTP layer's SSE
  endpoint replays it from any sequence number and then tails it live.
* :class:`ProgressTracer` — a :class:`repro.obs.Tracer` subclass the queue
  attaches to every executed run.  It records events exactly as the plain
  tracer does (so run-exit conservation checks still re-sum the stream),
  *and* forwards a service-facing digest into the job's event log: phase
  starts, fault injections, churn membership/migration events,
  periodic percent-complete estimates against the planner's predicted
  wall when one is available, and — for real-kernel micro jobs — one
  ``alignments_resolved`` progress event per kernel call of the flush
  that follows the simulation.  It is also the cancellation hook: every
  record call checks the job's cancel flag and raises the typed
  :class:`~repro.errors.JobCancelledError`, which aborts the engine
  mid-run while its ``with``-held executors tear down cleanly.

Forwarding never changes results: the tracer only observes, and a job
run with a ``ProgressTracer`` attached produces a
:meth:`~repro.engines.report.RunResult.signature` bit-identical to an
untraced run (pinned by ``tests/test_service_http.py`` against the
golden-signature suite).
"""

from __future__ import annotations

import threading
from typing import Any, Iterator

from repro.errors import JobCancelledError
from repro.obs.tracer import Tracer

__all__ = ["JobEventLog", "ProgressTracer",
           "DEFAULT_EVENT_CAP", "PROGRESS_EVERY"]

#: events retained per job before non-essential kinds are dropped (state
#: and terminal events always land; one ``truncated`` marker records drops)
DEFAULT_EVENT_CAP = 10_000

#: a ``progress`` event is emitted every this many phase events
PROGRESS_EVERY = 64

#: instants forwarded into the job log, mapped to their service event kind
_INSTANT_KINDS = {
    "fault_inject": "fault",
    "rank_join": "churn",
    "rank_evict": "churn",
    "migrate": "churn",
}

#: counters forwarded as ``progress`` events, under their own name
_PROGRESS_COUNTERS = ("alignments_resolved",)

#: event kinds that bypass the cap — a client must always see these
_ALWAYS_KEPT = ("state", "done", "truncated")


class JobEventLog:
    """Append-only capped event list with blocking tail iteration.

    Events are dicts carrying at least ``seq`` (monotonic per log) and
    ``event`` (the kind).  ``close()`` marks the log terminal: tailing
    iterators drain what remains and stop instead of blocking forever.
    """

    def __init__(self, cap: int = DEFAULT_EVENT_CAP):
        self._events: list[dict] = []
        self._cond = threading.Condition()
        self._seq = 0
        self._cap = cap
        self.closed = False
        self.dropped = 0

    def append(self, kind: str, /, **payload: Any) -> None:
        with self._cond:
            if self.closed:
                return
            if len(self._events) >= self._cap and kind not in _ALWAYS_KEPT:
                if self.dropped == 0:
                    self._events.append(
                        {"seq": self._seq, "event": "truncated",
                         "cap": self._cap}
                    )
                    self._seq += 1
                self.dropped += 1
                return
            # seq/event always win over payload keys of the same name
            self._events.append({**payload, "seq": self._seq, "event": kind})
            self._seq += 1
            self._cond.notify_all()

    def close(self) -> None:
        """Mark the log terminal; tailing iterators finish draining."""
        with self._cond:
            self.closed = True
            self._cond.notify_all()

    def __len__(self) -> int:
        with self._cond:
            return len(self._events)

    def snapshot(self, since: int = 0) -> list[dict]:
        """Copy of the events with ``seq >= since`` recorded so far."""
        with self._cond:
            return [e for e in self._events if e["seq"] >= since]

    def stream(self, since: int = 0, poll: float = 10.0) -> Iterator[dict]:
        """Yield events from ``since`` onward, blocking for new ones.

        Ends when the log is closed and fully drained.  ``poll`` bounds
        each wait so a consumer thread can notice its client went away
        even if the job stalls.
        """
        cursor = since
        while True:
            with self._cond:
                batch = [e for e in self._events if e["seq"] >= cursor]
                if not batch:
                    if self.closed:
                        return
                    self._cond.wait(timeout=poll)
                    batch = [e for e in self._events if e["seq"] >= cursor]
            for event in batch:
                cursor = event["seq"] + 1
                yield event


class ProgressTracer(Tracer):
    """Tracer sink that tails a run into its job's event log.

    ``predicted_wall`` (planner prediction, when the engine has a cost
    hook) turns the periodic ``progress`` events into percent-complete
    estimates; without it they carry the simulated clock only.
    ``phase_stride`` forwards every Nth phase event (1 = all) — recording
    for conservation is never strided, only the service digest is.
    """

    def __init__(self, job, predicted_wall: float | None = None,
                 phase_stride: int = 1):
        super().__init__(enabled=True)
        self.job = job
        self.predicted_wall = predicted_wall
        self.phase_stride = max(1, int(phase_stride))
        self._phases_seen = 0
        self._sim_time = 0.0

    def _check_cancel(self) -> None:
        if self.job.cancel_requested:
            raise JobCancelledError(
                f"job {self.job.id} cancelled while running "
                f"(after {self._phases_seen} phase events, "
                f"sim t={self._sim_time:.6g}s)"
            )

    def _progress(self, **extra: Any) -> None:
        payload: dict[str, Any] = {"sim_time": self._sim_time,
                                   "phases": self._phases_seen, **extra}
        if self.predicted_wall and self.predicted_wall > 0:
            payload["percent"] = min(
                99.0, 100.0 * self._sim_time / self.predicted_wall
            )
        self.job.events.append("progress", **payload)

    def phase(self, rank: int, category: str, start: float,
              duration: float, name: str = "") -> None:
        self._check_cancel()
        super().phase(rank, category, start, duration, name=name)
        self._phases_seen += 1
        self._sim_time = max(self._sim_time, start + duration)
        if (self._phases_seen - 1) % self.phase_stride == 0:
            self.job.events.append(
                "phase", rank=int(rank), category=category,
                name=name or category, sim_start=float(start),
                sim_end=float(start + duration),
            )
        if self._phases_seen % PROGRESS_EVERY == 0:
            self._progress()

    def instant(self, rank: int, name: str, time: float, **args: Any) -> None:
        self._check_cancel()
        super().instant(rank, name, time, **args)
        kind = _INSTANT_KINDS.get(name)
        if kind is not None:
            # engine instants may carry args named like our own fields
            # (fault_inject sends kind="kill"); ours win, theirs keep
            # their value under an "arg_" prefix
            payload = {"name": name, "rank": int(rank),
                       "sim_time": float(time)}
            for key, value in args.items():
                slot = f"arg_{key}" if key in payload else key
                payload[slot] = _plain(value)
            self.job.events.append(kind, **payload)

    def counter(self, rank: int, name: str, time: float,
                value: float) -> None:
        self._check_cancel()
        super().counter(rank, name, time, value)
        if name in _PROGRESS_COUNTERS:
            # the micro engines' kernel flush, after the simulation has
            # drained: the only progress a real-kernel job still makes
            self._progress(**{name: int(value)})


def _plain(value: Any) -> Any:
    """JSON-friendly rendering of one instant-event argument."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)
