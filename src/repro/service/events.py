"""Per-job progress events: the bus between a running engine and clients.

Three pieces:

* :class:`JobEventLog` — an append-only, capped, thread-safe event log
  with blocking iteration.  Every job owns one; the HTTP layer's SSE
  endpoint replays it from any sequence number and then tails it live,
  one batch of new events per wake-up.  A forwarded ``phase`` entry is
  the tracer's own :class:`~repro.obs.events.PhaseEvent` (its ``seq`` is
  its index); every other kind is a dict.  Clients reading through
  :meth:`~JobEventLog.snapshot` or :meth:`~JobEventLog.stream` get a
  phase's dict built on read.
* :func:`sse_frame` — one log entry as the Server-Sent Events frame the
  HTTP layer writes; a phase record is rendered straight from its fields.
* :class:`ProgressTracer` — a :class:`repro.obs.Tracer` subclass the queue
  attaches to every executed run.  It keeps what the service reads and
  nothing else: each phase once, as one slotted ``PhaseEvent`` that the
  run-exit conservation check re-sums and the job log shares, plus the
  instants and counters it forwards.  RPC issue/callback instants,
  superstep boundaries and window counters are dropped at the call.
  Into the job's log it forwards phase records, fault injections, churn
  membership/migration events, periodic ``progress`` events on the
  simulated clock, and — for real-kernel micro jobs — one
  ``alignments_resolved`` progress event per kernel call of the flush
  that follows the simulation.  It is also the cancellation hook: every
  record call, kept or dropped, checks the job's cancel flag and raises
  the typed :class:`~repro.errors.JobCancelledError`, which aborts the
  engine mid-run while its ``with``-held executors tear down cleanly.

Forwarding never changes results: the tracer only observes, and a job
run with a ``ProgressTracer`` attached produces a
:meth:`~repro.engines.report.RunResult.signature` bit-identical to an
untraced run (pinned by ``tests/test_service_http.py`` against the
golden-signature suite).
"""

from __future__ import annotations

import json
import threading
from itertools import count
from math import isfinite
from typing import Any, Iterator

from repro.errors import ConfigurationError, JobCancelledError
from repro.obs.events import PhaseEvent
from repro.obs.tracer import Tracer

__all__ = ["JobEventLog", "ProgressTracer", "sse_frame",
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

#: the one kind that does not wake a tail: it rides along with the next
#: event of any other kind (a ``progress`` every PROGRESS_EVERY phases)
_DEFERRED = "phase"


def _json_str(text: str) -> str:
    """``json.dumps(text)``, quoted directly when nothing needs escaping.

    ``json.dumps`` escapes ``"``, ``\\`` and every character outside
    printable ASCII (``" "`` to ``"~"``); a string of only the others is
    its own JSON body.
    """
    if (text.isascii() and text.isprintable()
            and '"' not in text and "\\" not in text):
        return f'"{text}"'
    return json.dumps(text)


def _as_dict(seq: int, entry: dict | PhaseEvent) -> dict:
    """A log entry as clients read it; a phase record's dict is built."""
    if type(entry) is dict:
        return entry
    return {"rank": int(entry.rank), "category": entry.category,
            "name": entry.name or entry.category,
            "sim_start": float(entry.start), "sim_end": float(entry.end),
            "seq": seq, "event": "phase"}


def sse_frame(entry: dict | PhaseEvent, seq: int | None = None) -> str:
    """One Server-Sent Events frame: kind, ``seq`` as the id, JSON data.

    Always the bytes of ``json.dumps`` of the entry's client dict in the
    data line.  A dict carries its own ``seq``; a phase record is the
    entry at index ``seq`` of its log — 98 % of a micro job's frames —
    and is rendered directly (``float.__repr__`` is what ``json.dumps``
    writes for a finite float).  A non-finite time or a non-``str``
    category or name goes through ``json.dumps``.
    """
    if type(entry) is PhaseEvent:
        rank = int(entry.rank)
        category = entry.category
        name = entry.name or category
        start = float(entry.start)
        end = float(entry.end)
        if (type(category) is str and type(name) is str
                and isfinite(start) and isfinite(end)):
            return (
                f'event: phase\nid: {seq}\ndata: {{"rank": {rank}, '
                f'"category": {_json_str(category)}, '
                f'"name": {_json_str(name)}, "sim_start": {start!r}, '
                f'"sim_end": {end!r}, "seq": {seq}, "event": "phase"}}\n\n'
            )
        entry = _as_dict(seq, entry)
    return (f"event: {entry['event']}\nid: {entry['seq']}\n"
            f"data: {json.dumps(entry)}\n\n")


class JobEventLog:
    """Append-only capped event list with blocking tail iteration.

    An entry is a forwarded phase's :class:`PhaseEvent`, or a dict
    carrying at least ``seq`` and ``event`` (the kind).  Every append
    that lands — the one ``truncated`` marker included — adds exactly
    one entry with the next ``seq``, so an event's ``seq`` is its index
    in the log and a tail reads a slice of ``events`` instead of
    rescanning the history.  ``close()`` marks the log
    terminal: tailing iterators drain what remains and stop instead of
    blocking forever.

    A tail's batches end where the log's content says, not where thread
    scheduling happens to wake it: ``phase`` events are released to a
    tail only by the next event of another kind (or ``close()``), so a
    run's stream splits at the same events on every run.
    """

    def __init__(self, cap: int = DEFAULT_EVENT_CAP):
        self._events: list[dict | PhaseEvent] = []
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        #: tailers blocked in ``wait``: appends notify only when one is
        self._waiting = 0
        #: events before this index are released to tails
        self._ready = 0
        self._cap = cap
        self.closed = False
        self.dropped = 0

    def append(self, kind: str, /, **payload: Any) -> None:
        self.append_event(kind, payload)

    def append_event(self, kind: str, event: dict | PhaseEvent) -> None:
        """Append ``event``; the log takes ownership.

        A :class:`PhaseEvent` is kept as it is: its index is its ``seq``
        and its dict is built on read.  A dict gets ``seq`` and ``event``
        set on itself, so they win over payload keys of the same name
        and a key the payload lacks lands after the payload's own keys.
        """
        with self._lock:
            if self.closed:
                return
            events = self._events
            if len(events) < self._cap or kind in _ALWAYS_KEPT:
                if type(event) is dict:
                    event["seq"] = len(events)
                    event["event"] = kind
                events.append(event)
                if kind == _DEFERRED:
                    return
            else:
                self.dropped += 1
                if self.dropped > 1:
                    return
                events.append({"seq": len(events), "event": "truncated",
                               "cap": self._cap})
            self._ready = len(events)
            if self._waiting:
                self._cond.notify_all()

    def close(self) -> None:
        """Mark the log terminal; tailing iterators finish draining."""
        with self._lock:
            self.closed = True
            self._ready = len(self._events)
            self._cond.notify_all()

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def snapshot(self, since: int = 0) -> list[dict]:
        """Copy of the events with ``seq >= since`` recorded so far."""
        _check_since(since)
        with self._lock:
            entries = self._events[since:]
        return [_as_dict(seq, e) for seq, e in enumerate(entries, since)]

    def batches(self, since: int = 0,
                poll: float = 10.0) -> Iterator[list[dict]]:
        """Yield the events from ``since`` onward, one list per wake-up.

        Each batch is every released event since the previous batch, so a
        consumer pays its per-write costs once per batch, not per event.
        A batch ends at an event that is not a ``phase`` (or at the end
        of a closed log): the writer's thread hands over the GIL at every
        blocking call, and a tail that took whatever was there would wake
        about once per event, as often as scheduling allowed.  A wait
        that times out after ``poll`` seconds takes the held-back phases
        too, so a stalled job's stream still moves; ``poll`` also lets a
        consumer thread notice its client went away.  Ends when the log
        is closed and fully drained.
        """
        for start, entries in self._slices(since, poll):
            yield [_as_dict(seq, e) for seq, e in enumerate(entries, start)]

    def frames(self, since: int = 0, poll: float = 10.0) -> Iterator[str]:
        """The SSE body of each batch :meth:`batches` yields, rendered
        from the entries without building a phase's dict."""
        for start, entries in self._slices(since, poll):
            yield "".join(map(sse_frame, entries, count(start)))

    def _slices(self, since: int,
                poll: float) -> Iterator[tuple[int, list]]:
        """``(seq of the first, entries)`` for each batch of :meth:`batches`."""
        _check_since(since)
        cursor = since
        while True:
            with self._lock:
                end = self._ready
                if cursor >= end:
                    if self.closed:
                        return
                    self._waiting += 1
                    try:
                        woken = self._cond.wait(timeout=poll)
                    finally:
                        self._waiting -= 1
                    end = self._ready if woken else len(self._events)
                batch = self._events[cursor:end]
            if batch:
                yield cursor, batch
                cursor += len(batch)

    def stream(self, since: int = 0, poll: float = 10.0) -> Iterator[dict]:
        """Yield events from ``since`` onward, blocking for new ones."""
        for batch in self.batches(since, poll):
            yield from batch


def _check_since(since: int) -> None:
    if since < 0:
        raise ConfigurationError(
            f"since must be a non-negative integer, got {since}"
        )


class ProgressTracer(Tracer):
    """Tracer sink that tails a run into its job's event log.

    The periodic ``progress`` events carry the simulated clock and the
    phase count.  Every phase event is recorded and forwarded as the same
    object; an instant or counter that is not forwarded is not recorded
    either.
    """

    def __init__(self, job):
        super().__init__()
        self.job = job
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
        self.job.events.append("progress", sim_time=self._sim_time,
                               phases=self._phases_seen, **extra)

    def phase(self, rank: int, category: str, start: float,
              duration: float, name: str = "") -> None:
        self._check_cancel()
        event = PhaseEvent(self._pid(), rank, category, start, duration, name)
        self.events.append(event)
        self._phases_seen += 1
        self._sim_time = max(self._sim_time, start + duration)
        self.job.events.append_event("phase", event)
        if self._phases_seen % PROGRESS_EVERY == 0:
            self._progress()

    def instant(self, rank: int, name: str, time: float, **args: Any) -> None:
        self._check_cancel()
        kind = _INSTANT_KINDS.get(name)
        if kind is None:
            return
        super().instant(rank, name, time, **args)
        # engine instants may carry args named like our own fields
        # (fault_inject sends kind="kill"); ours win, theirs keep
        # their value under an "arg_" prefix
        payload = {"name": name, "rank": int(rank), "sim_time": float(time)}
        for key, value in args.items():
            slot = f"arg_{key}" if key in payload else key
            payload[slot] = _plain(value)
        self.job.events.append(kind, **payload)

    def counter(self, rank: int, name: str, time: float,
                value: float) -> None:
        self._check_cancel()
        if name in _PROGRESS_COUNTERS:
            super().counter(rank, name, time, value)
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
