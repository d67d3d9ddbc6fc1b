"""Structured event tracer with Chrome trace-format export.

One :class:`Tracer` can hold several *runs* (e.g. both engines of a
``compare``): each :meth:`begin_run` opens a new Chrome "process" (pid)
whose lanes (tids) are the simulated ranks, so a comparison loads into
Perfetto as stacked per-engine timelines.

Recording is allocation-light — one frozen dataclass per event.  Tracing
off is ``tracer=None``: instrumented code paths test for ``None`` and skip
the call.  Export converts
simulated seconds to the microseconds Chrome expects and adds
process/thread naming metadata for every lane it has seen.
"""

from __future__ import annotations

import json
from typing import Any, TextIO

import numpy as np

from repro.obs.events import (
    ENGINE_LANE,
    CounterEvent,
    InstantEvent,
    MetaEvent,
    PhaseEvent,
)

__all__ = ["Tracer"]

#: Chrome tids must be nonnegative; the engine lane maps to this tid
_ENGINE_TID = 999_999


def _jsonable(value: Any) -> Any:
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class Tracer:
    """Collects typed events; exports Chrome trace-format JSON."""

    def __init__(self):
        self.events: list = []
        self.current_pid = -1

    # -- recording ---------------------------------------------------------

    def begin_run(self, label: str) -> int:
        """Open a new run (one Chrome pid); returns the pid."""
        self.current_pid += 1
        self.events.append(MetaEvent(self.current_pid, None, label))
        return self.current_pid

    def _pid(self) -> int:
        # events recorded before any begin_run land in pid 0
        if self.current_pid < 0:
            self.current_pid = 0
        return self.current_pid

    def phase(self, rank: int, category: str, start: float,
              duration: float, name: str = "") -> None:
        """A duration charged to one breakdown category on ``rank``'s lane."""
        self.events.append(
            PhaseEvent(self._pid(), rank, category, start, duration, name)
        )

    def instant(self, rank: int, name: str, time: float, **args: Any) -> None:
        """A point occurrence (arrival, RPC issue/callback, boundary)."""
        self.events.append(InstantEvent(self._pid(), rank, name, time, args))

    def counter(self, rank: int, name: str, time: float, value: float) -> None:
        """A sampled counter value (e.g. outstanding-window occupancy)."""
        self.events.append(CounterEvent(self._pid(), rank, name, time, value))

    # -- queries (used by the conservation checker and tests) --------------

    def phase_events(self, pid: int | None = None) -> list[PhaseEvent]:
        """All phase events, optionally restricted to one run's pid."""
        return [
            e for e in self.events
            if isinstance(e, PhaseEvent) and (pid is None or e.pid == pid)
        ]

    def ranks(self, pid: int | None = None) -> list[int]:
        """Sorted rank lanes that appear in (one run of) the trace."""
        seen = {
            e.rank for e in self.events
            if getattr(e, "rank", None) is not None
            and e.rank != ENGINE_LANE
            and (pid is None or e.pid == pid)
        }
        return sorted(seen)

    # -- export ------------------------------------------------------------

    def to_chrome(self) -> dict:
        """Chrome trace-format dict (``chrome://tracing`` / Perfetto)."""
        out: list[dict] = []
        lanes: set[tuple[int, int]] = set()
        named_pids: set[int] = set()
        for e in self.events:
            if isinstance(e, MetaEvent):
                out.append({
                    "name": "process_name", "ph": "M", "pid": e.pid,
                    "args": {"name": e.name},
                })
                named_pids.add(e.pid)
                continue
            tid = _ENGINE_TID if e.rank == ENGINE_LANE else e.rank
            lanes.add((e.pid, e.rank))
            if isinstance(e, PhaseEvent):
                out.append({
                    "name": e.name or e.category, "cat": e.category,
                    "ph": "X", "pid": e.pid, "tid": tid,
                    "ts": e.start * 1e6, "dur": e.duration * 1e6,
                })
            elif isinstance(e, InstantEvent):
                out.append({
                    "name": e.name, "ph": "i", "s": "t",
                    "pid": e.pid, "tid": tid, "ts": e.time * 1e6,
                    "args": {k: _jsonable(v) for k, v in e.args.items()},
                })
            elif isinstance(e, CounterEvent):
                out.append({
                    "name": e.name, "ph": "C", "pid": e.pid,
                    "tid": tid, "ts": e.time * 1e6,
                    "args": {"value": _jsonable(e.value)},
                })
        for pid, rank in sorted(lanes):
            out.append({
                "name": "thread_name", "ph": "M", "pid": pid,
                "tid": _ENGINE_TID if rank == ENGINE_LANE else rank,
                "args": {
                    "name": "engine" if rank == ENGINE_LANE else f"rank {rank}"
                },
            })
        for pid in sorted({p for p, _ in lanes} - named_pids):
            out.append({
                "name": "process_name", "ph": "M", "pid": pid,
                "args": {"name": f"run {pid}"},
            })
        return {"traceEvents": out, "displayTimeUnit": "ms"}

    def write_chrome(self, path_or_file: str | TextIO) -> None:
        """Write the Chrome trace JSON to a path or open file."""
        doc = self.to_chrome()
        if hasattr(path_or_file, "write"):
            json.dump(doc, path_or_file, default=_jsonable)
        else:
            with open(path_or_file, "w") as f:
                json.dump(doc, f, default=_jsonable)
