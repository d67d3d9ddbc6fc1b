"""Typed trace events — the observability vocabulary.

Every record a :class:`repro.obs.Tracer` collects is one of four immutable
event types, mirroring the Chrome trace-format phases they export to:

* :class:`PhaseEvent` — a duration on one rank's lane charged to one of the
  four breakdown categories (``ph: "X"``, a "complete" event).  Phase events
  are the atoms of the paper's stacked bars: summing a rank's phase
  durations must reproduce its per-rank breakdown exactly, which is what
  :mod:`repro.obs.conservation` checks.
* :class:`InstantEvent` — a point occurrence (rendezvous arrival, RPC
  issue/callback, superstep boundary, process lifecycle; ``ph: "i"``).
* :class:`CounterEvent` — a sampled value over time (outstanding-RPC window
  occupancy; ``ph: "C"``).
* :class:`MetaEvent` — run/lane naming metadata (``ph: "M"``).

Times are simulated seconds; the exporter converts to the microseconds
Chrome/Perfetto expect.  ``rank`` is the lane (``tid``); the sentinel
:data:`ENGINE_LANE` marks events from the discrete-event engine itself
rather than any simulated rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = [
    "ENGINE_LANE",
    "PhaseEvent",
    "InstantEvent",
    "CounterEvent",
    "MetaEvent",
]

#: lane id for events emitted by the simulation engine itself (no rank)
ENGINE_LANE = -1


@dataclass(frozen=True, slots=True)
class PhaseEvent:
    """Time charged to a breakdown category on one rank's lane.

    Slotted: a traced micro job records thousands, and the service keeps
    the same objects as its job log's ``phase`` entries.
    """

    pid: int
    rank: int
    category: str
    start: float
    duration: float
    name: str = ""

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class InstantEvent:
    """A point occurrence on one lane (arrival, issue, callback, boundary)."""

    pid: int
    rank: int
    name: str
    time: float
    args: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class CounterEvent:
    """A sampled counter value (rendered as a filled track in Perfetto)."""

    pid: int
    rank: int
    name: str
    time: float
    value: float


@dataclass(frozen=True)
class MetaEvent:
    """Process/thread naming metadata for the trace viewer."""

    pid: int
    rank: int | None
    name: str
