"""A minimal deterministic discrete-event engine.

Simulated processes are Python generators that ``yield``

* a number — advance this process's simulated clock by that many seconds
  (compute / busy time);
* an :class:`Event` — block until the event fires (its value is returned
  by the ``yield``);
* another :class:`Process` — block until that process finishes (its return
  value is returned by the ``yield``).

The engine executes events in (time, insertion-sequence) order, so runs are
bit-deterministic.  If the event queue drains while processes are still
blocked, a :class:`repro.errors.DeadlockError` is raised naming them — which
turns coordination bugs in the BSP/Async engines into loud failures instead
of silently-truncated simulations.

Design notes: this is deliberately a small subset of SimPy-like semantics —
enough to express SPMD ranks, barriers, RPC futures, and memory-limited
exchanges — with O(log n) scheduling and zero per-yield allocations beyond
the heap entry.  At the macro granularity used for the 32,768-core figures
each rank yields only a handful of times, keeping full-machine simulations
comfortably within a laptop budget.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable

from repro.errors import DeadlockError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.obs.tracer import Tracer

__all__ = ["Engine", "Event", "Process"]


class Event:
    """A one-shot level-triggered event carrying an optional value."""

    __slots__ = ("_engine", "_fired", "_value", "_waiters", "name")

    def __init__(self, engine: "Engine", name: str = ""):
        self._engine = engine
        self._fired = False
        self._value: Any = None
        self._waiters: list[Process] = []
        self.name = name

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def value(self) -> Any:
        if not self._fired:
            raise SimulationError(f"event {self.name!r} has not fired")
        return self._value

    def succeed(self, value: Any = None) -> None:
        """Fire the event now; waiting processes resume at the current time."""
        if self._fired:
            raise SimulationError(f"event {self.name!r} fired twice")
        self._fired = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            self._engine._schedule(0.0, proc._step, value)

    def _add_waiter(self, proc: "Process") -> None:
        if self._fired:
            self._engine._schedule(0.0, proc._step, self._value)
        else:
            self._waiters.append(proc)


class Process:
    """A running simulated process wrapping a generator."""

    __slots__ = ("_engine", "_gen", "_done_event", "name", "blocked_on")

    def __init__(self, engine: "Engine", gen: Generator, name: str = ""):
        self._engine = engine
        self._gen = gen
        self._done_event = Event(engine, name=f"done({name})")
        self.name = name
        self.blocked_on: str | None = None
        engine._processes.append(self)
        engine._live_count += 1
        engine._schedule(0.0, self._step, None)
        engine._trace_instant("process_start", process=name)

    @property
    def finished(self) -> bool:
        return self._done_event.fired

    @property
    def result(self) -> Any:
        return self._done_event.value

    def _step(self, send_value: Any) -> None:
        engine = self._engine
        try:
            item = self._gen.send(send_value)
        except StopIteration as stop:
            self.blocked_on = None
            engine._live_count -= 1
            self._done_event.succeed(stop.value)
            engine._trace_instant("process_end", process=self.name)
            return
        if isinstance(item, (int, float)):
            if item < 0:
                raise SimulationError(
                    f"process {self.name!r} yielded negative delay {item}"
                )
            self.blocked_on = None
            engine._schedule(float(item), self._step, None)
        elif isinstance(item, Event):
            self.blocked_on = f"event {item.name!r}"
            item._add_waiter(self)
        elif isinstance(item, Process):
            self.blocked_on = f"process {item.name!r}"
            item._done_event._add_waiter(self)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported {type(item).__name__}"
            )


class Engine:
    """The event loop: a time-ordered heap of callbacks."""

    def __init__(self, tracer: "Tracer | None" = None) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Callable, Any]] = []
        self._seq = 0
        self._processes: list[Process] = []
        self._live_count = 0
        #: optional observability hook (set directly or via SpmdContext);
        #: lifecycle events land on the engine lane of the trace
        self.tracer = tracer

    def _trace_instant(self, name: str, **args: Any) -> None:
        if self.tracer is not None:
            from repro.obs.events import ENGINE_LANE

            self.tracer.instant(ENGINE_LANE, name, self.now, **args)

    # -- scheduling --------------------------------------------------------

    def _schedule(self, delay: float, fn: Callable, arg: Any) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn, arg))

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def process(self, gen: Generator, name: str = "") -> Process:
        """Start a new simulated process from a generator."""
        return Process(self, gen, name=name)

    def spawn_all(self, gens: Iterable[Generator], prefix: str = "rank") -> list[Process]:
        """Start one process per generator (e.g. one per SPMD rank)."""
        return [self.process(g, name=f"{prefix}{i}") for i, g in enumerate(gens)]

    def timeout(self, delay: float, value: Any = None) -> Event:
        """An event that fires ``delay`` seconds from now."""
        ev = Event(self, name=f"timeout({delay})")
        self._schedule(delay, ev.succeed, value)
        return ev

    # -- execution ---------------------------------------------------------

    def run(self, until: float | None = None) -> float:
        """Run until the queue drains (or simulated ``until`` is reached).

        Returns the final simulated time.  Raises :class:`DeadlockError` if
        processes remain blocked when the queue drains.
        """
        while self._heap:
            t, _seq, fn, arg = self._heap[0]
            if until is not None and t > until:
                self.now = until
                return self.now
            heapq.heappop(self._heap)
            if t < self.now - 1e-15:
                raise SimulationError("event scheduled in the past")
            self.now = t
            fn(arg)
        if self._live_count:
            stuck = [p for p in self._processes if not p.finished]
            blocked = ", ".join(
                f"{p.name} (waiting on {p.blocked_on})" for p in stuck[:8]
            )
            self._trace_instant("deadlock", blocked=len(stuck))
            raise DeadlockError(
                f"{len(stuck)} process(es) still blocked after "
                f"event queue drained: {blocked}"
            )
        return self.now
