"""SPMD execution context shared by all ranks of a micro run."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.machine.config import MachineSpec
from repro.machine.engine import Engine
from repro.machine.memory import MemoryTracker
from repro.machine.network import NetworkModel
from repro.obs.metrics import MetricsRegistry, PhaseTimers
from repro.obs.tracer import Tracer

__all__ = ["SpmdContext"]


@dataclass
class SpmdContext:
    """Everything a simulated rank program needs.

    Rank programs are generators; they charge time to the four breakdown
    categories through :attr:`timers` *and* advance their simulated clock by
    yielding the same number of seconds — the context only centralizes the
    shared machinery (engine, network model, memory tracker, observability).

    Observability: when a :class:`Tracer` is attached, every phase charge
    emits a :class:`~repro.obs.events.PhaseEvent` on the rank's lane, so the
    trace re-sums to exactly the :class:`PhaseTimers` accumulators — the
    property the conservation checker verifies.  :attr:`metrics` is always
    available (a fresh registry by default) for per-rank counters.
    """

    machine: MachineSpec
    engine: Engine = field(default_factory=Engine)
    tracer: Tracer | None = None
    metrics: MetricsRegistry | None = None
    #: fault oracle for this run (a :class:`repro.faults.FaultInjector`),
    #: consulted by the RPC layer and collectives; ``None`` = fault-free.
    #: Typed loosely to keep the runtime importable without repro.faults.
    faults: object | None = None

    def __post_init__(self) -> None:
        self.net = NetworkModel(self.machine)
        self.memory = MemoryTracker(self.machine)
        self.timers = PhaseTimers(self.machine.total_ranks)
        if self.metrics is None:
            self.metrics = MetricsRegistry(self.machine.total_ranks)
        if self.tracer is not None and self.engine.tracer is None:
            self.engine.tracer = self.tracer

    @property
    def num_ranks(self) -> int:
        return self.machine.total_ranks

    def charge(self, category: str, rank: int, seconds: float,
               name: str = "") -> float:
        """Record ``seconds`` under ``category`` and return it (to yield).

        The caller yields the returned value *after* charging, so the traced
        interval is ``[now, now + seconds]``.
        """
        self.timers.add(category, rank, seconds)
        if self.tracer is not None and seconds > 0:
            self.tracer.phase(rank, category, self.engine.now, seconds, name)
        return seconds

    def record(self, category: str, rank: int, seconds: float,
               name: str = "") -> None:
        """Record time that *already elapsed* while the rank was blocked.

        Unlike :meth:`charge` the clock is not advanced again; the traced
        interval is ``[now - seconds, now]`` (the wait just finished).
        """
        self.timers.add(category, rank, seconds)
        if self.tracer is not None and seconds > 0:
            self.tracer.phase(
                rank, category, self.engine.now - seconds, seconds, name
            )
