"""Cost-model planner: rank the engine × knob grid, then keep the winner.

``compare_engines`` answers "which engine wins?" at one knob setting per
engine.  :func:`plan` widens the question to the whole knob grid: it runs
every macro engine at every grid point (:data:`DEFAULT_KNOB_GRID`) on the
workload's rendered assignment and returns the points ranked by wall
clock.  A macro run is a handful of vector passes over per-rank arrays,
so the grid costs milliseconds once the assignment is rendered, and the
ranking is the engines' own model, not a second copy of it: the
predicted wall *is* the wall of an untraced, fault-free run, on an
isolated machine or not.  ``run_alignment(..., approach="auto")`` keeps
the top point's run (or re-runs it when a tracer, counters or faults are
attached) and records predicted-vs-actual in
``RunResult.details["plan"]``; the ``repro plan`` CLI prints the table.
``docs/PLANNER.md`` documents the methodology.

The knob grid covers the knobs that change an engine's wall: BSP round
sizing (``exchange_memory_fraction``), async and hybrid aggregation.  The
execution ``backend`` is deliberately *not* swept — the determinism
contract pins every backend to identical simulated results, so it cannot
change the wall; the planner records the caller's backend as a
pass-through knob instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

from repro.engines.base import EngineConfig
from repro.engines.registry import MACRO, available_engines, get_engine
from repro.engines.report import RunResult
from repro.errors import ConfigurationError
from repro.machine.config import MachineSpec
from repro.pipeline.workload import WorkloadAssignment

__all__ = [
    "DEFAULT_KNOB_GRID",
    "PlanPoint",
    "knob_grid_points",
    "predict",
    "plan",
]

#: engine -> {knob name -> candidate values}.  Only knobs that change the
#: engine's wall belong here; the grid is the cross product per engine
#: (engines ignore other engines' knobs).
DEFAULT_KNOB_GRID: dict[str, dict[str, tuple]] = {
    "bsp": {"exchange_memory_fraction": (0.1, 0.25, 0.4, 0.8)},
    "async": {"async_aggregation": (1, 4, 16)},
    "hybrid": {"hybrid_aggregation": (1, 4, 16, 64)},
}


@dataclass(frozen=True)
class PlanPoint:
    """One ranked candidate: an engine plus the knobs to run it with."""

    engine: str
    #: sorted ``(knob, value)`` pairs — hashable and deterministic
    knobs: tuple
    predicted_wall: float
    predicted_memory: float
    predicted_rounds: int
    backend: str
    feasible: bool = True
    #: why the point cannot run, when infeasible
    reason: str = ""
    #: the untraced, fault-free run the prediction was read from
    #: (``None`` when infeasible); not part of the point's identity
    result: RunResult | None = field(default=None, repr=False,
                                     compare=False)

    def apply(self, base: EngineConfig | None = None) -> EngineConfig:
        """The engine config that executes this plan point."""
        return replace(base if base is not None else EngineConfig(),
                       **dict(self.knobs))

    def describe_knobs(self) -> str:
        if not self.knobs:
            return "-"
        return ", ".join(f"{k}={v}" for k, v in self.knobs)

    def as_dict(self) -> dict:
        """JSON-ready row (bench report and ``details["plan"]``)."""
        return {
            "engine": self.engine,
            "knobs": dict(self.knobs),
            "predicted_wall": self.predicted_wall,
            "predicted_memory": self.predicted_memory,
            "predicted_rounds": self.predicted_rounds,
            "backend": self.backend,
            "feasible": self.feasible,
            "reason": self.reason,
        }


def knob_grid_points(engine: str,
                     grid: dict[str, dict[str, tuple]] | None = None):
    """The knob combinations to run for ``engine`` (cross product).

    Engines absent from the grid get a single empty point — run at the
    base config.  Knob names iterate sorted so the grid order (and
    hence tie-breaking in :func:`plan`) is deterministic.
    """
    g = DEFAULT_KNOB_GRID if grid is None else grid
    knobs = g.get(engine)
    if not knobs:
        return [()]
    names = sorted(knobs)
    return [
        tuple(zip(names, values))
        for values in itertools.product(*(knobs[n] for n in names))
    ]


def predict(
    assignment: WorkloadAssignment,
    machine: MachineSpec,
    engine: str,
    config: EngineConfig | None = None,
    knobs: tuple = (),
) -> PlanPoint:
    """Run one grid point: ``engine`` on ``assignment``, knobs applied.

    Raises :class:`ConfigurationError` for a message-level (micro)
    engine, which has no per-rank assignment model: measure it instead.
    A run that itself raises ``ConfigurationError`` (e.g. the BSP
    partition not fitting memory) yields an *infeasible* point with the
    reason recorded, not an exception — an infeasible corner of the grid
    must not kill the plan.
    """
    info = get_engine(engine)  # fail fast on typos, same error text as run
    if info.is_micro:
        raise ConfigurationError(
            f"engine {engine!r} is a message-level engine; the planner "
            f"ranks macro engines only, so run it to measure "
            f"(see docs/PLANNER.md)"
        )
    base = config if config is not None else EngineConfig()
    point_config = replace(base, **dict(knobs)) if knobs else base
    try:
        result = info.factory(config=point_config).run(assignment, machine)
    except ConfigurationError as exc:
        return PlanPoint(
            engine=engine, knobs=tuple(knobs),
            predicted_wall=float("inf"), predicted_memory=float("inf"),
            predicted_rounds=0, backend=base.backend,
            feasible=False, reason=str(exc),
        )
    return PlanPoint(
        engine=engine,
        knobs=tuple(knobs),
        predicted_wall=result.wall_time,
        predicted_memory=result.max_memory_per_rank,
        predicted_rounds=result.exchange_rounds,
        backend=base.backend,
        result=result,
    )


def plan(
    workload,
    nodes: int | None = None,
    *,
    machine: MachineSpec | None = None,
    cores_per_node: int = 64,
    config: EngineConfig | None = None,
    engines=None,
    grid: dict[str, dict[str, tuple]] | None = None,
) -> list[PlanPoint]:
    """Rank the engine × knob grid by wall clock.

    Returns every grid point, best first; ties break on
    ``(engine, knobs)`` so the ranking is deterministic for equal walls.
    Points whose run raised ``ConfigurationError`` come back infeasible
    (``predicted_wall=inf``) and sort last; a message-level engine comes
    back as a single infeasible point marked ``"measure instead"``.
    Pass ``nodes`` (and ``cores_per_node``) or a built ``machine``.
    """
    if machine is None:
        if nodes is None:
            raise ConfigurationError(
                "plan() needs either machine= or nodes="
            )
        from repro.core.api import make_machine

        machine = make_machine(nodes, cores_per_node)
    base = config if config is not None else EngineConfig()
    names = (tuple(engines) if engines is not None
             else available_engines(kind=MACRO))
    infos = [get_engine(name) for name in names]  # fail fast on typos
    assignment = workload.assignment(machine.total_ranks)
    points: list[PlanPoint] = []
    for info in infos:
        if info.is_micro:
            points.append(PlanPoint(
                engine=info.name, knobs=(),
                predicted_wall=float("inf"), predicted_memory=float("inf"),
                predicted_rounds=0, backend=base.backend,
                feasible=False,
                reason="message-level engine: measure instead",
            ))
            continue
        for knobs in knob_grid_points(info.name, grid):
            points.append(predict(assignment, machine, info.name,
                                  config=base, knobs=knobs))
    points.sort(key=lambda p: (p.predicted_wall, p.engine, p.knobs))
    return points
