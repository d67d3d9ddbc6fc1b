"""Cost-model planner: predict the winning engine, then run only it.

The machine model already prices every phase of every engine analytically
— that is how the macro engines work at all.  This module *inverts* it:
instead of running the full engine × knob grid through
:func:`repro.core.api.scaling_sweep` to find the winner (the slowest path
in the repo), :func:`predict` evaluates each engine's registered cost
hook (:func:`repro.engines.registry.register_cost_hook`) on the workload
assignment, and :func:`plan` returns the candidate grid ranked by
predicted wall clock.  ``run_alignment(..., approach="auto")`` executes
the top-ranked plan and records predicted-vs-actual in
``RunResult.details["plan"]``; the ``repro plan`` CLI prints the table
without running anything.

A hook calls the phase functions its engine's ``run`` charges
(:mod:`repro.engines.common`), so on the default (noise-isolated) Cori
configuration predictions *equal* the fault-free measured walls by
construction and top-1 regret is zero; ``benchmarks/bench_planner.py``
measures the regret empirically and ``docs/PLANNER.md`` documents the
methodology.

The knob grid covers the knobs that change an engine's predicted wall:
BSP round sizing (``exchange_memory_fraction``), async and hybrid
aggregation.  The execution ``backend`` is deliberately *not* swept —
the determinism contract pins every backend to identical simulated
results, so it cannot change the predicted wall; the planner records the
caller's backend as a pass-through knob instead.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

from repro.engines.base import EngineConfig
from repro.engines.registry import (
    MACRO,
    available_engines,
    get_cost_hook,
    get_engine,
)
from repro.errors import ConfigurationError
from repro.machine.config import MachineSpec
from repro.pipeline.workload import WorkloadAssignment

__all__ = [
    "DEFAULT_KNOB_GRID",
    "WorkloadStats",
    "PlanPoint",
    "knob_grid_points",
    "predict",
    "plan",
]

#: engine -> {knob name -> candidate values}.  Only knobs that feed the
#: engine's cost hook belong here; the grid is the cross product per
#: engine (engines ignore other engines' knobs).
DEFAULT_KNOB_GRID: dict[str, dict[str, tuple]] = {
    "bsp": {"exchange_memory_fraction": (0.1, 0.25, 0.4, 0.8)},
    "async": {"async_aggregation": (1, 4, 16)},
    "hybrid": {"hybrid_aggregation": (1, 4, 16, 64)},
}


@dataclass(frozen=True)
class WorkloadStats:
    """The workload summary the planner predicts from.

    Carries the rendered per-rank assignment (the cost hooks evaluate
    the engines' own per-rank phase functions, so they want the real
    arrays, not just scalar aggregates) plus the scalar headline numbers
    that the plan table and ``details["plan"]`` report.
    """

    name: str
    num_ranks: int
    assignment: WorkloadAssignment = field(repr=False)
    total_tasks: float
    total_lookup_bytes: float
    max_compute_seconds: float

    @classmethod
    def from_workload(cls, workload, machine: MachineSpec) -> "WorkloadStats":
        """Render (or fetch from the workload's per-P LRU cache) the
        assignment for this machine's rank count and summarize it."""
        assignment = workload.assignment(machine.total_ranks)
        return cls(
            name=getattr(workload, "name", "workload"),
            num_ranks=assignment.num_ranks,
            assignment=assignment,
            total_tasks=float(assignment.tasks_per_rank.sum()),
            total_lookup_bytes=float(assignment.lookup_bytes.sum()),
            max_compute_seconds=float(
                assignment.compute_seconds.max(initial=0.0)
            ),
        )


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
    #: why the point cannot be (or was not) predicted, when infeasible
    reason: str = ""

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
    """The knob combinations to predict for ``engine`` (cross product).

    Engines absent from the grid get a single empty point — predicted at
    the base config.  Knob names iterate sorted so the grid order (and
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
    stats: WorkloadStats,
    machine: MachineSpec,
    engine: str,
    config: EngineConfig | None = None,
    knobs: tuple = (),
) -> PlanPoint:
    """Predict one grid point through the engine's registered cost hook.

    Raises :class:`ConfigurationError` when the engine has no cost hook
    (micro engines: measure instead).  A hook that itself raises
    ``ConfigurationError`` (e.g. the BSP partition not fitting memory)
    yields an *infeasible* point with the reason recorded, not an
    exception — an infeasible corner of the grid must not kill the plan.
    """
    get_engine(engine)  # fail fast on typos, same error text as run
    hook = get_cost_hook(engine)
    if hook is None:
        raise ConfigurationError(
            f"engine {engine!r} has no registered cost hook; run it to "
            f"measure (see docs/PLANNER.md)"
        )
    base = config if config is not None else EngineConfig()
    point_config = replace(base, **dict(knobs)) if knobs else base
    try:
        cost = hook(stats.assignment, machine, point_config)
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
        predicted_wall=float(cost["wall"]),
        predicted_memory=float(cost.get("peak_memory", 0.0)),
        predicted_rounds=int(cost.get("rounds", 0)),
        backend=base.backend,
    )


def plan(
    workload=None,
    nodes: int | None = None,
    *,
    machine: MachineSpec | None = None,
    cores_per_node: int = 64,
    config: EngineConfig | None = None,
    engines=None,
    grid: dict[str, dict[str, tuple]] | None = None,
    stats: WorkloadStats | None = None,
) -> list[PlanPoint]:
    """Rank the engine × knob grid by predicted wall clock.

    Returns every grid point, best first; ties break on
    ``(engine, knobs)`` so the ranking is deterministic for equal
    predictions.  Points whose hook raised come back infeasible
    (``predicted_wall=inf``) and sort last; engines *without* a hook
    (the micro engines, or any engine registered without
    :func:`~repro.engines.registry.register_cost_hook`) come back as a
    single infeasible point marked ``"no cost hook: measure instead"``.

    Pass either a ``workload`` + ``nodes`` (the usual path) or a
    pre-built ``stats`` + ``machine`` (the bench path, avoiding repeated
    assignment renders).
    """
    if machine is None:
        if nodes is None:
            raise ConfigurationError(
                "plan() needs either machine= or nodes="
            )
        from repro.core.api import make_machine

        machine = make_machine(nodes, cores_per_node)
    if stats is None:
        if workload is None:
            raise ConfigurationError(
                "plan() needs either workload= or stats="
            )
        stats = WorkloadStats.from_workload(workload, machine)
    base = config if config is not None else EngineConfig()
    names = (tuple(engines) if engines is not None
             else available_engines(kind=MACRO))
    for name in names:
        get_engine(name)  # fail fast on typos before predicting anything
    points: list[PlanPoint] = []
    for name in names:
        if get_cost_hook(name) is None:
            points.append(PlanPoint(
                engine=name, knobs=(),
                predicted_wall=float("inf"), predicted_memory=float("inf"),
                predicted_rounds=0, backend=base.backend,
                feasible=False, reason="no cost hook: measure instead",
            ))
            continue
        for knobs in knob_grid_points(name, grid):
            points.append(predict(stats, machine, name,
                                  config=base, knobs=knobs))
    points.sort(key=lambda p: (p.predicted_wall, p.engine, p.knobs))
    return points
