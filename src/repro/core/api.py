"""Top-level driver API.

Typical use (see ``examples/quickstart.py``)::

    from repro.core import get_workload, run_alignment

    wl = get_workload("ecoli100x")          # Table-1-exact workload
    result = run_alignment(wl, nodes=16, approach="async")
    print(result.breakdown.fractions())

The engine set is not hardcoded here: :data:`ENGINES` is a live read-only
view of :mod:`repro.engines.registry`, so a newly registered engine (see
``docs/ARCHITECTURE.md``) is immediately runnable through
:func:`run_alignment`, :func:`compare_engines` and :func:`scaling_sweep`
with zero edits to this module.

Workloads are cached per ``(name, seed)`` in a small LRU — rendering the
87.6M-task Human CCS assignment for a given rank count costs tens of
seconds, and every figure benchmark reuses the same object.  The cap
defaults to 8 (re-bound with :func:`set_workload_cache_cap`).
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Iterable

from repro.engines import registry as _registry
from repro.engines.base import EngineConfig
from repro.engines.registry import available_engines, get_engine
from repro.engines.report import RunResult
from repro.errors import ConfigurationError
from repro.align.cost import MEAN_TASK_COST
from repro.genome.datasets import DATASETS, synthesize_dataset
from repro.machine.config import MachineSpec, cori_knl
from repro.obs import MetricsRegistry, Tracer
from repro.pipeline.sharded import DEFAULT_RESIDENT_SHARDS, ShardedWorkload
from repro.pipeline.workload import ConcreteWorkload, StatisticalWorkload
from repro.utils.cache import LruCache

# engine modules self-register on import (bsp, async, bsp-micro,
# async-micro, hybrid); this is the only import the registry needs
import repro.engines  # noqa: F401

__all__ = [
    "ENGINES",
    "get_workload",
    "make_machine",
    "run_alignment",
    "check_micro_knobs",
    "compare_engines",
    "scaling_sweep",
    "run_plan_points",
    "clear_workload_cache",
    "set_workload_cache_cap",
    "workload_cache_stats",
    "clear_machine_cache",
    "machine_cache_stats",
]


_WORKLOAD_CACHE = LruCache(maxsize=8)


class _EngineView(Mapping):
    """Read-only live view of the engine registry: name -> engine class.

    Kept for back-compat with the old hardcoded ``ENGINES`` dict; iteration
    follows registration order.
    """

    def __getitem__(self, name: str) -> type:
        try:
            return get_engine(name).factory
        except ConfigurationError:
            raise KeyError(name) from None

    def __iter__(self):
        return iter(available_engines())

    def __len__(self) -> int:
        return len(available_engines())


ENGINES = _EngineView()


def clear_workload_cache() -> None:
    _WORKLOAD_CACHE.clear()


def set_workload_cache_cap(maxsize: int) -> None:
    """Re-bound the workload cache, evicting LRU entries if shrinking."""
    _WORKLOAD_CACHE.resize(maxsize)


def workload_cache_stats() -> dict:
    """Size/cap/hit/miss/eviction counters of the workload cache."""
    return _WORKLOAD_CACHE.stats()


def _calibration_key(spec) -> tuple:
    """The full task-cost calibration identity of a spec.

    Workload construction calibrates the cost mixture to the paper anchor
    in :data:`MEAN_TASK_COST` (falling back to a read-length
    extrapolation), so two specs that differ *only* in their calibration
    target must not share a cache entry.  Keying on ``(name, seed)`` alone
    let them collide — e.g. after registering a variant dataset or
    adjusting an anchor, the cache would happily serve a workload built
    against the old target.
    """
    return (
        MEAN_TASK_COST.get(spec.name),
        spec.mean_read_length,
        spec.length_sigma,
        spec.n_reads,
        spec.n_tasks,
    )


def get_workload(
    name: str,
    seed: int = 0,
    shard_tasks: int = 0,
    max_resident_shards: int = DEFAULT_RESIDENT_SHARDS,
):
    """Build (or fetch from the LRU cache) a named workload.

    Table-1 presets (``ecoli30x``, ``ecoli100x``, ``human_ccs``) become
    :class:`StatisticalWorkload`; sequence-level presets (``*_tiny``,
    ``*_small``) run the real pipeline end-to-end into a
    :class:`ConcreteWorkload`.

    ``shard_tasks > 0`` on a Table-1 preset selects the out-of-core
    model instead: paper-scale task *rows* generated and aggregated in
    ``shard_tasks``-row shards with at most ``max_resident_shards``
    resident (see :class:`repro.pipeline.sharded.ShardedWorkload`), which
    is how the 10^7–10^8-task sweeps run in bounded memory.  It draws
    rows, not per-rank aggregates, so it is a different model from
    :class:`StatisticalWorkload`; among nonzero shard sizes every bit is
    the same.  A sequence-level preset's task rows are in memory by
    construction, so there the knobs are checked and otherwise ignored:
    the same cached :class:`ConcreteWorkload` comes back.
    """
    spec = DATASETS.get(name)
    if spec is None:
        raise ConfigurationError(
            f"unknown dataset {name!r}; available: {sorted(DATASETS)}"
        )
    if shard_tasks < 0 or max_resident_shards < 1:
        raise ConfigurationError(
            "shard_tasks must be >= 0 and max_resident_shards >= 1"
        )
    if spec.sequence_level:
        shard_tasks = 0
    # cache identity: spec + seed + full calibration tuple + sharding —
    # the calibration terms keep renamed/retargeted specs from colliding,
    # the shard terms keep each (spec, shard) rendering distinct
    key = (name, seed, _calibration_key(spec),
           int(shard_tasks), int(max_resident_shards) if shard_tasks else 0)

    def build():
        if shard_tasks:
            return ShardedWorkload.synthetic(
                spec, seed=seed,
                shard_tasks=shard_tasks,
                max_resident_shards=max_resident_shards,
            )
        if spec.sequence_level:
            run = synthesize_dataset(spec, seed=seed)
            return ConcreteWorkload.from_pipeline(
                name, run.reads, k=13, bounds=(2, 80), seed=seed
            )
        return StatisticalWorkload(spec, seed=seed)

    return _WORKLOAD_CACHE.get_or_create(key, build)


#: machine specs are frozen and cheap-but-not-free to build; sweep and
#: planner grids request the same (nodes, cores) pair dozens of times
_MACHINE_CACHE = LruCache(maxsize=64)


def make_machine(nodes: int, cores_per_node: int = 64) -> MachineSpec:
    """A Cori-KNL machine allocation (the paper's platform).

    Memoized per ``(nodes, cores_per_node)`` — specs are immutable, and
    sweep/planner grids rebuild the same handful of allocations at every
    grid point.  Counters via :func:`machine_cache_stats`.
    """
    return _MACHINE_CACHE.get_or_create(
        (int(nodes), int(cores_per_node)),
        lambda: cori_knl(nodes, app_cores_per_node=cores_per_node),
    )


def clear_machine_cache() -> None:
    _MACHINE_CACHE.clear()


def machine_cache_stats() -> dict:
    """Size/cap/hit/miss/eviction counters of the machine-spec cache."""
    return _MACHINE_CACHE.stats()


def _make_faults(fault_plan, fault_seed: int):
    if fault_plan is None:
        return None
    from repro.faults import FaultInjector

    return FaultInjector(fault_plan, fault_seed)


def check_micro_knobs(approach: str, config: EngineConfig | None = None,
                      kernel: str = "model") -> None:
    """Reject kernel knobs on a run that never invokes the kernel.

    ``kernel`` selects the micro engines' X-drop kernel; ``backend`` and
    ``workers`` drive its calls.  The macro engines price tasks
    analytically, ``"auto"`` plans over them, and a micro engine with
    ``kernel="model"`` charges modeled costs only, so there the knobs
    would silently do nothing.  :func:`run_alignment` and the service's
    ``JobRequest.validate`` both ask here.
    """
    pool = config is not None and (config.backend != "serial"
                                   or config.workers != 1)
    if approach == "auto":
        why = "'auto' plans over the macro engines (docs/PLANNER.md)"
    else:
        info = get_engine(approach)
        if info.is_micro:
            if pool and kernel == "model":
                raise ConfigurationError(
                    "backend/workers drive the alignment kernel, which a "
                    "kernel='model' run never invokes; use kernel='real'"
                )
            return
        why = (f"{approach!r} is a {info.kind} engine (its analytic model "
               f"never invokes the kernel)")
    if kernel != "model" or pool:
        raise ConfigurationError(
            f"kernel/backend/workers apply to micro engines only; {why}"
        )


def run_alignment(
    workload,
    nodes: int,
    approach: str = "bsp",
    config: EngineConfig | None = None,
    cores_per_node: int = 64,
    machine: MachineSpec | None = None,
    tracer: "Tracer | None" = None,
    metrics: "MetricsRegistry | None" = None,
    fault_plan=None,
    fault_seed: int = 0,
    kernel: str = "model",
) -> RunResult:
    """Simulate one engine processing a workload on a machine allocation.

    ``approach`` may be any registered engine.  Macro engines consume the
    workload's per-rank :meth:`assignment`; micro (message-level) engines
    require a :class:`ConcreteWorkload` and accept ``kernel="real"`` to run
    the actual X-drop kernel per task.

    ``tracer``/``metrics`` attach observability (see :mod:`repro.obs`): the
    run emits phase/instant events into the tracer (one Chrome "process"
    per run) and rolls per-rank counters into the registry.  When no tracer
    is passed, the engine falls back to the ambient default tracer, if one
    is installed via :func:`repro.obs.set_default_tracer`.

    ``fault_plan`` (a :class:`repro.faults.FaultPlan`) subjects the run to
    injected faults, realized deterministically from ``fault_seed`` by a
    fresh :class:`repro.faults.FaultInjector` — fault randomness never
    touches the workload/noise streams (see docs/RESILIENCE.md).

    ``approach="auto"`` consults the cost-model planner
    (:mod:`repro.perf.planner`) instead of naming an engine: the
    top-ranked predicted plan runs, and predicted-vs-actual lands in
    ``result.details["plan"]`` (docs/PLANNER.md).
    """
    check_micro_knobs(approach, config, kernel)
    if approach == "auto":
        return _run_auto(workload, nodes, config, cores_per_node, machine,
                         tracer, metrics, fault_plan, fault_seed, kernel)
    info = get_engine(approach)
    machine = machine or make_machine(nodes, cores_per_node)
    engine = info.factory(config=config or EngineConfig())
    faults = _make_faults(fault_plan, fault_seed)
    if info.kind == _registry.MICRO:
        if not isinstance(workload, ConcreteWorkload):
            raise ConfigurationError(
                f"approach {approach!r} is a message-level engine and needs "
                f"a ConcreteWorkload (sequence-level dataset), not "
                f"{type(workload).__name__}"
            )
        return engine.run(workload, machine, kernel=kernel, tracer=tracer,
                          metrics=metrics, faults=faults)
    assignment = workload.assignment(machine.total_ranks)
    return engine.run(assignment, machine, tracer=tracer, metrics=metrics,
                      faults=faults)


def _run_auto(workload, nodes, config, cores_per_node, machine,
              tracer, metrics, fault_plan, fault_seed, kernel) -> RunResult:
    """``approach="auto"``: plan, run the top prediction, record regret.

    When no grid point is feasible (every hook raised, or no macro
    engine has a cost hook), falls back to *measuring* every macro
    engine and keeping the winner — slower, but never wrong; the
    fallback is flagged as ``details["plan"]["mode"] == "measured"``.
    """
    from repro.perf.planner import plan

    machine = machine or make_machine(nodes, cores_per_node)
    base = config if config is not None else EngineConfig()
    points = plan(workload, machine=machine, config=base)
    ranked_head = [p.as_dict() for p in points[:5]]
    feasible = [p for p in points if p.feasible]
    if feasible:
        top = feasible[0]
        result = run_alignment(
            workload, nodes, top.engine, top.apply(base), cores_per_node,
            machine=machine, tracer=tracer, metrics=metrics,
            fault_plan=fault_plan, fault_seed=fault_seed, kernel=kernel,
        )
        actual = result.breakdown.wall_time
        result.details["plan"] = {
            "mode": "predicted",
            "engine": top.engine,
            "knobs": dict(top.knobs),
            "predicted_wall": top.predicted_wall,
            "actual_wall": actual,
            "prediction_error": (actual / top.predicted_wall - 1.0
                                 if top.predicted_wall > 0 else 0.0),
            "grid_points": len(points),
            "ranked": ranked_head,
        }
        return result
    measured = {
        name: run_alignment(
            workload, nodes, name, base, cores_per_node, machine=machine,
            tracer=tracer, metrics=metrics,
            fault_plan=fault_plan, fault_seed=fault_seed, kernel=kernel,
        )
        for name in available_engines(kind=_registry.MACRO)
    }
    best = min(measured, key=lambda n: measured[n].breakdown.wall_time)
    result = measured[best]
    result.details["plan"] = {
        "mode": "measured",
        "engine": best,
        "measured_walls": {
            n: r.breakdown.wall_time for n, r in measured.items()
        },
        "grid_points": len(points),
        "ranked": ranked_head,
    }
    return result


def compare_engines(
    workload,
    nodes: int,
    config: EngineConfig | None = None,
    cores_per_node: int = 64,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    fault_plan=None,
    fault_seed: int = 0,
    approaches: Iterable[str] | None = None,
) -> dict[str, RunResult]:
    """Run the macro approaches on identical fixed inputs (the paper's
    method).

    ``approaches`` defaults to every registered macro engine (the micro
    engines need concrete workloads and hours, not identical aggregates).
    With a tracer attached, the runs land in one trace as separate Chrome
    "processes" — a side-by-side timeline in Perfetto.  With a
    ``fault_plan``, each engine gets its own injector built from the same
    plan and seed — identical bad luck for all codes.
    """
    names = (tuple(approaches) if approaches is not None
             else available_engines(kind=_registry.MACRO))
    for name in names:
        get_engine(name)  # fail fast on typos before running anything
    return {
        name: run_alignment(workload, nodes, name, config, cores_per_node,
                            tracer=tracer, metrics=metrics,
                            fault_plan=fault_plan, fault_seed=fault_seed)
        for name in names
    }


def scaling_sweep(
    workload,
    node_counts: Iterable[int],
    approaches: Iterable[str] | None = None,
    config: EngineConfig | None = None,
    cores_per_node: int = 64,
    tracer: Tracer | None = None,
    metrics: dict[int, MetricsRegistry] | None = None,
    fault_plan=None,
    fault_seed: int = 0,
) -> dict[str, dict[int, RunResult]]:
    """Strong-scaling sweep: results[approach][nodes] -> RunResult.

    ``approaches`` defaults to every registered macro engine.  A counter
    registry is sized to one rank count, which varies across the sweep —
    so ``metrics``, when given, is a caller-supplied dict that the sweep
    fills with one :class:`MetricsRegistry` per node count (shared by the
    approaches at that size).  ``fault_plan``/``fault_seed`` build a fresh
    injector per run, exactly as :func:`run_alignment` does — the same
    bad luck at every size, for every approach.

    Each workload assignment is rendered at most once per rank count: all
    approaches at a node count share the workload's per-P LRU cache entry
    (observable through ``workload.assignment_cache.stats()``).
    """
    names = (tuple(approaches) if approaches is not None
             else available_engines(kind=_registry.MACRO))
    for name in names:
        get_engine(name)  # fail fast on typos before running anything
    out: dict[str, dict[int, RunResult]] = {a: {} for a in names}
    for nodes in node_counts:
        node_metrics = None
        if metrics is not None:
            node_metrics = metrics.get(nodes)
            if node_metrics is None:
                machine = make_machine(nodes, cores_per_node)
                node_metrics = MetricsRegistry(machine.total_ranks)
                metrics[nodes] = node_metrics
        for approach in names:
            out[approach][nodes] = run_alignment(
                workload, nodes, approach, config, cores_per_node,
                tracer=tracer, metrics=node_metrics,
                fault_plan=fault_plan, fault_seed=fault_seed,
            )
    return out


def run_plan_points(
    workload,
    nodes: int,
    points,
    config: EngineConfig | None = None,
    cores_per_node: int = 64,
    fault_plan=None,
    fault_seed: int = 0,
) -> list[RunResult | None]:
    """Execute planner grid points; results align with ``points``.

    The measurement half of the planner's regret methodology
    (``benchmarks/bench_planner.py``): each feasible
    :class:`~repro.perf.planner.PlanPoint` runs through its engine with
    its knobs applied over ``config``; infeasible points yield ``None``.
    """
    machine = make_machine(nodes, cores_per_node)
    base = config if config is not None else EngineConfig()
    runnable = [(i, p) for i, p in enumerate(points)
                if getattr(p, "feasible", True)]
    results: list[RunResult | None] = [None] * len(points)
    for i, p in runnable:
        results[i] = run_alignment(
            workload, nodes, p.engine, p.apply(base), cores_per_node,
            machine=machine, fault_plan=fault_plan, fault_seed=fault_seed,
        )
    return results
