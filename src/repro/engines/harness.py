"""The shared execution scaffold every engine runs inside.

Before this module existed, each engine re-implemented the same run
prologue (rank validation, ``begin_run``, network/noise-model
construction, phase-timer allocation) and the same epilogue (breakdown
assembly, conservation checking, common counter rollups, fault-detail
reporting).  :class:`ExecutionContext` bundles that wiring once:

* :meth:`ExecutionContext.open` — validated prologue for macro engines
  (it checks a fault plan against the machine);
* tracer/metrics emission helpers that no-op when observability is
  detached, so engine code never guards ``if tracer is not None`` for the
  common cases;
* :meth:`ExecutionContext.finalize` — the one place a macro run becomes a
  :class:`~repro.engines.report.RunResult`: breakdown assembly +
  ``validate()``, the independent trace re-sum
  (``assert_conserved(check_trace(...))``), and the common counters
  (``tasks``, ``lookups``, engine extras, redistribution);
* :func:`begin_trace` / :func:`resolve_executor` / :func:`finish_run` —
  the same prologue/epilogue pieces for the micro engines, whose per-rank
  machinery lives in :class:`repro.runtime.context.SpmdContext`.

The micro engines route real-kernel batches through the *compute
backend* :func:`resolve_executor` builds (a
:class:`repro.runtime.executor.TaskExecutor`) rather than calling the
aligner directly, so a run can fan kernel work out to a process pool with
zero engine-code changes (docs/PARALLEL.md).

New engines (see ``docs/ARCHITECTURE.md``) should never need to touch the
observability or conservation plumbing: open a context, charge phases,
finalize.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engines.base import EngineConfig
from repro.engines.report import PhaseTimers, RunResult, RuntimeBreakdown
from repro.errors import ConfigurationError
from repro.machine.config import MachineSpec
from repro.machine.network import NetworkModel
from repro.machine.noise import NoiseModel
from repro.obs import (
    ENGINE_LANE,
    MetricsRegistry,
    Tracer,
    assert_conserved,
    check_breakdown,
    check_trace,
)
from repro.pipeline.workload import WorkloadAssignment
from repro.runtime.executor import TaskExecutor, make_task_executor
from repro.utils.rng import RngFactory

__all__ = ["ExecutionContext", "begin_trace", "resolve_executor",
           "finish_run"]


def begin_trace(tracer: Tracer | None, engine_name: str,
                workload_name: str, machine: MachineSpec) -> Tracer | None:
    """Open this run's trace process, when a tracer is attached.

    The ambient tracer is not consulted here: ``run_alignment`` resolves
    it once, so an engine run the planner makes stays untraced.
    """
    if tracer is not None:
        tracer.begin_run(
            f"{engine_name} {workload_name} nodes={machine.nodes} "
            f"P={machine.total_ranks}"
        )
    return tracer


def resolve_executor(config: EngineConfig, workload, aligner) -> TaskExecutor:
    """Build the kernel-batch backend of one run from its config.

    Engines hold the result in a ``with`` block so the pool and its
    shared-memory segments are torn down even when a fault plan aborts the
    run mid-flight (``tests/test_executor.py`` asserts nothing leaks).
    ``backend="auto"`` resolves to the measure-then-choose
    :class:`~repro.runtime.executor.AutoExecutor`; a pool request on a
    model-kernel run is a :class:`~repro.errors.ConfigurationError`.
    """
    return make_task_executor(workload, aligner, backend=config.backend,
                              workers=config.workers)


def finish_run(
    engine_name: str,
    machine: MachineSpec,
    workload_name: str,
    wall: float,
    timers: PhaseTimers,
    tracer: Tracer | None,
    *,
    memory: np.ndarray,
    exchange_rounds: int,
    alignments: list | None = None,
    details: dict | None = None,
    accumulator_check: bool = False,
) -> RunResult:
    """Assemble + conservation-check one run's :class:`RunResult`.

    Per-rank phase sums must tile the wall clock — from the accumulators
    (``accumulator_check=True`` reports through the conservation checker,
    as the micro engines always did; otherwise ``validate()`` raises
    directly) and, when traced, independently from the emitted event
    stream.
    """
    breakdown = RuntimeBreakdown(
        engine=engine_name,
        machine=machine,
        workload=workload_name,
        wall_time=wall,
        compute_align=timers.get("compute_align"),
        compute_overhead=timers.get("compute_overhead"),
        comm=timers.get("comm"),
        sync=timers.get("sync"),
    )
    if accumulator_check:
        assert_conserved(check_breakdown(breakdown))
    else:
        breakdown.validate()
    if tracer is not None:
        # the emitted event stream must independently tile the wall clock
        assert_conserved(
            check_trace(tracer, breakdown.wall_time, machine.total_ranks)
        )
    return RunResult(
        breakdown=breakdown,
        memory_high_water=memory,
        exchange_rounds=exchange_rounds,
        alignments=alignments,
        details=details if details is not None else {},
    )


@dataclass
class ExecutionContext:
    """Machine + tracer + metrics + fault injector + noise RNG, bundled.

    One context per macro run.  Engines read the models (:attr:`net`,
    :attr:`noise`), charge the four categories through :attr:`timers`, and
    use the emission helpers — which swallow detached observability — for
    trace events and counters.
    """

    engine_name: str
    machine: MachineSpec
    config: EngineConfig
    tracer: Tracer | None
    metrics: MetricsRegistry | None
    faults: object | None
    net: NetworkModel
    noise: NoiseModel
    timers: PhaseTimers

    @classmethod
    def open(
        cls,
        engine_name: str,
        assignment: WorkloadAssignment,
        machine: MachineSpec,
        config: EngineConfig,
        *,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        faults=None,
    ) -> "ExecutionContext":
        """Validated prologue of a macro run."""
        if assignment.num_ranks != machine.total_ranks:
            raise ConfigurationError(
                f"assignment is for {assignment.num_ranks} ranks but machine "
                f"has {machine.total_ranks}"
            )
        if faults is not None:
            faults.schedule.check_machine(machine.total_ranks)
        tracer = begin_trace(tracer, engine_name, assignment.name, machine)
        return cls(
            engine_name=engine_name,
            machine=machine,
            config=config,
            tracer=tracer,
            metrics=metrics,
            faults=faults,
            net=NetworkModel(machine),
            noise=NoiseModel(machine, RngFactory(config.seed),
                             noise_fraction=config.noise_fraction),
            timers=PhaseTimers(machine.total_ranks),
        )

    @property
    def num_ranks(self) -> int:
        return self.machine.total_ranks

    def factors(self) -> np.ndarray | None:
        """The run's per-rank noise factors; ``None`` on an isolated
        machine, whose factors are all one."""
        return self.noise.factors(self.num_ranks) if self.noise.active else None

    # -- emission helpers (no-ops when observability is detached) -----------

    def instant(self, lane, name: str, ts: float, **args) -> None:
        if self.tracer is not None:
            self.tracer.instant(lane, name, ts, **args)

    def phase(self, rank: int, category: str, ts: float, duration: float,
              name: str = "") -> None:
        """Emit one phase slice on a rank's lane (skips empty slices)."""
        if self.tracer is not None and duration > 0:
            self.tracer.phase(rank, category, ts, duration, name=name)

    def inc(self, counter: str, rank: int, value: float = 1.0) -> None:
        if self.metrics is not None:
            self.metrics.inc(counter, rank, value)

    def record_kill(self, rank: int, ts: float, **args) -> None:
        """Book one permanent rank death: injector count + trace + counter."""
        self.faults.note_kill(rank)
        self.instant(ENGINE_LANE, "fault_inject", ts,
                     kind="rank_kill", victim=rank, **args)
        self.inc("faults_injected", rank)

    def record_join(self, ledger, rank: int, ts: float, **args) -> None:
        """Book one honored join: ledger + injector count + trace + counter."""
        ledger.record_join(rank)
        self.faults.note_join(rank)
        self.instant(ENGINE_LANE, "rank_join", ts, joiner=rank, **args)
        self.inc("faults_injected", rank)

    def record_evict(self, ledger, rank: int, ts: float, grace: float,
                     **args) -> None:
        """Book one honored eviction departure, as :meth:`record_join`."""
        ledger.record_evict(rank)
        self.faults.note_evict(rank)
        self.instant(ENGINE_LANE, "rank_evict", ts, victim=rank,
                     grace=grace, **args)
        self.inc("faults_injected", rank)

    # -- epilogue ------------------------------------------------------------

    def fault_details(self, extra: dict, tasks_redistributed: float,
                      ranks_lost: list[int], ledger) -> dict:
        """The uniform fault section of a result's ``details`` dict.

        When the plan has membership churn (joins or evictions), ``ledger``
        (a :class:`~repro.engines.rebalance.MigrationLedger`) adds the
        uniform ``churn`` sub-dict the makespan-under-churn report reads.
        """
        d = {
            "fault_plan": self.faults.plan.describe(),
            "faults_injected": self.faults.total_injected,
            "fault_kinds": dict(self.faults.injected),
        }
        d.update(extra)
        d["tasks_redistributed"] = tasks_redistributed
        d["ranks_lost"] = ranks_lost
        if self.faults.plan.has_churn:
            d["churn"] = ledger.churn_details()
        return d

    def finalize(
        self,
        assignment: WorkloadAssignment,
        wall: float,
        *,
        memory: np.ndarray,
        exchange_rounds: int = 0,
        details: dict | None = None,
        extra_counters: tuple = (),
        redist_counts: np.ndarray | None = None,
        tasks_redistributed: float = 0.0,
    ) -> RunResult:
        """Run-exit: breakdown + conservation checks + counter rollups.

        ``extra_counters`` are engine-specific ``(name, per_rank_array)``
        pairs rolled in after the common ``tasks``/``lookups`` counters.
        """
        result = finish_run(
            self.engine_name, self.machine, assignment.name, wall,
            self.timers, self.tracer,
            memory=memory, exchange_rounds=exchange_rounds, details=details,
        )
        if self.metrics is not None:
            self.metrics.add_array("tasks", assignment.tasks_per_rank)
            self.metrics.add_array("lookups", assignment.lookups)
            for name, values in extra_counters:
                self.metrics.add_array(name, values)
            if self.faults is not None and tasks_redistributed:
                self.metrics.add_array("tasks_redistributed", redist_counts)
        return result
