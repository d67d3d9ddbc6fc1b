"""The macro engines' cost model: one function per phase formula.

Each paper equation lives here exactly once — BSP round sizing and the
superstep (:func:`bsp_model`, :func:`bsp_superstep`, §3.1), the
asynchronous pull phases and their timeline (:func:`pull_phases`,
:func:`pull_timeline`, §3.2; the ``hybrid`` engine of §5 is the same
model at a different aggregation), and the two memory footprints
(:func:`bsp_memory`, :func:`pull_memory`).  An engine run computes its
phases through these functions and *charges* them (timers, trace, fault
adjustments); the planner ranks engines by running them, so nothing
else evaluates the model.

The model functions are pure over their inputs (arrays in, arrays out;
an input array may come back as it is, but is never written); everything
that touches a tracer, a timer or a fault injector is layered on top
(:func:`apply_pull_faults`, :func:`assemble_pull_phases`,
:func:`run_pull_engine`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from repro.engines.base import EngineConfig, ExecutionMode
from repro.engines.harness import ExecutionContext
from repro.engines.rebalance import MigrationLedger
from repro.engines.report import RunResult
from repro.errors import ConfigurationError, RankFailureError
from repro.machine.config import MachineSpec
from repro.machine.network import NetworkModel
from repro.obs import ENGINE_LANE, MetricsRegistry, Tracer
from repro.pipeline.workload import WorkloadAssignment
from repro.utils.units import MB, US

__all__ = [
    "BSP_BASE_MEMORY",
    "BSP_TASK_RECORD_BYTES",
    "ASYNC_BASE_MEMORY",
    "ASYNC_TASK_RECORD_BYTES",
    "BSP_TASK_OVERHEAD",
    "ASYNC_TASK_OVERHEAD",
    "BSP_READ_OVERHEAD",
    "ASYNC_READ_OVERHEAD",
    "ASYNC_BASE_OVERHEAD",
    "MULTIROUND_EFFICIENCY",
    "ASYNC_MIN_VISIBLE",
    "internode_fraction",
    "exchange_budget",
    "bsp_num_rounds",
    "survivor_share",
    "mean_read_bytes",
    "BspModel",
    "bsp_model",
    "bsp_superstep",
    "bsp_memory",
    "PullPhases",
    "PullTimeline",
    "pull_phases",
    "pull_timeline",
    "pull_memory",
    "PullFaultOutcome",
    "apply_pull_faults",
    "assemble_pull_phases",
    "run_pull_engine",
]

#: fixed per-rank footprint: program image + MPI runtime + output buffers
BSP_BASE_MEMORY = 100 * MB
#: flat-array task record: read ids, positions, flags, cost (BSP layout)
BSP_TASK_RECORD_BYTES = 40.0
#: fixed per-rank footprint: program + UPC++/GASNet runtime segments
ASYNC_BASE_MEMORY = 120 * MB
#: pointer-based task record (std containers: node + pointers + payload)
ASYNC_TASK_RECORD_BYTES = 96.0

# Traversal overheads (§4.6 / Figure 13).  Both codes walk local data
# structures holding alignment tasks and their data: the BSP code flat
# arrays (better locality), the async code C++ standard-library
# (pointer-based) containers.  So the async code pays more per traversed
# item, most visibly per *remote read* handled (index lookup, callback
# dispatch, buffer bookkeeping).

#: per-task traversal + kernel-invocation seconds ("Computation (Overhead)")
BSP_TASK_OVERHEAD = 10.0 * US
ASYNC_TASK_OVERHEAD = 13.0 * US
#: per-remote-read handling seconds (message-buffer walk vs map lookup +
#: callback).  Charged only for *internode* reads — intranode pulls
#: resolve through the shared-memory segment without serialization or
#: callback deferral — so engines scale these by ``1 - 1/nodes``
BSP_READ_OVERHEAD = 30.0 * US
ASYNC_READ_OVERHEAD = 120.0 * US
#: per-rank seconds to build the remote-read task index before the pulls
ASYNC_BASE_OVERHEAD = 0.01
#: exchange-bandwidth factor when the BSP engine is forced into several
#: memory-limited rounds: small buffers cannot pipeline pack/unpack with
#: transmission (§3.1's memory/bandwidth-utilization coupling)
MULTIROUND_EFFICIENCY = 0.55
#: fraction of pull latency that computation cannot hide even when
#: abundant (callbacks bunch between polls — the paper's async code still
#: shows a small visible-communication bar at scale, <7% of runtime in
#: Figure 8)
ASYNC_MIN_VISIBLE = 0.05


def internode_fraction(machine: MachineSpec) -> float:
    """Fraction of remote reads that cross the network (1 - 1/nodes).

    Intranode pulls resolve through the shared-memory segment without
    serialization or callback deferral, so per-read overheads and
    internode-only penalties scale by this factor.
    """
    return 1.0 - 1.0 / machine.nodes


# -- BSP round sizing (the §3.1 dynamic superstep logic) --------------------

def exchange_budget(config: EngineConfig, machine: MachineSpec,
                    assignment: WorkloadAssignment) -> float:
    """Receive-buffer bytes one rank may devote to a single round."""
    fixed = (
        BSP_BASE_MEMORY
        + float(assignment.partition_bytes.max(initial=0.0))
        + float(assignment.tasks_per_rank.max(initial=0.0))
        * BSP_TASK_RECORD_BYTES
    )
    free = machine.app_memory_per_rank - fixed
    if free <= 0:
        raise ConfigurationError(
            "per-rank memory cannot hold even the input partition; "
            "use more nodes (the paper needs >= 8 nodes for Human CCS)"
        )
    return config.exchange_memory_fraction * free


def bsp_num_rounds(config: EngineConfig, machine: MachineSpec,
                   assignment: WorkloadAssignment) -> int:
    """Rounds needed so every rank's round receive fits its budget."""
    return bsp_model(config, machine, assignment).rounds


def survivor_share(x: np.ndarray, rounds: int, alive: np.ndarray,
                   n_alive: int) -> np.ndarray:
    """One round's per-rank quota of ``x``, dead ranks' share redistributed
    equally over the survivors."""
    xr = x / rounds if rounds > 1 else x
    if n_alive == alive.size:
        return xr
    lost = float(xr[~alive].sum())
    return np.where(alive, xr + lost / n_alive, 0.0)


def mean_read_bytes(assignment: WorkloadAssignment) -> float:
    """Average size of one pulled read (0 when nothing is pulled)."""
    lookups = assignment.lookups.sum()
    return assignment.lookup_bytes.sum() / lookups if lookups > 0 else 0.0


# -- the BSP superstep model (§3.1) ------------------------------------------

@dataclass(frozen=True)
class BspModel:
    """Per-run constants of the superstep model, built once per run."""

    #: receive-buffer bytes one rank may devote to a single round
    exchange_budget: float
    rounds: int
    send: np.ndarray
    recv: np.ndarray
    #: how many peers a typical rank exchanges nonempty messages with:
    #: bounded by its distinct remote reads and by P-1
    avg_sources: float
    compute: np.ndarray
    overhead: np.ndarray
    #: multi-round exchanges cannot pipeline pack/unpack with transmission
    eff_scale: float


def bsp_model(config: EngineConfig, machine: MachineSpec,
              assignment: WorkloadAssignment) -> BspModel:
    """Size the rounds and price one run's exchange and compute totals.

    Raises ``ConfigurationError`` when the partition does not fit per-rank
    memory (the planner records such grid points as infeasible).
    """
    P = assignment.num_ranks
    budget = exchange_budget(config, machine, assignment)
    max_recv = float(assignment.recv_bytes.max(initial=0.0))
    rounds = max(1, int(np.ceil(max_recv / budget)))
    comm_only = config.mode is ExecutionMode.COMM_ONLY
    return BspModel(
        exchange_budget=budget,
        rounds=rounds,
        send=assignment.send_bytes,
        recv=assignment.recv_bytes,
        avg_sources=(float(np.minimum(assignment.lookups, P - 1).mean())
                     if P > 1 else 1.0),
        compute=np.zeros(P) if comm_only else assignment.compute_seconds,
        overhead=(
            assignment.tasks_per_rank * BSP_TASK_OVERHEAD
            + assignment.lookups * BSP_READ_OVERHEAD
            * internode_fraction(machine)
        ),
        eff_scale=MULTIROUND_EFFICIENCY if rounds > 1 else 1.0,
    )


def bsp_superstep(
    net: NetworkModel, model: BspModel, factors: np.ndarray | None,
    alive: np.ndarray, n_alive: int,
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """One fault-free superstep for a membership mask.

    Returns ``(duration, personal, align_part, phase)``: the blocking
    exchange's duration, each rank's personal (pre-wait) share of it, and
    the noise-dilated per-rank alignment and total (alignment + overhead)
    compute seconds of the round (``factors=None``: no noise).  A rank
    exchanges with roughly the same peer set every round, so splitting
    the volume across rounds shrinks the per-source messages.
    """
    rounds = model.rounds
    round_send = survivor_share(model.send, rounds, alive, n_alive)
    round_recv = survivor_share(model.recv, rounds, alive, n_alive)
    duration = net.alltoallv_time(
        round_send.max(initial=0.0), round_recv.max(initial=0.0),
        model.avg_sources, efficiency_scale=model.eff_scale,
    )
    personal = net.alltoallv_rank_time(
        round_send, round_recv, model.avg_sources,
        efficiency_scale=model.eff_scale,
    )
    align_part = survivor_share(model.compute, rounds, alive, n_alive)
    overhead = survivor_share(model.overhead, rounds, alive, n_alive)
    if factors is not None:
        align_part = factors * align_part
        overhead = factors * overhead
    return duration, personal, align_part, align_part + overhead


def bsp_memory(assignment: WorkloadAssignment, rounds: int) -> np.ndarray:
    """Per-rank BSP footprint: runtime + partition + flat task records +
    one round's receive buffer and send staging."""
    return (
        BSP_BASE_MEMORY
        + assignment.partition_bytes
        + assignment.tasks_per_rank * BSP_TASK_RECORD_BYTES
        + (assignment.recv_bytes + assignment.send_bytes) / rounds
    )


# -- the asynchronous pull model (shared by async and hybrid) ---------------

@dataclass
class PullPhases:
    """Per-rank phase costs of one pull-engine run (§3.2).

    Without noise the compute arrays may be the assignment's own
    read-only arrays; the fault code adjusts only the dilated copies it
    makes, in place.
    """

    local_compute: np.ndarray
    remote_compute: np.ndarray
    #: index-building overhead, paid before the pull phase
    overhead_pre: np.ndarray
    #: the remainder, interleaved with the callbacks
    overhead_cb: np.ndarray
    comm: np.ndarray
    bar: float
    #: RPCs each rank issues: ``ceil(lookups / agg)``
    messages: np.ndarray


class PullTimeline(NamedTuple):
    """Where every rank's phases land (see :func:`pull_timeline`)."""

    phase_a_busy: np.ndarray
    phase_a_end: np.ndarray
    #: callback-phase compute available for hiding communication
    busy: np.ndarray
    visible_comm: np.ndarray
    finish: np.ndarray
    wall: float


def pull_phases(config: EngineConfig, assignment: WorkloadAssignment,
                net: NetworkModel, agg: float, factors: np.ndarray | None,
                *, batch_fill_stall: bool) -> PullPhases:
    """Fault-free phase costs with ``agg`` reads coalesced per RPC
    (``factors=None``: no noise).

    Aggregation keeps the bytes and halves nothing — it divides the
    *message counts* (injection gaps, service-queue depth, window slots).
    With ``batch_fill_stall`` a batch must fill before it injects:
    ``agg - 1`` pulls' worth of accumulation stall per batch (zero at
    ``agg == 1``).
    """
    P = assignment.num_ranks
    machine = net.machine
    if config.mode is ExecutionMode.COMM_ONLY:
        local_compute, remote_compute = np.zeros(P), np.zeros(P)
    else:
        local_compute = assignment.local_pair_seconds
        remote_compute = (assignment.compute_seconds
                          - assignment.local_pair_seconds)
        if factors is not None:
            local_compute = factors * local_compute
            remote_compute = factors * remote_compute
    overhead = (
        assignment.tasks_per_rank * ASYNC_TASK_OVERHEAD
        + assignment.lookups * ASYNC_READ_OVERHEAD
        * internode_fraction(machine)
        + ASYNC_BASE_OVERHEAD
    )
    overhead_pre = 0.5 * overhead
    comm = net.rpc_pull_time(
        assignment.lookups / agg,
        assignment.lookup_bytes,
        assignment.incoming_lookups / agg,
        assignment.incoming_bytes,
    )
    messages = np.ceil(assignment.lookups / agg)
    if batch_fill_stall:
        comm = comm + messages * (agg - 1.0) * machine.network.msg_gap
    return PullPhases(
        local_compute, remote_compute, overhead_pre, overhead - overhead_pre,
        comm, net.barrier_time(), messages,
    )


def pull_timeline(phases: PullPhases,
                  fault_stall: np.ndarray | None = None,
                  start_delay: np.ndarray | None = None) -> PullTimeline:
    """The per-rank pull timeline (§3.2), a pure function of the phases.

    Phase A is local-pair compute overlapped with the split-phase barrier;
    phase B is pulls with callback compute, where visible communication is
    whatever compute could not hide — floored at :data:`ASYNC_MIN_VISIBLE`
    of the pull time, since callbacks bunch between application-level polls —
    plus ``fault_stall`` (a response that never came cannot be hidden);
    then everyone waits at the exit barrier for the slowest rank.

    ``start_delay`` (churn runs only) is per-rank idle time before phase A
    can begin; ``None`` means everyone starts at t=0.
    """
    phase_a_busy = phases.local_compute + phases.overhead_pre
    if start_delay is None:
        phase_a_end = np.maximum(phase_a_busy, phases.bar)
    else:
        phase_a_end = np.maximum(start_delay + phase_a_busy, phases.bar)
    busy = phases.remote_compute + phases.overhead_cb
    visible_comm = np.maximum(phases.comm - busy,
                              ASYNC_MIN_VISIBLE * phases.comm)
    if fault_stall is not None:
        visible_comm = visible_comm + fault_stall
    finish = phase_a_end + (busy + visible_comm)
    wall = float(finish.max(initial=0.0)) + phases.bar
    return PullTimeline(phase_a_busy, phase_a_end, busy, visible_comm,
                        finish, wall)


def pull_memory(config: EngineConfig, assignment: WorkloadAssignment,
                window_factor: float) -> np.ndarray:
    """Per-rank pull-engine footprint: runtime + partition + pointer-based
    task records + the in-flight window (``window_factor`` reads staged
    per slot)."""
    return (
        ASYNC_BASE_MEMORY
        + assignment.partition_bytes
        + assignment.tasks_per_rank * ASYNC_TASK_RECORD_BYTES
        + config.async_window * window_factor * mean_read_bytes(assignment)
    )


@dataclass
class PullFaultOutcome:
    """Fault-adjusted phases plus degradation bookkeeping."""

    phases: PullPhases
    #: per-rank arrays, ``None`` on fault-free runs
    fault_stall: np.ndarray | None
    retry_counts: np.ndarray | None
    tasks_redistributed: float
    redist_counts: np.ndarray | None
    ranks_lost: list[int]
    #: membership accounting (``None`` on fault-free runs)
    ledger: MigrationLedger | None = None
    #: per-rank pre-join idle seconds (``None`` on fault-free runs)
    start_delay: np.ndarray | None = None


def _hand_off_unfinished(phases: PullPhases, fault_stall: np.ndarray,
                         alive: np.ndarray, d: int, t: float,
                         finish0: np.ndarray,
                         tasks_per_rank: np.ndarray) -> float:
    """Rank ``d`` (already cleared from ``alive``) stops at time ``t``.

    It keeps the fraction of every phase it finished on the fault-free
    timeline; the ``alive`` ranks absorb the rest equally as extra
    callback-phase compute and pull traffic (unfinished local pairs are
    redone remotely).  Returns the number of tasks that moved.
    """
    done = min(1.0, t / float(finish0[d])) if finish0[d] > 0 else 1.0
    n_alive = int(alive.sum())
    lost_align = (1.0 - done) * (phases.local_compute[d]
                                 + phases.remote_compute[d])
    lost_oh = (1.0 - done) * (phases.overhead_pre[d] + phases.overhead_cb[d])
    lost_comm = (1.0 - done) * (phases.comm[d] + fault_stall[d])
    for arr in (phases.local_compute, phases.remote_compute,
                phases.overhead_pre, phases.overhead_cb, phases.comm,
                fault_stall):
        arr[d] = arr[d] * done
    phases.remote_compute[alive] += lost_align / n_alive
    phases.overhead_cb[alive] += lost_oh / n_alive
    phases.comm[alive] += lost_comm / n_alive
    return (1.0 - done) * float(tasks_per_rank[d])


def apply_pull_faults(
    ctx: ExecutionContext,
    assignment: WorkloadAssignment,
    phases: PullPhases,
) -> PullFaultOutcome:
    """Fault adjustments of the pull model (analytic; docs/RESILIENCE.md).

    Places degradation windows and kills on the fault-free analytic
    timeline, then dilates busy time (stragglers), dilates traffic
    (degraded links), stalls callers (message faults), and redistributes
    dead ranks' unfinished work over the survivors.
    """
    faults = ctx.faults
    if faults is None:
        return PullFaultOutcome(phases, None, None, 0.0, None, [])

    P = assignment.num_ranks
    fault_stall = np.zeros(P)
    retry_counts = np.zeros(P)
    net = ctx.net
    plan = faults.plan
    # fault-free horizon: where each rank *would* finish — places
    # degradation windows and kills on this analytic timeline.  Summed
    # left to right from the timeline's terms; the fault goldens pin that
    # order, which can sit an ulp off ``horizon.finish``
    horizon = pull_timeline(phases)
    finish0 = horizon.phase_a_end + horizon.busy + horizon.visible_comm
    wall0 = float(finish0.max(initial=0.0)) + phases.bar

    # stragglers dilate every busy second inside their windows;
    # degraded links dilate the pull traffic
    straggle = np.array([
        faults.schedule.mean_straggle_factor(i, 0.0, float(finish0[i]))
        for i in range(P)
    ])
    phases = PullPhases(
        phases.local_compute * straggle,
        phases.remote_compute * straggle,
        phases.overhead_pre * straggle,
        phases.overhead_cb * straggle,
        phases.comm * faults.schedule.mean_link_dilation(0.0, wall0),
        phases.bar,
        phases.messages,
    )

    # message faults: a dropped pull stalls its caller for the
    # timeout plus the first backoff before the retry lands; a
    # delayed pull stalls for the injected delay — pure visible
    # latency, compute cannot hide a response that never came
    timeout = (plan.rpc_timeout if plan.rpc_timeout is not None
               else net.suggested_rpc_timeout())
    backoff = (plan.rpc_backoff if plan.rpc_backoff is not None
               else 10.0 * ctx.machine.network.rtt)
    for i in range(P):
        n_calls = int(phases.messages[i])
        drops, delays, dups = faults.rank_rpc_fault_counts(i, n_calls)
        fault_stall[i] = (
            drops * (timeout + backoff)
            + delays * plan.delay_seconds
        )
        retry_counts[i] = drops
        injected = drops + delays + dups
        if ctx.metrics is not None:
            if drops:
                ctx.metrics.inc("rpc_retries", i, drops)
            if injected:
                ctx.metrics.inc("faults_injected", i, injected)
        if ctx.tracer is not None and injected:
            ctx.tracer.instant(i, "fault_inject", 0.0, kind="rpc_macro",
                               drops=drops, delays=delays, dups=dups)

    # membership: joins, graced evictions and kills processed in one
    # time-ordered event loop (see _pull_churn_events)
    ledger = MigrationLedger()
    start_delay = np.zeros(P)
    tasks_redistributed, redist_counts, ranks_lost = _pull_churn_events(
        ctx, assignment, finish0, wall0, phases, fault_stall,
        ledger, start_delay,
    )
    return PullFaultOutcome(
        phases, fault_stall, retry_counts, tasks_redistributed,
        redist_counts, ranks_lost, ledger=ledger, start_delay=start_delay,
    )


def _pull_churn_events(
    ctx: ExecutionContext,
    assignment: WorkloadAssignment,
    finish0: np.ndarray,
    wall0: float,
    phases: PullPhases,
    fault_stall: np.ndarray,
    ledger: MigrationLedger,
    start_delay: np.ndarray,
) -> tuple[float, np.ndarray, list[int]]:
    """Process joins, evictions, and kills on the analytic pull timeline,
    in the schedule's :meth:`membership_events` order.

    Joiner work is *loaned* to the initial members at t=0; a join reclaims
    the unfinished fraction (``1 - t/wall0``) of the loan plus a migration
    transfer of the joiner's partition and remaining task records.  A
    graced eviction hands its unfinished work off at the departure time as
    a checkpoint (the redistributed-kill hand-off, plus the checkpoint's
    transfer cost, accounted as migration); at ``grace=0`` it *is* the
    redistributed-kill hand-off.  Kills keep requiring the
    ``redistribute`` flag; announced departures never do.

    Events at or beyond the fault-free horizon ``wall0`` are not honored.
    A kill-only plan is the no-join, no-eviction case of this loop.
    """
    P = assignment.num_ranks
    faults = ctx.faults
    plan = faults.plan
    net = ctx.net
    tasks_redistributed = 0.0
    redist_counts = np.zeros(P)
    ranks_lost: list[int] = []

    alive = np.ones(P, dtype=bool)
    comm = phases.comm
    arrays = (phases.local_compute, phases.remote_compute,
              phases.overhead_pre, phases.overhead_cb, comm)
    for j in plan.joins:
        alive[j.rank] = False
    # loan not-yet-joined ranks' work equally to the initial members,
    # remembering the original totals for reclaim at join time
    n_init = int(alive.sum())
    loans: dict[int, tuple[float, ...]] = {}
    for j in sorted(plan.joins, key=lambda j: j.rank):
        jr = j.rank
        loans[jr] = tuple(float(a[jr]) for a in arrays)
        for a, total in zip(arrays, loans[jr]):
            a[alive] += total / n_init
            a[jr] = 0.0

    def depart(d: int, t: float, checkpointed: bool, killed: bool) -> None:
        nonlocal tasks_redistributed
        alive[d] = False
        if not alive.any():
            raise RankFailureError(
                "every rank died before the run finished; nothing left "
                "to redistribute to" if killed else
                "every rank left before the run finished; nothing left "
                "to hand the work to"
            )
        moved = _hand_off_unfinished(phases, fault_stall, alive, d, t,
                                     finish0, assignment.tasks_per_rank)
        n_alive = int(alive.sum())
        if checkpointed:
            # the remaining task records + the partition travel as a
            # checkpoint; every member receives an equal slice in parallel
            mbytes = (moved * ASYNC_TASK_RECORD_BYTES
                      + float(assignment.partition_bytes[d]))
            msec = net.ptp_time(mbytes / n_alive)
            comm[alive] += msec
            ledger.record_migration(moved, mbytes, msec * n_alive)
            faults.note_migration(int(round(moved)))
        else:
            tasks_redistributed += moved
            redist_counts[alive] += moved / n_alive

    for ev in faults.schedule.membership_events():
        r, t = ev.rank, ev.time
        if t >= wall0 or ev.kind == "evict_notice":
            continue
        if ev.kind == "join":
            if alive[r]:
                continue
            n_members = int(alive.sum())
            u = max(0.0, 1.0 - t / wall0) if wall0 > 0 else 0.0
            members = np.flatnonzero(alive)
            for a, total in zip(arrays, loans.get(r, (0.0,) * len(arrays))):
                want = u * total
                if want <= 0.0 or n_members == 0:
                    continue
                # reclaim equal slices, clamped so a member already drained
                # by its own departure never goes negative
                per = want / n_members
                take = np.minimum(a[members], per)
                a[members] -= take
                a[r] += float(take.sum())
            alive[r] = True
            start_delay[r] = t
            moved = u * float(assignment.tasks_per_rank[r])
            mbytes = (float(assignment.partition_bytes[r])
                      + moved * ASYNC_TASK_RECORD_BYTES)
            msec = net.ptp_time(mbytes)
            comm[r] += msec
            ledger.record_migration(moved, mbytes, msec)
            ctx.record_join(ledger, r, t)
            faults.note_migration(int(round(moved)))
        elif ev.kind == "evict_depart":
            if not alive[r]:
                continue
            depart(r, t, checkpointed=ev.grace > 0, killed=False)
            ctx.record_evict(ledger, r, t, ev.grace)
        else:  # kill
            if not alive[r]:
                continue
            if not plan.redistribute:
                raise RankFailureError(
                    f"rank {r} died at t={t:.6g}s during "
                    f"the async pull phase; add 'redistribute' to the "
                    f"fault plan for graceful degradation"
                )
            ranks_lost.append(r)
            ctx.record_kill(r, t)
            depart(r, t, checkpointed=False, killed=True)
    return tasks_redistributed, redist_counts, ranks_lost


def assemble_pull_phases(
    ctx: ExecutionContext,
    phases: PullPhases,
    fault_stall: np.ndarray | None,
    start_delay: np.ndarray | None = None,
) -> PullTimeline:
    """Charge :func:`pull_timeline` to the timers and emit its trace.

    A joiner (``start_delay``, churn runs only) waits out its pre-join
    window at the split barrier, charged as sync.
    """
    timers = ctx.timers
    tl = pull_timeline(phases, fault_stall, start_delay)
    wall = tl.wall

    # --- phase A: local-pair compute overlapped with split barrier ---
    timers.add_array("compute_align", phases.local_compute)
    timers.add_array("compute_overhead", phases.overhead_pre)
    timers.add_array("sync", tl.phase_a_end - tl.phase_a_busy)
    # --- phase B: pull remote reads, compute from callbacks ---
    timers.add_array("compute_align", phases.remote_compute)
    timers.add_array("compute_overhead", phases.overhead_cb)
    timers.add_array("comm", tl.visible_comm)
    # --- exit barrier: everyone waits for the slowest rank ---
    timers.add_array("sync", wall - tl.finish)

    if ctx.tracer is not None:
        ctx.tracer.instant(ENGINE_LANE, "split_barrier_release", phases.bar)
        ctx.tracer.instant(ENGINE_LANE, "exit_barrier",
                           float(tl.finish.max(initial=0.0)))
        for i in range(ctx.num_ranks):
            # phase A: local pairs + pre-overhead overlapped with the
            # split barrier, idle gap (if any) is sync
            sd = 0.0 if start_delay is None else float(start_delay[i])
            la = float(phases.local_compute[i])
            pre = float(phases.overhead_pre[i])
            a_busy = float(tl.phase_a_busy[i])
            a_end = float(tl.phase_a_end[i])
            # phase B: callbacks + visible comm, then exit-barrier wait
            rc = float(phases.remote_compute[i])
            cb = float(phases.overhead_cb[i])
            vis = float(tl.visible_comm[i])
            fin = float(tl.finish[i])
            for cat, start, dur, label in (
                ("sync", 0.0, sd, "pre-join-idle"),
                ("compute_align", sd, la, "local-pairs"),
                ("compute_overhead", sd + la, pre, "index-build"),
                ("sync", sd + a_busy, a_end - sd - a_busy,
                 "split-barrier-wait"),
                ("compute_align", a_end, rc, "callback-align"),
                ("compute_overhead", a_end + rc, cb, "callback-overhead"),
                ("comm", a_end + rc + cb, vis, "visible-pull"),
                ("sync", fin, wall - fin, "exit-barrier"),
            ):
                if dur > 0:
                    ctx.tracer.phase(i, cat, start, dur, name=label)

    return tl


def run_pull_engine(
    name: str,
    config: EngineConfig,
    assignment: WorkloadAssignment,
    machine: MachineSpec,
    *,
    agg: float,
    batch_fill_stall: bool,
    window_factor: float,
    extra_details: Callable[[PullPhases], dict] | None = None,
    tracer: Tracer | None = None,
    metrics: MetricsRegistry | None = None,
    faults=None,
) -> RunResult:
    """The run body of the pull engines: compute the phases once, adjust
    them for faults, charge them.

    ``async`` and ``hybrid`` differ only in the three model parameters
    (see :func:`pull_phases` and :func:`pull_memory`) and in
    ``extra_details``, which maps the fault-free phases to
    engine-specific keys of the result's ``details``.
    """
    ctx = ExecutionContext.open(name, assignment, machine, config,
                                tracer=tracer, metrics=metrics,
                                faults=faults)
    phases = pull_phases(config, assignment, ctx.net, agg, ctx.factors(),
                         batch_fill_stall=batch_fill_stall)
    fo = apply_pull_faults(ctx, assignment, phases)
    tl = assemble_pull_phases(ctx, fo.phases, fo.fault_stall,
                              start_delay=fo.start_delay)

    details = extra_details(phases) if extra_details is not None else {}
    details["hidden_comm"] = float(np.minimum(fo.phases.comm, tl.busy).sum())
    details["raw_comm"] = fo.phases.comm
    if faults is not None:
        details.update(ctx.fault_details(
            {
                "rpc_retries": int(fo.retry_counts.sum()),
                "rpc_stall_total": float(fo.fault_stall.sum()),
            },
            fo.tasks_redistributed, fo.ranks_lost, ledger=fo.ledger,
        ))
    return ctx.finalize(
        assignment, tl.wall,
        memory=pull_memory(config, assignment, window_factor),
        exchange_rounds=0,
        details=details,
        extra_counters=(
            ("rpc_issued", phases.messages),
            ("rpc_bytes", assignment.lookup_bytes),
        ) if metrics is not None else (),
        redist_counts=fo.redist_counts,
        tasks_redistributed=fo.tasks_redistributed,
    )
