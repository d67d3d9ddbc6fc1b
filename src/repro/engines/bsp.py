"""The bulk-synchronous (BSP) engine (§3.1).

Reads are exchanged in an irregular all-to-all (``MPI_Alltoall`` +
``MPI_Alltoallv`` in the original), maximally aggregated; pairwise
alignments for each received read are computed when the read is taken from
the message buffer.  When the aggregated exchange does not fit in per-node
memory, the engine performs **multiple dynamically-sized communication and
computation rounds** — the paper's refactoring of DiBELLA's third stage, and
the mechanism behind Figures 9 and 11.

Timeline of one run (macro model, per round ``i`` of ``R``)::

    [ exchange_i (comm) ][ compute_i | wait for slowest (sync) ] ... repeat

The exchange is a blocking collective: every rank experiences the full
round duration, split into its personal send/recv cost (comm) and waiting
on more-loaded ranks (sync) — exchange load imbalance (Figure 6) surfaces
as BSP synchronization/latency.  Compute phases end at the slowest rank
(task-cost load imbalance, Figure 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.engines.base import EngineConfig
from repro.engines.common import (
    BSP_TASK_RECORD_BYTES,
    bsp_memory,
    bsp_model,
    bsp_superstep,
)
from repro.engines.harness import ExecutionContext
from repro.engines.rebalance import MigrationLedger
from repro.engines.registry import register_engine
from repro.engines.report import RunResult
from repro.errors import RankFailureError
from repro.machine.config import MachineSpec
from repro.obs import ENGINE_LANE, MetricsRegistry, Tracer
from repro.pipeline.workload import WorkloadAssignment

__all__ = ["BSPEngine"]


@register_engine("bsp", description="bulk-synchronous aggregated exchange "
                                    "(§3.1)")
@dataclass
class BSPEngine:
    """Macro-granularity simulator of the bulk-synchronous implementation."""

    config: EngineConfig = field(default_factory=EngineConfig)
    name: str = "bsp"

    # -- simulation ----------------------------------------------------------

    def run(self, assignment: WorkloadAssignment,
            machine: MachineSpec,
            tracer: Tracer | None = None,
            metrics: MetricsRegistry | None = None,
            faults=None) -> RunResult:
        ctx = ExecutionContext.open(self.name, assignment, machine,
                                    self.config, tracer=tracer,
                                    metrics=metrics, faults=faults)
        P = ctx.num_ranks

        model = bsp_model(self.config, machine, assignment)
        rounds = model.rounds
        factors = ctx.factors()
        traced = ctx.tracer is not None
        wall = 0.0
        exchange_total = 0.0
        # fault bookkeeping: survivors absorb dead ranks' per-round quotas
        alive = np.ones(P, dtype=bool)
        ranks_lost: list[int] = []
        tasks_redistributed = 0.0
        redist_counts = np.zeros(P)
        retry_counts = np.zeros(P)

        # --- membership (kills, graced evictions, joins; docs/RESILIENCE.md)
        # The schedule's one time-ordered event stream, notices skipped.
        # BSP reassigns at superstep boundaries: events are honored at the
        # first round start at/after their time, so a single-round run only
        # sees events at t=0.
        ledger = MigrationLedger()
        pending: list = []
        # ranks whose unfinished quotas are *redone* by survivors (kills
        # and grace-0 evictions); graced evictions hand their remainder off
        # via checkpoint instead, and pre-join rounds of a joiner are simply
        # covered by the members of those rounds
        redist_mask = np.zeros(P, dtype=bool)
        if faults is not None:
            plan = faults.plan
            for j in plan.joins:
                alive[j.rank] = False  # absent until the join is honored
            pending = [ev for ev in faults.schedule.membership_events()
                       if ev.kind != "evict_notice"]
        for r in range(rounds):
            t0 = wall  # superstep start
            ctx.instant(ENGINE_LANE, "superstep", t0, round=r, rounds=rounds)
            mig_bytes = 0.0
            mig_tasks = 0.0
            movers: list[int] = []
            if pending:
                remaining = (rounds - r) / rounds
                while pending and pending[0].time <= t0:
                    ev = pending.pop(0)
                    d = ev.rank
                    if ev.kind == "join":
                        alive[d] = True
                        moved = remaining * float(assignment.tasks_per_rank[d])
                        mig_bytes += (float(assignment.partition_bytes[d])
                                      + moved * BSP_TASK_RECORD_BYTES)
                        mig_tasks += moved
                        movers.append(d)
                        ctx.record_join(ledger, d, t0, round=r)
                        faults.note_migration(int(round(moved)))
                    elif ev.kind == "evict_depart":
                        alive[d] = False
                        ranks_lost.append(d)
                        ctx.record_evict(ledger, d, t0, ev.grace, round=r)
                        if ev.grace > 0:
                            # the grace window covered a checkpoint: the
                            # remainder migrates instead of being redone
                            moved = remaining * float(
                                assignment.tasks_per_rank[d])
                            mig_bytes += (float(assignment.partition_bytes[d])
                                          + moved * BSP_TASK_RECORD_BYTES)
                            mig_tasks += moved
                            movers.append(d)
                            faults.note_migration(int(round(moved)))
                        else:
                            redist_mask[d] = True
                    else:  # kill — abrupt, still needs the redistribute flag
                        if not plan.redistribute:
                            raise RankFailureError(
                                f"rank {d} died at t={ev.time:.6g}s before "
                                f"BSP round {r}; add 'redistribute' to the "
                                f"fault plan for graceful degradation"
                            )
                        alive[d] = False
                        ranks_lost.append(d)
                        redist_mask[d] = True
                        ctx.record_kill(d, t0, round=r)
                if not alive.any():
                    raise RankFailureError(
                        "every rank died before the run finished; nothing "
                        "left to redistribute to"
                    )
            n_alive = int(alive.sum())

            # the model's fault-free superstep for this round's membership;
            # everything below adjusts and charges it
            duration, personal, align_part, phase = bsp_superstep(
                ctx.net, model, factors, alive, n_alive)
            if n_alive < P:
                moved = float(
                    (assignment.tasks_per_rank / rounds)[redist_mask].sum()
                )
                if moved:
                    tasks_redistributed += moved
                    redist_counts[alive] += moved / n_alive

            # --- migration mini-phase: the checkpointed remainders and
            # joiner partitions ship before the exchange; members pay
            # comm, everyone else waits it out (sync)
            if mig_bytes > 0.0:
                mig_dur = ctx.net.ptp_time(mig_bytes / n_alive)
                mig_comm = np.where(alive, mig_dur, 0.0)
                ctx.timers.add_array("comm", mig_comm)
                ctx.timers.add_array("sync", mig_dur - mig_comm)
                ledger.record_migration(mig_tasks, mig_bytes,
                                        mig_dur * n_alive)
                ctx.instant(ENGINE_LANE, "migrate", wall, round=r,
                            ranks=movers, nbytes=mig_bytes)
                if traced:
                    for i in range(P):
                        if alive[i]:
                            ctx.phase(i, "comm", wall, mig_dur,
                                      name=f"migrate[{r}]")
                        else:
                            ctx.phase(i, "sync", wall, mig_dur,
                                      name=f"migrate-wait[{r}]")
                wall += mig_dur

            # --- exchange phase (blocking collective) ---
            if faults is not None:
                # degraded links dilate the whole exchange window
                dil = faults.schedule.mean_link_dilation(t0, t0 + duration)
                duration *= dil
                personal *= dil
            personal = np.minimum(personal, duration)
            comm_round = (personal if n_alive == P
                          else np.where(alive, personal, 0.0))

            attempts = faults.exchange_attempts(r) if faults is not None else 1
            for a in range(attempts):
                ta = wall
                ctx.timers.add_array("comm", comm_round)
                ctx.timers.add_array("sync", duration - comm_round)
                wall += duration
                exchange_total += duration
                retried = a < attempts - 1
                if retried:
                    retry_counts[alive] += 1
                    if metrics is not None:
                        for i in np.flatnonzero(alive):
                            metrics.inc("exchange_retries", int(i))
                    ctx.instant(ENGINE_LANE, "exchange_retry", ta,
                                round=r, attempt=a + 1)
                label = (f"exchange[{r}]!a{a}" if retried
                         else f"exchange[{r}]")
                if traced:
                    for i in range(P):
                        p_comm = float(comm_round[i])
                        ctx.phase(i, "comm", ta, p_comm, name=label)
                        ctx.phase(i, "sync", ta + p_comm, duration - p_comm,
                                  name=f"exchange-skew[{r}]")

            # --- compute phase (ends at the slowest rank) ---
            tc = wall
            if faults is not None:
                # stragglers dilate busy time inside their windows
                sched = faults.schedule
                straggle = np.array([
                    sched.mean_straggle_factor(i, tc, tc + float(phase[i]))
                    if alive[i] else 1.0
                    for i in range(P)
                ])
                align_part = align_part * straggle
                phase = phase * straggle
            phase_end = float(phase.max(initial=0.0))
            ctx.timers.add_array("compute_align", align_part)
            ctx.timers.add_array("compute_overhead", phase - align_part)
            ctx.timers.add_array("sync", phase_end - phase)
            wall += phase_end

            if traced:
                for i in range(P):
                    a_ = float(align_part[i])
                    o = float(phase[i]) - a_
                    ctx.phase(i, "compute_align", tc, a_, name=f"align[{r}]")
                    ctx.phase(i, "compute_overhead", tc + a_, o,
                              name=f"overhead[{r}]")
                    ctx.phase(i, "sync", tc + float(phase[i]),
                              phase_end - float(phase[i]),
                              name=f"compute-wait[{r}]")

        # final barrier closing the last superstep
        bar = ctx.net.barrier_time()
        ctx.timers.add_array("sync", bar)
        if traced:
            for i in range(P):
                ctx.phase(i, "sync", wall, bar, name="exit-barrier")
        wall += bar

        # leftover events landed after the last superstep boundary.
        # Departures inside the final superstep surface at the exit barrier
        # with no remaining work to move: a killed rank's last contribution
        # already merged, so in redistribute mode the run just records the
        # loss.  A join this late is not honored (the work is finished —
        # there is nothing left to hand the joiner).
        for ev in pending:
            if ev.time >= wall or ev.kind == "join":
                continue
            d = ev.rank
            alive[d] = False
            ranks_lost.append(d)
            if ev.kind == "kill":
                if not plan.redistribute:
                    raise RankFailureError(
                        f"rank {d} died at t={ev.time:.6g}s during the final "
                        f"superstep (detected at the exit barrier); add "
                        f"'redistribute' to the fault plan for graceful "
                        f"degradation"
                    )
                ctx.record_kill(d, ev.time)
            else:  # eviction departing inside the final superstep
                ctx.record_evict(ledger, d, ev.time, ev.grace)

        details = {
            "exchange_budget": model.exchange_budget,
            "avg_sources": model.avg_sources,
            "exchange_time_total": exchange_total,
        }
        if faults is not None:
            details = dict(details, **ctx.fault_details(
                {"exchange_retries": int(retry_counts.max(initial=0.0))},
                tasks_redistributed, ranks_lost, ledger=ledger,
            ))
        return ctx.finalize(
            assignment, wall,
            memory=bsp_memory(assignment, rounds),
            exchange_rounds=rounds,
            details=details,
            extra_counters=(("bytes_sent", model.send),
                            ("bytes_recv", model.recv)),
            redist_counts=redist_counts,
            tasks_redistributed=tasks_redistributed,
        )
