"""Message-level (micro) SPMD implementations of both approaches.

These are genuine SPMD programs: one generator per rank, communicating
through :mod:`repro.runtime` — the rendezvous collectives for the BSP code,
the async RPC layer with a bounded outstanding window and a split-phase
barrier for the async code.  They move real data (global read ids, byte
volumes from real read lengths) and can run the real X-drop kernel over
the tasks they executed (``kernel="real"``, resolved in large batches
once the simulation has drained) to produce actual :class:`Alignment`
outputs.

They exist to (1) execute concrete workloads end-to-end, and (2) validate
the macro engines: ``tests/test_micro_macro_agreement.py`` checks that both
granularities tell the same performance story on the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.align.seedextend import SeedExtendAligner
from repro.engines.base import EngineConfig, ExecutionMode
from repro.engines.common import (
    ASYNC_BASE_MEMORY,
    ASYNC_BASE_OVERHEAD,
    ASYNC_READ_OVERHEAD,
    ASYNC_TASK_OVERHEAD,
    ASYNC_TASK_RECORD_BYTES,
    BSP_BASE_MEMORY,
    BSP_READ_OVERHEAD,
    BSP_TASK_OVERHEAD,
    BSP_TASK_RECORD_BYTES,
    MULTIROUND_EFFICIENCY,
    bsp_num_rounds,
    internode_fraction,
)
from repro.engines.harness import begin_trace, finish_run
from repro.engines.rebalance import (
    ChurnPool,
    MigrationLedger,
    PoolItem,
    executor_map,
)
from repro.engines.registry import MICRO, register_engine
from repro.engines.report import RunResult
from repro.errors import ConfigurationError, RankFailureError
from repro.machine.config import MachineSpec
from repro.obs import ENGINE_LANE, MetricsRegistry, Tracer
from repro.pipeline.workload import ConcreteWorkload
from repro.runtime.collectives import Collectives
from repro.runtime.context import SpmdContext
from repro.runtime.executor import make_task_executor
from repro.runtime.rpc import RpcLayer
from repro.utils.arrays import sorted_unique

__all__ = ["MicroBSPEngine", "MicroAsyncEngine"]

#: most tasks one kernel call resolves at the end of a run (see
#: :meth:`_MicroBase._resolve_alignments`).  The batched kernel keeps
#: getting faster with batch size, and past ~550 tasks its working set
#: shows in peak RSS (~5 KiB/task).  ``benchmarks/e2e`` ``micro_bsp_real``
#: (1 639 tasks, median of 3 interleaved runs; per-callback dispatch at the
#: parent commit: 1.83 s, 109.7 MiB):
#:
#:     cap  calls x tasks   wall_s   peak_rss_mb
#:     128     13 x 126      2.78      109.3
#:     256      7 x 234      2.22      109.6
#:     512      4 x 410      1.32      109.7
#:     768      3 x 546      1.20      110.2
#:    1024      2 x 820      1.07      111.9   <- +1.9 % RSS
#:    none      1 x 1639     0.95      116.2   <- +5.9 % RSS, grows with n
#:
#: 1024 keeps ~90 % of the uncapped speed at a bounded footprint
#: (docs/PERFORMANCE.md "Kernel dispatch").
FLUSH_TASKS = 1024


def _rank_task_lists(plan, num_ranks: int) -> list[np.ndarray]:
    order = np.argsort(plan.assigned, kind="stable")
    counts = np.bincount(plan.assigned, minlength=num_ranks)
    offsets = np.zeros(num_ranks + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return [order[offsets[r]: offsets[r + 1]] for r in range(num_ranks)]


@dataclass
class _MicroBase:
    config: EngineConfig = field(default_factory=EngineConfig)

    def run(self, workload: ConcreteWorkload, machine: MachineSpec,
            kernel: str = "model",
            tracer: Tracer | None = None,
            metrics: MetricsRegistry | None = None,
            faults=None) -> RunResult:
        """Open the run's compute backend, then hand off to the engine body.

        Both kernels charge the same modeled costs while the simulation
        runs.  ``kernel="real"`` additionally builds a
        :class:`SeedExtendAligner`, records every executed task, and —
        once the simulation has drained — resolves the recording through
        the configured backend (``config.backend``/``workers``, see
        docs/PARALLEL.md) in a few large kernel
        calls.  A run that aborts (fault plan, cancellation) before that
        point spends no kernel time; the ``with`` block unlinks the
        shared-memory segments either way.
        """
        aligner = SeedExtendAligner() if kernel == "real" else None
        with make_task_executor(workload, aligner,
                                backend=self.config.backend,
                                workers=self.config.workers) as executor:
            return self._run(workload, machine, executor,
                             tracer=tracer, metrics=metrics, faults=faults)

    def _prepare(self, workload: ConcreteWorkload, machine: MachineSpec,
                 tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None,
                 faults=None):
        P = machine.total_ranks
        if P > 4096:
            raise ConfigurationError(
                "micro engines are message-level simulations; use the macro "
                "engines beyond a few thousand ranks"
            )
        if faults is not None:
            faults.schedule.check_machine(P)
        tracer = begin_trace(tracer, self.name, workload.name, machine)
        plan = workload.micro_plan(P)
        ctx = SpmdContext(machine, tracer=tracer, metrics=metrics,
                          faults=faults)
        rank_tasks = _rank_task_lists(plan, P)
        return plan, ctx, rank_tasks

    def _check_deaths(self, ctx: SpmdContext) -> None:
        """Abort with a typed error once any rank's death time has passed.

        The micro engines are faithful SPMD programs without a work-stealing
        layer, so a dead rank cannot hand its tasks off; graceful
        redistribution is a macro-engine capability.
        """
        faults = ctx.faults
        if faults is None:
            return
        kill = faults.first_death_before(ctx.engine.now)
        if kill is not None:
            raise RankFailureError(
                f"rank {kill.rank} died at t={kill.time:.6g}s; micro "
                f"engines cannot redistribute work (use a macro engine "
                f"with 'redistribute' for graceful degradation)"
            )

    def _churn_epilogue(self, ctx: SpmdContext, ledger: MigrationLedger,
                        wall: float) -> dict:
        """Book the run's honored membership events; the ``churn`` details.

        The micro engines honor churn *implicitly* — membership is consulted
        at superstep boundaries (BSP) or claim time (async) — so the uniform
        accounting (injector counts, trace instants, ledger join/evict
        lists) is settled once, after the simulation drains.  An unflagged
        kill that took effect inside the run aborts here, mirroring the
        macro engines' redistribute requirement.
        """
        faults = ctx.faults
        plan = faults.plan
        for ev in plan.schedule.membership_events():
            if ev.time >= wall or ev.kind == "evict_notice":
                continue
            if ev.kind == "join":
                ledger.record_join(ev.rank)
                faults.note_join(ev.rank)
                if ctx.tracer is not None:
                    ctx.tracer.instant(ev.rank, "rank_join", ev.time)
            elif ev.kind == "evict_depart":
                ledger.record_evict(ev.rank)
                faults.note_evict(ev.rank)
                if ctx.tracer is not None:
                    ctx.tracer.instant(ev.rank, "rank_evict", ev.time,
                                       grace=ev.grace)
            else:  # kill
                if not plan.redistribute:
                    raise RankFailureError(
                        f"rank {ev.rank} died at t={ev.time:.6g}s; add "
                        f"'redistribute' to the fault plan for graceful "
                        f"degradation under churn"
                    )
                faults.note_kill(ev.rank)
                if ctx.tracer is not None:
                    ctx.tracer.instant(ev.rank, "fault_inject", ev.time,
                                       kind="rank_kill", victim=ev.rank)
            ctx.metrics.inc("faults_injected", ev.rank)
        return {"churn": ledger.churn_details()}

    def _dilated(self, ctx: SpmdContext, rank: int, seconds: float) -> float:
        """Apply any active straggler window to a compute duration."""
        if ctx.faults is None or seconds == 0.0:
            return seconds
        return seconds * ctx.faults.schedule.straggle_factor(rank,
                                                             ctx.engine.now)

    def _charge_tasks(self, ctx: SpmdContext, workload, rank: int, tasks,
                      executed: list | None):
        """Charge ``rank`` each task's modeled seconds; record it for the flush.

        The one task-charging site of both engines (a generator: callers
        ``yield from`` it).  Simulated seconds come from
        ``workload.task_costs`` alone, so the kernel need not run here —
        ``(rank, task)`` goes onto the run's ``executed`` list and
        :meth:`_resolve_alignments` produces the alignments afterwards.
        ``COMM_ONLY`` charges and records nothing; ``executed`` is ``None``
        in model-kernel runs.
        """
        comm_only = self.config.mode is ExecutionMode.COMM_ONLY
        traced = ctx.tracer is not None
        for t in tasks:
            if not comm_only:
                seconds = self._dilated(ctx, rank,
                                        float(workload.task_costs[t]))
                if seconds:
                    # only a traced phase carries the task's name
                    yield ctx.charge("compute_align", rank, seconds,
                                     name=f"task{t}" if traced else "")
                if executed is not None:
                    executed.append((rank, int(t)))
            ctx.metrics.inc("tasks", rank)

    def _resolve_alignments(self, ctx: SpmdContext, executor, executed,
                            wall_time: float) -> list:
        """Run the kernel over everything the simulation executed.

        The recorded tasks go through the run's compute backend in
        recording order, split evenly into the fewest calls of at most
        :data:`FLUSH_TASKS`; per-pair results do not depend on batch
        composition, so the alignments are the ones per-callback dispatch
        produced, in the same order.  ``cells`` is booked to the rank that
        executed each task.  With a tracer attached every call emits one
        ``alignments_resolved`` counter on the engine lane — real-clock
        progress for the service, and its cancellation point.
        """
        tasks = [t for _, t in executed]
        calls = -(-len(tasks) // FLUSH_TASKS)
        alignments: list = []
        for c in range(calls):
            lo, hi = c * len(tasks) // calls, (c + 1) * len(tasks) // calls
            alignments.extend(executor.align_tasks(tasks[lo:hi]))
            if ctx.tracer is not None:
                ctx.tracer.counter(ENGINE_LANE, "alignments_resolved",
                                   wall_time, len(alignments))
        for (rank, _), alignment in zip(executed, alignments):
            ctx.metrics.inc("cells", rank, alignment.cells)
        return alignments

    def _finish(self, name, workload, machine, ctx, memory, rounds, executed,
                details=None, wall_time=None, executor=None):
        if wall_time is None:
            wall_time = ctx.engine.now
        alignments = (None if executed is None else
                      self._resolve_alignments(ctx, executor, executed,
                                               wall_time))
        details = dict(details or {})
        if ctx.faults is not None:
            details["faults_injected"] = ctx.faults.total_injected
            details["fault_kinds"] = dict(ctx.faults.injected)
        if (executor is not None and ctx.metrics is not None
                and executor.backend != "serial"):
            # real wall-clock dispatch/wait/merge accounting: counters, not
            # RunResult details, so results stay bit-identical to serial
            stats = executor.stats()
            per_worker = stats.pop("per_worker", {})
            ctx.metrics.merge_scalars("exec_", stats)
            for slot, (_pid, wstats) in enumerate(sorted(per_worker.items())):
                ctx.metrics.merge_scalars(f"exec_w{slot}_", wstats)
        # the accumulator path reports through the conservation checker;
        # the trace re-sum runs inside finish_run when a tracer is attached
        return finish_run(
            name, machine, workload.name, wall_time, ctx.timers, ctx.tracer,
            memory=memory,
            exchange_rounds=rounds,
            alignments=alignments,
            details=details,
            accumulator_check=True,
        )


@register_engine("bsp-micro", kind=MICRO,
                 description="message-level BSP rendezvous exchange")
@dataclass
class MicroBSPEngine(_MicroBase):
    """Message-level BSP: rendezvous alltoallv rounds + per-round compute."""

    name: str = "bsp-micro"

    def _run(self, workload: ConcreteWorkload, machine: MachineSpec,
             executor, *,
             tracer: Tracer | None = None,
             metrics: MetricsRegistry | None = None,
             faults=None) -> RunResult:
        P = machine.total_ranks
        plan, ctx, rank_tasks = self._prepare(workload, machine,
                                              tracer, metrics, faults)
        coll = Collectives(ctx)
        lengths = workload.read_lengths
        assignment = workload.assignment(P)
        rounds = bsp_num_rounds(self.config, machine, assignment)
        eff_scale = MULTIROUND_EFFICIENCY if rounds > 1 else 1.0
        internode = internode_fraction(machine)

        # Static exchange plan: which (requester, read) pairs exist, and in
        # which round each read travels (deduplicated, §3.1).
        need: list[dict[int, list[int]]] = [dict() for _ in range(P)]
        # need[src][dst] = read ids src must send dst, split later by round
        per_rank_remote: list[np.ndarray] = []
        for r in range(P):
            remote = plan.remote_read[rank_tasks[r]]
            uniq = sorted_unique(remote[remote >= 0])
            per_rank_remote.append(uniq)
            owners = plan.owner_of_read(uniq)
            for read_id, owner in zip(uniq, owners):
                need[int(owner)].setdefault(r, []).append(int(read_id))

        executed = [] if executor.aligner is not None else None
        finish_times: dict[int, float] = {}

        # --- membership churn state (docs/RESILIENCE.md) -------------------
        # Ranks outside the current membership keep their generators running
        # as ghosts — they stay in the collectives (so the rendezvous always
        # completes and every rank agrees on superstep boundary times) but
        # send nothing and compute nothing.  An absent rank's task ranges are
        # rechunked onto members through `executor_map`, recomputed at every
        # superstep boundary from the common post-barrier clock.
        churn = faults is not None and faults.plan.has_churn
        sched = faults.plan.schedule if churn else None
        ledger = MigrationLedger() if churn else None
        members_by_round: dict[int, np.ndarray] = {}
        exec_by_round: dict[int, np.ndarray] = {}
        done_by_orig = np.zeros(P, dtype=np.int64)
        task_done: set[int] = set()

        def round_items(src: int, dst: int, rnd: int) -> list:
            read_ids = need[src].get(dst, [])
            return [
                (rid, float(lengths[rid]))
                for i, rid in enumerate(read_ids)
                if min(i * rounds // max(1, len(read_ids)), rounds - 1) == rnd
            ]

        def rank_main(rank: int):
            tasks = rank_tasks[rank]
            remote = plan.remote_read[tasks]
            local_tasks = tasks[remote < 0]

            for rnd in range(rounds):
                my_origs: list[int] = []
                if churn:
                    # membership barrier: every rank leaves at the same
                    # simulated time, so all agree on this round's members
                    yield from coll.barrier(rank, tag=f"member{rnd}")
                    if rnd not in exec_by_round:
                        mask = sched.alive_mask(ctx.engine.now, P)
                        if not mask.any():
                            raise RankFailureError(
                                "every rank left before the run finished; "
                                "nothing left to delegate work to"
                            )
                        members_by_round[rnd] = mask
                        exec_by_round[rnd] = executor_map(mask)
                    exec_map = exec_by_round[rnd]
                    my_origs = [int(o) for o in np.flatnonzero(exec_map == rank)]
                    if rnd > 0:
                        # checkpoint handoff: newly-delegated unfinished
                        # ranges ship to their new executor (graceful
                        # departures and join reclaims only — a killed
                        # rank's work is redone from the task list, with
                        # nothing to fetch)
                        prev = exec_by_round[rnd - 1]
                        for o in my_origs:
                            if int(prev[o]) == rank:
                                continue
                            rem = int(len(rank_tasks[o]) - done_by_orig[o])
                            if rem <= 0:
                                continue
                            ev = sched.eviction_of(o)
                            graceful = (o == rank
                                        or (ev is not None and ev.grace > 0))
                            if not graceful:
                                continue
                            nbytes = (rem * BSP_TASK_RECORD_BYTES
                                      + float(assignment.partition_bytes[o]))
                            s = ctx.net.ptp_time(nbytes)
                            yield ctx.charge("comm", rank, s,
                                             name=f"migrate-r{o}")
                            ledger.record_migration(rem, nbytes, s)
                            faults.note_migration(rem)
                            if ctx.tracer is not None:
                                ctx.tracer.instant(rank, "migrate",
                                                   ctx.engine.now,
                                                   orig=o, tasks=rem)
                else:
                    self._check_deaths(ctx)
                if ctx.tracer is not None:
                    ctx.tracer.instant(rank, "superstep", ctx.engine.now,
                                       round=rnd, rounds=rounds)
                send: dict[int, list] = {}
                if churn:
                    # send on behalf of every orig this rank executes, and
                    # route each destination to *its* current executor
                    for o in my_origs:
                        for dst in need[o]:
                            items = round_items(o, dst, rnd)
                            if items:
                                send.setdefault(
                                    int(exec_map[dst]), []
                                ).extend(items)
                else:
                    for dst, read_ids in need[rank].items():
                        items = round_items(rank, dst, rnd)
                        if items:
                            send[dst] = items
                send_bytes = sum(b for items in send.values() for _, b in items)
                received = yield from coll.alltoallv_resilient(
                    rank, send, send_bytes, round_idx=rnd, tag=f"xchg{rnd}",
                    efficiency_scale=eff_scale,
                )
                if not churn:
                    self._check_deaths(ctx)
                got = {rid for rid, _ in received}
                ctx.memory.allocate(rank, f"recv{rnd}",
                                    sum(b for _, b in received))

                # compute: local-local tasks in round 0, remote-read tasks
                # as their reads arrive
                todo = []
                if churn:
                    for o in my_origs:
                        o_tasks = rank_tasks[o]
                        o_remote = plan.remote_read[o_tasks]
                        if rnd == 0:
                            todo.extend(int(t) for t in o_tasks[o_remote < 0])
                        for t, rid in zip(o_tasks, o_remote):
                            if rid >= 0 and int(rid) in got:
                                todo.append(int(t))
                    # an executor holding a read for one of its origs may
                    # unblock another's identical need early; never twice
                    todo = [t for t in todo if t not in task_done]
                    task_done.update(todo)
                    for t in todo:
                        done_by_orig[int(plan.assigned[t])] += 1
                else:
                    if rnd == 0:
                        todo.extend(int(t) for t in local_tasks)
                    for t, rid in zip(tasks, remote):
                        if rid >= 0 and int(rid) in got:
                            todo.append(int(t))
                yield from self._charge_tasks(ctx, workload, rank, todo,
                                              executed)
                oh = self._dilated(ctx, rank, (
                    len(todo) * BSP_TASK_OVERHEAD
                    + len(got) * BSP_READ_OVERHEAD * internode
                ))
                if oh:
                    yield ctx.charge("compute_overhead", rank, oh)
                ctx.memory.free(rank, f"recv{rnd}")

            yield from coll.barrier(rank, tag="exit")
            if not churn:
                self._check_deaths(ctx)
            finish_times[rank] = ctx.engine.now

        for rank in range(P):
            ctx.memory.allocate(
                rank, "base",
                BSP_BASE_MEMORY
                + float(assignment.partition_bytes[rank])
                + len(rank_tasks[rank]) * BSP_TASK_RECORD_BYTES,
            )
        ctx.engine.spawn_all((rank_main(r) for r in range(P)), prefix="bsp-r")
        ctx.engine.run()
        wall = max(finish_times.values(), default=ctx.engine.now)
        details = self._churn_epilogue(ctx, ledger, wall) if churn else None
        return self._finish(
            self.name, workload, machine, ctx,
            ctx.memory.rank_high_water(), rounds,
            executed,
            details=details,
            wall_time=wall,
            executor=executor,
        )


@register_engine("async-micro", kind=MICRO,
                 description="message-level async pulls over the RPC layer")
@dataclass
class MicroAsyncEngine(_MicroBase):
    """Message-level async: pull RPCs + callbacks + split-phase barrier."""

    name: str = "async-micro"

    def _run(self, workload: ConcreteWorkload, machine: MachineSpec,
             executor, *,
             tracer: Tracer | None = None,
             metrics: MetricsRegistry | None = None,
             faults=None) -> RunResult:
        P = machine.total_ranks
        plan, ctx, rank_tasks = self._prepare(workload, machine,
                                              tracer, metrics, faults)
        coll = Collectives(ctx)
        rpc = RpcLayer(ctx)
        lengths = workload.read_lengths
        assignment = workload.assignment(P)
        window = self.config.async_window
        internode = internode_fraction(machine)

        for r in range(P):
            # the handler returns the read (its id as a stand-in payload)
            # and its true byte size
            rpc.register(r, lambda rid: (rid, float(lengths[rid])))

        executed = [] if executor.aligner is not None else None
        finish_times: dict[int, float] = {}

        # --- membership churn state (docs/RESILIENCE.md) -------------------
        # Under churn the pull phase runs off a deterministic shared work
        # pool: every rank's task groups (its local-local group plus one
        # group per distinct remote read) stay queued under their original
        # owner, members drain their own queue first and then claim orphaned
        # groups — owner departed, or not yet joined — at pull granularity.
        # Claims of a foreign group charge the checkpoint-record transfer.
        # Reads of a departed owner stay servable: the grace-window
        # checkpoint (or the initial partition, for pre-join owners) remains
        # readable through the RPC layer.
        churn = faults is not None and faults.plan.has_churn
        sched = faults.plan.schedule if churn else None
        ledger = MigrationLedger() if churn else None
        pool = None
        if churn:
            items_by_orig: dict[int, list[PoolItem]] = {}
            for r in range(P):
                tasks_r = rank_tasks[r]
                remote_r = plan.remote_read[tasks_r]
                items: list[PoolItem] = []
                local = tuple(int(t) for t in tasks_r[remote_r < 0])
                if local:
                    items.append(PoolItem(r, -1, local))
                groups: dict[int, list[int]] = {}
                for t, rid in zip(tasks_r, remote_r):
                    if rid >= 0:
                        groups.setdefault(int(rid), []).append(int(t))
                for rid in sorted(groups):
                    items.append(PoolItem(r, rid, tuple(groups[rid])))
                if items:
                    items_by_orig[r] = items
            pool = ChurnPool(items_by_orig)

        def churn_rank_main(rank: int):
            jt = sched.join_time(rank)
            dep = sched.departure_time(rank)
            base_oh = ASYNC_BASE_OVERHEAD
            yield ctx.charge("compute_overhead", rank,
                             self._dilated(ctx, rank, 0.5 * base_oh))
            # everyone — joiners-to-be included — meets the split barrier at
            # start and the exit barrier at the end, so the collectives
            # always complete
            coll.split_barrier_enter(rank)
            yield from coll.split_barrier_wait(rank)
            inbox = rpc.inboxes[rank]

            def is_member(orig: int) -> bool:
                return sched.alive(orig, ctx.engine.now)

            while True:
                now = ctx.engine.now
                if dep is not None and now >= dep:
                    # departure: the group in flight finished (that is what
                    # the grace window bought); everything unclaimed is now
                    # orphaned for the members to pick up
                    break
                if jt is not None and now < jt:
                    yield ctx.charge("sync", rank, jt - now, name="pre-join")
                    continue
                item = pool.claim(rank, is_member)
                if item is None:
                    if not pool.pending_anywhere():
                        break
                    nxt = sched.next_membership_change(now)
                    if nxt is None:
                        break  # leftovers belong to present members
                    # a future departure may orphan work for this rank:
                    # sleep to the next membership change and re-check
                    yield ctx.charge("sync", rank, nxt - now,
                                     name="churn-drain")
                    continue
                ntasks = len(item.tasks)
                if item.orig != rank:
                    nbytes = ntasks * ASYNC_TASK_RECORD_BYTES
                    s = ctx.net.ptp_time(nbytes)
                    yield ctx.charge("comm", rank, s,
                                     name=f"migrate-r{item.orig}")
                    ledger.record_migration(ntasks, nbytes, s)
                    faults.note_migration(ntasks)
                    if ctx.tracer is not None:
                        ctx.tracer.instant(rank, "migrate", ctx.engine.now,
                                           orig=item.orig, tasks=ntasks)
                oh = ntasks * ASYNC_TASK_OVERHEAD
                if item.rid >= 0:
                    oh += ASYNC_READ_OVERHEAD * internode
                yield ctx.charge("compute_overhead", rank,
                                 self._dilated(ctx, rank, oh))
                owner = (int(plan.owner_of_read(np.array([item.rid]))[0])
                         if item.rid >= 0 else rank)
                if item.rid >= 0 and owner != rank:
                    # a claimed foreign group may wait on a read this rank
                    # itself owns — that one is a local fetch, no pull
                    yield ctx.charge("comm", rank, rpc.injection_cost())
                    rpc.call(rank, owner, item.rid)
                    ctx.memory.allocate(rank, f"inflight{item.rid}",
                                        float(lengths[item.rid]))
                    t0 = ctx.engine.now
                    response = yield from inbox.get()
                    ctx.record("comm", rank, ctx.engine.now - t0,
                               name="inbox-wait")
                    ctx.memory.free(rank, f"inflight{response.token}")
                yield from self._charge_tasks(ctx, workload, rank,
                                              item.tasks, executed)
            yield ctx.charge("compute_overhead", rank,
                             self._dilated(ctx, rank, 0.5 * base_oh))
            yield from coll.barrier(rank, tag="exit")
            finish_times[rank] = ctx.engine.now
            inbox.close()

        def rank_main(rank: int):
            tasks = rank_tasks[rank]
            remote = plan.remote_read[tasks]
            local_tasks = tasks[remote < 0]
            # index tasks under their remote read (§3.2)
            by_read: dict[int, list[int]] = {}
            for t, rid in zip(tasks, remote):
                if rid >= 0:
                    by_read.setdefault(int(rid), []).append(int(t))

            oh = (
                len(tasks) * ASYNC_TASK_OVERHEAD
                + len(by_read) * ASYNC_READ_OVERHEAD * internode
                + ASYNC_BASE_OVERHEAD
            )
            yield ctx.charge("compute_overhead", rank,
                             self._dilated(ctx, rank, 0.5 * oh))

            # split-phase barrier overlapped with local-local tasks
            coll.split_barrier_enter(rank)
            yield from self._charge_tasks(ctx, workload, rank, local_tasks,
                                          executed)
            yield from coll.split_barrier_wait(rank)
            self._check_deaths(ctx)

            # pull phase with a bounded outstanding window
            pending = list(by_read)
            outstanding = 0
            next_req = 0
            inbox = rpc.inboxes[rank]

            def issue_one():
                nonlocal next_req, outstanding
                rid = pending[next_req]
                owner = int(plan.owner_of_read(np.array([rid]))[0])
                rpc.call(rank, owner, rid)
                ctx.memory.allocate(rank, f"inflight{rid}", float(lengths[rid]))
                next_req += 1
                outstanding += 1
                ctx.metrics.observe_max("window_occupancy", rank, outstanding)
                if ctx.tracer is not None:
                    ctx.tracer.counter(rank, "outstanding", ctx.engine.now,
                                       outstanding)

            while next_req < len(pending) and outstanding < window:
                yield ctx.charge("comm", rank, rpc.injection_cost())
                issue_one()
            done = 0
            while done < len(pending):
                t0 = ctx.engine.now
                response = yield from inbox.get()
                # blocked time with no compute available = visible latency
                # (already elapsed while waiting: record, do not re-advance)
                ctx.record("comm", rank, ctx.engine.now - t0,
                           name="inbox-wait")
                self._check_deaths(ctx)
                ctx.memory.free(rank, f"inflight{response.token}")
                done += 1
                outstanding -= 1
                if ctx.tracer is not None:
                    ctx.tracer.counter(rank, "outstanding", ctx.engine.now,
                                       outstanding)
                if next_req < len(pending):
                    yield ctx.charge("comm", rank, rpc.injection_cost())
                    issue_one()
                # the callback group: tasks unblocked by this read's arrival
                yield from self._charge_tasks(
                    ctx, workload, rank, by_read[int(response.token)],
                    executed)
            yield ctx.charge("compute_overhead", rank,
                             self._dilated(ctx, rank, 0.5 * oh))

            yield from coll.barrier(rank, tag="exit")
            self._check_deaths(ctx)
            finish_times[rank] = ctx.engine.now
            # the rank is done for good: late duplicate responses must be
            # dropped by the RPC layer, not parked in a dead inbox
            inbox.close()

        for rank in range(P):
            ctx.memory.allocate(
                rank, "base",
                ASYNC_BASE_MEMORY
                + float(assignment.partition_bytes[rank])
                + len(rank_tasks[rank]) * ASYNC_TASK_RECORD_BYTES,
            )
        body = churn_rank_main if churn else rank_main
        ctx.engine.spawn_all((body(r) for r in range(P)), prefix="async-r")
        ctx.engine.run()
        wall = max(finish_times.values(), default=ctx.engine.now)
        details = {
            "rpc_calls": rpc.total_calls,
            "rpc_retries": rpc.retries,
            "rpc_timeouts": rpc.timeouts,
            "rpc_dup_dropped": rpc.dups_dropped,
        }
        if churn:
            details.update(self._churn_epilogue(ctx, ledger, wall))
        return self._finish(
            self.name, workload, machine, ctx,
            ctx.memory.rank_high_water(), 0,
            executed,
            details=details,
            wall_time=wall,
            executor=executor,
        )
