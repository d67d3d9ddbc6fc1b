"""Asynchronous RPC layer for micro SPMD programs (the UPC++ substitute).

``call`` issues a pull request from a caller rank to a target rank; the
response (whatever the registered handler returns, with its modeled byte
size) is delivered into the caller's inbox :class:`SimQueue`, where the
rank program consumes it and runs the attached computation — the callback
pattern of §3.2.

Timing: the request reaches the target after ``alpha``; the target services
requests serially (``rpc_service_gap`` each, tracked with a busy-until
clock per rank — modeling the GASNet progress path rather than stealing the
target generator's time, a simplification documented in DESIGN.md); the
response reaches the caller after another ``alpha`` plus payload
serialization at the async bandwidth share.  Deep incoming queues enter the
degraded regime via :meth:`NetworkModel.rpc_overload_extra` (amortized per
request), producing the Figure-7 hump in micro runs too.

Handlers run at *service* time, not issue time: a handler that reads
mutable simulated state observes it as of the moment the target's progress
engine reaches the request (the historical bug evaluated handlers at issue
time, seeing state from before queued-ahead requests were served).

Fault tolerance: when the owning :class:`SpmdContext` carries a
:class:`repro.faults.FaultInjector`, each response may be dropped, delayed,
or duplicated.  The layer then arms a per-attempt timeout; an unanswered
call is retransmitted with exponential backoff and deterministic seeded
jitter, up to ``rpc_max_retries`` times before a typed
:class:`repro.errors.RpcTimeoutError` (or :class:`RankFailureError` when
the target is permanently dead).  Every call carries an idempotency token
(``call_id``); whichever response copy arrives first wins and later
duplicates are dropped, so a caller consumes *exactly one* response per
call no matter how messy the network was — alignment results under any
fault plan match the fault-free run.

Callers enforce their outstanding-request window themselves (issue, and
when the window is full consume one response first) — exactly how the
paper's implementation bounds in-flight memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.errors import RankFailureError, RpcTimeoutError, SimulationError
from repro.runtime.context import SpmdContext
from repro.runtime.queues import SimQueue

__all__ = ["RpcLayer", "RpcResponse"]


@dataclass(frozen=True)
class RpcResponse:
    """What lands in the caller's inbox when an RPC completes."""

    target: int
    token: Any
    value: Any
    nbytes: float
    issued_at: float
    completed_at: float
    #: how many transmissions this call needed (1 = no retries)
    attempts: int = 1

    @property
    def latency(self) -> float:
        return self.completed_at - self.issued_at


class RpcLayer:
    """Rank-to-rank asynchronous remote procedure calls."""

    def __init__(self, ctx: SpmdContext, faults: object | None = None):
        self.ctx = ctx
        self.inboxes = [
            SimQueue(ctx.engine, name=f"rpc-inbox-{r}")
            for r in range(ctx.num_ranks)
        ]
        self._handlers: list[Callable | None] = [None] * ctx.num_ranks
        self._busy_until = np.zeros(ctx.num_ranks)
        self._served = np.zeros(ctx.num_ranks)
        self.total_calls = 0
        self.faults = faults if faults is not None else ctx.faults
        plan = getattr(self.faults, "plan", None)
        net = ctx.machine.network
        self.timeout = (
            plan.rpc_timeout
            if plan is not None and plan.rpc_timeout is not None
            else ctx.net.suggested_rpc_timeout()
        )
        self.max_retries = plan.rpc_max_retries if plan is not None else 0
        self.backoff_base = (
            plan.rpc_backoff
            if plan is not None and plan.rpc_backoff is not None
            else 10.0 * net.rtt
        )
        self._watchdogs_armed = bool(
            plan is not None and plan.message_faults_possible
        )
        #: under membership churn a departed rank's partition stays
        #: readable (the grace-window checkpoint, or a surviving delegate,
        #: keeps serving it) — reads must not starve on the owner's death
        self.serve_departed = bool(
            plan is not None and getattr(plan, "has_churn", False)
        )
        self._next_call_id = 0
        self._completed: set[int] = set()
        #: aggregate fault-path statistics (surfaced in RunResult.details)
        self.retries = 0
        self.timeouts = 0
        self.dups_dropped = 0

    def register(self, rank: int, handler: Callable[[Any], tuple[Any, float]]) -> None:
        """Install rank's handler: ``token -> (value, response_bytes)``."""
        self._handlers[rank] = handler

    def injection_cost(self) -> float:
        """Caller-side CPU cost of issuing one request (charge as comm)."""
        net = self.ctx.machine.network
        return net.msg_gap + net.msg_overhead

    def call(self, caller: int, target: int, token: Any) -> None:
        """Issue an async request; the response will appear in the caller's
        inbox.  The caller should separately advance
        :meth:`injection_cost` seconds (its own injection work)."""
        if self._handlers[target] is None:
            raise SimulationError(f"rank {target} has no RPC handler")
        if caller == target:
            raise SimulationError("RPC to self; local reads need no pull")
        self.total_calls += 1
        call_id = self._next_call_id
        self._next_call_id += 1
        engine = self.ctx.engine
        issued_at = engine.now
        if self.ctx.tracer is not None:
            self.ctx.tracer.instant(caller, "rpc_issue", issued_at,
                                    target=target, token=token)
        if self.ctx.metrics is not None:
            self.ctx.metrics.inc("rpc_issued", caller)
        self._attempt(caller, target, token, call_id, issued_at, attempt=0)

    # -- one transmission attempt ------------------------------------------

    def _attempt(self, caller: int, target: int, token: Any,
                 call_id: int, issued_at: float, attempt: int) -> None:
        net = self.ctx.machine.network
        engine = self.ctx.engine
        faults = self.faults
        tracer = self.ctx.tracer
        metrics = self.ctx.metrics
        now = engine.now

        latency_scale = (faults.schedule.latency_factor(now)
                         if faults is not None else 1.0)
        arrival = now + net.alpha * latency_scale

        # serial service at the target (progress-path clock)
        start = max(arrival, self._busy_until[target])
        service = net.rpc_service_gap + net.msg_overhead
        if faults is not None:
            service *= faults.schedule.straggle_factor(target, start)
        self._served[target] += 1
        if self._served[target] > net.rpc_overload_threshold:
            service += net.rpc_overload_cost
        self._busy_until[target] = start + service

        def deliver(payload: tuple[Any, float]) -> None:
            value, nbytes = payload
            if call_id in self._completed:
                # duplicate or late copy: dropped by the idempotency token
                self.dups_dropped += 1
                if metrics is not None:
                    metrics.inc("rpc_dup_dropped", caller)
                if tracer is not None:
                    tracer.instant(caller, "rpc_dup_dropped", engine.now,
                                   target=target, call_id=call_id)
                return
            self._completed.add(call_id)
            inbox = self.inboxes[caller]
            if inbox.closed:
                return  # the caller is gone (killed rank); drop quietly
            if tracer is not None:
                tracer.instant(caller, "rpc_callback", engine.now,
                               target=target, token=token, nbytes=nbytes,
                               latency=engine.now - issued_at)
            inbox.put(
                RpcResponse(
                    target=target,
                    token=token,
                    value=value,
                    nbytes=nbytes,
                    issued_at=issued_at,
                    completed_at=engine.now,
                    attempts=attempt + 1,
                )
            )

        def do_service(_arg) -> None:
            # a dead target never services the request; the caller's
            # watchdog notices via the timeout path (under churn the
            # checkpointed partition remains readable — keep serving)
            if (faults is not None and not self.serve_departed
                    and faults.schedule.dead(target, engine.now)):
                return
            # the handler observes simulated state *at service time*
            value, nbytes = self._handlers[target](token)
            if metrics is not None:
                metrics.inc("rpc_served", target)
                metrics.inc("rpc_bytes", caller, nbytes)
            transfer = nbytes / self.ctx.net.async_rank_bw()
            if faults is not None:
                transfer *= faults.schedule.link_dilation(engine.now)
            reply_delay = (
                service
                + net.alpha * (faults.schedule.latency_factor(engine.now)
                               if faults is not None else 1.0)
                + transfer
            )
            fate, extra = ("deliver", 0.0)
            if faults is not None:
                fate, extra = faults.rpc_fate()
            if fate != "deliver":
                if tracer is not None:
                    tracer.instant(caller, "fault_inject", engine.now,
                                   kind=f"rpc_{fate}", target=target,
                                   call_id=call_id, attempt=attempt)
                if metrics is not None:
                    metrics.inc("faults_injected", caller)
            if fate == "drop":
                return  # lost in the network; the watchdog retransmits
            if fate == "delay":
                reply_delay += extra
            copies = 2 if fate == "duplicate" else 1
            for _copy in range(copies):
                engine._schedule(reply_delay, deliver, (value, nbytes))

        engine._schedule(start - now, do_service, None)

        if self._watchdogs_armed:
            self._arm_watchdog(caller, target, token, call_id,
                               issued_at, attempt)

    # -- timeout / retry ----------------------------------------------------

    def _arm_watchdog(self, caller: int, target: int, token: Any,
                      call_id: int, issued_at: float, attempt: int) -> None:
        engine = self.ctx.engine
        tracer = self.ctx.tracer
        metrics = self.ctx.metrics
        faults = self.faults

        def watchdog(_arg) -> None:
            if call_id in self._completed:
                return  # answered in time; nothing to do
            if self.inboxes[caller].closed:
                return  # the caller itself died; no one to retry for
            self.timeouts += 1
            if tracer is not None:
                tracer.instant(caller, "rpc_timeout", engine.now,
                               target=target, call_id=call_id,
                               attempt=attempt)
            if metrics is not None:
                metrics.inc("rpc_timeouts", caller)
            if (faults is not None and not self.serve_departed
                    and faults.schedule.dead(target, engine.now)):
                death = faults.schedule.death_time(target)
                raise RankFailureError(
                    f"rank {target} died at t={death:.6g}s; RPC call "
                    f"{call_id} from rank {caller} timed out with no "
                    f"possible responder"
                )
            if attempt >= self.max_retries:
                raise RpcTimeoutError(
                    f"RPC call {call_id} (rank {caller} -> rank {target}) "
                    f"exhausted {self.max_retries} retries "
                    f"(timeout {self.timeout:.6g}s per attempt)"
                )
            backoff = (
                faults.backoff(self.backoff_base, attempt)
                if faults is not None
                else self.backoff_base * (2.0 ** attempt)
            )
            self.retries += 1
            if tracer is not None:
                tracer.instant(caller, "rpc_retry", engine.now,
                               target=target, call_id=call_id,
                               attempt=attempt + 1,
                               backoff=backoff)
            if metrics is not None:
                metrics.inc("rpc_retries", caller)

            def reissue(_arg) -> None:
                if call_id in self._completed:
                    return  # a late copy arrived during the backoff
                self._attempt(caller, target, token, call_id,
                              issued_at, attempt + 1)

            engine._schedule(backoff, reissue, None)

        engine._schedule(self.timeout, watchdog, None)

    def served(self, rank: int) -> int:
        """Requests this rank has serviced so far."""
        return int(self._served[rank])
