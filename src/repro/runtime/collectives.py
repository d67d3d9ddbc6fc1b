"""Rendezvous-based collectives for micro (message-level) SPMD programs.

Semantics match the blocking MPI collectives of the paper's BSP code:

* :meth:`Collectives.barrier` — all ranks wait for the last arrival plus
  the dissemination-tree latency;
* :meth:`Collectives.allreduce` — barrier-shaped rendezvous carrying a
  value reduced with a user operator;
* :meth:`Collectives.alltoallv` — irregular personalized exchange of real
  payload lists with modeled timing: the collective starts when the last
  rank arrives and completes for everyone after the modeled exchange
  duration; each rank's *personal* send/recv cost counts as communication
  and the remainder (skew + waiting on the slowest) as synchronization —
  the same accounting the macro BSP engine uses;
* :meth:`Collectives.split_barrier_enter` / :meth:`split_barrier_wait` —
  the UPC++ split-phase barrier of the async code (§3.2): enter is
  non-blocking, wait completes once all ranks have entered.  Like the
  rendezvous points, split barriers are *reusable*: firing starts a fresh
  generation, so the same tag synchronizes again on the next
  enter/wait cycle (a rank must wait before re-entering a tag).

All generators are driven with ``yield from`` inside rank programs.  When
the context carries a :class:`~repro.obs.tracer.Tracer`, every rendezvous
arrival/release and split-barrier transition emits an instant event, and
all waiting/transfer time lands in the trace as phase events via
:meth:`SpmdContext.record` / :meth:`SpmdContext.charge`.
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.errors import SimulationError
from repro.runtime.context import SpmdContext

__all__ = ["Collectives"]


class _Rendezvous:
    """One reusable all-ranks meeting point (per tag)."""

    def __init__(self, ctx: SpmdContext, tag: str):
        self.ctx = ctx
        self.tag = tag
        self.reset()

    def reset(self) -> None:
        self.arrived = 0
        self.payloads: dict[int, Any] = {}
        self.event = self.ctx.engine.event(f"rendezvous-{self.tag}")

    def arrive(self, rank: int, payload: Any = None):
        """Generator: deposit payload, wait for the last arrival.

        Returns ``(wait_seconds, all_payloads, release_event_value)``.
        """
        if rank in self.payloads:
            raise SimulationError(
                f"rank {rank} entered rendezvous {self.tag!r} twice"
            )
        self.payloads[rank] = payload
        self.arrived += 1
        arrival_time = self.ctx.engine.now
        if self.ctx.tracer is not None:
            self.ctx.tracer.instant(
                rank, "rendezvous_arrival", arrival_time,
                tag=self.tag, arrived=self.arrived,
            )
        if self.arrived == self.ctx.num_ranks:
            if self.ctx.tracer is not None:
                self.ctx.tracer.instant(
                    rank, "rendezvous_release", arrival_time, tag=self.tag
                )
            payloads = self.payloads
            event = self.event
            self.reset()
            event.succeed((self.ctx.engine.now, payloads))
            _last, payloads = event.value
            return 0.0, payloads
        event = self.event
        yield event
        t_last, payloads = event.value
        return t_last - arrival_time, payloads


class _SplitBarrier:
    """One reusable split-phase barrier (per tag).

    Firing starts a fresh *generation* — the historical bug here was never
    resetting after the release event fired, which made every later barrier
    on the same tag a silent no-op (it completed immediately without
    synchronizing).  Each rank's ``enter`` pins the generation event it
    joined, so a rank can still ``wait`` on generation *g* after faster
    ranks have begun generation *g+1*.
    """

    def __init__(self, ctx: SpmdContext, tag: str):
        self.ctx = ctx
        self.tag = tag
        self.generation = 0
        self.count = 0
        self.event = ctx.engine.event(f"split-{tag}-g0")
        #: rank -> release event of the generation that rank entered
        self.entered: dict[int, Any] = {}

    def enter(self, rank: int) -> None:
        if rank in self.entered:
            raise SimulationError(
                f"rank {rank} re-entered split barrier {self.tag!r} "
                f"before waiting on it"
            )
        self.entered[rank] = self.event
        self.count += 1
        if self.ctx.tracer is not None:
            self.ctx.tracer.instant(
                rank, "split_barrier_enter", self.ctx.engine.now,
                tag=self.tag, generation=self.generation,
                entered=self.count,
            )
        if self.count == self.ctx.num_ranks:
            event = self.event
            self.generation += 1
            self.count = 0
            self.event = self.ctx.engine.event(
                f"split-{self.tag}-g{self.generation}"
            )
            event.succeed(self.ctx.engine.now)

    def wait(self, rank: int):
        event = self.entered.pop(rank, None)
        if event is None:
            raise SimulationError(
                f"split barrier {self.tag!r} waited before enter"
            )
        t0 = self.ctx.engine.now
        if not event.fired:
            yield event
        self.ctx.record("sync", rank, self.ctx.engine.now - t0,
                        name=f"split-barrier-wait:{self.tag}")
        if self.ctx.tracer is not None:
            self.ctx.tracer.instant(
                rank, "split_barrier_release", self.ctx.engine.now,
                tag=self.tag,
            )
        yield self.ctx.charge("sync", rank, self.ctx.net.barrier_time(),
                              name=f"split-barrier:{self.tag}")


class Collectives:
    """Collective operations bound to one SPMD context."""

    def __init__(self, ctx: SpmdContext):
        self.ctx = ctx
        self._points: dict[str, _Rendezvous] = {}
        self._split_state: dict[str, _SplitBarrier] = {}

    def _point(self, tag: str) -> _Rendezvous:
        point = self._points.get(tag)
        if point is None:
            point = _Rendezvous(self.ctx, tag)
            self._points[tag] = point
        return point

    # -- barrier -------------------------------------------------------------

    def barrier(self, rank: int, tag: str = "barrier"):
        """Blocking barrier; waiting time is charged as synchronization."""
        wait, _ = yield from self._point(tag).arrive(rank)
        # `wait` already elapsed while blocked in the rendezvous: record it
        # without advancing the clock again, then pay the tree latency
        self.ctx.record("sync", rank, wait, name=f"barrier-wait:{tag}")
        yield self.ctx.charge("sync", rank, self.ctx.net.barrier_time(),
                              name=f"barrier:{tag}")

    # -- allreduce -------------------------------------------------------------

    def allreduce(self, rank: int, value: Any,
                  op: Callable[[Any, Any], Any] = lambda a, b: a + b,
                  tag: str = "allreduce"):
        """Reduce ``value`` across ranks; returns the reduction everywhere."""
        wait, payloads = yield from self._point(tag).arrive(rank, value)
        self.ctx.record("sync", rank, wait, name=f"allreduce-wait:{tag}")
        yield self.ctx.charge("sync", rank, self.ctx.net.allreduce_time(),
                              name=f"allreduce:{tag}")
        result = None
        for r in sorted(payloads):
            result = payloads[r] if result is None else op(result, payloads[r])
        return result

    # -- split-phase barrier ----------------------------------------------------

    def _split(self, tag: str) -> "_SplitBarrier":
        state = self._split_state.get(tag)
        if state is None:
            state = _SplitBarrier(self.ctx, tag)
            self._split_state[tag] = state
        return state

    def split_barrier_enter(self, rank: int, tag: str = "split") -> None:
        """Non-blocking barrier entry (phase 1 of the UPC++ split barrier)."""
        self._split(tag).enter(rank)

    def split_barrier_wait(self, rank: int, tag: str = "split"):
        """Phase 2: wait until every rank has entered; wait time is sync."""
        yield from self._split(tag).wait(rank)

    # -- irregular all-to-all -----------------------------------------------------

    def alltoallv(self, rank: int, send: dict[int, list], send_bytes: float,
                  recv_bytes_hint: float | None = None,
                  tag: str = "alltoallv",
                  efficiency_scale: float = 1.0):
        """Exchange per-destination payload lists; returns received items.

        ``send`` maps destination rank -> list of (item, nbytes) tuples.
        Returns the flat list of (item, nbytes) this rank received.  The
        timing model is shared with the macro engine: the collective ends
        ``alltoallv_time(max_send, max_recv, sources)`` after the last
        arrival; this rank's personal volume cost is communication, the
        rest synchronization.
        """
        wait, payloads = yield from self._point(tag).arrive(rank, send)

        # gather what everyone sent to whom (identical result on all ranks
        # because payloads are shared through the rendezvous)
        recv_items: list = []
        recv_bytes = 0.0
        per_rank_send = np.zeros(self.ctx.num_ranks)
        per_rank_recv = np.zeros(self.ctx.num_ranks)
        source_counts = np.zeros(self.ctx.num_ranks)
        for src, mapping in payloads.items():
            for dst, items in mapping.items():
                if not items:
                    continue
                nbytes = float(sum(b for _, b in items))
                per_rank_send[src] += nbytes
                per_rank_recv[dst] += nbytes
                source_counts[dst] += 1
                if dst == rank:
                    recv_items.extend(items)
                    recv_bytes += nbytes

        avg_sources = max(1.0, float(source_counts.mean()))
        # injected link degradation slows the exchange for everyone: fold
        # the window's time dilation into the efficiency scale
        eff = efficiency_scale
        if self.ctx.faults is not None:
            eff = efficiency_scale / self.ctx.faults.schedule.link_dilation(
                self.ctx.engine.now
            )
        duration = self.ctx.net.alltoallv_time(
            per_rank_send.max(initial=0.0),
            per_rank_recv.max(initial=0.0),
            avg_sources,
            efficiency_scale=eff,
        )
        personal = min(
            duration,
            self.ctx.net.alltoallv_rank_time(
                send_bytes, recv_bytes, avg_sources,
                efficiency_scale=eff,
            ),
        )
        self.ctx.record("sync", rank, wait,  # elapsed in rendezvous
                        name=f"alltoallv-wait:{tag}")
        yield self.ctx.charge("comm", rank, personal,
                              name=f"alltoallv:{tag}")
        yield self.ctx.charge("sync", rank, duration - personal,
                              name=f"alltoallv-skew:{tag}")
        metrics = self.ctx.metrics
        if metrics is not None:
            metrics.inc("coll_messages", rank,
                        sum(1 for items in send.values() if items))
            metrics.inc("bytes_sent", rank, send_bytes)
            metrics.inc("bytes_recv", rank, recv_bytes)
        return recv_items

    def alltoallv_resilient(self, rank: int, send: dict[int, list],
                            send_bytes: float, round_idx: int,
                            tag: str = "alltoallv",
                            efficiency_scale: float = 1.0):
        """An :meth:`alltoallv` that retries when the fault plan fails it.

        The context's fault injector decides — identically on every rank,
        from a round-keyed stream — how many attempts round ``round_idx``
        needs.  Failed attempts pay the full exchange cost (the collective
        ran, then a lost contribution invalidated it) and their received
        data is discarded; only the final attempt's payload is returned.
        """
        faults = self.ctx.faults
        attempts = faults.exchange_attempts(round_idx) if faults is not None else 1
        for a in range(attempts - 1):
            if self.ctx.tracer is not None:
                self.ctx.tracer.instant(
                    rank, "exchange_retry", self.ctx.engine.now,
                    tag=tag, round=round_idx, attempt=a + 1,
                )
            if self.ctx.metrics is not None:
                self.ctx.metrics.inc("exchange_retries", rank)
            yield from self.alltoallv(
                rank, send, send_bytes, tag=f"{tag}!a{a}",
                efficiency_scale=efficiency_scale,
            )
        result = yield from self.alltoallv(
            rank, send, send_bytes, tag=tag,
            efficiency_scale=efficiency_scale,
        )
        return result
