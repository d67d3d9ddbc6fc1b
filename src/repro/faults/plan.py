"""Declarative fault plans.

A :class:`FaultPlan` is a frozen, validated description of every anomaly a
run should experience — message-level faults (drop/delay/duplicate RPC
responses, failed exchange rounds), time-windowed link degradation, rank
stragglers, and permanent rank deaths — plus the retry policy the runtime
uses to absorb them.  Plans carry no randomness themselves: pairing a plan
with a seed in :class:`repro.faults.FaultInjector` produces the concrete,
bit-reproducible fault realization.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.machine.degradation import (
    DegradationSchedule,
    LinkWindow,
    RankEviction,
    RankJoin,
    RankKill,
    StraggleWindow,
)

__all__ = ["FaultPlan"]


def _check_prob(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ConfigurationError(f"{name} must be in [0, 1] (got {value})")


@dataclass(frozen=True)
class FaultPlan:
    """Everything that can go wrong in one run, and how hard to fight it.

    Message-level faults
    --------------------
    drop_prob : probability an RPC response is lost in the network (the
        caller's timeout/retry machinery recovers it).
    delay_prob / delay_seconds : probability a response is delayed, and by
        how long.  A delay pushing the response past the caller's timeout
        triggers a retransmission; the late original is then deduplicated.
    dup_prob : probability a response is delivered twice (retransmission
        race); the second copy is dropped by per-call idempotency tokens.
    exchange_drop_prob : probability one BSP exchange superstep attempt
        fails and the round must be retried wholesale.

    Windowed degradation (see :mod:`repro.machine.degradation`)
    -----------------------------------------------------------
    links : bandwidth/latency degradation windows over the whole fabric.
    stragglers : per-rank busy-time dilation windows.
    kills : permanent rank deaths.

    Membership churn (see :mod:`repro.machine.degradation`)
    -------------------------------------------------------
    joins : ranks absent from the start that join mid-run; their initial
        work share is loaned to the initial members and migrated back when
        they arrive.
    evictions : announced departures.  During the grace window the rank
        keeps working and checkpoints unfinished task ranges for handoff;
        ``grace=0`` degenerates to a :class:`RankKill`.  Evictions are
        inherently graceful and never require ``redistribute``.

    Reaction policy
    ---------------
    redistribute : on rank death, surviving ranks absorb the dead rank's
        remaining work (macro engines only) instead of the run aborting
        with :class:`repro.errors.RankFailureError`.
    rpc_timeout : seconds before an unanswered RPC is retransmitted
        (``None`` = derive from the network model).
    rpc_max_retries : retransmissions before :class:`RpcTimeoutError`.
    rpc_backoff : base backoff before the first retry; doubles per attempt
        (``None`` = derive from the network round trip).
    rpc_backoff_jitter : +/- fraction of deterministic seeded jitter applied
        to each backoff so retry storms decorrelate across ranks.
    """

    drop_prob: float = 0.0
    delay_prob: float = 0.0
    delay_seconds: float = 0.0
    dup_prob: float = 0.0
    exchange_drop_prob: float = 0.0
    links: tuple[LinkWindow, ...] = ()
    stragglers: tuple[StraggleWindow, ...] = ()
    kills: tuple[RankKill, ...] = ()
    joins: tuple[RankJoin, ...] = ()
    evictions: tuple[RankEviction, ...] = ()
    redistribute: bool = False
    rpc_timeout: float | None = None
    rpc_max_retries: int = 4
    rpc_backoff: float | None = None
    rpc_backoff_jitter: float = 0.25
    #: original spec string, when parsed from one (display only)
    source: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        _check_prob(self.drop_prob, "drop_prob")
        _check_prob(self.delay_prob, "delay_prob")
        _check_prob(self.dup_prob, "dup_prob")
        _check_prob(self.exchange_drop_prob, "exchange_drop_prob")
        if self.drop_prob + self.delay_prob + self.dup_prob > 1.0:
            raise ConfigurationError(
                "drop_prob + delay_prob + dup_prob must not exceed 1"
            )
        if self.delay_prob > 0 and self.delay_seconds <= 0:
            raise ConfigurationError(
                "delay_prob > 0 requires a positive delay_seconds"
            )
        if self.delay_seconds < 0:
            raise ConfigurationError("delay_seconds must be >= 0")
        if self.rpc_timeout is not None and self.rpc_timeout <= 0:
            raise ConfigurationError("rpc_timeout must be positive")
        if self.rpc_max_retries < 0:
            raise ConfigurationError("rpc_max_retries must be >= 0")
        if self.rpc_backoff is not None and self.rpc_backoff < 0:
            raise ConfigurationError("rpc_backoff must be >= 0")
        if not 0.0 <= self.rpc_backoff_jitter < 1.0:
            raise ConfigurationError("rpc_backoff_jitter must be in [0, 1)")
        # materialize the schedule once; also validates windows/kills/churn
        object.__setattr__(
            self, "_schedule",
            DegradationSchedule(self.links, self.stragglers, self.kills,
                                self.joins, self.evictions),
        )

    @property
    def schedule(self) -> DegradationSchedule:
        """The windowed-degradation view of this plan."""
        return self._schedule  # type: ignore[attr-defined]

    @property
    def message_faults_possible(self) -> bool:
        """Do RPCs need timeout/retry machinery under this plan?"""
        return bool(
            self.drop_prob > 0
            or self.delay_prob > 0
            or self.dup_prob > 0
            or self.kills
        )

    @property
    def has_churn(self) -> bool:
        """Does this plan change cluster membership beyond plain kills?

        The macro engines walk joins, evictions and kills as one
        membership event stream whatever this says; it only decides
        whether a result reports a ``churn`` section.  The micro engines
        still run a separate churn simulation when it is set.
        """
        return bool(self.joins) or bool(self.evictions)

    @property
    def active(self) -> bool:
        """Does this plan inject anything at all?"""
        return bool(
            self.message_faults_possible
            or self.exchange_drop_prob > 0
            or self.links
            or self.stragglers
            or self.has_churn
        )

    def describe(self) -> str:
        if self.source:
            return self.source
        parts = []
        if self.drop_prob:
            parts.append(f"drop={self.drop_prob:g}")
        if self.delay_prob:
            parts.append(f"delay={self.delay_prob:g}:{self.delay_seconds:g}s")
        if self.dup_prob:
            parts.append(f"dup={self.dup_prob:g}")
        if self.exchange_drop_prob:
            parts.append(f"xchg_drop={self.exchange_drop_prob:g}")
        parts.extend(
            f"degrade={w.bandwidth_factor:g}@{w.start:g}:{w.end:g}"
            for w in self.links
        )
        parts.extend(c.clause for c in (*self.stragglers, *self.kills,
                                        *self.joins, *self.evictions))
        if self.redistribute:
            parts.append("redistribute")
        return ",".join(parts) if parts else "<no faults>"
