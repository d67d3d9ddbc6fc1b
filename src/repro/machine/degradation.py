"""Time-windowed network/rank degradation schedules and cluster membership.

Real interconnects do not fail cleanly: links lose bandwidth for a while
(congestion, adaptive-routing storms, a flapping optical lane), individual
ranks straggle (thermal throttling, OS interference bursts), and at the
paper's scale (512 Cori nodes, multi-hour runs) a rank occasionally dies
outright.  Production clusters also change *membership* mid-run: spot
semantics evict ranks with a warning window, and elastic allocations add
ranks to a job already underway.  This module holds the *machine-side*
description of those anomalies — when a window is open, how much it dilates
time, and who is a member when — while :mod:`repro.faults` decides *which*
anomalies a given run experiences.

All factors are multiplicative time dilations (``>= 1`` slows things down):
``LinkWindow`` scales transfer time (inverse bandwidth) and message latency
inside ``[start, end)``; ``StraggleWindow`` dilates one rank's busy time
inside its window; ``RankKill`` removes a rank permanently at ``time``.
Windows may overlap — overlapping dilations multiply (the documented
precedence), the worst case on a real dragonfly where congestion and lane
failure compound.

Membership events change who is alive:

* ``RankJoin`` — the rank is *absent from the start* and joins at ``time``;
* ``RankEviction`` — the rank receives an eviction notice at ``time``,
  keeps working through a ``grace`` window (checkpointing its unfinished
  work for handoff), and departs at ``time + grace``.  ``grace=0``
  degenerates to :class:`RankKill` at the notice time: nothing can be
  checkpointed, the work is simply lost to the survivors to redo.

:meth:`DegradationSchedule.membership_events` is the one ordered stream of
those events that every engine and ``repro faults validate`` reads: equal
times apply joins, then evictions, then kills.
:meth:`DegradationSchedule.check_machine` is the one check that a schedule
fits a machine; the engines call it before any simulated time passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError, RankFailureError

__all__ = [
    "LinkWindow",
    "StraggleWindow",
    "RankKill",
    "RankJoin",
    "RankEviction",
    "MembershipEvent",
    "DegradationSchedule",
]


def _check_window(start: float, end: float, what: str) -> None:
    if start < 0 or end <= start:
        raise ConfigurationError(
            f"{what} window must satisfy 0 <= start < end "
            f"(got [{start}, {end}))"
        )


@dataclass(frozen=True)
class LinkWindow:
    """Bandwidth/latency degradation of the whole fabric over a window.

    ``bandwidth_factor`` is the fraction of nominal bandwidth available in
    ``[start, end)`` (0.5 = half speed, i.e. transfers take 2x as long);
    ``latency_factor`` multiplies per-message latency in the same window.
    """

    start: float
    end: float
    bandwidth_factor: float = 1.0
    latency_factor: float = 1.0

    def __post_init__(self) -> None:
        _check_window(self.start, self.end, "link degradation")
        if not 0 < self.bandwidth_factor <= 1:
            raise ConfigurationError(
                f"bandwidth_factor must be in (0, 1] (got {self.bandwidth_factor})"
            )
        if self.latency_factor < 1:
            raise ConfigurationError(
                f"latency_factor must be >= 1 (got {self.latency_factor})"
            )


@dataclass(frozen=True)
class StraggleWindow:
    """One rank's busy time dilated by ``factor`` inside ``[start, end)``."""

    rank: int
    start: float
    end: float
    factor: float

    def __post_init__(self) -> None:
        _check_window(self.start, self.end, "straggler")
        if self.rank < 0:
            raise ConfigurationError(f"straggler rank must be >= 0 (got {self.rank})")
        if self.factor < 1:
            raise ConfigurationError(
                f"straggle factor must be >= 1 (got {self.factor})"
            )

    @property
    def clause(self) -> str:
        return (f"straggle={self.factor:g}@r{self.rank}:"
                f"{self.start:g}:{self.end:g}")


@dataclass(frozen=True)
class RankKill:
    """Rank ``rank`` dies permanently at simulated ``time``."""

    rank: int
    time: float

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ConfigurationError(f"killed rank must be >= 0 (got {self.rank})")
        if self.time < 0:
            raise ConfigurationError(f"kill time must be >= 0 (got {self.time})")

    @property
    def clause(self) -> str:
        return f"kill=r{self.rank}@{self.time:g}"


@dataclass(frozen=True)
class RankJoin:
    """Rank ``rank`` is absent from the start and joins at simulated ``time``.

    A join at ``time=0`` is rejected: a rank present from the beginning is
    just a regular member, not a join — spelling it as one would silently
    change nothing.
    """

    rank: int
    time: float

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ConfigurationError(f"joining rank must be >= 0 (got {self.rank})")
        if self.time <= 0:
            raise ConfigurationError(
                f"join time must be > 0 (got {self.time}); a rank joining "
                f"at t=0 is an ordinary initial member, not a join"
            )

    @property
    def clause(self) -> str:
        return f"join=r{self.rank}@{self.time:g}"


@dataclass(frozen=True)
class RankEviction:
    """Rank ``rank`` is notified at ``time`` and departs at ``time + grace``.

    During the grace window the rank keeps working and checkpoints its
    unfinished task ranges for handoff (spot-instance semantics).  A
    ``grace`` of 0 degenerates to :class:`RankKill` at ``time``: no
    checkpoint can be written, so survivors redo the lost work instead of
    receiving a migration.
    """

    rank: int
    time: float
    grace: float = 0.0

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ConfigurationError(f"evicted rank must be >= 0 (got {self.rank})")
        if self.time < 0:
            raise ConfigurationError(
                f"eviction time must be >= 0 (got {self.time})"
            )
        if self.grace < 0:
            raise ConfigurationError(
                f"eviction grace must be >= 0 (got {self.grace})"
            )

    @property
    def clause(self) -> str:
        return f"evict=r{self.rank}@{self.time:g}:grace={self.grace:g}"

    @property
    def departure(self) -> float:
        """When the evicted rank actually leaves: notice + grace."""
        return self.time + self.grace


@dataclass(frozen=True)
class MembershipEvent:
    """One change (or announced change) in the alive set.

    ``kind`` is ``"join"``, ``"evict_notice"``, ``"evict_depart"`` or
    ``"kill"``.  Notices do not change membership by themselves; they mark
    the start of a grace window.
    """

    time: float
    kind: str
    rank: int
    #: grace seconds for eviction events, 0.0 otherwise
    grace: float = 0.0


#: the tie-break of equal-time membership events: joins first, then
#: evictions (a notice and a departure alike — one rank's two never share
#: a time), then kills
_KIND_ORDER = {"join": 0, "evict_notice": 1, "evict_depart": 1, "kill": 2}


@dataclass(frozen=True)
class DegradationSchedule:
    """Queryable view over degradation windows, kills, and membership churn."""

    links: tuple[LinkWindow, ...] = ()
    stragglers: tuple[StraggleWindow, ...] = ()
    kills: tuple[RankKill, ...] = ()
    joins: tuple[RankJoin, ...] = ()
    evictions: tuple[RankEviction, ...] = ()

    def __post_init__(self) -> None:
        seen: set[int] = set()
        for kill in self.kills:
            if kill.rank in seen:
                raise ConfigurationError(
                    f"rank {kill.rank} is killed more than once"
                )
            seen.add(kill.rank)
        evicted: set[int] = set()
        for ev in self.evictions:
            if ev.rank in evicted:
                raise ConfigurationError(
                    f"rank {ev.rank} is evicted more than once"
                )
            evicted.add(ev.rank)
        # a rank cannot be both killed and evicted: the eviction already
        # removes it, and a kill landing during (or after) its grace window
        # has no defined meaning in this model — reject loudly instead of
        # picking a silent precedence
        both = seen & evicted
        if both:
            r = min(both)
            raise ConfigurationError(
                f"rank {r} is both evicted and killed; a rank can leave "
                f"only once — drop one of the clauses (use kill for an "
                f"unannounced death, evict for a graced departure)"
            )
        joined: set[int] = set()
        for j in self.joins:
            if j.rank in joined:
                raise ConfigurationError(
                    f"rank {j.rank} joins more than once"
                )
            joined.add(j.rank)
        # a joining rank may later be killed or evicted (a spot instance
        # that arrives and is later reclaimed), but only strictly after it
        # joined — dying before arriving is a contradiction
        for kill in self.kills:
            join = self._join_of(kill.rank)
            if join is not None and kill.time <= join.time:
                raise ConfigurationError(
                    f"rank {kill.rank} is killed at t={kill.time:g} but "
                    f"only joins at t={join.time:g}; a rank cannot die "
                    f"before it arrives"
                )
        for ev in self.evictions:
            join = self._join_of(ev.rank)
            if join is not None and ev.time <= join.time:
                raise ConfigurationError(
                    f"rank {ev.rank} is evicted at t={ev.time:g} but "
                    f"only joins at t={join.time:g}; a rank cannot be "
                    f"evicted before it arrives"
                )

    def check_machine(self, num_ranks: int) -> None:
        """Reject a schedule that does not fit a machine of ``num_ranks``.

        Every rank a join, eviction, kill or straggle clause names must
        exist (:class:`ConfigurationError` naming the clause), and at
        least one rank must start the job rather than join it
        (:class:`RankFailureError`).
        """
        for item in (*self.joins, *self.evictions, *self.kills,
                     *self.stragglers):
            if item.rank >= num_ranks:
                raise ConfigurationError(
                    f"fault clause '{item.clause}' names rank {item.rank}, "
                    f"but the machine has {num_ranks} ranks "
                    f"(0..{num_ranks - 1})"
                )
        # joins name distinct ranks, all in range by now
        if len(self.joins) == num_ranks:
            raise RankFailureError(
                "no initial members: every rank of the machine joins "
                "mid-run; at least one rank must start the job"
            )

    def _join_of(self, rank: int) -> RankJoin | None:
        for j in self.joins:
            if j.rank == rank:
                return j
        return None

    # -- link state ---------------------------------------------------------

    def link_dilation(self, t: float) -> float:
        """Instantaneous transfer-time multiplier at ``t`` (>= 1)."""
        dil = 1.0
        for w in self.links:
            if w.start <= t < w.end:
                dil /= w.bandwidth_factor
        return dil

    def latency_factor(self, t: float) -> float:
        """Instantaneous message-latency multiplier at ``t`` (>= 1)."""
        f = 1.0
        for w in self.links:
            if w.start <= t < w.end:
                f *= w.latency_factor
        return f

    def mean_link_dilation(self, t0: float, t1: float) -> float:
        """Average transfer-time multiplier over ``[t0, t1]``.

        Used by the macro engines, which charge whole communication phases
        analytically rather than event by event.  Computed exactly by
        splitting the interval at window boundaries.
        """
        if t1 <= t0:
            return self.link_dilation(t0)
        cuts = {t0, t1}
        for w in self.links:
            if w.start < t1 and w.end > t0:
                cuts.add(max(t0, w.start))
                cuts.add(min(t1, w.end))
        points = sorted(cuts)
        total = 0.0
        for a, b in zip(points, points[1:]):
            total += self.link_dilation(0.5 * (a + b)) * (b - a)
        return total / (t1 - t0)

    # -- rank state ---------------------------------------------------------

    def straggle_factor(self, rank: int, t: float) -> float:
        """Instantaneous busy-time multiplier for ``rank`` at ``t``."""
        f = 1.0
        for w in self.stragglers:
            if w.rank == rank and w.start <= t < w.end:
                f *= w.factor
        return f

    def mean_straggle_factor(self, rank: int, t0: float, t1: float) -> float:
        """Average busy-time multiplier for ``rank`` over ``[t0, t1]``."""
        if t1 <= t0:
            return self.straggle_factor(rank, t0)
        cuts = {t0, t1}
        for w in self.stragglers:
            if w.rank == rank and w.start < t1 and w.end > t0:
                cuts.add(max(t0, w.start))
                cuts.add(min(t1, w.end))
        points = sorted(cuts)
        total = 0.0
        for a, b in zip(points, points[1:]):
            total += self.straggle_factor(rank, 0.5 * (a + b)) * (b - a)
        return total / (t1 - t0)

    def death_time(self, rank: int) -> float | None:
        """When ``rank`` dies, or ``None`` if it never does."""
        for kill in self.kills:
            if kill.rank == rank:
                return kill.time
        return None

    def dead(self, rank: int, t: float) -> bool:
        """Is ``rank`` dead at simulated time ``t``?"""
        dt = self.death_time(rank)
        return dt is not None and t >= dt

    def deaths_before(self, t: float) -> list[RankKill]:
        """All kills effective at or before ``t``, ordered by death time."""
        return sorted((k for k in self.kills if k.time <= t),
                      key=lambda k: (k.time, k.rank))

    # -- membership timeline -------------------------------------------------

    @property
    def has_churn(self) -> bool:
        """True when membership changes beyond plain kills are scheduled."""
        return bool(self.joins) or bool(self.evictions)

    def join_time(self, rank: int) -> float | None:
        """When ``rank`` joins, or ``None`` if present from the start."""
        j = self._join_of(rank)
        return None if j is None else j.time

    def departure_time(self, rank: int) -> float | None:
        """When ``rank`` leaves for good (kill time or eviction departure).

        ``None`` for ranks that stay to the end.
        """
        dt = self.death_time(rank)
        if dt is not None:
            return dt
        for ev in self.evictions:
            if ev.rank == rank:
                return ev.departure
        return None

    def eviction_of(self, rank: int) -> RankEviction | None:
        """The eviction scheduled for ``rank``, if any."""
        for ev in self.evictions:
            if ev.rank == rank:
                return ev
        return None

    def alive(self, rank: int, t: float) -> bool:
        """Is ``rank`` a member of the job at simulated time ``t``?

        A rank is alive from its join time (0 for initial members),
        inclusive, until its departure time (kill or eviction departure),
        exclusive-at-departure in the sense that at ``t == departure`` the
        rank is already gone — matching :meth:`dead` for plain kills.
        """
        jt = self.join_time(rank)
        if jt is not None and t < jt:
            return False
        dt = self.departure_time(rank)
        return dt is None or t < dt

    def alive_mask(self, t: float, num_ranks: int):
        """Boolean numpy mask of shape ``(num_ranks,)``: alive at ``t``."""
        return np.fromiter(
            (self.alive(r, t) for r in range(num_ranks)),
            dtype=bool,
            count=num_ranks,
        )

    def membership_events(self) -> list[MembershipEvent]:
        """All membership events, ordered by time, then join < evict <
        kill, then rank: the order every engine applies them in.

        Eviction notices and departures appear as separate events; a
        ``grace=0`` eviction collapses to a single ``evict_depart`` (the
        notice would be simultaneous and carries no information).
        """
        events: list[MembershipEvent] = []
        for j in self.joins:
            events.append(MembershipEvent(j.time, "join", j.rank))
        for k in self.kills:
            events.append(MembershipEvent(k.time, "kill", k.rank))
        for ev in self.evictions:
            if ev.grace > 0:
                events.append(
                    MembershipEvent(ev.time, "evict_notice", ev.rank, ev.grace)
                )
            events.append(
                MembershipEvent(ev.departure, "evict_depart", ev.rank, ev.grace)
            )
        events.sort(key=lambda e: (e.time, _KIND_ORDER[e.kind], e.rank))
        return events

    def next_membership_change(self, t: float) -> float | None:
        """Earliest membership-*changing* event time strictly after ``t``.

        Notices are excluded — membership only changes at joins, kills,
        and eviction departures.
        """
        times = [
            e.time
            for e in self.membership_events()
            if e.kind != "evict_notice" and e.time > t
        ]
        return min(times) if times else None
