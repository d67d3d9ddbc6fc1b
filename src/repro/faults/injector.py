"""Deterministic, seeded realization of a :class:`FaultPlan`.

The injector is the single source of randomness for everything that goes
wrong in a run.  All draws come from :class:`repro.utils.rng.RngFactory`
streams namespaced under dedicated fault domains, so

* the same ``(plan, seed)`` always injects the identical fault sequence —
  wall clocks, retry counts, and traces are bit-reproducible; and
* fault randomness never perturbs the workload/noise streams: adding a
  fault plan to a run leaves the underlying work identical, which is what
  makes fault-free vs faulty comparisons (the CLI's degradation report)
  meaningful.

One injector serves exactly one engine run.  Engines each construct a fresh
injector from the same plan and seed, so BSP and Async experience the same
adversary — the paper's methodology of comparing both codes on identical
inputs, extended to identical bad luck.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.utils.rng import RngFactory

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.faults.plan import FaultPlan
    from repro.machine.degradation import RankKill

__all__ = ["FaultInjector", "DELIVER", "DROP", "DELAY", "DUPLICATE"]

#: RPC response fates (returned by :meth:`FaultInjector.rpc_fate`)
DELIVER = "deliver"
DROP = "drop"
DELAY = "delay"
DUPLICATE = "duplicate"

#: ceiling on repeated attempts of one BSP exchange round — a run under an
#: absurd plan (``xchg_drop=0.99``) still terminates with bounded inflation
MAX_EXCHANGE_ATTEMPTS = 8


class FaultInjector:
    """Stateful fault oracle for one engine run."""

    def __init__(self, plan: "FaultPlan", seed: int | RngFactory = 0):
        self.plan = plan
        self.rngs = seed if isinstance(seed, RngFactory) else RngFactory(seed)
        self.schedule = plan.schedule
        self._rpc_rng = self.rngs.stream("fault-rpc")
        self._jitter_rng = self.rngs.stream("fault-jitter")
        self._exchange_cache: dict[int, int] = {}
        #: injected-fault counts by kind (rpc_drop, rpc_delay, rpc_dup,
        #: exchange_drop, straggle, degrade, kill)
        self.injected: dict[str, int] = {}

    def _count(self, kind: str, n: int = 1) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + n

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    # -- message-level faults ----------------------------------------------

    def rpc_fate(self) -> tuple[str, float]:
        """Fate of one RPC response: ``(kind, delay_seconds)``.

        Draws are consumed in simulation order, which the discrete-event
        engine makes deterministic.
        """
        plan = self.plan
        if not (plan.drop_prob or plan.delay_prob or plan.dup_prob):
            return DELIVER, 0.0
        u = float(self._rpc_rng.random())
        if u < plan.drop_prob:
            self._count("rpc_drop")
            return DROP, 0.0
        if u < plan.drop_prob + plan.delay_prob:
            self._count("rpc_delay")
            return DELAY, plan.delay_seconds
        if u < plan.drop_prob + plan.delay_prob + plan.dup_prob:
            self._count("rpc_dup")
            return DUPLICATE, 0.0
        return DELIVER, 0.0

    def backoff(self, base: float, attempt: int) -> float:
        """Exponential backoff with deterministic jitter before retry
        ``attempt`` (0-based)."""
        jitter = self.plan.rpc_backoff_jitter
        span = base * (2.0 ** attempt)
        if jitter <= 0:
            return span
        return span * (1.0 + jitter * (2.0 * float(self._jitter_rng.random()) - 1.0))

    def exchange_attempts(self, round_idx: int) -> int:
        """How many attempts BSP exchange round ``round_idx`` needs.

        Cached per round and drawn from a round-keyed stream, so every rank
        of a micro run observes the same answer regardless of the order in
        which ranks ask — the retried collective stays a collective.
        """
        cached = self._exchange_cache.get(round_idx)
        if cached is not None:
            return cached
        p = self.plan.exchange_drop_prob
        attempts = 1
        if p > 0:
            rng = self.rngs.stream("fault-exchange", round_idx)
            while attempts < MAX_EXCHANGE_ATTEMPTS and float(rng.random()) < p:
                attempts += 1
            if attempts > 1:
                self._count("exchange_drop", attempts - 1)
        self._exchange_cache[round_idx] = attempts
        return attempts

    def rank_rpc_fault_counts(self, rank: int, n_calls: int) -> tuple[int, int, int]:
        """(drops, delays, dups) among ``n_calls`` RPCs issued by ``rank``.

        The macro engines charge fault costs analytically per rank instead
        of simulating each message; a rank-keyed stream keeps the counts
        independent of evaluation order.
        """
        if n_calls <= 0:
            return 0, 0, 0
        plan = self.plan
        if not (plan.drop_prob or plan.delay_prob or plan.dup_prob):
            return 0, 0, 0
        rng = self.rngs.stream("fault-macro-rpc", rank)
        drops = int(rng.binomial(n_calls, plan.drop_prob))
        delays = int(rng.binomial(n_calls, plan.delay_prob))
        dups = int(rng.binomial(n_calls, plan.dup_prob))
        if drops:
            self._count("rpc_drop", drops)
        if delays:
            self._count("rpc_delay", delays)
        if dups:
            self._count("rpc_dup", dups)
        return drops, delays, dups

    # -- rank death --------------------------------------------------------

    def note_kill(self, rank: int) -> None:
        """Record a rank death the engine just honored (for the injected
        counts; the kill itself is deterministic plan state, not a draw)."""
        self._count("kill")

    def first_death_before(self, t: float) -> "RankKill | None":
        deaths = self.schedule.deaths_before(t)
        return deaths[0] if deaths else None

    # -- membership churn (deterministic plan state, counted when honored) -

    def note_join(self, rank: int) -> None:
        """Record a rank join the engine just honored."""
        self._count("join")

    def note_evict(self, rank: int) -> None:
        """Record an eviction departure the engine just honored."""
        self._count("evict")

    def note_migration(self, n_tasks: int = 1) -> None:
        """Record checkpointed task migrations (handoffs, not redos)."""
        if n_tasks > 0:
            self._count("migrate", n_tasks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FaultInjector(plan={self.plan.describe()!r}, "
                f"seed={self.rngs.seed})")
