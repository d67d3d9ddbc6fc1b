"""The time-conservation checker.

Every simulated rank is always in exactly one state — computing (alignment
or overhead), visibly communicating, or waiting — so for any run the four
breakdown categories must *tile* the wall clock on every rank::

    compute_align + compute_overhead + comm + sync == wall_time   (per rank)

This is the invariant the paper's stacked bars (Figures 8–10) depend on;
accounting drift (a phase charged twice, a wait never recorded, a barrier
that silently no-ops) breaks it.  The checker validates the invariant at
two independent levels:

* :func:`check_breakdown` — against a run's :class:`RuntimeBreakdown`
  accumulators (what the engines *summed*);
* :func:`check_trace` — against the emitted :class:`PhaseEvent` stream
  (what the engines *said they did*, re-summed per rank from the trace).

A traced run passing both proves the accumulators and the event stream
agree with each other *and* with the wall clock.  :func:`assert_conserved`
raises :class:`repro.errors.AccountingError` with the worst offender named.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AccountingError
from repro.obs.tracer import Tracer

__all__ = ["ConservationReport", "check_breakdown", "check_trace",
           "assert_conserved"]


@dataclass(frozen=True)
class ConservationReport:
    """Outcome of one conservation check."""

    source: str              #: ``"breakdown"`` or ``"trace"``
    wall_time: float
    per_rank_total: np.ndarray
    max_abs_deviation: float
    worst_rank: int
    ok: bool

    def describe(self) -> str:
        state = "OK" if self.ok else "VIOLATED"
        return (
            f"conservation {state} [{self.source}]: "
            f"{len(self.per_rank_total)} rank(s), wall {self.wall_time:.6g}s, "
            f"max deviation {self.max_abs_deviation:.3e}s "
            f"(rank {self.worst_rank})"
        )


def _report(source: str, wall_time: float, totals: np.ndarray,
            rtol: float, atol: float) -> ConservationReport:
    totals = np.asarray(totals, dtype=np.float64)
    dev = np.abs(totals - wall_time)
    worst = int(dev.argmax()) if len(dev) else 0
    ok = bool(np.allclose(totals, wall_time, rtol=rtol, atol=atol))
    return ConservationReport(
        source=source,
        wall_time=wall_time,
        per_rank_total=totals,
        max_abs_deviation=float(dev.max(initial=0.0)),
        worst_rank=worst,
        ok=ok,
    )


def check_breakdown(breakdown, rtol: float = 1e-6,
                    atol: float = 1e-9) -> ConservationReport:
    """Check category accumulators against the wall clock.

    ``breakdown`` is any object with ``per_rank_total`` and ``wall_time``
    (duck-typed to avoid importing the engines from the observability
    layer) — in practice a :class:`repro.engines.report.RuntimeBreakdown`.
    """
    return _report("breakdown", breakdown.wall_time,
                   breakdown.per_rank_total, rtol, atol)


def check_trace(tracer: Tracer, wall_time: float,
                num_ranks: int | None = None, pid: int | None = None,
                rtol: float = 1e-6, atol: float = 1e-9) -> ConservationReport:
    """Re-sum phase events per rank and check they tile the wall clock.

    ``pid`` restricts the check to one run inside a multi-run tracer
    (default: the tracer's current run).  ``num_ranks`` fixes the expected
    lane count; by default the lanes observed in the trace are used — pass
    it explicitly to also catch ranks that emitted *no* events (their sum,
    zero, only tiles a zero wall clock).
    """
    if pid is None:
        pid = max(tracer.current_pid, 0)
    if num_ranks is None:
        ranks = tracer.ranks(pid)
    else:
        ranks = list(range(num_ranks))
    index = {r: i for i, r in enumerate(ranks)}
    totals = np.zeros(len(ranks), dtype=np.float64)
    for event in tracer.phase_events(pid):
        i = index.get(event.rank)
        if i is not None:
            totals[i] += event.duration
    report = _report("trace", wall_time, totals, rtol, atol)
    if ranks != list(range(len(ranks))):
        # non-contiguous lanes: remap worst_rank to the real lane id
        report = ConservationReport(
            source=report.source, wall_time=report.wall_time,
            per_rank_total=report.per_rank_total,
            max_abs_deviation=report.max_abs_deviation,
            worst_rank=ranks[report.worst_rank] if ranks else 0,
            ok=report.ok,
        )
    return report


def assert_conserved(*reports: ConservationReport) -> None:
    """Raise :class:`AccountingError` naming the first failing report."""
    for report in reports:
        if not report.ok:
            raise AccountingError(report.describe())
