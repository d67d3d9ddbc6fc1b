"""Per-rank counter registry and phase-time accumulators.

:class:`PhaseTimers` sums each rank's seconds in the four breakdown
categories (:data:`CATEGORIES`); every engine and the micro runtime charge
time through it.  It sits here, below both, so the runtime never imports
the engines package.

Counters complement the trace: where phase events answer *when* time went
somewhere, counters answer *how much* traffic and work each rank handled —
messages issued and serviced, bytes moved, alignment cells computed, and
high-water marks like outstanding-window occupancy.  Rollups use the same
min/avg/max/sum vocabulary as the paper's per-rank timing reductions.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.utils.stats import Summary, summarize

__all__ = ["MetricsRegistry", "PhaseTimers", "CATEGORIES"]

CATEGORIES = ("compute_align", "compute_overhead", "comm", "sync")


class PhaseTimers:
    """Per-rank accumulators for the four timing categories."""

    def __init__(self, num_ranks: int):
        self.num_ranks = num_ranks
        # the four rows share one allocation
        rows = np.zeros((len(CATEGORIES), num_ranks), dtype=np.float64)
        self._t = dict(zip(CATEGORIES, rows))

    def add(self, category: str, rank: int, seconds: float) -> None:
        if category not in self._t:
            raise SimulationError(f"unknown timing category {category!r}")
        if seconds < 0:
            raise SimulationError(f"negative time for {category!r}: {seconds}")
        self._t[category][rank] += seconds

    def add_array(self, category: str, seconds: np.ndarray) -> None:
        """Add one value per rank (a scalar adds to every rank);
        round-off negatives down to -1e-12 s count as zero, anything
        below raises."""
        row = self._t.get(category)
        if row is None:
            raise SimulationError(f"unknown timing category {category!r}")
        arr = np.asarray(seconds, dtype=np.float64)
        low = arr.min(initial=0.0)
        if low < 0.0:
            if low < -1e-12:
                raise SimulationError(f"negative time array for {category!r}")
            arr = np.maximum(arr, 0.0)
        row += arr

    def get(self, category: str) -> np.ndarray:
        return self._t[category]

    def per_rank_total(self) -> np.ndarray:
        return sum(self._t.values())


class MetricsRegistry:
    """Named per-rank counters, created lazily on first touch."""

    def __init__(self, num_ranks: int):
        if num_ranks < 1:
            raise ConfigurationError("metrics registry needs >= 1 rank")
        self.num_ranks = num_ranks
        self._counters: dict[str, np.ndarray] = {}

    def _array(self, name: str) -> np.ndarray:
        arr = self._counters.get(name)
        if arr is None:
            arr = np.zeros(self.num_ranks, dtype=np.float64)
            self._counters[name] = arr
        return arr

    def inc(self, name: str, rank: int, value: float = 1.0) -> None:
        """Add ``value`` to counter ``name`` on ``rank``."""
        self._array(name)[rank] += value

    def add_array(self, name: str, values) -> None:
        """Add a per-rank vector at once (macro engines)."""
        self._array(name)[:] += np.asarray(values, dtype=np.float64)

    def merge_scalars(self, prefix: str, values: dict, rank: int = 0) -> None:
        """Fold a flat dict of scalar counters in under ``prefix``.

        Used for *real wall-clock* accounting that has no per-rank
        structure — e.g. the process-backend executor's
        dispatch/wait/merge split and per-worker timings
        (``exec_dispatch_s``, ``exec_wait_s``, ``exec_merge_s``,
        ``exec_w0_align_wall_s``, ...) or the auto backend's probe
        measurements.  Non-numeric values
        are skipped, so callers can pass a stats dict verbatim.
        """
        for name, value in values.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            self.inc(f"{prefix}{name}", rank, float(value))

    def observe_max(self, name: str, rank: int, value: float) -> None:
        """Track a high-water mark (e.g. window occupancy)."""
        arr = self._array(name)
        if value > arr[rank]:
            arr[rank] = value

    def get(self, name: str) -> np.ndarray:
        """Per-rank values for one counter (zeros if never touched)."""
        return self._array(name)

    def names(self) -> list[str]:
        return sorted(self._counters)

    def summary(self, name: str) -> Summary:
        return summarize(self._array(name))

    def snapshot(self) -> dict[str, np.ndarray]:
        """Copies of every counter, keyed by name."""
        return {k: v.copy() for k, v in sorted(self._counters.items())}

    def rows(self) -> list[list]:
        """``[name, min, avg, max, sum]`` rows for table rendering."""
        out = []
        for name in self.names():
            s = self.summary(name)
            out.append([
                name, f"{s.min:.6g}", f"{s.avg:.6g}",
                f"{s.max:.6g}", f"{s.sum:.6g}",
            ])
        return out
