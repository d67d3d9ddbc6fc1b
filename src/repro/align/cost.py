"""Alignment cost model: DP cells -> seconds on one Cori KNL core.

The discrete-event simulation needs per-task compute times without actually
running 87.6M pure-Python alignments.  This module provides

* a **cell rate** for the SeqAn X-drop kernel on a KNL core, calibrated so
  the paper's absolute anchors hold: *E. coli* 30x takes ~1 hour on one KNL
  core (2,270,260 tasks, §4.1) and *E. coli* 100x ~7 hours (24,869,171
  tasks);
* an analytic **cells-per-task estimator** from task geometry (read lengths,
  true-overlap length, X-drop band width, early termination), validated
  against the real numpy kernel on synthetic data in the test suite;
* per-dataset **mean task costs** derived from the anchors, used to scale
  the statistical workloads' cost distributions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.units import HOUR, US

__all__ = ["AlignmentCostModel", "KNL_CELL_RATE", "MEAN_TASK_COST"]

#: DP cells per second for the SeqAn X-drop kernel on one KNL core.
#: Chosen with the band model below so that the E. coli anchors hold.
KNL_CELL_RATE = 45.0e6

#: Paper §4.1 absolute anchors: (total single-core seconds, task count).
_ANCHORS = {
    "ecoli30x": (1.0 * HOUR, 2_270_260),
    "ecoli100x": (7.0 * HOUR, 24_869_171),
}

#: Mean per-task alignment cost (seconds, one KNL core) per dataset.
#: E. coli values follow directly from the anchors; Human CCS is
#: extrapolated from its longer (~12.4 kb), more accurate CCS reads, whose
#: X-drop extensions run further before dropping.
MEAN_TASK_COST = {
    "ecoli30x": _ANCHORS["ecoli30x"][0] / _ANCHORS["ecoli30x"][1],    # ~1.59 ms
    "ecoli100x": _ANCHORS["ecoli100x"][0] / _ANCHORS["ecoli100x"][1],  # ~1.01 ms
    "human_ccs": 2.3e-3,
}


@dataclass(frozen=True)
class AlignmentCostModel:
    """Map alignment work to simulated KNL-core seconds.

    Parameters
    ----------
    cell_rate : DP cells/second of the production (SeqAn) kernel.
    x_drop, match_score : kernel parameters; the live antidiagonal window of
        a well-matching extension is ~``x_drop / match_score`` cells wide
        (score must fall X below best, and each off-path step loses at least
        the match reward), so band width grows linearly with X (§4.2 calls
        X out as a cost driver).
    per_task_overhead : data structure traversal + kernel invocation
        overhead per task ("Computation (Overhead)" in Figures 3-4, 13);
        engine-specific values override this (flat arrays vs pointer-based
        containers, §4.6).
    """

    cell_rate: float = KNL_CELL_RATE
    x_drop: int = 15
    match_score: int = 1
    per_task_overhead: float = 8.0 * US

    @property
    def band_width(self) -> float:
        """Approximate live-window width (cells) of an on-track extension.

        The 1.2 factor is an empirical fit against the numpy X-drop kernel
        on synthetic true overlaps at raw-long-read error rates (validated
        in ``tests/test_align_cost.py``); the width scales linearly with
        ``X`` as §4.2 of the paper implies.
        """
        return 1.2 * self.x_drop / self.match_score + 3.0

    def cells_to_seconds(self, cells: float | np.ndarray) -> float | np.ndarray:
        """Pure kernel time for a given number of DP cells."""
        return np.asarray(cells, dtype=np.float64) / self.cell_rate

    def estimate_cells(
        self,
        overlap_len: float | np.ndarray,
        early_terminated: bool | np.ndarray = False,
        false_positive_cells: float = 600.0,
    ) -> np.ndarray:
        """Estimated DP cells for a task.

        True overlaps sweep the band along the overlap: ``band * overlap``
        cells (both directions combined — ``overlap_len`` is the total
        aligned length).  False positives die after a few antidiagonals:
        a small constant (``false_positive_cells``).
        """
        overlap_len = np.asarray(overlap_len, dtype=np.float64)
        true_cells = self.band_width * overlap_len
        return np.where(np.asarray(early_terminated, dtype=bool),
                        false_positive_cells, true_cells)

    def task_seconds(
        self,
        overlap_len: float | np.ndarray,
        early_terminated: bool | np.ndarray = False,
    ) -> np.ndarray:
        """Total simulated seconds for tasks (kernel only, no overhead)."""
        cells = self.estimate_cells(overlap_len, early_terminated)
        return np.asarray(self.cells_to_seconds(cells), dtype=np.float64)

    def mean_task_cost(self, dataset: str) -> float:
        """Calibrated mean per-task cost for a named dataset."""
        return MEAN_TASK_COST[dataset]
