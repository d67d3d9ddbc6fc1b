"""OS / system-overhead noise model.

Figure 3 compares 64 application cores (4 cores isolating system overhead)
against all 68 cores: the extra cores buy slightly more compute throughput,
but the OS then preempts application ranks, and the induced straggling is
absorbed as extra *synchronization* time, cancelling the gain.

The model: when no cores are isolated, every timed phase of every rank is
dilated by an independent random factor ``1 + E`` where ``E`` is
exponentially distributed with mean ``noise_fraction``; bulk-synchronous
phases then complete at the *max* dilation across ranks, which grows with
rank count — exactly the mechanics of OS jitter on Cori described in the
paper and in Ellis et al. 2017 [10].  With isolation on, phases pass
through unperturbed (deterministic).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.machine.config import MachineSpec
from repro.utils.rng import RngFactory

__all__ = ["NoiseModel"]


@dataclass
class NoiseModel:
    """Per-rank multiplicative phase dilation for non-isolated runs."""

    machine: MachineSpec
    rngs: RngFactory
    #: mean fractional dilation per phase when the OS shares app cores.
    noise_fraction: float = 0.03

    @property
    def active(self) -> bool:
        return not self.machine.system_isolated

    def factors(self, num_ranks: int, phase_key: int = 0) -> np.ndarray:
        """Per-rank dilation factors (all ones when isolation is on).

        Both engines apply the *same* factor realization for a given
        ``phase_key``: the OS interference pattern belongs to the machine
        allocation, not to the programming model, which is what makes the
        two codes comparable within 0.1% on one node (Figure 3).
        """
        if not self.active or self.noise_fraction <= 0:
            return np.ones(num_ranks)
        rng = self.rngs.stream("noise", phase_key)
        return 1.0 + rng.exponential(self.noise_fraction, size=num_ranks)
