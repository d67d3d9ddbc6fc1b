"""Shared engine configuration and modes.

``ExecutionMode.COMM_ONLY`` reproduces the paper's §4.3 instrumentation: "a
mode that executes everything *except* the pairwise alignment computation",
implemented in **both** codes for communication-focused benchmarking
(Figure 7).  Data-structure traversal overheads remain in that mode — the
requests still have to be issued and the buffers walked.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from numbers import Integral, Real

from repro.errors import ConfigurationError
from repro.runtime.executor import BACKENDS

__all__ = ["ExecutionMode", "EngineConfig", "check_int"]


class ExecutionMode(enum.Enum):
    """What the engines execute."""

    #: full application: communication + alignment computation
    FULL = "full"
    #: §4.3: everything except the alignment kernel (absolute latency mode)
    COMM_ONLY = "comm_only"


def check_int(name: str, value, least: int | None = None) -> None:
    """Raise unless ``value`` is an integer (not a bool), ``>= least``."""
    if ((type(value) is not int
         and (isinstance(value, bool) or not isinstance(value, Integral)))
            or (least is not None and value < least)):
        bound = "" if least is None else f" >= {least}"
        raise ConfigurationError(
            f"{name} must be an integer{bound}, got {value!r}"
        )


#: the integer fields of :class:`EngineConfig` and their least value
_INT_FIELDS = {"async_window": 1, "async_aggregation": 1,
               "hybrid_aggregation": 1, "seed": 0, "workers": 1}
#: the real-valued fields, stored as ``float``
_FLOAT_FIELDS = ("exchange_memory_fraction", "noise_fraction")


@dataclass(frozen=True)
class EngineConfig:
    """The engine knobs a caller sets.

    The model's calibration (§4.6 traversal overheads, the multi-round
    exchange efficiency, the async visible-communication floor) is fixed:
    it lives as constants in :mod:`repro.engines.common`.

    Parameters
    ----------
    mode : full run or communication-only (Figure 7).
    exchange_memory_fraction : fraction of a rank's free memory budget the
        BSP engine may devote to exchange receive buffers when sizing its
        dynamically-sized supersteps (§3.1).
    async_window : cap on outstanding RPCs per rank (§3.2/§4.3).
    async_aggregation : number of remote-read pulls coalesced into one RPC
        (1 = the paper's implementation; >1 implements the aggregation the
        paper's §5 anticipates for high-latency networks: fewer, larger
        messages at the cost of per-message latency amortization).
    hybrid_aggregation : batch size of the ``hybrid`` engine's aggregated
        asynchronous pulls (§5): pulls to the same owner coalesce into one
        RPC of this many reads.  1 degenerates to the plain async engine.
    noise_fraction : OS-noise dilation mean for non-isolated runs (Fig. 3).
    seed : RNG seed for the noise model.
    backend : compute backend for the micro engines' real-kernel batches
        (``"serial"``, ``"process"`` or ``"auto"``, see
        :mod:`repro.runtime.executor` and docs/PARALLEL.md).  ``auto``
        resolves to one of the other two before the run: the pool when
        the process may use two CPUs or more and the workload is large
        enough to pay for it, serial otherwise.  Affects only real
        wall-clock — results and simulated times are bit-identical across
        backends.
    workers : chunks each kernel call is split into on the process's one
        worker pool (>= 1; ignored by ``serial``).  The pool itself has a
        worker per usable CPU whatever this is.  For ``auto``, the default
        1 means one chunk per usable CPU; any value > 1 is used as-is.
    """

    mode: ExecutionMode = ExecutionMode.FULL
    exchange_memory_fraction: float = 0.40
    async_window: int = 64
    async_aggregation: int = 1
    hybrid_aggregation: int = 16
    noise_fraction: float = 0.015
    seed: int = 0
    backend: str = "serial"
    workers: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.mode, ExecutionMode):
            raise ConfigurationError(
                f"mode must be an ExecutionMode, got {self.mode!r} "
                f"(a service request sets comm_only instead)"
            )
        for name, least in _INT_FIELDS.items():
            check_int(name, getattr(self, name), least)
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if type(value) is not float and (isinstance(value, bool)
                                             or not isinstance(value, Real)):
                raise ConfigurationError(
                    f"{name} must be a real number, got {value!r}"
                )
            # one cache key for 0 and 0.0
            object.__setattr__(self, name, float(value))
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"backend must be one of {list(BACKENDS)}, got {self.backend!r}"
            )
        if not 0 < self.exchange_memory_fraction <= 1:
            raise ConfigurationError("exchange_memory_fraction must be in (0,1]")
        if not 0 <= self.noise_fraction < math.inf:
            raise ConfigurationError(
                "noise_fraction must be finite and >= 0 (mean fractional "
                "OS-noise dilation per phase)"
            )

    def comm_only(self) -> "EngineConfig":
        return replace(self, mode=ExecutionMode.COMM_ONLY)
