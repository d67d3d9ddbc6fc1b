"""The asynchronous engine (§3.2).

Tasks are indexed under their remote read; each rank issues asynchronous
pull RPCs (bounded outstanding window) for every distinct remote read it
needs, and the alignments involving a read run from the arrival callback —
communication is hidden behind computation rather than amortized by
aggregation.  A split-phase barrier overlaps the tasks whose reads are both
local with barrier entry; a single exit barrier keeps partitions available
until all ranks finish.

Timeline of one run (macro model, per rank ``r``)::

    [ local-pair compute // split-phase barrier ]      (overlap, §3.2)
    [ pull + remote compute: max(comm_r, compute_r) ]  (overlap)
    [ wait at exit barrier (sync) ]

Visible communication per rank is the part of its pull time that compute
could not cover — ``max(0, comm_r - compute_r)`` — which is how the paper's
stacked bars report the async code (Figures 8-10): "Async successfully
hides most of its communication latency".  Memory stays bounded: the window
holds at most ``async_window`` in-flight reads (Figure 11's flat <256 MB
line).

The pull model itself (phase costs, timeline, memory, fault adjustments)
and the run body that charges it live in :mod:`repro.engines.common`,
shared with the ``hybrid`` engine; this module only names the model's
parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engines.base import EngineConfig
from repro.engines.common import run_pull_engine
from repro.engines.registry import register_engine
from repro.engines.report import RunResult
from repro.machine.config import MachineSpec
from repro.obs import MetricsRegistry, Tracer
from repro.pipeline.workload import WorkloadAssignment

__all__ = ["AsyncEngine"]


@register_engine("async", description="asynchronous one-sided pulls with "
                                      "callback compute (§3.2)")
@dataclass
class AsyncEngine:
    """Macro-granularity simulator of the asynchronous implementation."""

    config: EngineConfig = field(default_factory=EngineConfig)
    name: str = "async"

    def run(self, assignment: WorkloadAssignment,
            machine: MachineSpec,
            tracer: Tracer | None = None,
            metrics: MetricsRegistry | None = None,
            faults=None) -> RunResult:
        # aggregation coalesces ``k`` pulls into one message (same bytes,
        # fewer per-message costs and a shallower service queue); the
        # window holds single in-flight reads
        return run_pull_engine(
            self.name, self.config, assignment, machine,
            agg=float(self.config.async_aggregation),
            batch_fill_stall=False, window_factor=1.0,
            tracer=tracer, metrics=metrics, faults=faults,
        )
