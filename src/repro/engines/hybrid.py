"""The hybrid engine: aggregated asynchronous pulls (§5).

The paper's §5 anticipates that "a hybrid of the two approaches — issuing
asynchronous but *aggregated* requests — may suit high-latency networks":
keep the async code's one-sided pull structure and callback compute, but
coalesce pulls destined for the same owner into batches of
``hybrid_aggregation`` reads per RPC.  Fewer messages amortize injection
and service gaps (the BSP advantage) while the split-phase barrier and
callback overlap are retained (the async advantage).

The model is the shared pull model of :mod:`repro.engines.common` with two
deltas against the plain ``async`` engine:

* the RPC service model runs at ``lookups / aggregation`` messages — that
  is where the win comes from;
* each batch waits until it *fills* before it can be injected: a rank
  issuing ``B`` batches pays ``B * (aggregation - 1)`` extra injection
  gaps of accumulation stall, and in-flight staging memory grows by the
  batch factor.  At ``hybrid_aggregation=1`` both deltas vanish and the
  engine degenerates to ``async`` exactly.

This file is also the registry's proof of extensibility: a complete fifth
engine that only names its model parameters, with zero edits to the
driver API or the CLI (see ``docs/ARCHITECTURE.md``).
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

__all__ = ["HybridEngine"]


@register_engine("hybrid", description="asynchronous pulls aggregated into "
                                       "batched RPCs (§5)")
@dataclass
class HybridEngine:
    """Macro-granularity simulator of §5's aggregated-async strategy."""

    config: EngineConfig = field(default_factory=EngineConfig)
    name: str = "hybrid"

    def run(self, assignment: WorkloadAssignment,
            machine: MachineSpec,
            tracer: Tracer | None = None,
            metrics: MetricsRegistry | None = None,
            faults=None) -> RunResult:
        # fewer, larger messages through the same service model — but a
        # batch must fill before it injects, and each window slot stages a
        # whole batch, not a single read
        agg = float(self.config.hybrid_aggregation)
        return run_pull_engine(
            self.name, self.config, assignment, machine, agg=agg,
            batch_fill_stall=True, window_factor=agg,
            extra_details=lambda phases: {
                "aggregation": int(agg),
                "rpc_messages": float(phases.messages.sum()),
            },
            tracer=tracer, metrics=metrics, faults=faults,
        )
