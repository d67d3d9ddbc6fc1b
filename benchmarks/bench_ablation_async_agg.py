"""Ablation: message aggregation in the async engine (paper §5 future work).

"On a high-latency network however, we would expect more aggregation to be
necessary — but how much more depends also on the computation costs."  We
implement coalesced pulls (k reads per RPC) and sweep k in comm-only mode
on a *latency-bound* workload — a protein-search-like dataset with ~250-
character sequences (§2 names protein search as a sibling Generalized
N-Body problem) — on the normal Aries model and on a 500x-latency variant.
The Human CCS workload is bandwidth-bound, so there aggregation only helps
through service-queue relief; with short sequences the per-message and
window-throughput terms dominate and aggregation is decisive.
"""

import dataclasses

from conftest import emit, run_once

from repro.core.api import get_workload, make_machine, run_alignment
from repro.engines.base import EngineConfig

AGGREGATION = (1, 4, 16, 64)
NODES = 64


def sweep():
    wl = get_workload("protein_search", seed=0)
    machine = make_machine(NODES)
    hi_latency = dataclasses.replace(
        machine,
        network=dataclasses.replace(
            machine.network, alpha=machine.network.alpha * 500,
            msg_gap=machine.network.msg_gap * 20,
            rpc_service_gap=machine.network.rpc_service_gap * 20,
        ),
    )
    rows = []
    for k in AGGREGATION:
        cfg = EngineConfig(async_aggregation=k).comm_only()
        normal = run_alignment(wl, NODES, "async", cfg, machine=machine)
        slow = run_alignment(wl, NODES, "async", cfg, machine=hi_latency)
        rows.append([
            k,
            round(float(normal.details["raw_comm"].mean()), 4),
            round(float(slow.details["raw_comm"].mean()), 4),
        ])
    return {
        "title": f"Ablation: async pull aggregation, protein-search comm-only, "
                 f"{NODES} nodes",
        "columns": ["reads_per_rpc", "latency_s", "latency_s_500x_alpha"],
        "rows": rows,
    }


def test_ablation_async_aggregation(benchmark):
    fig = run_once(benchmark, sweep)
    emit("ablation_async_agg", fig)
    rows = fig["rows"]
    # aggregation never hurts, and on the low-latency Aries model its
    # effect is marginal...
    assert rows[-1][1] <= rows[0][1] * 1.001
    # ...but the high-latency network punishes unaggregated pulls hard and
    # aggregation recovers most of it — "more aggregation is necessary" (§5)
    assert rows[0][2] > 1.5 * rows[0][1]
    assert rows[-1][2] < 0.6 * rows[0][2]
