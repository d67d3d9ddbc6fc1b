"""Ablation: BSP superstep sizing vs the memory budget (DESIGN.md §5).

Sweeps the fraction of free memory the BSP engine may devote to exchange
buffers on a memory-tight Human CCS run (16 nodes). Smaller budgets force
more rounds; each extra round pays setup, a barrier, and worse buffering
efficiency — quantifying the paper's §3.1 memory/bandwidth-utilization
coupling.
"""

from conftest import emit, run_once

from repro.core.api import get_workload, run_alignment
from repro.engines.base import EngineConfig

FRACTIONS = (0.05, 0.1, 0.2, 0.4, 0.8, 1.0)
NODES = 16


def sweep():
    wl = get_workload("human_ccs", seed=0)
    rows = []
    for frac in FRACTIONS:
        res = run_alignment(
            wl, NODES, "bsp", EngineConfig(exchange_memory_fraction=frac))
        rows.append([
            frac, res.exchange_rounds, round(res.wall_time, 2),
            round(100 * res.breakdown.fractions()["comm"], 1),
            round(res.max_memory_per_rank / 1e6, 0),
        ])
    return {
        "title": f"Ablation: BSP round sizing, Human CCS on {NODES} nodes",
        "columns": ["memory_fraction", "rounds", "wall_s", "comm_%",
                    "max_mem_MB"],
        "rows": rows,
    }


def test_ablation_round_size(benchmark):
    fig = run_once(benchmark, sweep)
    emit("ablation_round_size", fig)
    rows = fig["rows"]
    rounds = [r[1] for r in rows]
    walls = [r[2] for r in rows]
    mems = [r[4] for r in rows]
    # smaller budget -> more rounds, slower, but less memory
    assert rounds[0] > rounds[-1]
    assert walls[0] > walls[-1]
    assert mems[0] < mems[-1]
