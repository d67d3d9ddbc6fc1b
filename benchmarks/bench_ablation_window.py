"""Ablation: the async outstanding-request window (DESIGN.md §5).

The paper bounds in-flight RPCs per rank (§3.2) and speculates that tuning
"limits on outgoing requests" could improve latency (§4.3).  The
message-level engine exposes the trade-off directly: a window of 1
serializes round trips; a deep window pipelines them at the cost of more
in-flight memory.
"""

from conftest import emit, run_once

from repro.core.api import get_workload, run_alignment
from repro.engines.base import EngineConfig
from repro.machine.config import cori_knl

WINDOWS = (1, 2, 8, 32, 128)


def sweep():
    wl = get_workload("micro", seed=2)
    machine = cori_knl(2, app_cores_per_node=8)
    rows = []
    for w in WINDOWS:
        res = run_alignment(wl, 2, "async-micro",
                            EngineConfig(async_window=w), machine=machine)
        rows.append([
            w, round(res.wall_time * 1e3, 3),
            round(res.breakdown.summary("comm").avg * 1e3, 3),
            round(res.max_memory_per_rank / 1e6, 1),
        ])
    return {
        "title": "Ablation: async outstanding-request window (micro engine)",
        "columns": ["window", "wall_ms", "avg_visible_comm_ms", "max_mem_MB"],
        "rows": rows,
    }


def test_ablation_window(benchmark):
    fig = run_once(benchmark, sweep)
    emit("ablation_window", fig)
    rows = fig["rows"]
    # serialized pulls are slowest; pipelining helps monotonically-ish
    assert rows[0][1] >= rows[-1][1]
    assert rows[0][1] > rows[2][1]
