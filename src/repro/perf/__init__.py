"""Per-figure series builders, ASCII rendering, and the cost-model planner."""

from repro.perf.planner import (
    DEFAULT_KNOB_GRID,
    PlanPoint,
    knob_grid_points,
    plan,
    predict,
)
from repro.perf.figures import (
    fig3_intranode,
    fig4_single_node,
    fig5_load_imbalance,
    fig6_comm_imbalance,
    fig7_comm_latency,
    fig8_ecoli_scaling,
    fig9_10_human_scaling,
    fig11_12_memory,
    fig13_datastructure,
    table1_workloads,
)
from repro.perf.format import render_table, render_breakdown_rows

__all__ = [
    "fig3_intranode",
    "fig4_single_node",
    "fig5_load_imbalance",
    "fig6_comm_imbalance",
    "fig7_comm_latency",
    "fig8_ecoli_scaling",
    "fig9_10_human_scaling",
    "fig11_12_memory",
    "fig13_datastructure",
    "table1_workloads",
    "render_table",
    "render_breakdown_rows",
    "DEFAULT_KNOB_GRID",
    "PlanPoint",
    "knob_grid_points",
    "plan",
    "predict",
]
