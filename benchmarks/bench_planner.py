"""Planner quality: run the knob grid, keep the winner.

The planner (docs/PLANNER.md) runs every macro engine at every point of
its knob grid and ranks the points by wall clock.  This benchmark
records, per node count:

* **Regret** — ``top1_regret`` is ``wall(top-1) / min(wall) - 1`` over
  the grid ``plan()`` ran; the acceptance bound is 10%.  Each point's
  wall is read from the run ``plan()`` kept on it (``PlanPoint.result``),
  so the recorded regret is 0 by construction.
* **Prediction error** — each point's run wall against its predicted
  wall; a prediction *is* that run, so the recorded error is 0.

Also records ``assignment_seconds`` (the one cold render every grid
point shares), ``plan_seconds`` (the grid itself, warm) and the
machine-cache hit counters.
Writes ``BENCH_PLANNER.json`` at the repo root.  Also runnable
standalone:

    python benchmarks/bench_planner.py [--tiny] [--assert-regret]
"""

import json
import os
import sys
import time
from pathlib import Path

from repro.core.api import clear_machine_cache, get_workload, machine_cache_stats
from repro.perf.planner import plan

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_PLANNER.json"

#: top-1 regret bound from the acceptance criteria: auto must land within
#: 10% of the best engine x knob combination found exhaustively
REGRET_BOUND = 0.10

#: (workload, node counts, cores per node) per profile
TINY = ("micro", (1, 2), 8)
FULL = ("ecoli100x", (1, 4, 16, 64), 64)


def _grid_pass(workload, nodes: int, cores: int) -> dict:
    """Plan one node count and read regret and prediction error off the
    runs the plan kept.

    The assignment is rendered first, on its own clock, so
    ``plan_seconds`` times the grid runs alone.
    """
    t0 = time.perf_counter()
    workload.assignment(nodes * cores)
    assignment_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    points = plan(workload, nodes=nodes, cores_per_node=cores)
    plan_s = time.perf_counter() - t0

    measured = {i: p.result.wall_time
                for i, p in enumerate(points) if p.feasible}
    if not measured:
        raise AssertionError(f"no feasible grid point at {nodes} nodes")
    best_wall = min(measured.values())
    top_idx = next(i for i, p in enumerate(points) if p.feasible)
    top = points[top_idx]
    top_wall = measured[top_idx]

    grid = []
    for i, p in enumerate(points):
        row = p.as_dict()
        if i in measured:
            row["actual_wall"] = measured[i]
            row["prediction_error"] = (
                measured[i] / p.predicted_wall - 1.0
                if p.predicted_wall > 0 else 0.0)
            row["regret"] = measured[i] / best_wall - 1.0
        grid.append(row)

    return {
        "nodes": nodes,
        "grid_points": len(points),
        "feasible_points": len(measured),
        "assignment_seconds": assignment_s,
        "plan_seconds": plan_s,
        "top1": {"engine": top.engine,
                 "knobs": dict(top.knobs),
                 "predicted_wall": top.predicted_wall,
                 "actual_wall": top_wall},
        "top1_regret": top_wall / best_wall - 1.0,
        "prediction_error_top1": (top_wall / top.predicted_wall - 1.0
                                  if top.predicted_wall > 0 else 0.0),
        "grid": grid,
    }


def sweep(name: str = FULL[0], node_counts=FULL[1],
          cores: int = FULL[2]) -> dict:
    workload = get_workload(name)
    clear_machine_cache()

    per_nodes = [_grid_pass(workload, n, cores) for n in node_counts]
    cache = machine_cache_stats()

    rows = [[r["nodes"], r["top1"]["engine"],
             ",".join(f"{k}={v}" for k, v in r["top1"]["knobs"].items())
             or "-",
             f"{r['top1_regret']:.4f}",
             f"{r['plan_seconds'] * 1e3:.1f}ms"]
            for r in per_nodes]
    report = {
        "workload": name,
        "cores_per_node": cores,
        "cpus": os.cpu_count(),
        "regret_bound": REGRET_BOUND,
        "max_top1_regret": max(r["top1_regret"] for r in per_nodes),
        "max_abs_prediction_error": max(
            abs(r["prediction_error_top1"]) for r in per_nodes),
        "machine_cache": cache,
        "per_nodes": per_nodes,
    }
    return {
        "title": f"Planner regret: {name}, nodes={list(node_counts)}, "
                 f"{os.cpu_count()} cpus",
        "columns": ["nodes", "winner", "knobs", "regret", "plan"],
        "rows": rows,
        "report": report,
    }


def write_json(fig: dict) -> None:
    JSON_PATH.write_text(json.dumps(fig["report"], indent=2) + "\n")


def assert_regret_bounded(report: dict) -> None:
    """The planner's pick must land within REGRET_BOUND of the true best."""
    worst = report["max_top1_regret"]
    assert worst <= REGRET_BOUND, (
        f"planner top-1 regret {worst:.3f} exceeds the "
        f"{REGRET_BOUND:.0%} acceptance bound")


def test_planner_regret(benchmark):
    from conftest import FAST, emit, run_once

    fig = run_once(benchmark, sweep, *(TINY if FAST else ()))
    emit("planner_regret", {k: fig[k] for k in ("title", "columns", "rows")})
    write_json(fig)
    assert_regret_bounded(fig["report"])


if __name__ == "__main__":
    tiny = "--tiny" in sys.argv
    fig = sweep(*TINY) if tiny else sweep()
    widths = [max(len(str(r[i])) for r in [fig["columns"]] + fig["rows"])
              for i in range(len(fig["columns"]))]
    print(fig["title"])
    for row in [fig["columns"]] + fig["rows"]:
        print("  ".join(str(v).rjust(w) for v, w in zip(row, widths)))
    write_json(fig)
    print(f"wrote {JSON_PATH}")
    if "--assert-regret" in sys.argv:
        assert_regret_bounded(fig["report"])
        print(f"top-1 regret within bound "
              f"(max {fig['report']['max_top1_regret']:.4f} "
              f"<= {REGRET_BOUND})")
