"""Planner quality: predict, then run only the winner.

The cost-model planner (docs/PLANNER.md) exists so a sweep does not have
to measure every engine x knob combination before picking one.  This
benchmark quantifies the two claims behind ``--engine auto``:

* **Regret** — at each node count, rank the full knob grid with
  ``plan()``, then measure *every* point exhaustively and compare the
  planner's top pick against the true best.  ``top1_regret`` is
  ``measured(top-1) / min(measured) - 1``; the acceptance bound is 10%
  and on the noise-isolated default allocation a cost hook evaluates the
  phase functions its engine charges, so the recorded regret is 0.
* **Prediction error** — the top pick's measured wall against its
  predicted wall; a cost hook that prices its engine's own phase
  functions records 0.

Also records ``assignment_seconds`` (the one cold render plan and the
exhaustive pass share), ``plan_seconds`` (the cost of planning itself,
warm — it must stay below the warm exhaustive pass it replaces) and the
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

from repro.core.api import (
    clear_machine_cache,
    get_workload,
    machine_cache_stats,
    run_plan_points,
)
from repro.perf.planner import plan

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_PLANNER.json"

#: top-1 regret bound from the acceptance criteria: auto must land within
#: 10% of the best engine x knob combination found exhaustively
REGRET_BOUND = 0.10

#: (workload, node counts, cores per node) per profile
TINY = ("micro", (1, 2), 8)
FULL = ("ecoli100x", (1, 4, 16, 64), 64)


def _grid_pass(workload, nodes: int, cores: int) -> dict:
    """Plan one node count, then measure the whole grid as ground truth
    for regret and prediction error.

    The assignment is rendered first, on its own clock: plan and sweep
    both read it from the workload's per-P cache, so timing either one
    cold would charge it the render the other gets for free.
    """
    t0 = time.perf_counter()
    workload.assignment(nodes * cores)
    assignment_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    points = plan(workload, nodes=nodes, cores_per_node=cores)
    plan_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    serial = run_plan_points(workload, nodes, points, cores_per_node=cores)
    t_serial = time.perf_counter() - t0

    measured = {i: r.breakdown.wall_time
                for i, r in enumerate(serial) if r is not None}
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
        "exhaustive_serial_seconds": t_serial,
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
    report = fig["report"]
    assert_regret_bounded(report)
    # planning must be cheaper than the exhaustive pass it replaces, both
    # warm on one rendered assignment (meaningless on the tiny profile,
    # where micro runs are ~free)
    if not FAST:
        for r in report["per_nodes"]:
            assert r["plan_seconds"] < r["exhaustive_serial_seconds"]


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
