"""Tests for the observability subsystem: tracer, metrics, conservation."""

import json

import numpy as np
import pytest

from repro.core.api import get_workload, make_machine, run_alignment
from repro.engines.report import CATEGORIES, RuntimeBreakdown
from repro.errors import AccountingError, SimulationError
from repro.machine.config import cori_knl
from repro.obs import (
    ENGINE_LANE,
    MetricsRegistry,
    Tracer,
    assert_conserved,
    check_breakdown,
    check_trace,
    get_default_tracer,
    set_default_tracer,
)


# -- tracer ----------------------------------------------------------------

def test_tracer_records_typed_events():
    tr = Tracer()
    tr.begin_run("demo")
    tr.phase(0, "comm", 1.0, 2.5, name="exchange")
    tr.instant(1, "rpc_issue", 0.5, target=3)
    tr.counter(0, "outstanding", 0.7, 12)
    assert len(tr.events) == 4  # meta + phase + instant + counter
    assert tr.ranks() == [0, 1]
    [ph] = tr.phase_events()
    assert ph.category == "comm" and ph.end == 3.5


def test_tracer_chrome_export_schema(tmp_path):
    tr = Tracer()
    tr.begin_run("run A")
    tr.phase(0, "comm", 1.0, 2.0, name="exchange")
    tr.instant(ENGINE_LANE, "superstep", 1.0, round=np.int64(0))
    tr.counter(2, "outstanding", 1.5, np.float64(3.0))
    path = tmp_path / "t.json"
    tr.write_chrome(str(path))
    doc = json.loads(path.read_text())  # must be valid JSON
    events = doc["traceEvents"]
    phases = [e for e in events if e["ph"] == "X"]
    assert phases == [{
        "name": "exchange", "cat": "comm", "ph": "X",
        "pid": 0, "tid": 0, "ts": 1.0e6, "dur": 2.0e6,
    }]
    # microseconds, metadata naming for process and every lane
    names = {(e["pid"], e.get("tid")): e["args"]["name"]
             for e in events if e["ph"] == "M"}
    assert names[(0, None)] == "run A"
    assert names[(0, 0)] == "rank 0"
    assert names[(0, 2)] == "rank 2"
    assert any(v == "engine" for v in names.values())
    # numpy scalars were coerced to plain JSON numbers
    inst = next(e for e in events if e["ph"] == "i")
    assert inst["args"]["round"] == 0


def test_tracer_multiple_runs_get_distinct_pids():
    tr = Tracer()
    a = tr.begin_run("bsp")
    tr.phase(0, "comm", 0.0, 1.0)
    b = tr.begin_run("async")
    tr.phase(0, "comm", 0.0, 2.0)
    assert a == 0 and b == 1
    assert [e.duration for e in tr.phase_events(pid=0)] == [1.0]
    assert [e.duration for e in tr.phase_events(pid=1)] == [2.0]


def test_default_tracer_install_and_clear():
    assert get_default_tracer() is None
    tr = Tracer()
    set_default_tracer(tr)
    try:
        assert get_default_tracer() is tr
    finally:
        set_default_tracer(None)
    assert get_default_tracer() is None


# -- metrics ---------------------------------------------------------------

def test_metrics_counters_and_rollups():
    m = MetricsRegistry(4)
    m.inc("messages", 0)
    m.inc("messages", 0)
    m.inc("bytes", 1, 512.0)
    m.observe_max("window", 2, 7)
    m.observe_max("window", 2, 3)  # lower value must not shrink high-water
    m.add_array("tasks", [1, 2, 3, 4])
    assert m.get("messages")[0] == 2
    assert m.get("bytes")[1] == 512.0
    assert m.get("window")[2] == 7
    assert m.summary("tasks").sum == 10
    assert m.names() == ["bytes", "messages", "tasks", "window"]
    assert all(len(row) == 5 for row in m.rows())


# -- conservation checker --------------------------------------------------

def _breakdown(wall, **cat):
    arrays = {c: np.asarray(cat.get(c, [0.0]), dtype=float)
              for c in CATEGORIES}
    return RuntimeBreakdown(
        engine="t", machine=cori_knl(1, app_cores_per_node=1),
        workload="t", wall_time=wall, **arrays,
    )


def test_check_breakdown_pass_and_fail():
    ok = _breakdown(3.0, compute_align=[1.0], comm=[1.0], sync=[1.0])
    assert check_breakdown(ok).ok
    bad = _breakdown(5.0, compute_align=[1.0])
    report = check_breakdown(bad)
    assert not report.ok
    assert report.max_abs_deviation == pytest.approx(4.0)
    with pytest.raises(AccountingError):
        assert_conserved(report)
    assert isinstance(AccountingError("x"), SimulationError)


def test_check_trace_catches_missing_phase():
    tr = Tracer()
    tr.begin_run("r")
    tr.phase(0, "comm", 0.0, 1.0)
    tr.phase(0, "sync", 1.0, 1.0)
    tr.phase(1, "comm", 0.0, 1.0)  # rank 1 is missing 1s of accounting
    good = check_trace(tr, 2.0, num_ranks=2)
    assert not good.ok and good.worst_rank == 1
    assert check_trace(tr, 1.0, num_ranks=None).ok is False  # rank 0 has 2s


def test_check_trace_counts_silent_ranks():
    tr = Tracer()
    tr.begin_run("r")
    tr.phase(0, "comm", 0.0, 2.0)
    # rank 1 emitted nothing: only an explicit num_ranks notices
    assert check_trace(tr, 2.0).ok
    assert not check_trace(tr, 2.0, num_ranks=2).ok


# -- zero-wall fractions contract (satellite bugfix) -----------------------

def test_fractions_zero_wall_contract():
    empty = _breakdown(0.0)
    f = empty.fractions()
    assert set(f) == set(CATEGORIES)
    assert all(v == 0.0 for v in f.values())
    # _print_result-style unconditional indexing must not raise
    assert f["comm"] == 0.0 and f["compute_align"] == 0.0


# -- end-to-end: traced macro run ------------------------------------------

def test_traced_macro_run_conserves_and_exports(tmp_path):
    wl = get_workload("ecoli100x", seed=0)
    tracer = Tracer()
    metrics = MetricsRegistry(make_machine(1, 8).total_ranks)
    res = run_alignment(wl, 1, "async", cores_per_node=8,
                        tracer=tracer, metrics=metrics)
    assert check_breakdown(res.breakdown).ok
    report = check_trace(tracer, res.wall_time, res.breakdown.machine.total_ranks)
    assert report.ok
    assert metrics.get("tasks").sum() > 0
    path = tmp_path / "macro.json"
    tracer.write_chrome(str(path))
    doc = json.loads(path.read_text())
    lanes = {e["tid"] for e in doc["traceEvents"] if e["ph"] == "X"}
    assert lanes == set(range(8))  # one lane per rank
