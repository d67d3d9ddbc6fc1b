"""Tests for the top-level driver API and report machinery."""

import numpy as np
import pytest

from repro.core.api import (
    clear_workload_cache,
    compare_engines,
    get_workload,
    make_machine,
    run_alignment,
    scaling_sweep,
)
from repro.engines.base import EngineConfig
from repro.engines.report import PhaseTimers, RuntimeBreakdown
from repro.errors import ConfigurationError, SimulationError
from repro.machine.config import cori_knl
from repro.pipeline.workload import ConcreteWorkload, StatisticalWorkload


def test_get_workload_statistical_vs_concrete():
    stat = get_workload("ecoli30x", seed=0)
    assert isinstance(stat, StatisticalWorkload)
    conc = get_workload("micro", seed=0)
    assert isinstance(conc, ConcreteWorkload)


def test_get_workload_cached():
    clear_workload_cache()
    a = get_workload("ecoli30x", seed=0)
    b = get_workload("ecoli30x", seed=0)
    assert a is b
    c = get_workload("ecoli30x", seed=1)
    assert c is not a


def test_get_workload_unknown():
    with pytest.raises(ConfigurationError):
        get_workload("nonexistent")


def test_run_alignment_and_compare():
    wl = get_workload("micro", seed=0)
    res = run_alignment(wl, nodes=2, approach="bsp")
    assert res.wall_time > 0
    both = compare_engines(wl, nodes=2)
    assert set(both) == {"bsp", "async", "hybrid"}
    for r in both.values():
        r.breakdown.validate()
    pinned = compare_engines(wl, nodes=2, approaches=("bsp", "async"))
    assert set(pinned) == {"bsp", "async"}


def test_run_alignment_unknown_approach():
    wl = get_workload("micro", seed=0)
    with pytest.raises(ConfigurationError):
        run_alignment(wl, 2, approach="mpi")


@pytest.mark.parametrize("approach", ["bsp", "async", "hybrid", "auto"])
@pytest.mark.parametrize("knob", [
    {"kernel": "real"},
    {"config": EngineConfig(backend="process")},
    {"config": EngineConfig(workers=2)},
    {"config": EngineConfig(backend="auto")},
])
def test_run_alignment_rejects_micro_knobs_on_macro_engines(approach, knob):
    """Kernel knobs on an engine that never runs the kernel are an error,
    not a model result with ``alignments=None``."""
    wl = get_workload("micro", seed=0)
    with pytest.raises(ConfigurationError, match="micro engines only"):
        run_alignment(wl, 2, approach, cores_per_node=4, **knob)


def test_run_alignment_explicit_machine():
    wl = get_workload("micro", seed=0)
    machine = cori_knl(2, app_cores_per_node=8)
    res = run_alignment(wl, nodes=99, machine=machine, approach="async")
    assert res.breakdown.machine is machine


def test_scaling_sweep_structure():
    # a compute-dominated workload actually strong-scales
    wl = get_workload("ecoli30x", seed=0)
    out = scaling_sweep(wl, [1, 2], approaches=("bsp",))
    assert set(out) == {"bsp"}
    assert set(out["bsp"]) == {1, 2}
    assert out["bsp"][2].wall_time < out["bsp"][1].wall_time


def test_make_machine():
    m = make_machine(4, cores_per_node=32)
    assert m.total_ranks == 128


def test_phase_timers_validation():
    t = PhaseTimers(4)
    t.add("comm", 0, 1.0)
    with pytest.raises(SimulationError):
        t.add("bogus", 0, 1.0)
    with pytest.raises(SimulationError):
        t.add("comm", 0, -1.0)
    with pytest.raises(SimulationError):
        t.add_array("comm", np.array([1.0, -2.0, 0.0, 0.0]))
    assert t.per_rank_total()[0] == 1.0


def test_phase_timers_add_array_checks_and_clamps():
    t = PhaseTimers(3)
    with pytest.raises(SimulationError, match="unknown timing category"):
        t.add_array("bogus", np.zeros(3))
    with pytest.raises(SimulationError, match="negative time array"):
        t.add_array("sync", np.array([0.0, -2e-12, 1.0]))
    assert not t.get("sync").any()  # a rejected array adds nothing
    t.add_array("sync", np.array([-1e-13, 0.5, 0.0]))
    t.add_array("sync", np.array([-1e-13, 0.25, 1.0]))
    # round-off negatives clamp to exactly zero, never to -0.0
    assert t.get("sync").tolist() == [0.0, 0.75, 1.0]
    assert not np.signbit(t.get("sync")).any()


def _tiling(wall, totals):
    m = cori_knl(1, app_cores_per_node=len(totals))
    n = len(totals)
    return RuntimeBreakdown(
        engine="x", machine=m, workload="w", wall_time=wall,
        compute_align=np.asarray(totals, dtype=float),
        compute_overhead=np.zeros(n), comm=np.zeros(n), sync=np.zeros(n),
    )


def test_breakdown_validate_tolerance():
    # rtol=1e-6 of the wall plus atol=1e-9: 2.001e-6 s at a 2 s wall
    _tiling(2.0, [2.0 + 1.9e-6, 2.0 - 1.9e-6]).validate()
    with pytest.raises(SimulationError, match="does not tile"):
        _tiling(2.0, [2.0, 2.0 + 2.1e-6]).validate()
    _tiling(0.0, [5e-10, 0.0]).validate()
    with pytest.raises(SimulationError, match="does not tile"):
        _tiling(0.0, [2e-9, 0.0]).validate()
    # a looser rtol is honoured
    _tiling(2.0, [2.1, 2.0]).validate(rtol=0.1)


@pytest.mark.parametrize("wall,totals", [
    (float("nan"), [1.0, 1.0]),
    (1.0, [1.0, float("nan")]),
    (float("nan"), [float("nan"), float("nan")]),
])
def test_breakdown_validate_rejects_nan(wall, totals):
    with pytest.raises(SimulationError, match="does not tile"):
        _tiling(wall, totals).validate()


def test_breakdown_validate_and_fractions():
    m = cori_knl(1, app_cores_per_node=2)
    good = RuntimeBreakdown(
        engine="x", machine=m, workload="w", wall_time=2.0,
        compute_align=np.array([1.0, 1.5]),
        compute_overhead=np.array([0.5, 0.2]),
        comm=np.array([0.3, 0.2]),
        sync=np.array([0.2, 0.1]),
    )
    good.validate()
    f = good.fractions()
    assert sum(f.values()) == pytest.approx(1.0)
    bad = RuntimeBreakdown(
        engine="x", machine=m, workload="w", wall_time=5.0,
        compute_align=np.array([1.0, 1.0]),
        compute_overhead=np.zeros(2),
        comm=np.zeros(2),
        sync=np.zeros(2),
    )
    with pytest.raises(SimulationError):
        bad.validate()


def test_breakdown_category_access():
    m = cori_knl(1, app_cores_per_node=1)
    b = RuntimeBreakdown(
        engine="x", machine=m, workload="w", wall_time=1.0,
        compute_align=np.array([1.0]), compute_overhead=np.zeros(1),
        comm=np.zeros(1), sync=np.zeros(1),
    )
    assert b.category("compute_align")[0] == 1.0
    with pytest.raises(SimulationError):
        b.category("nope")
    assert b.summary("compute_align").imbalance == 1.0
