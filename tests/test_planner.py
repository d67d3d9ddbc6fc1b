"""Cost-model planner: grid runs, ranking, regret, and the grid drivers."""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.api import (
    clear_machine_cache,
    compare_engines,
    get_workload,
    machine_cache_stats,
    make_machine,
    run_alignment,
    scaling_sweep,
)
from repro.cli import main
from repro.engines.base import EngineConfig, ExecutionMode
from repro.engines.registry import MACRO, available_engines, get_engine
from repro.errors import ConfigurationError
from repro.machine.config import MachineSpec, NodeSpec
from repro.obs import Tracer, set_default_tracer
from repro.perf.planner import (
    DEFAULT_KNOB_GRID,
    knob_grid_points,
    plan,
    predict,
)
from repro.utils.units import MB

SLOW = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

NODES = 2
CORES = 4
GRID_POINTS = sum(len(knob_grid_points(e)) for e in DEFAULT_KNOB_GRID)


@pytest.fixture(scope="module")
def workload():
    return get_workload("micro")


@pytest.fixture(scope="module")
def machine():
    return make_machine(NODES, CORES)


@pytest.fixture(scope="module")
def assignment(workload, machine):
    return workload.assignment(machine.total_ranks)


# -- predictions -------------------------------------------------------------


@SLOW
@given(
    emf=st.floats(min_value=0.05, max_value=1.0,
                  allow_nan=False, allow_infinity=False),
    agg=st.integers(min_value=1, max_value=256),
    hagg=st.integers(min_value=1, max_value=256),
    engine=st.sampled_from(("bsp", "async", "hybrid")),
)
def test_predicted_wall_finite_positive_over_knob_space(
        assignment, machine, emf, agg, hagg, engine):
    cfg = EngineConfig(exchange_memory_fraction=emf,
                       async_aggregation=agg, hybrid_aggregation=hagg)
    point = predict(assignment, machine, engine, config=cfg)
    assert point.feasible
    assert point.predicted_wall > 0.0
    assert point.predicted_wall < float("inf")
    assert point.predicted_memory > 0.0


def _exactness_cases():
    """(workload, nodes, cores, engine, config overrides): the default
    config, every ``DEFAULT_KNOB_GRID`` value, comm-only mode, and a BSP
    exchange squeezed into 98 rounds."""
    engines = available_engines(kind=MACRO)
    cases = [pytest.param("micro", NODES, CORES, e, {}, id=e)
             for e in engines]
    for e, knobs in DEFAULT_KNOB_GRID.items():
        for knob, values in knobs.items():
            cases += [pytest.param("micro", NODES, CORES, e, {knob: v},
                                   id=f"{e}-{knob}={v}") for v in values]
    cases += [pytest.param("micro", NODES, CORES, e,
                           {"mode": ExecutionMode.COMM_ONLY},
                           id=f"{e}-comm_only") for e in engines]
    cases.append(pytest.param(
        "ecoli30x", 1, 8, "bsp", {"exchange_memory_fraction": 0.001},
        id="bsp-98-rounds"))
    return cases


@pytest.mark.parametrize("name,nodes,cores,engine,overrides",
                         _exactness_cases())
def test_prediction_matches_engine_exactly(name, nodes, cores, engine,
                                           overrides):
    """A prediction is an untraced, fault-free run, so wall, memory and
    rounds equal an independent ``run_alignment`` — not close — under
    every config the planner can hand it."""
    workload = get_workload(name)
    machine = make_machine(nodes, cores)
    config = EngineConfig(**overrides)
    point = predict(workload.assignment(machine.total_ranks),
                    machine, engine, config=config)
    res = run_alignment(workload, nodes, engine, cores_per_node=cores,
                        config=config)
    assert point.predicted_wall == res.breakdown.wall_time
    assert point.predicted_memory == res.max_memory_per_rank
    assert point.predicted_rounds == res.exchange_rounds
    if name == "ecoli30x":
        assert res.exchange_rounds == 98  # the multi-round case is one


def test_predict_unknown_engine_fails_fast(assignment, machine):
    with pytest.raises(ConfigurationError, match="unknown approach"):
        predict(assignment, machine, "bps")


def test_predict_without_hook_raises(assignment, machine):
    """A message-level engine has no assignment model: measure it."""
    assert get_engine("bsp-micro").is_micro
    with pytest.raises(ConfigurationError, match="message-level engine"):
        predict(assignment, machine, "bsp-micro")


def test_knob_grid_covers_default_grid():
    for engine, knobs in DEFAULT_KNOB_GRID.items():
        points = knob_grid_points(engine)
        expected = 1
        for values in knobs.values():
            expected *= len(values)
        assert len(points) == expected
    assert knob_grid_points("not-in-grid") == [()]


# -- ranking -----------------------------------------------------------------


def test_plan_ranking_deterministic(workload, machine):
    a = plan(workload, machine=machine)
    b = plan(workload, machine=machine)
    assert a == b
    walls = [p.predicted_wall for p in a]
    assert walls == sorted(walls)


def test_plan_ranking_independent_of_engine_order(workload, machine):
    names = list(available_engines(kind=MACRO))
    shuffled = names[:]
    random.Random(7).shuffle(shuffled)
    assert plan(workload, machine=machine, engines=names) == \
        plan(workload, machine=machine, engines=shuffled)


def test_plan_fails_fast_on_typo(workload, machine):
    with pytest.raises(ConfigurationError, match="unknown approach"):
        plan(workload, machine=machine, engines=["bsp", "asycn"])


def test_plan_lists_hookless_engine_as_measure_instead(workload, machine):
    points = plan(workload, machine=machine, engines=["bsp", "bsp-micro"])
    micro = [p for p in points if p.engine == "bsp-micro"]
    assert len(micro) == 1
    assert not micro[0].feasible
    assert "measure instead" in micro[0].reason
    assert micro[0].predicted_wall == float("inf")
    assert micro[0].result is None
    assert points[-1] is micro[0]  # infeasible sorts last


def test_infeasible_grid_point_recorded_not_raised(workload):
    """A rank memory below the BSP base footprint cannot hold the input
    partition: every BSP point is infeasible, async still runs."""
    machine = MachineSpec(nodes=NODES,
                          node=NodeSpec(app_memory_per_core=50 * MB),
                          app_cores_per_node=CORES)
    points = plan(workload, machine=machine, engines=["bsp", "async"])
    bsp = [p for p in points if p.engine == "bsp"]
    assert len(bsp) == len(DEFAULT_KNOB_GRID["bsp"]["exchange_memory_fraction"])
    assert all(not p.feasible for p in bsp)
    assert all(p.predicted_wall == float("inf") for p in bsp)
    assert all("memory" in p.reason and p.result is None for p in bsp)
    assert all(p.feasible for p in points if p.engine == "async")
    assert points[-len(bsp):] == bsp  # infeasible sorts last


def test_plan_points_carry_their_run(workload, machine):
    for p in plan(workload, machine=machine):
        assert p.result.wall_time == p.predicted_wall
        assert p.result.max_memory_per_rank == p.predicted_memory
        assert "result" not in p.as_dict()
        assert "result" not in repr(p)


# -- regret ------------------------------------------------------------------


def test_top1_regret_below_bound_on_tiny_grid(workload):
    """plan()'s top against an independent run of every grid point."""
    points = plan(workload, nodes=NODES, cores_per_node=CORES)
    measured = [
        run_alignment(workload, NODES, p.engine, p.apply(),
                      cores_per_node=CORES).wall_time
        for p in points
    ]
    assert measured == [p.predicted_wall for p in points]
    regret = measured[0] / min(measured) - 1.0
    assert regret <= 0.10
    # stronger: the plan ran every point itself, so regret is exactly zero
    assert regret == 0.0


def test_auto_runs_top_plan_and_records_regret(workload):
    res = run_alignment(workload, NODES, "auto", cores_per_node=CORES)
    info = res.details["plan"]
    assert info["mode"] == "predicted"
    assert info["engine"] in available_engines(kind=MACRO)
    assert info["predicted_wall"] == info["actual_wall"]
    assert info["prediction_error"] == 0.0
    assert info["grid_points"] >= 11
    assert info["ranked"][0]["engine"] == info["engine"]
    # within 10% of the best engine found exhaustively (acceptance bound)
    exhaustive = compare_engines(workload, NODES, cores_per_node=CORES)
    best = min(r.breakdown.wall_time for r in exhaustive.values())
    assert info["actual_wall"] <= 1.10 * best


def test_auto_is_exact_under_os_noise():
    """68 cores per node leave no core to isolate the OS, so every run
    draws seeded noise; the plan's runs draw the same noise as the run
    they predict."""
    workload = get_workload("micro")
    assert not make_machine(2, 68).system_isolated
    res = run_alignment(workload, 2, "auto", cores_per_node=68)
    assert res.details["plan"]["prediction_error"] == 0.0


def _spy_on_macro_runs(monkeypatch) -> list[str]:
    calls: list[str] = []
    for name in available_engines(kind=MACRO):
        cls = get_engine(name).factory
        original = cls.run

        def spy(self, *args, _original=original, **kwargs):
            calls.append(self.name)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "run", spy)
    return calls


def test_untraced_auto_runs_each_grid_point_once(workload, monkeypatch):
    calls = _spy_on_macro_runs(monkeypatch)
    res = run_alignment(workload, NODES, "auto", cores_per_node=CORES)
    assert len(calls) == GRID_POINTS == 11
    assert sorted(set(calls)) == sorted(DEFAULT_KNOB_GRID)
    # a traced auto re-runs the winner with the tracer: same bits
    traced = run_alignment(workload, NODES, "auto", cores_per_node=CORES,
                           tracer=Tracer())
    assert len(calls) == 2 * GRID_POINTS + 1
    assert traced.signature() == res.signature()


def test_auto_leaves_one_run_in_the_ambient_tracer(workload):
    tracer = Tracer()
    set_default_tracer(tracer)
    try:
        res = run_alignment(workload, NODES, "auto", cores_per_node=CORES)
    finally:
        set_default_tracer(None)
    assert tracer.current_pid == 0  # one begin_run: the winner's
    assert {e.pid for e in tracer.events} == {0}
    assert tracer.phase_events()
    assert res.details["plan"]["prediction_error"] == 0.0


# -- compare_engines ----------------------------------------------------------


def test_compare_engines_fails_fast_on_typo(workload):
    """A typo'd approach fails before any engine runs (not after)."""
    with pytest.raises(ConfigurationError, match="unknown approach"):
        compare_engines(workload, NODES, cores_per_node=CORES,
                        approaches=["bsp", "asycn"])


# -- machine cache ------------------------------------------------------------


def test_machine_cache_hits_across_grid_points(workload):
    clear_machine_cache()
    base = machine_cache_stats()
    assert base["size"] == 0
    m1 = make_machine(NODES, CORES)
    m2 = make_machine(NODES, CORES)
    assert m1 is m2
    stats = machine_cache_stats()
    assert stats["hits"] >= 1
    assert stats["misses"] >= 1
    scaling_sweep(workload, [NODES], cores_per_node=CORES)
    assert machine_cache_stats()["hits"] > stats["hits"]


# -- CLI ----------------------------------------------------------------------


def test_cli_plan_tiny(capsys):
    assert main(["plan", "--tiny"]) == 0
    out = capsys.readouterr().out
    assert "Ranked plans" in out
    assert "winner:" in out


def test_cli_run_auto(capsys):
    assert main(["run", "--workload", "micro", "--nodes", "2",
                 "--cores-per-node", "8", "--engine", "auto"]) == 0
    out = capsys.readouterr().out
    assert "plan: predicted" in out
    assert "+0.000% error" in out
