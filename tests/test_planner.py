"""Cost-model planner: predictions, ranking, regret, and the grid drivers."""

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
    run_plan_points,
    scaling_sweep,
)
from repro.cli import main
from repro.engines.base import EngineConfig, ExecutionMode
from repro.engines.registry import (
    MACRO,
    available_engines,
    engines_with_cost_hooks,
    get_cost_hook,
    register_cost_hook,
)
from repro.errors import ConfigurationError
from repro.perf.planner import (
    DEFAULT_KNOB_GRID,
    WorkloadStats,
    knob_grid_points,
    plan,
    predict,
)

SLOW = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

NODES = 2
CORES = 4


@pytest.fixture(scope="module")
def workload():
    return get_workload("micro")


@pytest.fixture(scope="module")
def machine():
    return make_machine(NODES, CORES)


@pytest.fixture(scope="module")
def stats(workload, machine):
    return WorkloadStats.from_workload(workload, machine)


# -- registry ----------------------------------------------------------------


def test_macro_engines_all_have_cost_hooks():
    hooked = set(engines_with_cost_hooks())
    for name in available_engines(kind=MACRO):
        assert name in hooked
        assert get_cost_hook(name) is not None


def test_micro_engines_have_no_cost_hooks():
    assert get_cost_hook("bsp-micro") is None
    assert get_cost_hook("async-micro") is None


def test_duplicate_cost_hook_rejected():
    with pytest.raises(ConfigurationError, match="already registered"):
        @register_cost_hook("bsp")
        def _dup(assignment, machine, config):  # pragma: no cover
            return {"wall": 0.0}


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
        stats, machine, emf, agg, hagg, engine):
    cfg = EngineConfig(exchange_memory_fraction=emf,
                       async_aggregation=agg, hybrid_aggregation=hagg)
    point = predict(stats, machine, engine, config=cfg)
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
    """The hook evaluates the phases the engine charges (noise is off on
    the default allocation), so wall, memory and rounds are equal — not
    close — under every config the planner can hand it."""
    workload = get_workload(name)
    machine = make_machine(nodes, cores)
    config = EngineConfig(**overrides)
    point = predict(WorkloadStats.from_workload(workload, machine),
                    machine, engine, config=config)
    res = run_alignment(workload, nodes, engine, cores_per_node=cores,
                        config=config)
    assert point.predicted_wall == res.breakdown.wall_time
    assert point.predicted_memory == res.max_memory_per_rank
    assert point.predicted_rounds == res.exchange_rounds
    if name == "ecoli30x":
        assert res.exchange_rounds == 98  # the multi-round case is one


def test_predict_unknown_engine_fails_fast(stats, machine):
    with pytest.raises(ConfigurationError, match="unknown approach"):
        predict(stats, machine, "bps")


def test_predict_without_hook_raises(stats, machine):
    with pytest.raises(ConfigurationError, match="no registered cost hook"):
        predict(stats, machine, "bsp-micro")


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
    assert points[-1] is micro[0]  # infeasible sorts last


def test_infeasible_grid_point_recorded_not_raised(
        workload, machine, monkeypatch):
    from repro.engines import registry as reg

    def _boom(assignment, machine, config):
        raise ConfigurationError("per-rank memory cannot hold the partition")

    monkeypatch.setitem(reg._COST_HOOKS, "bsp", _boom)
    points = plan(workload, machine=machine, engines=["bsp"])
    assert all(not p.feasible for p in points)
    assert all(p.predicted_wall == float("inf") for p in points)
    assert all("memory" in p.reason for p in points)


# -- regret ------------------------------------------------------------------


def test_top1_regret_below_bound_on_tiny_grid(workload):
    points = plan(workload, nodes=NODES, cores_per_node=CORES)
    results = run_plan_points(workload, NODES, points,
                              cores_per_node=CORES)
    measured = [r.breakdown.wall_time for r in results if r is not None]
    top = next(p for p in points if p.feasible)
    top_measured = results[points.index(top)].breakdown.wall_time
    regret = top_measured / min(measured) - 1.0
    assert regret <= 0.10
    # stronger: predictions are exact here, so regret is exactly zero
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


def test_run_plan_points_aligns_with_points(workload, machine):
    points = plan(workload, machine=machine, engines=["bsp", "bsp-micro"])
    results = run_plan_points(workload, NODES, points, cores_per_node=CORES)
    assert len(results) == len(points)
    for p, r in zip(points, results):
        assert (r is None) == (not p.feasible)


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
