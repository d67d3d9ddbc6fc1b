"""Tests for the fault-injection subsystem: plans, specs, injector,
degradation schedule, RPC retry machinery, and engine-level reactions."""

import numpy as np
import pytest

from repro.core.api import compare_engines, get_workload, run_alignment
from repro.engines.async_ import AsyncEngine
from repro.engines.base import EngineConfig
from repro.engines.bsp import BSPEngine
from repro.engines.micro import MicroAsyncEngine, MicroBSPEngine
from repro.errors import (
    ConfigurationError,
    FaultError,
    RankFailureError,
    RpcTimeoutError,
)
from repro.faults import (
    DELIVER,
    DROP,
    MAX_EXCHANGE_ATTEMPTS,
    FaultInjector,
    FaultPlan,
    parse_fault_spec,
)
from repro.machine.config import cori_knl
from repro.machine.degradation import (
    DegradationSchedule,
    LinkWindow,
    RankKill,
    StraggleWindow,
)
from repro.obs import MetricsRegistry, Tracer, check_breakdown, check_trace
from repro.runtime.context import SpmdContext
from repro.runtime.rpc import RpcLayer


# -- spec parsing -----------------------------------------------------------

def test_parse_full_spec_roundtrip():
    plan = parse_fault_spec(
        "drop=0.1,delay=0.05:2ms,dup=0.02,xchg_drop=0.2,"
        "degrade=0.5@1:2,lag=3@0:1,straggle=2.5@r3:1:4,kill=r1@5,"
        "redistribute,timeout=10ms,retries=6,backoff=1ms,jitter=0.1"
    )
    assert plan.drop_prob == 0.1
    assert plan.delay_prob == 0.05 and plan.delay_seconds == pytest.approx(2e-3)
    assert plan.dup_prob == 0.02
    assert plan.exchange_drop_prob == 0.2
    assert plan.links[0].bandwidth_factor == 0.5
    assert plan.links[1].latency_factor == 3.0
    assert plan.stragglers[0] == StraggleWindow(rank=3, start=1, end=4,
                                                factor=2.5)
    assert plan.kills == (RankKill(rank=1, time=5.0),)
    assert plan.redistribute
    assert plan.rpc_timeout == pytest.approx(10e-3)
    assert plan.rpc_max_retries == 6
    assert plan.rpc_backoff == pytest.approx(1e-3)
    assert plan.rpc_backoff_jitter == 0.1
    assert plan.describe().startswith("drop=0.1")


def test_parse_duration_units():
    assert parse_fault_spec("delay=0.1:5us").delay_seconds == pytest.approx(5e-6)
    assert parse_fault_spec("delay=0.1:1.5s").delay_seconds == pytest.approx(1.5)


@pytest.mark.parametrize("spec", [
    "bogus=1",                   # unknown key
    "drop",                      # missing value
    "drop=x",                    # not a number
    "drop=1.5",                  # probability out of range
    "delay=0.1",                 # missing duration
    "degrade=0.5@5:1",           # window end before start
    "degrade=2@0:1",             # bandwidth factor > 1 (that's a speedup)
    "straggle=0.5@r0:0:1",       # straggle factor < 1
    "straggle=2@rX:0:1",         # malformed rank
    "kill=r0@1,kill=r0@2",       # duplicate kill
    "retries=1.5",               # non-integer retries
    "jitter=1",                  # jitter must be < 1
    "",                          # empty spec
])
def test_parse_rejects_malformed(spec):
    with pytest.raises(ConfigurationError):
        parse_fault_spec(spec)


def test_parse_error_names_offending_clause():
    with pytest.raises(ConfigurationError, match="bogus"):
        parse_fault_spec("drop=0.1,bogus=2")


def test_plan_validation():
    with pytest.raises(ConfigurationError):
        FaultPlan(drop_prob=0.5, delay_prob=0.4, delay_seconds=1.0,
                  dup_prob=0.2)  # probabilities sum past 1
    with pytest.raises(ConfigurationError):
        FaultPlan(delay_prob=0.1)  # needs delay_seconds
    with pytest.raises(ConfigurationError):
        FaultPlan(rpc_backoff_jitter=1.0)
    assert not FaultPlan().active
    assert FaultPlan(drop_prob=0.1).message_faults_possible
    assert FaultPlan(kills=(RankKill(0, 1.0),)).message_faults_possible
    assert not FaultPlan(exchange_drop_prob=0.1).message_faults_possible


# -- degradation schedule ---------------------------------------------------

def test_link_dilation_windows():
    sched = DegradationSchedule(
        links=(LinkWindow(start=1.0, end=3.0, bandwidth_factor=0.5),),
        stragglers=(), kills=(),
    )
    assert sched.link_dilation(0.5) == 1.0
    assert sched.link_dilation(2.0) == 2.0  # 1 / 0.5
    assert sched.link_dilation(3.5) == 1.0
    # exact piecewise mean over [0, 4]: 2s at 1x, 2s at 2x -> 1.5
    assert sched.mean_link_dilation(0.0, 4.0) == pytest.approx(1.5)


def test_straggle_and_death():
    sched = DegradationSchedule(
        links=(),
        stragglers=(StraggleWindow(rank=1, start=0.0, end=2.0, factor=3.0),),
        kills=(RankKill(rank=2, time=5.0),),
    )
    assert sched.straggle_factor(1, 1.0) == 3.0
    assert sched.straggle_factor(0, 1.0) == 1.0
    assert sched.straggle_factor(1, 2.5) == 1.0
    assert sched.mean_straggle_factor(1, 0.0, 4.0) == pytest.approx(2.0)
    assert sched.death_time(2) == 5.0
    assert sched.death_time(0) is None
    assert not sched.dead(2, 4.9)
    assert sched.dead(2, 5.0)


# -- injector determinism ---------------------------------------------------

def test_injector_fate_sequence_deterministic():
    plan = FaultPlan(drop_prob=0.2, delay_prob=0.1, delay_seconds=1e-3,
                     dup_prob=0.1)
    inj1, inj2 = FaultInjector(plan, 42), FaultInjector(plan, 42)
    fates1 = [inj1.rpc_fate() for _ in range(200)]
    fates2 = [inj2.rpc_fate() for _ in range(200)]
    assert fates1 == fates2
    kinds = {k for k, _ in fates1}
    assert DELIVER in kinds and DROP in kinds


def test_injector_seed_changes_realization():
    plan = FaultPlan(drop_prob=0.3)
    f1 = [FaultInjector(plan, 1).rpc_fate() for _ in range(100)]
    f2 = [FaultInjector(plan, 2).rpc_fate() for _ in range(100)]
    assert f1 != f2


def test_exchange_attempts_round_keyed_and_cached():
    plan = FaultPlan(exchange_drop_prob=0.5)
    inj = FaultInjector(plan, 7)
    # order of asking must not matter (every rank asks independently)
    late_first = inj.exchange_attempts(3)
    early = inj.exchange_attempts(0)
    inj2 = FaultInjector(plan, 7)
    assert inj2.exchange_attempts(0) == early
    assert inj2.exchange_attempts(3) == late_first
    assert all(
        1 <= FaultInjector(plan, s).exchange_attempts(0) <= MAX_EXCHANGE_ATTEMPTS
        for s in range(20)
    )


def test_rank_rpc_fault_counts_order_independent():
    plan = FaultPlan(drop_prob=0.1, dup_prob=0.05)
    inj1, inj2 = FaultInjector(plan, 9), FaultInjector(plan, 9)
    a0, a1 = inj1.rank_rpc_fault_counts(0, 500), inj1.rank_rpc_fault_counts(1, 500)
    b1, b0 = inj2.rank_rpc_fault_counts(1, 500), inj2.rank_rpc_fault_counts(0, 500)
    assert a0 == b0 and a1 == b1


def test_backoff_exponential_with_bounded_jitter():
    plan = FaultPlan(drop_prob=0.1, rpc_backoff_jitter=0.25)
    inj = FaultInjector(plan, 0)
    for attempt in range(4):
        b = inj.backoff(1.0, attempt)
        assert 0.75 * 2 ** attempt <= b <= 1.25 * 2 ** attempt
    nojit = FaultInjector(FaultPlan(drop_prob=0.1, rpc_backoff_jitter=0.0), 0)
    assert nojit.backoff(2.0, 3) == 16.0


# -- RPC layer under faults -------------------------------------------------

def _rpc_ctx(plan=None, seed=0, ranks=2):
    faults = FaultInjector(plan, seed) if plan is not None else None
    ctx = SpmdContext(cori_knl(1, app_cores_per_node=ranks), faults=faults)
    return ctx


def _run_one_call(ctx, rpc):
    got = []

    def caller():
        rpc.call(0, 1, 7)
        yield ctx.charge("comm", 0, rpc.injection_cost())
        resp = yield from rpc.inboxes[0].get()
        got.append(resp)

    ctx.engine.process(caller())
    ctx.engine.run()
    return got


def test_rpc_drop_recovered_by_retry():
    # drop everything except the last allowed attempt: deterministic worst
    # case the retry budget can still absorb
    plan = FaultPlan(drop_prob=1.0, rpc_max_retries=2)
    ctx = _rpc_ctx(plan)
    rpc = RpcLayer(ctx)
    rpc.register(1, lambda token: (token * 2, 64.0))
    # all attempts drop -> typed timeout error
    with pytest.raises(RpcTimeoutError):
        _run_one_call(ctx, rpc)
    assert rpc.retries == 2
    assert rpc.timeouts == 3


def test_rpc_partial_drop_eventually_delivers():
    plan = FaultPlan(drop_prob=0.5, rpc_max_retries=8)
    # seed 4's fate stream drops the first two attempts, delivers the third
    ctx = _rpc_ctx(plan, seed=4)
    rpc = RpcLayer(ctx)
    rpc.register(1, lambda token: (token * 2, 64.0))
    got = _run_one_call(ctx, rpc)
    assert len(got) == 1 and got[0].value == 14
    assert got[0].attempts == 3
    assert rpc.retries == 2


def test_rpc_duplicate_deduplicated():
    plan = FaultPlan(dup_prob=1.0)
    ctx = _rpc_ctx(plan)
    rpc = RpcLayer(ctx)
    rpc.register(1, lambda token: (token, 8.0))
    got = _run_one_call(ctx, rpc)
    assert len(got) == 1  # exactly one response despite two copies
    assert rpc.dups_dropped == 1


def test_rpc_dead_target_typed_error():
    plan = FaultPlan(kills=(RankKill(rank=1, time=0.0),))
    ctx = _rpc_ctx(plan)
    rpc = RpcLayer(ctx)
    rpc.register(1, lambda token: (token, 8.0))
    with pytest.raises(RankFailureError, match="rank 1"):
        _run_one_call(ctx, rpc)


def test_rpc_handler_runs_at_service_time():
    """Regression for the latent timing bug: the handler must observe
    state as of *service* time, not issue time."""
    ctx = _rpc_ctx()
    rpc = RpcLayer(ctx)
    state = {"value": "at-issue"}
    rpc.register(1, lambda token: (state["value"], 8.0))

    got = []

    def caller():
        rpc.call(0, 1, 0)
        yield ctx.charge("comm", 0, rpc.injection_cost())
        resp = yield from rpc.inboxes[0].get()
        got.append(resp.value)

    def mutator():
        # runs before the request's alpha flight time has elapsed
        yield 1e-9
        state["value"] = "at-service"

    ctx.engine.process(caller())
    ctx.engine.process(mutator())
    ctx.engine.run()
    assert got == ["at-service"]


def test_rpc_fault_free_run_has_no_watchdogs():
    """Without message faults the layer must not schedule timeout events
    (stale watchdogs would inflate engine.now past the real finish)."""
    ctx = _rpc_ctx()
    rpc = RpcLayer(ctx)
    rpc.register(1, lambda token: (token, 8.0))
    got = _run_one_call(ctx, rpc)
    assert got[0].attempts == 1
    assert rpc.timeouts == 0
    # the clock stopped when the response was consumed, not at a timeout
    assert ctx.engine.now < rpc.timeout


# -- macro engines under faults --------------------------------------------

def _macro_setup(nodes=2, cores=4, seed=0):
    machine = cori_knl(nodes, app_cores_per_node=cores)
    wl = get_workload("ecoli30x", seed=seed)
    return wl.assignment(machine.total_ranks), machine


def _conserved(engine, assignment, machine, faults):
    tracer = Tracer()
    metrics = MetricsRegistry(machine.total_ranks)
    res = engine.run(assignment, machine, tracer=tracer, metrics=metrics,
                     faults=faults)
    assert check_breakdown(res.breakdown).ok
    assert check_trace(tracer, res.wall_time, machine.total_ranks).ok
    return res, metrics


@pytest.mark.parametrize("engine_cls", [BSPEngine, AsyncEngine])
def test_macro_kill_without_redistribute_raises(engine_cls):
    assignment, machine = _macro_setup()
    plan = FaultPlan(kills=(RankKill(rank=1, time=1.0),))
    with pytest.raises(RankFailureError, match="rank 1"):
        engine_cls().run(assignment, machine,
                         faults=FaultInjector(plan, 0))


@pytest.mark.parametrize("engine_cls", [BSPEngine, AsyncEngine])
def test_macro_kill_redistribute_completes_conserved(engine_cls):
    assignment, machine = _macro_setup()
    plan = FaultPlan(kills=(RankKill(rank=1, time=1.0),), redistribute=True)
    res, _ = _conserved(engine_cls(), assignment, machine,
                        FaultInjector(plan, 0))
    assert res.details["ranks_lost"] == [1]
    assert res.details["faults_injected"] >= 1


@pytest.mark.parametrize("engine", ["bsp", "async", "hybrid"])
def test_macro_kills_are_reported_in_time_order(engine):
    """Kills are membership events: ``ranks_lost`` lists them in the order
    they happen, not the order the spec writes them, and losing every
    rank is a typed failure with the same wording on every macro engine.

    A tiny exchange budget gives BSP several supersteps, so the kills land
    on superstep starts rather than at the exit barrier.
    """
    wl = get_workload("micro", seed=11)
    machine = cori_knl(2, app_cores_per_node=4)
    config = EngineConfig(exchange_memory_fraction=1e-5)

    def run(spec):
        return run_alignment(wl, 2, engine, config=config, machine=machine,
                             fault_plan=parse_fault_spec(spec))

    res = run("kill=r5@0.004,kill=r2@0.001,redistribute")
    assert res.details["ranks_lost"] == [2, 5]
    assert "churn" not in res.details

    everyone = ",".join(f"kill=r{r}@{r * 1e-4:g}" for r in range(8))
    with pytest.raises(RankFailureError, match="every rank died"):
        run(everyone + ",redistribute")


@pytest.mark.parametrize("engine_cls", [BSPEngine, AsyncEngine])
def test_macro_straggler_inflates_wall(engine_cls):
    assignment, machine = _macro_setup()
    clean = engine_cls().run(assignment, machine)
    # rank 0 runs 3x slow for the entire plausible duration
    plan = FaultPlan(stragglers=(
        StraggleWindow(rank=0, start=0.0, end=1e6, factor=3.0),
    ))
    res, _ = _conserved(engine_cls(), assignment, machine,
                        FaultInjector(plan, 0))
    assert res.wall_time > clean.wall_time * 1.5


@pytest.mark.parametrize("engine_cls", [BSPEngine, AsyncEngine])
def test_macro_deterministic_under_faults(engine_cls):
    assignment, machine = _macro_setup()
    plan = FaultPlan(drop_prob=0.05, exchange_drop_prob=0.5,
                     stragglers=(StraggleWindow(0, 0.0, 10.0, 2.0),))
    r1 = engine_cls().run(assignment, machine, faults=FaultInjector(plan, 11))
    r2 = engine_cls().run(assignment, machine, faults=FaultInjector(plan, 11))
    assert r1.wall_time == r2.wall_time
    assert r1.details.get("fault_kinds") == r2.details.get("fault_kinds")


def test_macro_bsp_exchange_retries_inflate_exchange_total():
    assignment, machine = _macro_setup()
    clean = BSPEngine().run(assignment, machine)
    # probability ~1 of at least one retry on the (single) round
    plan = FaultPlan(exchange_drop_prob=0.95)
    res, metrics = _conserved(BSPEngine(), assignment, machine,
                              FaultInjector(plan, 1))
    assert res.details["exchange_retries"] >= 1
    assert (res.details["exchange_time_total"]
            > clean.details["exchange_time_total"])
    assert metrics.rows()  # exchange_retries counter rolled up


def test_macro_link_window_inflates_exchange():
    assignment, machine = _macro_setup()
    clean = BSPEngine().run(assignment, machine)
    plan = FaultPlan(links=(
        LinkWindow(start=0.0, end=1e6, bandwidth_factor=0.25),
    ))
    res, _ = _conserved(BSPEngine(), assignment, machine,
                        FaultInjector(plan, 0))
    assert (res.details["exchange_time_total"]
            > 3.0 * clean.details["exchange_time_total"])


def test_run_alignment_threads_fault_plan():
    wl = get_workload("ecoli30x")
    plan = parse_fault_spec("straggle=2@r0:0:1e6")
    clean = run_alignment(wl, nodes=2, approach="bsp", cores_per_node=4)
    faulty = run_alignment(wl, nodes=2, approach="bsp", cores_per_node=4,
                           fault_plan=plan, fault_seed=3)
    assert faulty.wall_time > clean.wall_time
    assert faulty.details["fault_plan"] == plan.describe()


def test_compare_engines_same_plan_both_engines():
    wl = get_workload("ecoli30x")
    plan = parse_fault_spec("drop=0.02,xchg_drop=0.5")
    results = compare_engines(wl, nodes=2, cores_per_node=4,
                              fault_plan=plan, fault_seed=1)
    assert set(results) == {"bsp", "async", "hybrid"}
    for res in results.values():
        assert res.details["fault_plan"] == plan.describe()


# -- micro engines under faults --------------------------------------------

def _micro_setup():
    return get_workload("micro"), cori_knl(2, app_cores_per_node=4)


@pytest.mark.parametrize("engine_cls", [MicroBSPEngine, MicroAsyncEngine])
def test_micro_kill_raises_typed(engine_cls):
    wl, machine = _micro_setup()
    plan = FaultPlan(kills=(RankKill(rank=1, time=1e-4),))
    with pytest.raises(RankFailureError, match="rank 1"):
        engine_cls().run(wl, machine, faults=FaultInjector(plan, 0))


@pytest.mark.parametrize("engine_cls", [MicroBSPEngine, MicroAsyncEngine])
def test_micro_message_faults_same_task_counts(engine_cls):
    """Any absorbed fault plan must leave the computed work identical:
    every task runs exactly once (idempotent delivery, retried rounds)."""
    wl, machine = _micro_setup()
    m_clean = MetricsRegistry(machine.total_ranks)
    m_fault = MetricsRegistry(machine.total_ranks)
    engine_cls().run(wl, machine, metrics=m_clean)
    plan = FaultPlan(drop_prob=0.1, delay_prob=0.05, delay_seconds=1e-3,
                     dup_prob=0.1, exchange_drop_prob=0.4,
                     rpc_max_retries=10)
    faults = FaultInjector(plan, 5)
    tracer = Tracer()
    res = engine_cls().run(wl, machine, metrics=m_fault, tracer=tracer,
                           faults=faults)
    clean_tasks = [r for r in m_clean.rows() if r[0] == "tasks"]
    fault_tasks = [r for r in m_fault.rows() if r[0] == "tasks"]
    assert clean_tasks == fault_tasks
    # and the faulty run still conserves time
    assert check_breakdown(res.breakdown).ok
    assert check_trace(tracer, res.wall_time, machine.total_ranks).ok


@pytest.mark.parametrize("engine_cls", [MicroBSPEngine, MicroAsyncEngine])
def test_micro_deterministic_under_faults(engine_cls):
    wl, machine = _micro_setup()
    plan = FaultPlan(drop_prob=0.1, dup_prob=0.1, exchange_drop_prob=0.3,
                     rpc_max_retries=10)
    r1 = engine_cls().run(wl, machine, faults=FaultInjector(plan, 21))
    r2 = engine_cls().run(wl, machine, faults=FaultInjector(plan, 21))
    assert r1.wall_time == r2.wall_time
    assert r1.details == r2.details


def test_micro_async_fault_details_surface_retry_stats():
    wl, machine = _micro_setup()
    plan = FaultPlan(drop_prob=0.2, rpc_max_retries=10)
    res = MicroAsyncEngine().run(wl, machine,
                                 faults=FaultInjector(plan, 2))
    assert res.details["rpc_retries"] > 0
    assert res.details["rpc_timeouts"] >= res.details["rpc_retries"]
    assert res.details["faults_injected"] > 0


def test_micro_straggler_slows_the_straggling_rank():
    wl, machine = _micro_setup()
    clean = MicroBSPEngine().run(wl, machine)
    # straggle the busiest rank so the dilation lands on the critical path
    busiest = int(np.argmax(clean.breakdown.compute_align))
    plan = FaultPlan(stragglers=(
        StraggleWindow(rank=busiest, start=0.0, end=1e6, factor=4.0),
    ))
    res = MicroBSPEngine().run(wl, machine,
                               faults=FaultInjector(plan, 0))
    assert res.breakdown.compute_align[busiest] == pytest.approx(
        4.0 * clean.breakdown.compute_align[busiest])
    assert res.wall_time > clean.wall_time


def test_fault_error_hierarchy():
    assert issubclass(RpcTimeoutError, FaultError)
    assert issubclass(RankFailureError, FaultError)
