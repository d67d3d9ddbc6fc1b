"""Property tests: graceful degradation under arbitrary fault plans.

Two properties anchor the fault-injection subsystem (hypothesis-driven):

1. **Safety.** With *any* generated :class:`FaultPlan`, every engine run
   either completes — with alignment work identical to the fault-free run
   and the time-conservation invariant intact — or raises a typed
   :class:`FaultError` / :class:`RankFailureError`.  Never a silent hang,
   never a wrong answer, never an untyped crash.

2. **Determinism.** The same fault plan and fault seed reproduce the run
   bit-for-bit: identical wall clock, identical retry counters, identical
   trace.  Faulty runs stay debuggable and comparable across engines.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.api import get_workload
from repro.engines.async_ import AsyncEngine
from repro.engines.bsp import BSPEngine
from repro.engines.micro import MicroAsyncEngine, MicroBSPEngine
from repro.errors import ConfigurationError, FaultError, RankFailureError
from repro.faults import FaultInjector, FaultPlan
from repro.genome.datasets import DatasetSpec
from repro.machine.config import cori_knl
from repro.machine.degradation import (
    LinkWindow,
    RankJoin,
    RankKill,
    StraggleWindow,
)
from repro.obs import MetricsRegistry, Tracer, check_breakdown, check_trace
from repro.pipeline.workload import StatisticalWorkload

# about a third of the drawn plans do not fit the machine and are refused
# up front; the example counts keep ~12 and ~5 fitting plans running
MACRO = settings(
    max_examples=18,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
MICRO = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

NUM_RANKS = 8  # 2 nodes x 4 app cores everywhere below


def make_wl(seed):
    spec = DatasetSpec(
        name="prop-faults", species="synthetic",
        n_reads=6000, n_tasks=120_000,
        coverage=15.0, error_rate=0.1,
        mean_read_length=9000.0, length_sigma=0.3,
    )
    return StatisticalWorkload(spec, seed=seed)


@st.composite
def fault_plans(draw, kills_allowed=True):
    """An arbitrary-but-valid FaultPlan, which may not fit the machine:
    straggle and kill clauses may name ranks up to P + 1, and every rank
    may join mid-run."""
    drop = draw(st.sampled_from([0.0, 0.02, 0.1]))
    delay = draw(st.sampled_from([0.0, 0.05]))
    dup = draw(st.sampled_from([0.0, 0.05]))
    xchg = draw(st.sampled_from([0.0, 0.3, 0.8]))

    links = ()
    if draw(st.booleans()):
        links = (LinkWindow(start=0.0, end=draw(st.sampled_from([1.0, 1e6])),
                            bandwidth_factor=draw(st.sampled_from([0.25, 0.5])),
                            latency_factor=draw(st.sampled_from([1.0, 4.0]))),)
    stragglers = ()
    if draw(st.booleans()):
        stragglers = (StraggleWindow(
            rank=draw(st.integers(0, NUM_RANKS + 1)),
            start=0.0, end=draw(st.sampled_from([2.0, 1e6])),
            factor=draw(st.sampled_from([1.5, 3.0]))),)
    kills = ()
    redistribute = False
    if kills_allowed and draw(st.booleans()):
        kills = (RankKill(rank=draw(st.integers(0, NUM_RANKS + 1)),
                          time=draw(st.sampled_from([0.5, 5.0, 60.0]))),)
        redistribute = draw(st.booleans())
    joins = ()
    if draw(st.sampled_from([False, False, False, True])):
        # before every kill time, so the plan itself stays valid
        joins = tuple(RankJoin(rank=r, time=0.1) for r in range(NUM_RANKS))

    return FaultPlan(
        drop_prob=drop,
        delay_prob=delay, delay_seconds=2e-3 if delay else 0.0,
        dup_prob=dup,
        exchange_drop_prob=xchg,
        links=links, stragglers=stragglers, kills=kills, joins=joins,
        redistribute=redistribute,
        rpc_max_retries=10,
    )


def _norm(details):
    """Details may hold numpy arrays; normalize for == comparison."""
    return {k: (v.tolist() if hasattr(v, "tolist") else v)
            for k, v in details.items()}


def _misfit(plan, num_ranks):
    """The error a plan that does not fit the machine must raise up front:
    a clause naming a rank >= P, else every rank joining; ``None`` when
    the plan fits."""
    if any(c.rank >= num_ranks for c in (*plan.joins, *plan.evictions,
                                         *plan.kills, *plan.stragglers)):
        return ConfigurationError
    if len(plan.joins) == num_ranks:
        return RankFailureError
    return None


def _run_checked(engine, run_args, machine, plan, fault_seed):
    """Run under the plan; return (result, tracer, metrics) on completion,
    None when the engine (correctly) raised a typed error."""
    tracer = Tracer()
    metrics = MetricsRegistry(machine.total_ranks)
    misfit = _misfit(plan, machine.total_ranks)
    try:
        res = engine.run(*run_args, machine, tracer=tracer, metrics=metrics,
                         faults=FaultInjector(plan, fault_seed))
    except (ConfigurationError, FaultError) as exc:
        if misfit is not None:
            # a plan that does not fit the machine is refused before any
            # simulated time passes, with the check's own error
            assert type(exc) is misfit, exc
            assert not tracer.events
            return None
        # typed refusal is an acceptable outcome — but only if the plan
        # could actually have killed someone
        assert isinstance(exc, FaultError) and plan.kills
        return None
    assert misfit is None, "a plan that does not fit the machine ran"
    breakdown_report = check_breakdown(res.breakdown)
    trace_report = check_trace(tracer, res.wall_time, machine.total_ranks)
    assert breakdown_report.ok, breakdown_report.describe()
    assert trace_report.ok, trace_report.describe()
    return res, tracer, metrics


@MACRO
@given(
    engine_cls=st.sampled_from([BSPEngine, AsyncEngine]),
    plan=fault_plans(),
    fault_seed=st.integers(min_value=0, max_value=5),
)
def test_macro_completes_conserved_or_typed_error(engine_cls, plan,
                                                  fault_seed):
    machine = cori_knl(2, app_cores_per_node=4)
    wl = make_wl(0)
    assignment = wl.assignment(machine.total_ranks)
    out = _run_checked(engine_cls(), (assignment,), machine, plan, fault_seed)
    if out is None:
        return
    res, _, _ = out
    clean = engine_cls().run(assignment, machine)
    # faults only ever slow a run down (or kill it) — never speed it up
    assert res.wall_time >= clean.wall_time * (1 - 1e-12)
    if plan.kills and res.details.get("ranks_lost"):
        assert plan.redistribute


@MACRO
@given(
    engine_cls=st.sampled_from([BSPEngine, AsyncEngine]),
    plan=fault_plans(),
    fault_seed=st.integers(min_value=0, max_value=5),
)
def test_macro_same_seed_same_run(engine_cls, plan, fault_seed):
    """Same fault plan + fault seed => identical wall clock, retry
    counters, and trace."""
    machine = cori_knl(2, app_cores_per_node=4)
    assignment = make_wl(1).assignment(machine.total_ranks)
    a = _run_checked(engine_cls(), (assignment,), machine, plan, fault_seed)
    b = _run_checked(engine_cls(), (assignment,), machine, plan, fault_seed)
    if a is None or b is None:
        assert (a is None) == (b is None)  # even the refusal is reproducible
        return
    res_a, tr_a, m_a = a
    res_b, tr_b, m_b = b
    assert res_a.wall_time == res_b.wall_time
    assert _norm(res_a.details) == _norm(res_b.details)
    assert repr(m_a.rows()) == repr(m_b.rows())
    assert tr_a.to_chrome() == tr_b.to_chrome()


@MICRO
@given(
    engine_cls=st.sampled_from([MicroBSPEngine, MicroAsyncEngine]),
    plan=fault_plans(kills_allowed=False),
    fault_seed=st.integers(min_value=0, max_value=3),
)
def test_micro_faulty_run_conserves_and_computes_everything(engine_cls, plan,
                                                            fault_seed):
    """Message-level faults must be absorbed: the faulty run conserves
    time AND performs exactly the fault-free alignment work (idempotent
    delivery, retried supersteps — every task runs once)."""
    wl = get_workload("micro", seed=0)
    machine = cori_knl(2, app_cores_per_node=4)
    out = _run_checked(engine_cls(), (wl,), machine, plan, fault_seed)
    if out is None:
        # no kills => only a plan that does not fit may stop the run
        assert _misfit(plan, machine.total_ranks) is not None
        return
    _, _, metrics = out
    m_clean = MetricsRegistry(machine.total_ranks)
    engine_cls().run(wl, machine, metrics=m_clean)
    assert metrics.get("tasks").tolist() == m_clean.get("tasks").tolist()


@MICRO
@given(
    engine_cls=st.sampled_from([MicroBSPEngine, MicroAsyncEngine]),
    plan=fault_plans(kills_allowed=False),
    fault_seed=st.integers(min_value=0, max_value=3),
)
def test_micro_same_seed_same_run(engine_cls, plan, fault_seed):
    wl = get_workload("micro", seed=0)
    machine = cori_knl(2, app_cores_per_node=4)
    a = _run_checked(engine_cls(), (wl,), machine, plan, fault_seed)
    b = _run_checked(engine_cls(), (wl,), machine, plan, fault_seed)
    if a is None or b is None:
        assert (a is None) == (b is None)
        return
    res_a, tr_a, m_a = a
    res_b, tr_b, m_b = b
    assert res_a.wall_time == res_b.wall_time
    assert _norm(res_a.details) == _norm(res_b.details)
    assert repr(m_a.rows()) == repr(m_b.rows())
    assert tr_a.to_chrome() == tr_b.to_chrome()


def test_micro_kill_is_typed_never_silent():
    """Non-property companion: a kill on a micro engine is always a typed
    RankFailureError (micro engines cannot redistribute)."""
    from repro.errors import RankFailureError

    wl = get_workload("micro", seed=0)
    machine = cori_knl(2, app_cores_per_node=4)
    plan = FaultPlan(kills=(RankKill(rank=3, time=1e-4),))
    for engine_cls in (MicroBSPEngine, MicroAsyncEngine):
        with pytest.raises(RankFailureError):
            engine_cls().run(wl, machine, faults=FaultInjector(plan, 0))
