"""Elastic-ranks churn tests.

Covers the membership-churn subsystem end to end: the ``join=``/``evict=``
spec grammar (with position-echoing errors), the
:class:`DegradationSchedule` membership timeline and its edge cases,
checkpointed migration through every registered engine, the grace=0 ==
kill degeneracy, the makespan-under-churn report, the ``repro faults
validate`` subcommand, and the hypothesis property that any seeded churn
plan leaves every engine conserved and bit-reproducible.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cli import main
from repro.core.api import get_workload, run_alignment
from repro.engines.base import EngineConfig
from repro.engines.report import churn_summary
from repro.errors import ConfigurationError, RankFailureError
from repro.faults import FaultPlan, parse_fault_spec
from repro.machine.config import cori_knl
from repro.machine.degradation import (
    DegradationSchedule,
    RankEviction,
    RankJoin,
    RankKill,
    StraggleWindow,
)
from repro.obs import MetricsRegistry, Tracer, check_breakdown, check_trace

ENGINES = ("bsp", "async", "hybrid", "bsp-micro", "async-micro")

#: the shared scenario: a graced eviction plus a later join, with event
#: times inside the micro workload's wall clock for every engine
CHURN_SPEC = "evict=r1@0.005:grace=0.01,join=r3@0.02"
FAULT_SEED = 7
NODES = 2
CORES = 4  # P = 8 ranks

#: BSP engines honor churn at superstep boundaries — shrink the exchange
#: budget so the tiny micro workload runs ~6 rounds instead of one
_MULTIROUND = EngineConfig(exchange_memory_fraction=1e-5)
_CONFIGS = {"bsp": _MULTIROUND, "bsp-micro": _MULTIROUND}


def _churn_run(engine, spec, *, seed=FAULT_SEED, tracer=None, metrics=None,
               kernel="model"):
    return run_alignment(
        get_workload("micro", seed=11), NODES, engine,
        config=_CONFIGS.get(engine, EngineConfig()),
        machine=cori_knl(NODES, app_cores_per_node=CORES),
        tracer=tracer, metrics=metrics, kernel=kernel,
        fault_plan=parse_fault_spec(spec), fault_seed=seed,
    )


# -- spec grammar -----------------------------------------------------------

def test_parse_churn_spec_roundtrip():
    plan = parse_fault_spec(
        "evict=r1@20:grace=5,join=r3@10,kill=r2@30,redistribute")
    assert plan.evictions == (RankEviction(rank=1, time=20.0, grace=5.0),)
    assert plan.joins == (RankJoin(rank=3, time=10.0),)
    assert plan.kills == (RankKill(rank=2, time=30.0),)
    assert plan.active and plan.has_churn
    assert "evict=" in plan.describe() and "join=" in plan.describe()


def test_parse_evict_grace_optional_defaults_zero():
    ev = parse_fault_spec("evict=r1@5").evictions[0]
    assert ev.grace == 0.0
    assert ev.departure == 5.0


def test_parse_churn_duration_units():
    plan = parse_fault_spec("evict=r1@5ms:grace=2ms,join=r3@900us")
    assert plan.evictions[0].time == pytest.approx(5e-3)
    assert plan.evictions[0].departure == pytest.approx(7e-3)
    assert plan.joins[0].time == pytest.approx(900e-6)


def test_kill_only_plan_is_not_churn():
    plan = parse_fault_spec("kill=r1@5,redistribute")
    assert not plan.has_churn
    # churn alone also never arms RPC watchdogs (reads keep being served)
    assert not parse_fault_spec("evict=r1@5:grace=2").message_faults_possible


@pytest.mark.parametrize("spec", [
    "join=r1",                  # missing @T
    "join=r1@0",                # a t=0 join is just an initial member
    "join=rX@5",                # malformed rank
    "evict=r1@5:grace",         # dangling grace clause
    "evict=r1@5:g=2",           # wrong grace key
    "evict=r1@5:grace=-1",      # negative grace
    "evict=r1@-1",              # negative notice time
    "evict=r1@5,evict=r1@9",    # duplicate eviction
    "join=r1@5,join=r1@9",      # duplicate join
    "kill=r1@5,evict=r1@9",     # a rank can leave only once
    "kill=r1@5,join=r1@9",      # dies before arriving
    "evict=r1@5,join=r1@9",     # evicted before arriving
])
def test_parse_rejects_malformed_churn(spec):
    with pytest.raises(ConfigurationError):
        parse_fault_spec(spec)


def test_parse_error_echoes_token_and_position():
    """Satellite pin: errors name the offending token AND its char offset."""
    with pytest.raises(ConfigurationError,
                       match=r"'join=rX@5' \(at char 9\)"):
        parse_fault_spec("drop=0.1,join=rX@5")
    with pytest.raises(ConfigurationError,
                       match=r"'bogus=1' \(at char 13\)"):
        parse_fault_spec("evict=r1@5,  bogus=1")


# -- membership timeline edge cases -----------------------------------------

def test_kill_at_time_zero():
    sched = DegradationSchedule(kills=(RankKill(rank=0, time=0.0),))
    assert not sched.alive(0, 0.0)
    assert [r for r in range(2) if sched.alive(r, 0.0)] == [1]
    assert [(e.kind, e.rank, e.time) for e in sched.membership_events()] \
        == [("kill", 0, 0.0)]


def test_evict_at_time_zero_grace_zero_is_a_single_departure():
    sched = DegradationSchedule(evictions=(RankEviction(0, 0.0, 0.0),))
    # the simultaneous notice carries no information and is collapsed
    assert [(e.kind, e.time) for e in sched.membership_events()] \
        == [("evict_depart", 0.0)]
    assert not sched.alive(0, 0.0)


def test_evict_at_time_zero_with_grace_keeps_rank_through_window():
    sched = DegradationSchedule(evictions=(RankEviction(0, 0.0, 2.0),))
    assert [(e.kind, e.time) for e in sched.membership_events()] \
        == [("evict_notice", 0.0), ("evict_depart", 2.0)]
    assert sched.alive(0, 1.0)
    assert not sched.alive(0, 2.0)
    # notices are not membership *changes*
    assert sched.next_membership_change(0.0) == 2.0
    assert sched.next_membership_change(2.0) is None


#: one join, one grace-0 eviction and one kill at the same instant
EQUAL_TIME_SPEC = "join=r3@5,evict=r1@5:grace=0,kill=r2@5,redistribute"


def test_equal_time_events_apply_join_then_evict_then_kill():
    sched = parse_fault_spec(EQUAL_TIME_SPEC).schedule
    assert [(e.kind, e.rank) for e in sched.membership_events()] \
        == [("join", 3), ("evict_depart", 1), ("kill", 2)]


def test_equal_time_notice_and_departure_both_sort_as_evictions():
    # rank 2's notice and rank 1's departure share t=5: both are evictions,
    # so they go by rank, after the join and before the kill
    sched = parse_fault_spec(
        "kill=r0@5,evict=r2@5:grace=1,evict=r1@3:grace=2,join=r4@5,"
        "redistribute").schedule
    assert [(e.time, e.kind, e.rank) for e in sched.membership_events()] \
        == [(3.0, "evict_notice", 1), (5.0, "join", 4),
            (5.0, "evict_depart", 1), (5.0, "evict_notice", 2),
            (5.0, "kill", 0), (6.0, "evict_depart", 2)]


def test_overlapping_straggle_windows_multiply():
    sched = DegradationSchedule(stragglers=(
        StraggleWindow(rank=1, start=0.0, end=4.0, factor=2.0),
        StraggleWindow(rank=1, start=2.0, end=6.0, factor=3.0),
    ))
    assert sched.straggle_factor(1, 1.0) == 2.0
    assert sched.straggle_factor(1, 3.0) == 6.0   # overlap compounds
    assert sched.straggle_factor(1, 5.0) == 3.0
    # exact piecewise mean over [0, 4]: 2s at 2x + 2s at 6x
    assert sched.mean_straggle_factor(1, 0.0, 4.0) == pytest.approx(4.0)


def test_kill_after_eviction_of_same_rank_rejected():
    with pytest.raises(ConfigurationError, match="both evicted and killed"):
        DegradationSchedule(
            kills=(RankKill(rank=1, time=9.0),),
            evictions=(RankEviction(rank=1, time=2.0, grace=1.0),),
        )


def test_spot_instance_lifecycle_queries():
    # joins at 5, eviction notice at 8 with grace 2 => departs at 10
    sched = DegradationSchedule(
        joins=(RankJoin(rank=2, time=5.0),),
        evictions=(RankEviction(rank=2, time=8.0, grace=2.0),),
    )
    assert sched.join_time(2) == 5.0 and sched.join_time(0) is None
    assert sched.departure_time(2) == 10.0
    assert sched.eviction_of(2).grace == 2.0
    assert not sched.alive(2, 4.9)
    assert sched.alive(2, 5.0) and sched.alive(2, 9.9)
    assert not sched.alive(2, 10.0)
    assert sched.alive_mask(4.0, 4).tolist() == [True, True, False, True]
    assert sched.alive_mask(6.0, 4).all()


def test_plan_schedule_threads_churn():
    plan = FaultPlan(evictions=(RankEviction(1, 5.0, 2.0),),
                     joins=(RankJoin(3, 10.0),))
    assert plan.active and plan.has_churn
    assert plan.schedule.has_churn
    assert plan.schedule.departure_time(1) == 7.0


# -- every engine under churn ------------------------------------------------

@pytest.mark.parametrize("engine", ENGINES)
def test_engine_churn_completes_conserved_and_reproducible(engine):
    """The acceptance scenario: >=1 graced eviction + >=1 join on every
    registered engine — conserved, honored with nonzero migration
    accounting, and bit-identical across two same-seed runs."""
    tracer = Tracer()
    metrics = MetricsRegistry(NODES * CORES)
    r1 = _churn_run(engine, CHURN_SPEC, tracer=tracer, metrics=metrics)
    r2 = _churn_run(engine, CHURN_SPEC)
    assert check_breakdown(r1.breakdown).ok
    assert check_trace(tracer, r1.wall_time, NODES * CORES).ok
    assert r1.signature() == r2.signature()

    ch = r1.details["churn"]
    assert ch["evictions_honored"] == [1]
    assert ch["joins_honored"] == [3]
    assert ch["tasks_migrated"] > 0
    assert ch["migration_bytes"] > 0
    assert ch["migration_seconds"] > 0
    kinds = r1.details["fault_kinds"]
    assert kinds["evict"] == 1 and kinds["join"] == 1
    assert kinds["migrate"] >= 1


@pytest.mark.parametrize("engine", ENGINES)
def test_engine_churn_work_is_neither_lost_nor_duplicated(engine):
    """Eviction handoffs and join reclaims must not change what is
    computed: per-rank task totals sum to the fault-free total."""
    m_clean = MetricsRegistry(NODES * CORES)
    run_alignment(get_workload("micro", seed=11), NODES, engine,
                  config=_CONFIGS.get(engine, EngineConfig()),
                  machine=cori_knl(NODES, app_cores_per_node=CORES),
                  metrics=m_clean)
    m_churn = MetricsRegistry(NODES * CORES)
    _churn_run(engine, CHURN_SPEC, metrics=m_churn)
    assert m_churn.get("tasks").sum() == m_clean.get("tasks").sum()


def test_micro_bsp_churn_alignments_match_fault_free_real_kernel():
    """With the real kernel, the churned run produces exactly the
    fault-free alignments (the strongest no-lost-no-duplicated check)."""
    clean = _churn_run("bsp-micro", CHURN_SPEC, kernel="real")
    base = run_alignment(get_workload("micro", seed=11), NODES, "bsp-micro",
                         config=_MULTIROUND,
                         machine=cori_knl(NODES, app_cores_per_node=CORES),
                         kernel="real")

    def norm(alignments):
        return sorted((a.read_a, a.read_b, a.score, a.begin_a, a.end_a,
                       a.begin_b, a.end_b) for a in alignments)

    assert norm(clean.alignments) == norm(base.alignments)


# -- grace=0 degenerates to kill semantics ----------------------------------

@pytest.mark.parametrize("engine", ["bsp", "async", "hybrid"])
def test_macro_grace_zero_evict_is_bitwise_kill_redistribute(engine):
    """Satellite pin: grace=0 means nothing can be checkpointed, so the
    arithmetic must be exactly the kill+redistribute path."""
    ev = _churn_run(engine, "evict=r1@0.005:grace=0")
    ki = _churn_run(engine, "kill=r1@0.005,redistribute")
    assert ev.wall_time == ki.wall_time
    for cat in ("compute_align", "compute_overhead", "comm", "sync"):
        assert np.array_equal(ev.breakdown.category(cat),
                              ki.breakdown.category(cat))
    assert (ev.details["tasks_redistributed"]
            == ki.details["tasks_redistributed"])


def test_micro_bsp_grace_zero_checkpoints_nothing():
    """grace=0 on a micro BSP run: the delegate re-executes the lost
    work from its own inputs — no checkpoint bytes move."""
    res = _churn_run("bsp-micro", "evict=r1@0.005:grace=0")
    ch = res.details["churn"]
    assert ch["evictions_honored"] == [1]
    assert ch["tasks_migrated"] == 0
    assert ch["migration_bytes"] == 0


@pytest.mark.parametrize("engine", ["bsp-micro", "async-micro"])
def test_micro_grace_zero_completes_with_full_work(engine):
    m_clean = MetricsRegistry(NODES * CORES)
    run_alignment(get_workload("micro", seed=11), NODES, engine,
                  config=_CONFIGS.get(engine, EngineConfig()),
                  machine=cori_knl(NODES, app_cores_per_node=CORES),
                  metrics=m_clean)
    m_g0 = MetricsRegistry(NODES * CORES)
    res = _churn_run(engine, "evict=r1@0.005:grace=0", metrics=m_g0)
    assert res.details["churn"]["evictions_honored"] == [1]
    assert m_g0.get("tasks").sum() == m_clean.get("tasks").sum()


# -- kills under churn still need the redistribute flag ----------------------

@pytest.mark.parametrize("engine", ENGINES)
def test_kill_under_churn_requires_redistribute(engine):
    with pytest.raises(RankFailureError, match="rank 1"):
        _churn_run(engine, "kill=r1@0.005,join=r3@0.02")


@pytest.mark.parametrize("engine", ENGINES)
def test_kill_plus_join_with_flag_completes(engine):
    res = _churn_run(engine, "kill=r1@0.005,join=r3@0.02,redistribute")
    assert res.details["churn"]["joins_honored"] == [3]


# -- one plan-vs-machine check, one wording, on every engine -----------------

@pytest.mark.parametrize("engine", ENGINES)
def test_all_join_plan_is_refused_with_one_wording(engine):
    spec = ",".join(f"join=r{r}@1ms" for r in range(NODES * CORES))
    with pytest.raises(RankFailureError) as info:
        _churn_run(engine, spec)
    assert str(info.value) == (
        "no initial members: every rank of the machine joins mid-run; "
        "at least one rank must start the job")


@pytest.mark.parametrize("clause,rendered", [
    ("join=r8@1ms", "join=r8@0.001"),
    ("evict=r8@1ms:grace=1ms", "evict=r8@0.001:grace=0.001"),
    ("kill=r8@1ms", "kill=r8@0.001"),
    ("straggle=2@r8:0:1", "straggle=2@r8:0:1"),
])
@pytest.mark.parametrize("engine", ENGINES)
def test_clause_on_a_missing_rank_is_a_configuration_error(engine, clause,
                                                           rendered):
    with pytest.raises(ConfigurationError) as info:
        _churn_run(engine, clause + ",redistribute")
    assert str(info.value) == (
        f"fault clause '{rendered}' names rank 8, but the machine has "
        f"8 ranks (0..7)")


def test_cli_run_rank_out_of_range_exits_2(capsys):
    rc = main(["run", "--workload", "micro", "--nodes", "1",
               "--cores-per-node", "2", "--faults", "join=r9@1ms"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "fault clause 'join=r9@0.001' names rank 9" in err
    assert "Traceback" not in err


# -- the makespan-under-churn report ----------------------------------------

def test_churn_summary_absent_without_churn():
    assert churn_summary({}) is None
    assert churn_summary({"churn": {}}) is None


def test_churn_summary_wording():
    res = _churn_run("async", CHURN_SPEC)
    line = churn_summary(res.details)
    assert line.startswith("job finished despite 1 eviction(s), 1 join(s)")
    assert "evicted=r1" in line and "joined=r3" in line
    assert "migration overhead" in line and "bytes moved" in line


# -- CLI: repro faults validate + churn reports ------------------------------

def test_cli_faults_validate_prints_timeline(capsys):
    rc = main(["faults", "validate",
               "evict=r1@5:grace=2,join=r3@10,kill=r2@30,redistribute"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "membership timeline:" in out
    assert "rank 1 receives eviction notice" in out
    assert "rank 1 departs" in out
    assert "rank 3 joins" in out
    assert "rank 2 killed" in out
    assert "redistribute=on" in out


def test_cli_faults_validate_prints_equal_time_events_in_order(capsys):
    assert main(["faults", "validate", EQUAL_TIME_SPEC]) == 0
    out = capsys.readouterr().out
    joins = out.index("rank 3 joins")
    departs = out.index("rank 1 departs")
    killed = out.index("rank 2 killed")
    assert joins < departs < killed


def test_cli_faults_validate_bad_spec_exits_2(capsys):
    rc = main(["faults", "validate", "join=rX@5"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "at char" in err and "join=rX@5" in err
    assert "Traceback" not in err


def test_cli_faults_validate_non_churn_spec(capsys):
    rc = main(["faults", "validate", "drop=0.05,straggle=2@r1:0:10"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "drop=0.05" in out


def test_cli_run_prints_churn_report(capsys):
    rc = main(["run", "--workload", "micro", "--nodes", str(NODES),
               "--cores-per-node", str(CORES), "--engine", "async",
               "--faults", CHURN_SPEC, "--fault-seed", str(FAULT_SEED)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "churn report: job finished despite 1 eviction(s), 1 join(s)" in out
    assert "migration overhead" in out


def test_cli_compare_prints_per_engine_churn(capsys):
    rc = main(["compare", "--workload", "micro", "--nodes", str(NODES),
               "--cores-per-node", str(CORES),
               "--faults", CHURN_SPEC, "--fault-seed", str(FAULT_SEED)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Degradation under faults" in out
    assert "churn:" in out
    assert "job finished despite" in out


# -- property: any seeded churn plan -----------------------------------------

@st.composite
def churn_plans(draw):
    """An arbitrary valid churn plan scaled to the micro workload's wall
    clock (~0.04-0.06 s for every engine at 8 ranks)."""
    evictions = (RankEviction(
        rank=draw(st.sampled_from([1, 2])),
        time=draw(st.sampled_from([0.0, 0.003, 0.01])),
        grace=draw(st.sampled_from([0.0, 0.004, 0.02]))),)
    joins = ()
    if draw(st.booleans()):
        joins = (RankJoin(rank=draw(st.sampled_from([3, 4])),
                          time=draw(st.sampled_from([0.008, 0.02]))),)
    kills = ()
    redistribute = draw(st.booleans())
    if draw(st.booleans()):
        # unflagged kills raising is pinned separately; the property is
        # about completed runs, so killed plans always carry the flag
        kills = (RankKill(rank=5, time=draw(st.sampled_from([0.004, 0.015]))),)
        redistribute = True
    stragglers = ()
    if draw(st.booleans()):
        stragglers = (StraggleWindow(rank=0, start=0.0, end=1e6,
                                     factor=draw(st.sampled_from([1.5, 3.0]))),)
    return FaultPlan(kills=kills, joins=joins, evictions=evictions,
                     stragglers=stragglers, redistribute=redistribute)


@settings(max_examples=6, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(engine=st.sampled_from(ENGINES), plan=churn_plans(),
       fault_seed=st.integers(min_value=0, max_value=3))
def test_any_churn_plan_conserved_and_reproducible(engine, plan, fault_seed):
    wl = get_workload("micro", seed=11)
    machine = cori_knl(NODES, app_cores_per_node=CORES)
    config = _CONFIGS.get(engine, EngineConfig())
    tracer = Tracer()
    r1 = run_alignment(wl, NODES, engine, config=config, machine=machine,
                       tracer=tracer, fault_plan=plan, fault_seed=fault_seed)
    r2 = run_alignment(wl, NODES, engine, config=config, machine=machine,
                       fault_plan=plan, fault_seed=fault_seed)
    assert check_breakdown(r1.breakdown).ok
    assert check_trace(tracer, r1.wall_time, NODES * CORES).ok
    assert r1.signature() == r2.signature()
