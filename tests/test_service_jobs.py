"""Job state machine, request canonicalization, and the event log.

The contracts under test (docs/SERVICE.md): every job walks the declared
lifecycle and nothing else (``JobStateError`` on an illegal move), errors
are captured *typed*, the cache key covers exactly the result-affecting
request fields (execution-only knobs, shard size and resident budget
excluded — the golden suite pins them as bit-identical — but not the
choice of the streamed Table-1 model), and the per-job event log is a
capped, closable, replayable stream.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.engines.base import EngineConfig
from repro.errors import (
    ConfigurationError,
    JobCancelledError,
    JobStateError,
    ServiceError,
)
from repro.service import (
    Job,
    JobEventLog,
    JobRequest,
    JobState,
    ProgressTracer,
    known_engines,
)
from repro.service.events import PROGRESS_EVERY


def _result():
    """A tiny real RunResult for driving terminal transitions."""
    from repro.core.api import get_workload, run_alignment

    return run_alignment(get_workload("micro", seed=3), 1, "bsp",
                         cores_per_node=4)


# -- the state machine -------------------------------------------------------

def test_happy_path_walks_declared_lifecycle():
    job = Job(JobRequest())
    assert job.state == JobState.QUEUED and not job.done
    job.mark_admitted()
    assert job.state == JobState.ADMITTED
    job.mark_running()
    assert job.state == JobState.RUNNING
    job.finish(_result())
    assert job.state == JobState.DONE and job.done
    assert job.wait(0.0)  # terminal => wait returns immediately
    assert job.error is None and not job.cache_hit
    # timestamps landed in order
    assert (job.created_at <= job.admitted_at <= job.started_at
            <= job.finished_at)


def test_cache_hit_short_circuits_queued_to_done():
    job = Job(JobRequest())
    job.finish(_result(), cache_hit=True, source="cache")
    assert job.state == JobState.DONE
    assert job.cache_hit and job.cache_source == "cache"


@pytest.mark.parametrize("illegal", [
    lambda j: j.mark_running(),          # QUEUED -> RUNNING skips ADMITTED
    lambda j: (j.mark_admitted(), j.mark_admitted()),
    lambda j: (j.finish(None), j.mark_admitted()),  # out of a terminal
    lambda j: (j.cancelled("x"), j.finish(None)),
    lambda j: (j.cancelled("x"), j.fail(ValueError("y"))),
])
def test_illegal_transitions_raise_typed(illegal):
    job = Job(JobRequest())
    with pytest.raises(JobStateError, match="illegal transition"):
        illegal(job)


def test_failure_is_captured_typed_not_as_traceback():
    job = Job(JobRequest())
    job.mark_admitted()
    job.mark_running()
    job.fail(ConfigurationError("bad knob"))
    assert job.state == JobState.FAILED
    assert job.error == {"type": "ConfigurationError", "message": "bad knob"}


def test_cancellation_records_typed_error_and_closes_events():
    job = Job(JobRequest())
    job.cancelled("queue shut down")
    assert job.state == JobState.CANCELLED
    assert job.error["type"] == "JobCancelledError"
    assert job.events.closed
    kinds = [e["event"] for e in job.events.snapshot()]
    assert kinds[-1] == "done"
    done = job.events.snapshot()[-1]
    assert done["state"] == JobState.CANCELLED


def test_state_events_mirror_the_machine():
    job = Job(JobRequest())
    job.mark_admitted()
    job.mark_running()
    job.finish(_result())
    states = [e["state"] for e in job.events.snapshot()
              if e["event"] == "state"]
    assert states == [JobState.QUEUED, JobState.ADMITTED,
                      JobState.RUNNING, JobState.DONE]
    seqs = [e["seq"] for e in job.events.snapshot()]
    assert seqs == sorted(seqs) == list(range(len(seqs)))


# -- request validation ------------------------------------------------------

def test_from_dict_rejects_unknown_fields():
    with pytest.raises(ConfigurationError, match="unknown request field"):
        JobRequest.from_dict({"workload": "micro", "engin": "bsp"})


def test_unknown_config_override_rejected():
    with pytest.raises(ConfigurationError, match="unknown EngineConfig"):
        JobRequest(config={"asyncc_window": 3}).validate()


@pytest.mark.parametrize("bad", [
    {"workload": "nope"},
    {"engine": "warp"},
    {"kernel": "cuda"},
    {"nodes": 0},
    {"max_resident_shards": 0},
    {"faults": "kill=banana"},
    # micro-only knobs on an analytic engine
    {"engine": "bsp", "kernel": "real"},
    {"engine": "async", "config": {"backend": "process"}},
    # message-level engine over a statistical preset
    {"engine": "bsp-micro", "workload": "ecoli30x"},
    # pool knobs on a micro engine that never runs the kernel
    {"engine": "bsp-micro", "config": {"backend": "process"}},
    {"engine": "async-micro", "config": {"backend": "auto"}},
    {"engine": "bsp-micro", "config": {"workers": 2}},
    # overrides of the wrong type, and of removed fields
    {"config": {"hybrid_aggregation": 2.5}},
    {"config": {"seed": "abc"}},
    {"config": {"seed": 1.5}},
    {"config": {"mode": "comm_only"}},
    {"engine": "bsp-micro", "kernel": "real", "config": {"chunk_tasks": 7}},
    {"config": {"multiround_efficiency": 0.5}},
])
def test_invalid_requests_fail_fast(bad):
    with pytest.raises(ConfigurationError):
        JobRequest.from_dict(bad)


@pytest.mark.parametrize("bad", [
    # these raised TypeError/AttributeError past the HTTP handler
    {"nodes": "2"},
    {"config": 5},
    {"faults": 5},
    {"workload": ["micro"]},
    # and these were accepted and given a cache key
    {"seed": "x"},
    {"seed": -1},
    {"priority": "hi"},
    {"comm_only": "yes"},
    {"shard_tasks": 1.5},
    {"cores_per_node": True},
])
def test_wrongly_typed_fields_are_configuration_errors(bad):
    with pytest.raises(ConfigurationError, match=next(iter(bad))):
        JobRequest.from_dict(bad)


def test_known_engines_includes_registry_and_auto():
    names = known_engines()
    assert "bsp" in names and "async-micro" in names and "auto" in names
    JobRequest(engine="auto").validate()  # auto is submittable


# -- cache-key semantics -----------------------------------------------------

def test_execution_only_knobs_do_not_move_the_key():
    base = JobRequest(engine="bsp-micro", kernel="real")
    pool = JobRequest(engine="bsp-micro", kernel="real",
                      config={"backend": "process", "workers": 4})
    assert base.cache_key() == pool.cache_key()


def test_shard_knobs_key_only_the_streamed_model():
    """On a Table-1 preset, ``shard_tasks > 0`` is another model: it keys
    apart from the statistical run, but shard size and resident budget do
    not.  A sequence-level preset ignores the knobs."""
    streamed = {JobRequest(workload="ecoli30x", shard_tasks=shard,
                           max_resident_shards=resident).cache_key()
                for shard in (5000, 131072) for resident in (2, 4)}
    assert len(streamed) == 1
    assert JobRequest(workload="ecoli30x").cache_key() not in streamed
    micro = {JobRequest(workload="micro", shard_tasks=shard,
                        max_resident_shards=resident).cache_key()
             for shard in (0, 5000, 131072) for resident in (2, 4)}
    assert micro == {JobRequest(workload="micro").cache_key()}


def test_int_and_float_spellings_share_the_key():
    assert (JobRequest(config={"noise_fraction": 0}).cache_key()
            == JobRequest(config={"noise_fraction": 0.0}).cache_key())


def test_priority_is_not_identity():
    assert (JobRequest(priority=0).cache_key()
            == JobRequest(priority=9).cache_key())


@pytest.mark.parametrize("a,b", [
    (JobRequest(seed=0), JobRequest(seed=1)),
    (JobRequest(engine="bsp"), JobRequest(engine="async")),
    (JobRequest(nodes=2), JobRequest(nodes=4)),
    (JobRequest(cores_per_node=4), JobRequest(cores_per_node=8)),
    (JobRequest(), JobRequest(faults="drop=0.05")),
    (JobRequest(faults="kill=r1@1"), JobRequest(faults="kill=r1@1",
                                                fault_seed=7)),
    (JobRequest(), JobRequest(config={"async_window": 3})),
    (JobRequest(), JobRequest(comm_only=True)),
    (JobRequest(engine="bsp-micro"), JobRequest(engine="bsp-micro",
                                                kernel="real")),
])
def test_result_affecting_fields_move_the_key(a, b):
    assert a.cache_key() != b.cache_key()


def test_engine_config_defaults_match_golden_construction():
    # the service must reproduce tools/regen_goldens.py's config exactly:
    # EngineConfig() defaults, *not* seeded from the workload seed
    assert JobRequest(seed=11).engine_config() == EngineConfig()


# -- the event log -----------------------------------------------------------

def test_event_log_caps_and_marks_truncation():
    log = JobEventLog(cap=5)
    for i in range(9):
        log.append("phase", i=i)
    events = log.snapshot()
    kinds = [e["event"] for e in events]
    assert kinds.count("phase") == 5
    assert kinds.count("truncated") == 1
    assert log.dropped == 4
    # essential kinds still land past the cap
    log.append("done", state="DONE")
    assert log.snapshot()[-1]["event"] == "done"


def test_event_log_replays_from_since():
    log = JobEventLog()
    for i in range(6):
        log.append("phase", i=i)
    tail = log.snapshot(since=4)
    assert [e["seq"] for e in tail] == [4, 5]


def test_event_log_stream_ends_after_close():
    log = JobEventLog()
    log.append("state", state="QUEUED")
    log.append("done", state="DONE")
    log.close()
    assert [e["event"] for e in log.stream(poll=0.01)] == ["state", "done"]
    log.append("phase")  # post-close appends are dropped
    assert len(log) == 2


def test_event_log_seq_is_the_index_and_snapshot_slices_like_the_filter():
    log = JobEventLog(cap=5)
    for i in range(9):
        log.append("phase", i=i)
    log.append("done", state="DONE")
    full = log.snapshot()
    assert [e["seq"] for e in full] == list(range(len(full)))
    for since in range(len(full) + 3):
        assert log.snapshot(since) == [e for e in full if e["seq"] >= since]


@pytest.mark.parametrize("read", [
    lambda log: log.snapshot(-1),
    lambda log: list(log.stream(since=-2, poll=0.01)),
    lambda log: next(log.batches(since=-1, poll=0.01)),
])
def test_event_log_rejects_negative_since(read):
    log = JobEventLog()
    for i in range(4):
        log.append("phase", i=i)
    log.close()
    with pytest.raises(ConfigurationError, match="non-negative"):
        read(log)


def test_truncated_marker_wakes_a_live_tailer():
    log = JobEventLog(cap=3)
    seen: list[str] = []
    marker = threading.Event()

    def tail():
        for event in log.stream(poll=5.0):
            seen.append(event["event"])
            if event["event"] == "truncated":
                marker.set()

    tailer = threading.Thread(target=tail, daemon=True)
    tailer.start()
    for i in range(3):
        log.append("progress", phases=i)
    deadline = time.monotonic() + 5.0
    while len(seen) < 3 and time.monotonic() < deadline:
        time.sleep(0.005)
    time.sleep(0.1)  # the tailer is blocked waiting for the next event
    log.append("phase", i=3)  # past the cap: dropped, marker recorded
    assert marker.wait(1.0), "truncated marker not delivered live"
    log.close()
    tailer.join(5.0)
    assert seen == ["progress"] * 3 + ["truncated"]


def test_phases_ride_with_the_next_other_event():
    log = JobEventLog()
    tail = log.batches(poll=10.0)
    log.append("phase", i=0)
    log.append("progress", phases=1)
    log.append("phase", i=1)  # held back: no later event releases it yet
    log.append("phase", i=2)
    assert [e["event"] for e in next(tail)] == ["phase", "progress"]
    log.append("state", state="DONE")
    assert [e["event"] for e in next(tail)] == ["phase", "phase", "state"]
    log.append("phase", i=3)
    log.close()  # the end of the log releases everything
    assert [e["event"] for e in next(tail)] == ["phase"]
    assert next(tail, None) is None


def test_a_poll_timeout_releases_held_phases():
    log = JobEventLog()
    log.append("phase", i=0)
    start = time.monotonic()
    assert [e["event"] for e in next(log.batches(poll=0.05))] == ["phase"]
    assert time.monotonic() - start < 2.0


def test_batches_end_at_the_same_events_whatever_the_scheduling():
    log = JobEventLog()
    got: list[list[dict]] = []

    def tail():
        for batch in log.batches(poll=10.0):
            got.append(batch)

    tailer = threading.Thread(target=tail)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        tailer.start()
        for block in range(40):
            for i in range(64):
                log.append("phase", i=i)
            log.append("progress", phases=64 * (block + 1))
        log.append("done", state="DONE")
        log.close()
        tailer.join(10.0)
    finally:
        sys.setswitchinterval(switch)
    assert not tailer.is_alive()
    assert [e for batch in got for e in batch] == log.snapshot()
    # a live tail may merge blocks when it falls behind, never split one
    assert all(batch[-1]["event"] != "phase" for batch in got)


def test_concurrent_tailers_yield_each_retained_event_once_in_order():
    log = JobEventLog(cap=1000)
    got: list[list[dict]] = [[] for _ in range(3)]

    def tail(out: list[dict]):
        for batch in log.batches(poll=1.0):
            out.extend(batch)

    tailers = [threading.Thread(target=tail, args=(out,)) for out in got]
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in tailers:
            t.start()
        for i in range(10_000):
            log.append("phase", i=i)
        log.append("done", state="DONE")
        log.close()
        for t in tailers:
            t.join(10.0)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in tailers)
    events = log.snapshot()
    assert [e["seq"] for e in events] == list(range(len(events)))
    assert len(events) == 1000 + 2  # cap, one truncated marker, done
    assert log.dropped == 10_000 - 1000
    for out in got:
        assert out == events


# -- the progress tracer -----------------------------------------------------

def test_progress_tracer_forwards_phases_and_keeps_recording():
    job = Job(JobRequest())
    tracer = ProgressTracer(job)
    tracer.phase(0, "comm", 0.0, 1.0, name="exchange")
    tracer.phase(1, "compute_align", 0.0, 2.0)
    forwarded = [e for e in job.events.snapshot() if e["event"] == "phase"]
    assert [e["name"] for e in forwarded] == ["exchange", "compute_align"]
    assert forwarded[0]["sim_end"] == 1.0
    assert len(tracer.events) == 2  # conservation stream intact
    # the key order the SSE renderer's direct path expects
    assert list(forwarded[0]) == ["rank", "category", "name", "sim_start",
                                  "sim_end", "seq", "event"]


def test_progress_tracer_emits_percent_against_prediction():
    job = Job(JobRequest())
    tracer = ProgressTracer(job, predicted_wall=float(PROGRESS_EVERY))
    for i in range(PROGRESS_EVERY):
        tracer.phase(0, "comm", float(i), 1.0)
    progress = [e for e in job.events.snapshot() if e["event"] == "progress"]
    assert len(progress) == 1
    assert progress[0]["phases"] == PROGRESS_EVERY
    assert progress[0]["percent"] == 99.0  # capped, never reports 100 early


def test_progress_tracer_forwards_fault_and_churn_instants():
    job = Job(JobRequest())
    tracer = ProgressTracer(job)
    tracer.instant(1, "fault_inject", 2.0, kind="kill")
    tracer.instant(2, "migrate", 3.0, tasks=40)
    tracer.instant(0, "superstep", 1.0)  # not a service-facing instant
    kinds = [e["event"] for e in job.events.snapshot()]
    assert kinds.count("fault") == 1 and kinds.count("churn") == 1
    assert "superstep" not in kinds


def test_progress_tracer_keeps_every_phase_and_nothing_unforwarded():
    """A real run: the phases are all kept, unforwarded events are not."""
    from repro.core.api import get_workload, run_alignment
    from repro.faults import parse_fault_spec
    from repro.obs import CounterEvent, InstantEvent, PhaseEvent, Tracer
    from repro.service.events import _INSTANT_KINDS, _PROGRESS_COUNTERS

    forwarded = set(_INSTANT_KINDS) | set(_PROGRESS_COUNTERS)
    spec = "drop=0.05,evict=r2@0.01:grace=0.005,join=r3@0.005"

    def run(tracer):
        run_alignment(get_workload("micro", seed=11), 1, "async-micro",
                      cores_per_node=4, tracer=tracer, kernel="real",
                      fault_plan=parse_fault_spec(spec))
        return ([e for e in tracer.events if isinstance(e, PhaseEvent)],
                [e for e in tracer.events
                 if isinstance(e, (InstantEvent, CounterEvent))])

    plain_phases, plain_points = run(Tracer())
    job = Job(JobRequest())
    tracer = ProgressTracer(job)
    phases, points = run(tracer)
    assert phases == plain_phases and len(phases) > 1_000
    assert points == [e for e in plain_points if e.name in forwarded]
    assert {e.name for e in points} == forwarded  # faults, churn, flush
    # the plain tracer saw what the service drops: RPC issue, callback
    # and retry instants, barrier and process lifecycle instants
    assert {"rpc_issue", "rpc_callback", "rpc_retry", "process_start"} <= \
        {e.name for e in plain_points}
    logged = [e for e in job.events.snapshot() if e["event"] == "phase"]
    assert [(e["rank"], e["category"], e["sim_end"]) for e in logged] == \
        [(p.rank, p.category, p.end) for p in phases]


def test_progress_tracer_is_the_cancellation_hook():
    job = Job(JobRequest())
    tracer = ProgressTracer(job)
    tracer.phase(0, "comm", 0.0, 1.0)
    job.request_cancel()
    with pytest.raises(JobCancelledError, match="cancelled while running"):
        tracer.phase(0, "comm", 1.0, 1.0)
    with pytest.raises(JobCancelledError):
        tracer.counter(0, "inflight", 1.0, 2.0)
    with pytest.raises(JobCancelledError):
        tracer.instant(0, "fault_inject", 1.0)
    # dropped kinds are not recorded, but still check the flag
    with pytest.raises(JobCancelledError):
        tracer.instant(0, "rpc_issue", 1.0)
    with pytest.raises(JobCancelledError):
        tracer.counter(0, "alignments_resolved", 1.0, 2.0)


def test_service_errors_are_repro_errors():
    from repro.errors import QueueFullError, ReproError

    for exc in (ServiceError, JobStateError, JobCancelledError,
                QueueFullError):
        assert issubclass(exc, ReproError)
    assert issubclass(JobCancelledError, ServiceError)
