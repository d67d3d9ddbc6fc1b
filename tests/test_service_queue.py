"""RunQueue contracts: admission, dedup, cancellation, clean teardown.

What docs/SERVICE.md promises and the service relies on:

* the backlog is bounded — overflow is a typed ``QueueFullError``;
* admission is FIFO-with-priority and budgeted against worker slots and
  a :class:`~repro.machine.memory.NodeMemory` ledger;
* identical in-flight submissions run the engine **once** (single-flight
  coalescing + result cache), every submitter getting bit-identical
  results — pinned here as a hypothesis property;
* shutdown cancels still-QUEUED jobs with the typed
  :class:`~repro.errors.JobCancelledError` instead of hanging (the PR's
  pinned fix), and a ≥16-job mixed stress run over 2 slots terminates
  every job and leaks no shared-memory segments;
* history is bounded — a finished job releases its event log and result
  once ``RETAINED_JOBS`` newer jobs have finished, on every terminal
  path, and keeps its status record.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, QueueFullError, ServiceError
from repro.runtime.executor import active_shm_segments
from repro.service import JobRequest, JobState, RunQueue
from repro.service import queue as queue_mod

WAIT = 120.0  # generous terminal-wait bound; loaded CI boxes are slow


def _drain(queue, jobs):
    for job in jobs:
        assert job.wait(WAIT), f"{job.id} stuck in {job.state}"


# -- lifecycle ---------------------------------------------------------------

def test_submit_runs_to_done_with_full_lifecycle_events():
    with RunQueue(slots=1) as q:
        job = q.submit(JobRequest(seed=21))
        assert job.wait(WAIT)
        assert job.state == JobState.DONE and job.error is None
        states = [e["state"] for e in job.events.snapshot()
                  if e["event"] == "state"]
        assert states == [JobState.QUEUED, JobState.ADMITTED,
                          JobState.RUNNING, JobState.DONE]
        assert job.result.signature()
        assert q.admission_order == [job.id]


def test_failed_job_captures_typed_engine_error():
    with RunQueue(slots=1) as q:
        # kill without redistribute: the engine raises RankFailureError
        # (ecoli30x@2n/4c runs past t=1.0 — pinned by test_faults)
        job = q.submit(JobRequest(workload="ecoli30x", seed=0,
                                  cores_per_node=4, faults="kill=r1@1"))
        assert job.wait(WAIT)
        assert job.state == JobState.FAILED
        assert job.error["type"] == "RankFailureError"
        assert "rank 1" in job.error["message"]
        assert q.stats()["failed"] == 1


def test_auto_engine_jobs_carry_the_plan():
    with RunQueue(slots=1) as q:
        job = q.submit(JobRequest(seed=23, engine="auto"))
        assert job.wait(WAIT)
        assert job.state == JobState.DONE
        assert "plan" in job.result.details


def test_cache_hit_completes_instantly_with_identical_result():
    with RunQueue(slots=1) as q:
        req = JobRequest(seed=24)
        first = q.submit(req)
        assert first.wait(WAIT) and first.state == JobState.DONE
        second = q.submit(req)
        assert second.wait(5.0)  # no engine run: effectively instant
        assert second.cache_hit and second.cache_source == "cache"
        assert second.result is first.result
        assert second.result.signature() == first.result.signature()
        assert q.executions(req.cache_key()) == 1
        # cache-equivalent knobs (sharding) also hit
        third = q.submit(JobRequest(seed=24, shard_tasks=50,
                                    max_resident_shards=2))
        assert third.wait(5.0) and third.cache_hit


# -- admission control -------------------------------------------------------

def test_backlog_overflow_is_a_typed_rejection():
    q = RunQueue(slots=1, backlog=2, start=False)
    try:
        q.submit(JobRequest(seed=30))
        q.submit(JobRequest(seed=31))
        with pytest.raises(QueueFullError, match="backlog full"):
            q.submit(JobRequest(seed=32))
        assert q.stats()["rejected"] == 1
        # coalescing does not consume backlog: a duplicate still lands
        dup = q.submit(JobRequest(seed=30))
        assert dup.coalesced_into is not None
    finally:
        q.shutdown()


def test_never_admittable_requests_fail_at_submit():
    q = RunQueue(start=False, memory_bytes=1024.0)
    with pytest.raises(ConfigurationError, match="never"):
        q.submit(JobRequest(seed=33))
    q.shutdown()
    q2 = RunQueue(start=False, total_workers=1)
    with pytest.raises(ConfigurationError, match="pool workers"):
        q2.submit(JobRequest(engine="bsp-micro", kernel="real",
                             config={"backend": "process", "workers": 4}))
    q2.shutdown()


def test_admission_order_respects_priority_then_fifo():
    q = RunQueue(slots=1, start=False)
    low_a = q.submit(JobRequest(seed=40, priority=0))
    high = q.submit(JobRequest(seed=41, priority=5))
    low_b = q.submit(JobRequest(seed=42, priority=0))
    mid = q.submit(JobRequest(seed=43, priority=2))
    q.start()
    try:
        _drain(q, [low_a, high, low_b, mid])
        assert q.admission_order == [high.id, mid.id, low_a.id, low_b.id]
    finally:
        q.shutdown()


def test_memory_ledger_balances_after_the_queue_drains():
    with RunQueue(slots=2) as q:
        jobs = [q.submit(JobRequest(seed=50 + i)) for i in range(4)]
        _drain(q, jobs)
        stats = q.stats()
        assert stats["memory_used"] == 0.0
        assert stats["memory_high_water"] > 0.0
        assert stats["workers_free"] == stats["workers_total"]
        assert stats["executed"] == 4


def test_submit_after_shutdown_is_refused():
    q = RunQueue(slots=1)
    q.shutdown()
    with pytest.raises(ServiceError, match="shut down"):
        q.submit(JobRequest(seed=60))


# -- cancellation ------------------------------------------------------------

def test_cancel_queued_job_is_immediate_and_typed():
    q = RunQueue(slots=1, start=False)
    job = q.submit(JobRequest(seed=70))
    cancelled = q.cancel(job.id)
    assert cancelled is job and job.state == JobState.CANCELLED
    assert job.error["type"] == "JobCancelledError"
    q.shutdown()


def test_cancel_mid_run_aborts_via_the_tracer():
    with RunQueue(slots=1) as q:
        job = q.submit(JobRequest(seed=71))
        # flag before the engine's first trace event: the job is admitted
        # normally, starts RUNNING, then aborts at its first record call
        job.request_cancel()
        assert job.wait(WAIT)
        assert job.state == JobState.CANCELLED
        assert job.error["type"] == "JobCancelledError"
        assert "cancelled while running" in job.error["message"]
        # an aborted run must not poison the cache
        retry = q.submit(JobRequest(seed=71))
        assert retry.wait(WAIT)
        assert retry.state == JobState.DONE and not retry.cache_hit


def test_cancel_during_the_kernel_flush_lands_within_one_call(monkeypatch):
    """A real-kernel micro job cancelled *after* its simulation drained.

    Every tracer record call of the simulation is over by then; the flush
    loop's per-call counter is the cancellation point, so the job stops
    after the kernel call in flight instead of resolving everything.
    """
    from repro.runtime.executor import SerialExecutor

    real = SerialExecutor.align_tasks
    calls = {"full": [], "cancelled": []}

    def align_tasks(self, idx):
        # one slot: the second job only runs once the first is DONE, and
        # is flagged from inside its own first kernel call
        if full.state == JobState.DONE:
            calls["cancelled"].append(len(idx))
            job.request_cancel()
        else:
            calls["full"].append(len(idx))
        return real(self, idx)

    monkeypatch.setattr(SerialExecutor, "align_tasks", align_tasks)
    request = dict(engine="bsp-micro", kernel="real", nodes=1,
                   cores_per_node=4)
    with RunQueue(slots=1, start=False) as q:
        full = q.submit(JobRequest(seed=11, **request))
        job = q.submit(JobRequest(seed=12, **request))
        q.start()
        _drain(q, [full, job])
    assert full.state == JobState.DONE
    resolved = [e["alignments_resolved"] for e in full.events.snapshot()
                if e["event"] == "progress" and "alignments_resolved" in e]
    assert len(resolved) == len(calls["full"]) > 1
    assert resolved[-1] == sum(calls["full"]) == len(full.result.alignments)
    assert job.state == JobState.CANCELLED
    assert job.error["type"] == "JobCancelledError"
    assert len(calls["cancelled"]) == 1
    assert not active_shm_segments()


def test_cancelling_a_queued_leader_promotes_its_follower():
    q = RunQueue(slots=1, start=False)
    leader = q.submit(JobRequest(seed=72))
    follower = q.submit(JobRequest(seed=72))
    assert follower.coalesced_into == leader.id
    q.cancel(leader.id)
    assert leader.state == JobState.CANCELLED
    assert follower.state == JobState.QUEUED
    assert follower.coalesced_into is None  # promoted to fresh leader
    q.start()
    try:
        assert follower.wait(WAIT)
        assert follower.state == JobState.DONE and not follower.cache_hit
    finally:
        q.shutdown()


def test_cancelling_a_follower_leaves_the_leader_running():
    q = RunQueue(slots=1, start=False)
    leader = q.submit(JobRequest(seed=73))
    follower = q.submit(JobRequest(seed=73))
    q.cancel(follower.id)
    assert follower.state == JobState.CANCELLED
    assert leader.state == JobState.QUEUED
    q.start()
    try:
        assert leader.wait(WAIT) and leader.state == JobState.DONE
        assert q.executions(JobRequest(seed=73).cache_key()) == 1
    finally:
        q.shutdown()


def test_cancel_unknown_job_raises():
    with RunQueue(slots=1) as q:
        with pytest.raises(ConfigurationError, match="unknown job"):
            q.cancel("job-999999")


# -- shutdown (the pinned fix) -----------------------------------------------

def test_shutdown_cancels_queued_jobs_with_typed_error_not_a_hang():
    """The PR's pinned regression: jobs still QUEUED at shutdown must be
    moved to CANCELLED with JobCancelledError — a client blocked in
    ``wait()`` (or streaming events) unblocks instead of hanging."""
    q = RunQueue(slots=1, start=False)  # nothing ever admits
    jobs = [q.submit(JobRequest(seed=80 + i)) for i in range(3)]
    follower = q.submit(JobRequest(seed=80))  # coalesced onto jobs[0]

    waiter_done = threading.Event()

    def waiter():
        jobs[0].wait(WAIT)
        waiter_done.set()

    threading.Thread(target=waiter, daemon=True).start()
    q.shutdown()  # must return promptly, not hang on the backlog
    assert waiter_done.wait(10.0), "client still blocked after shutdown"
    for job in (*jobs, follower):
        assert job.state == JobState.CANCELLED
        assert job.error["type"] == "JobCancelledError"
        assert "shut down" in job.error["message"]
        assert job.events.closed
    assert q.stats()["cancelled"] == 4
    q.shutdown()  # idempotent


# -- bounded history ---------------------------------------------------------

def _holding(queue) -> list:
    """Finished jobs that still hold an event log or a result."""
    return [j for j in queue.jobs()
            if j.done and (j.events is not None or j.result is not None)]


def test_finished_jobs_release_their_payload_after_newer_ones(monkeypatch):
    monkeypatch.setattr(queue_mod, "RETAINED_JOBS", 3)
    k = 2
    with RunQueue(slots=1) as q:  # one slot: completion order = FIFO
        jobs = [q.submit(JobRequest(seed=200 + i)) for i in range(3 + k)]
        _drain(q, jobs)
        counts = [j.as_dict()["events"] for j in jobs]
        old, newest = jobs[:k], jobs[k:]
        for job in old:
            assert job.expired and job.events is None and job.result is None
            status = job.as_dict()
            assert status["expired"] is True and status["state"] == "DONE"
            assert status["finished_at"] is not None
        assert [j.released_events for j in old] == counts[:k]
        assert all(n > 4 for n in counts)  # 4 states + done, plus phases
        for job in newest:
            assert not job.expired and job.as_dict()["expired"] is False
            assert job.events.closed and job.result.signature()
        assert q.stats()["released"] == k


def test_every_terminal_path_counts_toward_retention(monkeypatch):
    """Fresh, coalesced, failed, cancelled, cache-hit and shutdown-drained
    jobs all age out: no more than 3 finished jobs ever hold a payload."""
    monkeypatch.setattr(queue_mod, "RETAINED_JOBS", 3)
    peaks: list[int] = []

    def checked(q):
        retire = q._retire

        def hook(job):
            retire(job)
            peaks.append(len(_holding(q)))

        q._retire = hook  # read by submit for every new job
        return q

    q = checked(RunQueue(slots=1, start=False))
    leader = q.submit(JobRequest(seed=210))
    follower = q.submit(JobRequest(seed=210))
    failing = q.submit(JobRequest(seed=211, faults="kill=r1@1ms"))
    failing_follower = q.submit(JobRequest(seed=211, faults="kill=r1@1ms"))
    doomed = q.submit(JobRequest(seed=212))
    q.cancel(doomed.id)
    q.start()
    try:
        _drain(q, [leader, follower, failing, failing_follower])
        hit = q.submit(JobRequest(seed=210))
        assert hit.wait(5.0)
    finally:
        q.shutdown()
    assert follower.cache_source == "coalesced"
    assert hit.cache_source == "cache"
    assert failing.state == failing_follower.state == JobState.FAILED
    assert doomed.state == JobState.CANCELLED
    assert len(peaks) == 6 and max(peaks) <= 3
    assert doomed.expired and leader.expired and follower.expired
    assert q.stats()["released"] == 3

    drained = checked(RunQueue(slots=1, start=False))
    queued = [drained.submit(JobRequest(seed=220 + i)) for i in range(5)]
    drained.shutdown()
    assert {j.state for j in queued} == {JobState.CANCELLED}
    assert [j.expired for j in queued] == [True, True, False, False, False]
    assert max(peaks) <= 3 and drained.stats()["released"] == 2


# -- concurrency stress ------------------------------------------------------

def test_stress_sixteen_mixed_jobs_over_two_slots():
    """≥16 mixed jobs (micro/macro, faulty/clean, model/real kernels,
    mixed priorities) over a 2-slot queue: every job terminates, the
    admission order respects priority, and no shared-memory segment
    survives."""
    baseline = active_shm_segments()
    requests = []
    for i in range(4):  # clean macro spread
        requests.append(JobRequest(workload="ecoli30x", seed=100 + i,
                                   engine=("bsp", "async", "hybrid",
                                           "bsp")[i], priority=i % 3))
    for i in range(4):  # micro engines, model kernel
        requests.append(JobRequest(seed=110 + i,
                                   engine=("bsp-micro", "async-micro",
                                           "bsp-micro", "async-micro")[i],
                                   priority=(3 - i) % 3))
    for i in range(2):  # real kernel over the process pool (shm oracle)
        requests.append(JobRequest(seed=120 + i, engine="bsp-micro",
                                   kernel="real",
                                   config={"backend": "process",
                                           "workers": 2}, priority=1))
    for i in range(3):  # fault-injected but recoverable
        requests.append(JobRequest(seed=130 + i, engine="async",
                                   faults="drop=0.05,straggle=2@r1:0:1",
                                   fault_seed=i, priority=i))
    requests.append(JobRequest(workload="ecoli30x", seed=0,
                               cores_per_node=4,
                               faults="kill=r1@1"))  # will FAIL
    requests.append(JobRequest(seed=141, engine="auto", priority=2))
    requests.append(JobRequest(workload="ecoli30x", seed=142,
                               engine="hybrid", priority=0))
    assert len(requests) == 16
    assert len({r.cache_key() for r in requests}) == 16  # all distinct

    # total_workers=4 keeps the real-kernel pool jobs admittable on
    # single-core CI boxes; with 2 slots at most 2x2 workers are held
    q = RunQueue(slots=2, start=False, total_workers=4)
    jobs = [q.submit(r) for r in requests]
    q.start()
    try:
        _drain(q, jobs)
        terminal = {j.state for j in jobs}
        assert terminal <= {JobState.DONE, JobState.FAILED}
        failed = [j for j in jobs if j.state == JobState.FAILED]
        assert [j.request.faults for j in failed] == ["kill=r1@1"]
        assert failed[0].error["type"] == "RankFailureError"
        # everything was admitted exactly once, highest priority first
        assert sorted(q.admission_order) == sorted(j.id for j in jobs)
        admitted_prio = [q.get(i).priority for i in q.admission_order]
        assert admitted_prio == sorted(admitted_prio, reverse=True)
        stats = q.stats()
        assert stats["executed"] + stats["failed"] == 16
        assert stats["memory_used"] == 0.0
        assert stats["workers_free"] == stats["workers_total"]
    finally:
        q.shutdown()
    assert active_shm_segments() == baseline


def test_jobs_for_different_workloads_prepare_at_once(monkeypatch):
    """Two cold jobs on a 2-slot queue build their workloads concurrently:
    each prep waits at a 2-party barrier that only the other can pass."""
    import repro.core.api as api

    real, barrier = api.get_workload, threading.Barrier(2, timeout=5)

    def meet_then_build(*args, **kwargs):
        barrier.wait()
        return real(*args, **kwargs)

    monkeypatch.setattr(api, "get_workload", meet_then_build)
    with RunQueue(slots=2) as q:
        jobs = [q.submit(JobRequest(seed=150)),
                q.submit(JobRequest(workload="ecoli30x", seed=150))]
        _drain(q, jobs)
    assert [j.state for j in jobs] == [JobState.DONE, JobState.DONE], \
        [j.error for j in jobs]


# -- the dedup property ------------------------------------------------------

@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(min_value=2, max_value=6),
       seed=st.integers(min_value=0, max_value=10_000))
def test_property_concurrent_identical_submissions_run_once(n, seed):
    """N concurrent identical submissions yield exactly one engine
    execution and N bit-identical results — whether they coalesce onto
    the in-flight leader or land as cache hits."""
    req = JobRequest(seed=seed)
    with RunQueue(slots=2) as q:
        barrier = threading.Barrier(n)
        jobs, errors = [None] * n, []

        def submit(i):
            barrier.wait()
            try:
                jobs[i] = q.submit(req)
            except Exception as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        threads = [threading.Thread(target=submit, args=(i,))
                   for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(WAIT)
        assert not errors
        _drain(q, jobs)
        assert q.executions(req.cache_key()) == 1
        signatures = {j.result.signature() for j in jobs}
        assert len(signatures) == 1
        fresh = [j for j in jobs if not j.cache_hit]
        assert len(fresh) == 1  # exactly one job actually ran
        assert {j.cache_source for j in jobs if j.cache_hit} <= {
            "cache", "coalesced"
        }
