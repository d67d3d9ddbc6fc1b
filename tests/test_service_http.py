"""The HTTP API over a live localhost server.

Everything here drives a real :class:`~repro.service.http.ServiceServer`
bound to an ephemeral port — submission, polling, SSE streaming,
cancellation, backpressure, and the PR's acceptance criterion: two
clients submitting the same workload concurrently see one engine
execution and bit-identical results whose signature equals the pinned
golden, with a tracer-derived ``phase`` event on the stream before
completion.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import PhaseEvent
from repro.service import (
    Job,
    JobEventLog,
    JobRequest,
    ProgressTracer,
    RunQueue,
    ServiceHandler,
    ServiceServer,
)
from repro.service import events as events_mod
from repro.service import queue as queue_mod
from repro.service.http import MAX_BODY_BYTES
from repro.service.events import sse_frame

WAIT = 120.0

GOLDENS = json.loads(
    (Path(__file__).parent / "goldens" / "signatures.json").read_text()
)

#: the golden-matrix case the service must reproduce bit-identically
GOLDEN_REQUEST = {"workload": "micro", "seed": 11, "engine": "bsp",
                  "nodes": 2, "cores_per_node": 4}
GOLDEN_SIGNATURE = GOLDENS["bsp/micro@11"]

#: one job per kind of stream: ~1 700 and ~1 800 phase-dominated micro
#: frames, a macro engine's per-superstep digest, and a macro run whose
#: RPC drops, rank kill, eviction and join forward ``fault`` and
#: ``churn`` events
WIRE_REQUESTS = [
    {"workload": "micro", "seed": 11, "engine": "bsp-micro", "nodes": 2,
     "cores_per_node": 4},
    {"workload": "micro", "seed": 11, "engine": "async-micro", "nodes": 1,
     "cores_per_node": 2},
    {"workload": "ecoli30x", "seed": 11, "engine": "hybrid", "nodes": 4},
    {"workload": "ecoli30x", "seed": 11, "engine": "async", "nodes": 4,
     "faults": "drop=0.02,kill=r1@30,evict=r2@20:grace=5,join=r3@10,"
               "redistribute"},
]


@pytest.fixture()
def server():
    srv = ServiceServer(slots=2).start()
    yield srv
    srv.stop()


def _request(url: str, method: str = "GET", body: dict | None = None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    return urllib.request.urlopen(req, timeout=WAIT)


def _json(url: str, method: str = "GET", body: dict | None = None):
    with _request(url, method, body) as resp:
        return resp.status, json.load(resp)


def _submit(server, body: dict) -> dict:
    status, payload = _json(server.url("/jobs"), "POST", body)
    assert status == 201
    return payload


def _poll_done(server, job_id: str) -> dict:
    deadline = time.monotonic() + WAIT
    while time.monotonic() < deadline:
        _, payload = _json(server.url(f"/jobs/{job_id}"))
        if payload["state"] in ("DONE", "FAILED", "CANCELLED"):
            return payload
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never reached a terminal state")


def _sse_events(server, job_id: str, since: int = 0) -> list[dict]:
    """Consume the job's SSE stream to its end; parse every frame."""
    events = []
    url = server.url(f"/jobs/{job_id}/events?since={since}")
    with urllib.request.urlopen(url, timeout=WAIT) as stream:
        assert stream.headers["Content-Type"] == "text/event-stream"
        frame: dict = {}
        for raw in stream:
            line = raw.decode().rstrip("\n")
            if not line:
                if frame:
                    events.append(frame)
                frame = {}
            elif line.startswith("event: "):
                frame["event_field"] = line[len("event: "):]
            elif line.startswith("data: "):
                frame["data"] = json.loads(line[len("data: "):])
        if frame:
            events.append(frame)
    return events


# -- lifecycle over a live server --------------------------------------------

def test_submit_poll_result_roundtrip(server):
    job = _submit(server, GOLDEN_REQUEST)
    assert job["id"].startswith("job-")
    assert job["state"] in ("QUEUED", "ADMITTED", "RUNNING", "DONE")
    final = _poll_done(server, job["id"])
    assert final["state"] == "DONE" and final["error"] is None
    status, result = _json(server.url(f"/jobs/{job['id']}/result"))
    assert status == 200
    assert result["signature"] == GOLDEN_SIGNATURE
    assert result["engine"] == "bsp" and result["workload"] == "micro"
    assert result["wall_time"] > 0
    assert abs(sum(result["fractions"].values()) - 1.0) < 1e-6
    # the listing shows it too
    status, listing = _json(server.url("/jobs"))
    assert status == 200
    assert job["id"] in [j["id"] for j in listing["jobs"]]
    assert listing["stats"]["executed"] == 1


def test_sse_stream_orders_lifecycle_and_carries_phases(server):
    job = _submit(server, GOLDEN_REQUEST)
    events = _sse_events(server, job["id"])
    kinds = [e["event_field"] for e in events]
    # SSE framing matches the payload's own event kind
    assert all(e["event_field"] == e["data"]["event"] for e in events)
    seqs = [e["data"]["seq"] for e in events]
    assert seqs == sorted(seqs)
    states = [e["data"]["state"] for e in events
              if e["data"]["event"] == "state"]
    assert states == ["QUEUED", "ADMITTED", "RUNNING", "DONE"]
    # >=1 tracer-derived phase event lands before the terminal done
    assert "phase" in kinds[:-1]
    first_phase = next(e["data"] for e in events
                       if e["data"]["event"] == "phase")
    assert {"rank", "category", "name", "sim_start",
            "sim_end"} <= set(first_phase)
    assert kinds[-1] == "done"
    assert events[-1]["data"]["state"] == "DONE"


def test_sse_since_replays_from_cursor(server):
    job = _submit(server, GOLDEN_REQUEST)
    _poll_done(server, job["id"])
    full = _sse_events(server, job["id"])
    resumed = _sse_events(server, job["id"],
                          since=full[2]["data"]["seq"])
    assert [e["data"]["seq"] for e in resumed] == \
        [e["data"]["seq"] for e in full[2:]]


def _reference_body(events: list[dict]) -> str:
    """The SSE body as one ``json.dumps`` per frame renders it."""
    return "".join(f"event: {e['event']}\nid: {e['seq']}\n"
                   f"data: {json.dumps(e)}\n\n" for e in events)


@pytest.mark.parametrize("body", WIRE_REQUESTS,
                         ids=lambda b: f"{b['engine']}/{b['workload']}")
def test_sse_body_is_the_per_frame_json_rendering(server, body):
    job = _submit(server, body)
    with _request(server.url(f"/jobs/{job['id']}/events")) as stream:
        raw = stream.read().decode()
    events = server.queue.get(job["id"]).events.snapshot()
    assert events[-1]["event"] == "done"
    assert raw == _reference_body(events)
    if body.get("faults"):
        kinds = [e["event"] for e in events]
        assert kinds.count("fault") > 1 and kinds.count("churn") == 2
        assert {"kind": "rank_kill", "victim": 1} in [
            {k: e.get(k) for k in ("kind", "victim")} for e in events]


class _CountingWriter:
    """Wraps a handler's ``wfile``; keeps every write it passes on."""

    def __init__(self, inner):
        self.inner = inner
        self.writes: list[bytes] = []

    def write(self, data):
        self.writes.append(bytes(data))
        return self.inner.write(data)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def test_finished_job_streams_in_one_write(server, monkeypatch):
    job = _submit(server, WIRE_REQUESTS[0])
    _poll_done(server, job["id"])
    writers: list[_CountingWriter] = []
    setup = ServiceHandler.setup

    def counting_setup(handler):
        setup(handler)
        handler.wfile = _CountingWriter(handler.wfile)
        writers.append(handler.wfile)

    monkeypatch.setattr(ServiceHandler, "setup", counting_setup)
    with _request(server.url(f"/jobs/{job['id']}/events")) as stream:
        raw = stream.read()
    (writer,) = writers
    headers, *body = writer.writes
    assert headers.startswith(b"HTTP/1.0 200")
    assert raw.count(b"\nid: ") > 1_000
    assert body == [raw]  # the whole history in one socket write


def test_negative_since_is_400(server):
    job = _submit(server, GOLDEN_REQUEST)
    for since in ("-2", "x"):
        with pytest.raises(urllib.error.HTTPError) as err:
            _request(server.url(f"/jobs/{job['id']}/events?since={since}"))
        assert err.value.code == 400
        assert json.load(err.value) == {
            "error": "BadRequest",
            "message": "since must be a non-negative integer"}


# -- the phase frame renderer ------------------------------------------------

_EDGE_FLOATS = [0.0, -0.0, 5e-324, 2.5e-310, 1e300, -1e300, 1.0 / 3,
                float("inf"), float("-inf"), float("nan")]
_NUMBERS = (st.integers(min_value=-1, max_value=2**63)
            | st.floats(allow_nan=True, allow_infinity=True)
            | st.sampled_from(_EDGE_FLOATS) | st.booleans())
_TEXT = st.text() | st.sampled_from(['say "hi"', "back\\slash", "café",
                                     "\u2028\x00\ud800", "comm", "",
                                     "del\x7f", "tab\there", "~ !#[]"])
_RANKS = (st.integers(min_value=-1, max_value=2**63) | st.booleans()
          | st.sampled_from([np.int64(3), np.int32(-1), 2.0]))


@settings(max_examples=400, deadline=None)
@given(rank=_RANKS, category=_TEXT, name=_TEXT, start=_NUMBERS,
       duration=_NUMBERS, seq=st.integers(min_value=0, max_value=2**40))
def test_phase_frame_is_the_json_dumps_frame(rank, category, name, start,
                                             duration, seq):
    phase = PhaseEvent(0, rank, category, start, duration, name)
    log = JobEventLog()
    log.append_event("phase", phase)
    log.close()
    (event,) = log.snapshot()  # the dict built on read
    assert list(event) == ["rank", "category", "name", "sim_start",
                           "sim_end", "seq", "event"]
    assert list(log.frames()) == [_reference_body([event])]
    assert sse_frame(phase, seq) == _reference_body([dict(event, seq=seq)])


def test_phase_frames_of_thousands_of_distinct_names():
    """A micro job's ~1 600 task names, plus escaped and non-ASCII ones."""
    log = JobEventLog(cap=10**9)
    names = [f"task{t}" for t in range(3_000)] + [
        'q"uote', "back\\slash", "naïve", "\u2028", "nul\x00", "\x7f", ""]
    for i, name in enumerate(names):
        log.append_event("phase", PhaseEvent(0, i % 7, "compute_align",
                                             i / 3, 0.1, name))
    log.close()
    assert "".join(log.frames()) == _reference_body(log.snapshot())


@pytest.mark.parametrize("event", [
    # another kind, an extra key, another key order: json.dumps renders
    {"seq": 3, "event": "state", "state": "RUNNING", "job": "job-1"},
    {"rank": 0, "category": "comm", "name": "x", "sim_start": 0.0,
     "sim_end": 1.0, "seq": 4, "event": "phase", "extra": [1, None]},
    {"category": "comm", "rank": 0, "name": "x", "sim_start": 0.0,
     "sim_end": 1.0, "seq": 5, "event": "phase"},
])
def test_other_frames_are_the_json_dumps_frame(event):
    assert sse_frame(event) == _reference_body([event])


def test_forwarded_phase_takes_the_direct_path(monkeypatch):
    job = Job(JobRequest())
    ProgressTracer(job).phase(1, "compute_align", 0.25, 0.5)
    job.events.close()
    seq = len(job.events) - 1
    expected = _reference_body(job.events.snapshot(seq))

    def no_dumps(*args, **kwargs):
        raise AssertionError("json.dumps called for a forwarded phase")

    monkeypatch.setattr(events_mod, "json", SimpleNamespace(dumps=no_dumps))
    assert list(job.events.frames(seq)) == [expected]


def test_cache_hit_signature_is_bit_identical_to_fresh(server):
    first = _submit(server, GOLDEN_REQUEST)
    _poll_done(server, first["id"])
    second = _submit(server, GOLDEN_REQUEST)
    final = _poll_done(server, second["id"])
    assert final["cache_hit"] and final["cache_source"] == "cache"
    _, fresh = _json(server.url(f"/jobs/{first['id']}/result"))
    _, cached = _json(server.url(f"/jobs/{second['id']}/result"))
    assert cached["signature"] == fresh["signature"] == GOLDEN_SIGNATURE
    assert cached["cache_hit"] and not fresh["cache_hit"]
    # a cached job's stream still carries the full lifecycle contract
    events = _sse_events(server, second["id"])
    assert events[-1]["data"]["state"] == "DONE"


def test_delete_cancels_and_result_reports_gone(server):
    job = _submit(server, dict(GOLDEN_REQUEST, seed=77))
    status, body = _json(server.url(f"/jobs/{job['id']}"), "DELETE")
    assert status == 202
    final = _poll_done(server, job["id"])
    assert final["state"] == "CANCELLED"
    assert final["error"]["type"] == "JobCancelledError"
    with pytest.raises(urllib.error.HTTPError) as err:
        _request(server.url(f"/jobs/{job['id']}/result"))
    assert err.value.code == 410
    assert json.load(err.value)["error"]["type"] == "JobCancelledError"


def test_delete_stops_a_running_async_micro_job(server, monkeypatch):
    """Mid-run, the tracer's next record call is the cancellation point."""
    running, deleted = threading.Event(), threading.Event()
    calls = []
    phase = ProgressTracer.phase

    def gated_phase(self, *args, **kwargs):
        calls.append(None)
        if len(calls) == 100:  # hold the engine mid-run until DELETE
            running.set()
            assert deleted.wait(WAIT)
        return phase(self, *args, **kwargs)

    monkeypatch.setattr(ProgressTracer, "phase", gated_phase)
    job = _submit(server, WIRE_REQUESTS[1])
    try:
        assert running.wait(WAIT)
        status, body = _json(server.url(f"/jobs/{job['id']}"), "DELETE")
    finally:
        deleted.set()
    assert status == 202 and body["state"] == "RUNNING"
    final = _poll_done(server, job["id"])
    assert final["state"] == "CANCELLED"
    assert final["error"]["type"] == "JobCancelledError"
    assert "after 99 phase events" in final["error"]["message"]
    assert len(calls) == 100  # no record call ran past the flag


def test_failed_job_result_carries_typed_error(server):
    job = _submit(server, {"workload": "ecoli30x", "seed": 0,
                           "cores_per_node": 4, "faults": "kill=r1@1"})
    final = _poll_done(server, job["id"])
    assert final["state"] == "FAILED"
    with pytest.raises(urllib.error.HTTPError) as err:
        _request(server.url(f"/jobs/{job['id']}/result"))
    assert err.value.code == 500
    assert json.load(err.value)["error"]["type"] == "RankFailureError"


# -- error surfaces ----------------------------------------------------------

def test_backlog_full_maps_to_429():
    queue = RunQueue(slots=1, backlog=1, start=False)  # nothing admits
    srv = ServiceServer(queue=queue).start()
    try:
        _submit(srv, GOLDEN_REQUEST)
        with pytest.raises(urllib.error.HTTPError) as err:
            _request(srv.url("/jobs"), "POST",
                     dict(GOLDEN_REQUEST, seed=99))
        assert err.value.code == 429
        assert err.value.headers["Retry-After"] == "1"
        assert json.load(err.value)["error"] == "QueueFullError"
    finally:
        srv.stop()
        queue.shutdown()


def test_result_before_terminal_is_409():
    queue = RunQueue(slots=1, start=False)  # job stays QUEUED
    srv = ServiceServer(queue=queue).start()
    try:
        job = _submit(srv, GOLDEN_REQUEST)
        with pytest.raises(urllib.error.HTTPError) as err:
            _request(srv.url(f"/jobs/{job['id']}/result"))
        assert err.value.code == 409
    finally:
        srv.stop()
        queue.shutdown()


@pytest.mark.parametrize("method,path,body,code", [
    ("GET", "/jobs/job-999999", None, 404),
    ("GET", "/jobs/job-999999/result", None, 404),
    ("DELETE", "/jobs/job-999999", None, 404),
    ("GET", "/nope", None, 404),
    ("POST", "/nope", {}, 404),
    ("POST", "/jobs", {"workload": "no-such-preset"}, 400),
    ("POST", "/jobs", {"engin": "bsp"}, 400),
    ("POST", "/jobs", {"engine": "bsp", "kernel": "real"}, 400),
    # ill-typed or removed overrides, pool knobs without the kernel
    ("POST", "/jobs", {"config": {"hybrid_aggregation": 2.5}}, 400),
    ("POST", "/jobs", {"config": {"seed": "abc"}}, 400),
    ("POST", "/jobs", {"engine": "bsp-micro", "kernel": "real",
                       "config": {"chunk_tasks": 7}}, 400),
    ("POST", "/jobs", {"engine": "bsp-micro",
                       "config": {"backend": "process"}}, 400),
])
def test_error_statuses(server, method, path, body, code):
    with pytest.raises(urllib.error.HTTPError) as err:
        _request(server.url(path), method, body)
    assert err.value.code == code
    assert "error" in json.load(err.value)


@pytest.mark.parametrize("faults,wording", [
    ("join=r9@1ms", "fault clause 'join=r9@0.001' names rank 9, but the "
                    "machine has 2 ranks"),
    ("join=r0@1ms,join=r1@1ms", "no initial members: every rank of the "
                                "machine joins mid-run"),
])
def test_fault_plan_that_does_not_fit_the_machine_is_400(server, faults,
                                                         wording):
    """A plan naming a rank the 1 x 2 machine lacks, or one where every
    rank joins, is refused at submit in the schedule check's own words,
    not admitted to fail later (nor, for the all-join plan, a 500)."""
    with pytest.raises(urllib.error.HTTPError) as err:
        _request(server.url("/jobs"), "POST",
                 {"workload": "micro", "engine": "bsp", "nodes": 1,
                  "cores_per_node": 2, "faults": faults})
    assert err.value.code == 400
    body = json.load(err.value)
    assert body["error"] == "ConfigurationError"
    assert wording in body["message"]
    assert server.queue.stats()["submitted"] == 0


def test_wrongly_typed_field_is_a_typed_400(server):
    """A string where an integer belongs is answered, not a dead handler
    thread and a connection closed without a status."""
    with pytest.raises(urllib.error.HTTPError) as err:
        _request(server.url("/jobs"), "POST",
                 {"workload": "micro", "nodes": "2"})
    assert err.value.code == 400
    assert json.load(err.value)["error"] == "ConfigurationError"
    assert server.queue.stats()["submitted"] == 0


def _raw_post(server, headers: str) -> tuple[int, dict]:
    """POST /jobs over a bare socket, header bytes exactly as given.

    ``http.client`` rewrites ``Content-Length``; a raw socket does not.
    No body is sent, so the server never closes on unread bytes.
    """
    with socket.create_connection((server.host, server.port),
                                  timeout=10.0) as sock:
        sock.sendall(f"POST /jobs HTTP/1.1\r\nHost: localhost\r\n"
                     f"{headers}\r\n".encode())
        data = b""
        while chunk := sock.recv(65536):
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


@pytest.mark.parametrize("length,code,error", [
    ("abc", 400, "BadRequest"),
    ("-1", 400, "BadRequest"),
    (str(MAX_BODY_BYTES + 1), 413, "PayloadTooLarge"),
])
def test_bad_content_length_is_answered_not_read(server, length, code,
                                                 error):
    status, body = _raw_post(server, f"Content-Length: {length}\r\n")
    assert (status, body["error"]) == (code, error)
    assert server.queue.stats()["submitted"] == 0


def test_malformed_json_is_400(server):
    req = urllib.request.Request(server.url("/jobs"), data=b"{not json",
                                 method="POST")
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(req, timeout=10)
    assert err.value.code == 400


def test_healthz(server):
    status, body = _json(server.url("/healthz"))
    assert status == 200 and body["ok"] is True


# -- bounded history ---------------------------------------------------------

def _gone(server, path: str) -> dict:
    with pytest.raises(urllib.error.HTTPError) as err:
        _request(server.url(path))
    assert err.value.code == 410
    return json.load(err.value)


def _run_fresh(server, n: int, seed: int) -> list[dict]:
    """``n`` distinct jobs, one after another; their final status."""
    return [_poll_done(server, _submit(server, dict(GOLDEN_REQUEST,
                                                    seed=seed + i))["id"])
            for i in range(n)]


def test_expired_job_answers_410_and_keeps_its_status(server, monkeypatch):
    monkeypatch.setattr(queue_mod, "RETAINED_JOBS", 3)
    k = 2
    finals = _run_fresh(server, 3 + k, seed=300)
    for final in finals[:k]:
        job_id = final["id"]
        for part in ("events", "result"):
            assert _gone(server, f"/jobs/{job_id}/{part}")["error"] == \
                "JobExpiredError"
        status, now = _json(server.url(f"/jobs/{job_id}"))
        assert status == 200 and now["expired"] is True
        assert now["state"] == "DONE" and now["events"] == final["events"]
    for final in finals[k:]:
        status, result = _json(server.url(f"/jobs/{final['id']}/result"))
        assert status == 200 and result["signature"]
        assert _sse_events(server, final["id"])[-1]["data"]["state"] == \
            "DONE"
    _, listing = _json(server.url("/jobs"))
    assert listing["stats"]["released"] == k
    assert [j["expired"] for j in listing["jobs"]] == [True] * k + [False] * 3


def test_listing_keeps_every_record_after_many_releases(server, monkeypatch):
    monkeypatch.setattr(queue_mod, "RETAINED_JOBS", 3)
    finals = _run_fresh(server, 3 * 3, seed=320)
    _, listing = _json(server.url("/jobs"))
    assert [j["id"] for j in listing["jobs"]] == [f["id"] for f in finals]
    for job in listing["jobs"]:
        assert job["created_at"] <= job["started_at"] <= job["finished_at"]
    assert listing["stats"]["released"] == 6


class _PausingWriter:
    """Holds an SSE response after its headers until ``resume`` is set."""

    def __init__(self, inner, headers_out, resume):
        self.inner = inner
        self.headers_out = headers_out
        self.resume = resume

    def write(self, data):
        if b"text/event-stream" in data:
            self.headers_out.set()
            assert self.resume.wait(WAIT)
        return self.inner.write(data)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def test_release_during_a_replay_keeps_the_stream_whole(server, monkeypatch):
    """A replay that began before its job expired holds its own reference
    to the log: the body is byte-identical to an unreleased replay."""
    monkeypatch.setattr(queue_mod, "RETAINED_JOBS", 3)
    job_id = _submit(server, WIRE_REQUESTS[0])["id"]
    _poll_done(server, job_id)
    with _request(server.url(f"/jobs/{job_id}/events")) as stream:
        reference = stream.read()

    headers_out, resume = threading.Event(), threading.Event()
    setup = ServiceHandler.setup

    def pausing_setup(handler):
        setup(handler)
        handler.wfile = _PausingWriter(handler.wfile, headers_out, resume)

    monkeypatch.setattr(ServiceHandler, "setup", pausing_setup)
    replay: list[bytes] = []

    def client():
        with _request(server.url(f"/jobs/{job_id}/events")) as stream:
            replay.append(stream.read())

    reader = threading.Thread(target=client)
    reader.start()
    try:
        assert headers_out.wait(WAIT)
        _run_fresh(server, 3, seed=340)  # three newer jobs: it expires
        assert server.queue.get(job_id).events is None
        assert _gone(server, f"/jobs/{job_id}/events")["error"] == \
            "JobExpiredError"
    finally:
        resume.set()
        reader.join(WAIT)
    assert replay == [reference]
    assert reference.rstrip().splitlines()[-3] == b"event: done"


# -- the acceptance criterion ------------------------------------------------

def test_e2e_two_concurrent_clients_one_execution_identical_bits(server):
    """Two clients submit the same workload concurrently: the engine runs
    once, both receive bit-identical results equal to the pinned golden,
    and each SSE stream carried a phase event before completion."""
    barrier = threading.Barrier(2)
    outcomes: list[dict] = [None, None]

    def client(i: int):
        barrier.wait()
        job = _submit(server, GOLDEN_REQUEST)
        events = _sse_events(server, job["id"])  # blocks until done
        _, result = _json(server.url(f"/jobs/{job['id']}/result"))
        outcomes[i] = {"job": job["id"], "events": events,
                       "result": result}

    threads = [threading.Thread(target=client, args=(i,)) for i in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(WAIT)
    assert all(outcomes), "a client never completed"
    sigs = {o["result"]["signature"] for o in outcomes}
    assert sigs == {GOLDEN_SIGNATURE}
    key = JobRequest(**{k: v for k, v in GOLDEN_REQUEST.items()}).cache_key()
    assert server.queue.executions(key) == 1
    fresh = [o for o in outcomes if not o["result"]["cache_hit"]]
    assert len(fresh) == 1
    # the fresh run's stream carried tracer-derived phases pre-completion
    fresh_kinds = [e["event_field"] for e in fresh[0]["events"]]
    assert "phase" in fresh_kinds[:-1] and fresh_kinds[-1] == "done"


# -- the CLI entry point -----------------------------------------------------

def test_serve_cli_boots_serves_and_stops_cleanly():
    """``python -m repro serve`` over a real subprocess: boots, answers
    /healthz, runs one job, and exits 0 on SIGINT."""
    repo = Path(__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(repo / "src")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--slots", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        cwd=repo, env=env, text=True,
    )
    try:
        banner = proc.stdout.readline()
        assert "listening on http://" in banner
        base = banner.split("listening on ")[1].split()[0]
        status, body = _json(f"{base}/healthz")
        assert status == 200 and body["ok"] is True
        status, job = _json(f"{base}/jobs", "POST", GOLDEN_REQUEST)
        assert status == 201
        deadline = time.monotonic() + WAIT
        state = None
        while time.monotonic() < deadline:
            _, payload = _json(f"{base}/jobs/{job['id']}")
            state = payload["state"]
            if state == "DONE":
                break
            time.sleep(0.05)
        assert state == "DONE"
        _, result = _json(f"{base}/jobs/{job['id']}/result")
        assert result["signature"] == GOLDEN_SIGNATURE
    finally:
        proc.send_signal(signal.SIGINT)
        try:
            rc = proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise AssertionError("serve did not exit on SIGINT")
    assert rc == 0


def test_serve_started_with_sigint_ignored_still_stops_on_it():
    """A shell starts a background job (``serve &``) with SIGINT ignored;
    the server takes SIGINT back, so the signal still drains it."""
    repo = Path(__file__).parents[1]
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--slots", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, cwd=repo,
        env={**os.environ, "PYTHONPATH": str(repo / "src")}, text=True,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
    )
    try:
        assert "listening on http://" in proc.stdout.readline()
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=30) == 0
        assert "service stopped" in proc.stdout.read()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
