"""Load generator for ``service_mixed``: seeded schedule, closed loop.

Two client threads each walk their own seeded schedule against one
``python -m repro serve`` child and send the next job only when the
previous one completed (a closed loop: callers that wait for a reply).
One job is POST ``/jobs`` -> read ``/jobs/{id}/events`` to its close ->
GET ``/jobs/{id}/result``; its latency is what the client observed from
the first byte sent to the last byte read.

The schedule is a pure function of ``(seed, client, index)`` — no
``repro`` import — so the harness tests can pin its determinism.
"""

from __future__ import annotations

import contextlib
import functools
import http.client
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
import time

__all__ = ["HOT_KEYS", "MIX", "BLOCK", "CLIENTS", "schedule_item", "warmup_bodies",
           "Server", "run_job", "closed_loop"]

CLIENTS = 2

#: request classes and how many of each a block of 50 jobs holds
#: (70 % / 18 % / 8 % / 4 %); the seed shuffles each block, so every seed
#: sends the same mix and only the order and the keys differ
MIX = (("cached", 35), ("fresh_macro", 9), ("fresh_micro", 4), ("twin", 2))
BLOCK = sum(count for _cls, count in MIX)

#: the 16 keys the result cache holds hot: ecoli30x x engine x nodes
HOT_KEYS = tuple(
    {"workload": "ecoli30x", "engine": engine, "nodes": nodes}
    for engine in ("bsp", "async", "hybrid", "auto")
    for nodes in (1, 2, 4, 8)
)

_MICRO_ENGINES = ("bsp-micro", "async-micro")

#: ``config.seed`` values below this are never generated, so a fresh
#: request can never collide with a hot key (``config.seed`` 0)
_UNIQUE_BASE = 1_000_000


def _micro_body(data_seed: int, engine: str) -> dict:
    return {"workload": "micro", "seed": data_seed, "engine": engine,
            "nodes": 2, "cores_per_node": 4}


def warmup_bodies(data_seed: int) -> list[dict]:
    """One job per hot key plus one micro job: fills the result cache and
    the server's workload/assignment caches before anything is timed."""
    return [dict(k) for k in HOT_KEYS] + [_micro_body(data_seed, "bsp-micro")]


@functools.lru_cache(maxsize=64)
def _block(seed: int, block: int) -> tuple[tuple[str, int], ...]:
    """The block's shuffled classes, each with its running count: entry
    ``(cls, k)`` is the ``k``-th job of class ``cls`` since index 0."""
    classes = [cls for cls, count in MIX for _ in range(count)]
    random.Random(f"e2e/{seed}/block/{block}").shuffle(classes)
    seen = {cls: block * count for cls, count in MIX}
    out = []
    for cls in classes:
        out.append((cls, seen[cls]))
        seen[cls] += 1
    return tuple(out)


def _rotate(options: tuple, k: int, salt: str):
    """The ``k``-th pick of an endless sequence of seeded shuffles of
    ``options``: every ``len(options)`` consecutive picks use each option
    once, so every seed sends the same key mix in a different order."""
    lap, pos = divmod(k, len(options))
    order = list(options)
    random.Random(f"{salt}/{lap}").shuffle(order)
    return order[pos]


def schedule_item(seed: int, client: int, index: int,
                  data_seed: int = 11) -> dict:
    """The ``index``-th job of ``client``: ``{"cls", "body"}``.

    The class at an index is shared by both clients (so they reach each
    ``twin`` index together and submit the identical request); hot keys
    and micro engines rotate per client and class.  Fresh requests carry
    a ``config.seed`` unique to ``(index, client)`` — the twin pair shares
    one — which makes their cache key new without touching the workload.
    """
    cls, k = _block(seed, index // BLOCK)[index % BLOCK]
    salt = f"e2e/{seed}/{cls}" + ("" if cls == "twin" else f"/{client}")
    if cls == "fresh_micro":
        body = _micro_body(data_seed, _rotate(_MICRO_ENGINES, k, salt))
    else:
        body = dict(_rotate(HOT_KEYS, k, salt))
    if cls != "cached":
        unique = _UNIQUE_BASE + 2 * index + (0 if cls == "twin" else client)
        body["config"] = {"seed": unique}
    return {"cls": cls, "body": body}


class Server:
    """One ``python -m repro serve --port 0 --slots 2`` child."""

    def __init__(self, repo_root: str, slots: int = 2):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(repo_root, "src")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--slots", str(slots)],
            cwd=repo_root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, text=True,
        )
        banner = self.proc.stdout.readline()
        match = re.search(r"http://([\d.]+):(\d+)", banner)
        if match is None:
            self.proc.kill()
            rest = self.proc.communicate()[0]
            raise RuntimeError(f"service did not start: {banner}{rest}")
        self.host, self.port = match.group(1), int(match.group(2))

    def peak_rss_mb(self) -> float:
        """The server's VmHWM (peak resident set) in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def get_json(self, path: str):
        status, raw = _http(self.host, self.port, "GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} -> {status}")
        return json.loads(raw)

    def stop(self) -> int:
        """SIGINT (the CLI's clean drain), then wait; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        return self.proc.returncode


def _no_span(_name: str, _request_id: str | None = None):
    return contextlib.nullcontext()


def _http(host: str, port: int, method: str, path: str,
          body: dict | None = None) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection(host, port, timeout=120)
    try:
        if body is None:
            conn.request(method, path)
        else:
            conn.request(method, path, json.dumps(body).encode(),
                         {"Content-Type": "application/json"})
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def run_job(host: str, port: int, body: dict, tracer=None,
            request_id: str | None = None) -> dict:
    """One job, start to finish, as a client sees it.

    Returns the client-side record: latency and its three HTTP parts,
    event count, result size, and the result's signature and cache
    source.  ``ok`` is False on any non-2xx answer or a job that did not
    end DONE; nothing raises, so one bad job never stops the loop.
    """
    rec = {"ok": False, "error": None, "job_id": None, "signature": None,
           "source": None, "events": 0, "result_bytes": 0}
    span = tracer.span if tracer is not None else _no_span
    t0 = time.perf_counter()
    try:
        with span("service.job", request_id) as root:
            with span("service.http.post"):
                status, raw = _http(host, port, "POST", "/jobs", body)
            t1 = time.perf_counter()
            if status != 201:
                rec["error"] = f"POST /jobs -> {status}: {raw[:200]!r}"
                return rec
            job_id = rec["job_id"] = json.loads(raw)["id"]
            if root is not None:
                root["job_id"] = job_id
            with span("service.http.events"):
                status, raw = _http(host, port, "GET",
                                    f"/jobs/{job_id}/events")
            t2 = time.perf_counter()
            if status != 200:
                rec["error"] = f"GET events -> {status}"
                return rec
            rec["events"] = raw.count(b"\nevent: ") + raw.startswith(b"event: ")
            with span("service.http.result"):
                status, raw = _http(host, port, "GET",
                                    f"/jobs/{job_id}/result")
            t3 = time.perf_counter()
        rec["post_s"], rec["events_s"], rec["result_s"] = \
            t1 - t0, t2 - t1, t3 - t2
        rec["result_bytes"] = len(raw)
        if status != 200:
            rec["error"] = f"GET result -> {status}: {raw[:200]!r}"
            return rec
        result = json.loads(raw)
        rec["signature"] = result["signature"]
        rec["source"] = result["cache_source"]
        rec["ok"] = result["state"] == "DONE"
        if not rec["ok"]:
            rec["error"] = f"job ended {result['state']}"
    except (OSError, http.client.HTTPException, ValueError, KeyError) as exc:
        rec["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        rec["latency_s"] = time.perf_counter() - t0
    return rec


def closed_loop(host: str, port: int, seed: int, data_seed: int,
                start_index: int, jobs_per_client: int | None, seconds: float | None,
                tracer=None, at_job=None) -> tuple[list[dict], float, int]:
    """Drive both clients; returns (records, elapsed seconds, next index).

    Each client stops after ``jobs_per_client`` jobs or once ``seconds``
    have passed, whichever is given.  At a ``twin`` index both clients
    wait for each other and submit the identical request; a client that
    stops first breaks the barrier so the other never waits for it.
    ``at_job=(n, fn)`` calls ``fn()`` once, when client 0 has completed
    ``n`` jobs: a point of fixed work, however long the window is.
    """
    barrier = threading.Barrier(CLIENTS)
    records: list[list[dict]] = [[] for _ in range(CLIENTS)]
    reached = [start_index] * CLIENTS
    start = time.perf_counter()
    deadline = None if seconds is None else start + seconds

    def client(c: int) -> None:
        index = start_index
        try:
            while True:
                if jobs_per_client is not None and \
                        index - start_index >= jobs_per_client:
                    break
                if deadline is not None and time.perf_counter() >= deadline:
                    break
                item = schedule_item(seed, c, index, data_seed)
                if item["cls"] == "twin":
                    try:
                        barrier.wait(timeout=120)
                    except threading.BrokenBarrierError:
                        break
                rec = run_job(host, port, item["body"], tracer,
                              f"client{c}/job{index}")
                rec.update(client=c, index=index, cls=item["cls"],
                           key=json.dumps(item["body"], sort_keys=True))
                records[c].append(rec)
                index += 1
                if c == 0 and at_job and index - start_index == at_job[0]:
                    at_job[1]()
        finally:
            reached[c] = index
            barrier.abort()

    threads = [threading.Thread(target=client, args=(c,), name=f"client-{c}")
               for c in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    return [r for per in records for r in per], elapsed, max(reached)
