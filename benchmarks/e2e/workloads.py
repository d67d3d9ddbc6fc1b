"""The six workloads, run one per fresh child process.

``run.py`` starts ``python child.py --workload NAME --phase
setup|measure|trace ...``, which runs :func:`main` here, and reads the
JSON the child writes to ``--out``.  Every number here is host (real) time from
``time.perf_counter``; simulated statistics are only compared for
identity through ``RunResult.signature()``.

Every layer is measured from outside: the workloads call the program's
public functions, and a traced run (``--phase trace``, see ``layers.py``)
wraps those same public callables for the duration of the run — no file
under ``src/`` changes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent


class Budget:
    """How long a rep loop runs: a fixed count, or until ``seconds`` have
    passed since its first rep (never fewer than ``min_reps``)."""

    def __init__(self, reps: int | None = None, seconds: float | None = None,
                 min_reps: int = 1):
        self.reps, self.seconds, self.min_reps = reps, seconds, min_reps
        self.done, self.t0 = 0, None

    def more(self) -> bool:
        if self.t0 is None:
            self.t0 = time.perf_counter()
        if self.reps is not None:
            go = self.done < self.reps
        else:
            go = self.done < self.min_reps or \
                time.perf_counter() - self.t0 < self.seconds
        self.done += go
        return go


class Outcome:
    """What one child measured: samples, counts, failures, signatures.

    Keyed by the end-to-end metric they feed: ``samples`` are repeats of
    one operation (each is an estimate of the metric), ``populations`` the
    latencies of many different jobs (only their median is), ``values``
    single numbers.  ``job_ms``, every job's latency, is the one extra.
    """

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {}
        self.populations: dict[str, list[float]] = {}
        self.values: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: label -> signature of the first operation carrying that label
        self.signatures: dict[str, str] = {}

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def operation(self, label: str, problems: list[str]) -> None:
        """Count one operation (a rep or a job); any problem fails it."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(f"{label}: {p}" for p in problems)

    def check_signatures(self, sigs: dict[str, str]) -> list[str]:
        """All reps equal: each label must repeat its first signature."""
        problems = []
        for label, sig in sigs.items():
            first = self.signatures.setdefault(label, sig)
            if sig != first:
                problems.append(f"signature {label} {sig[:12]} != first "
                                f"seen {first[:12]}")
        return problems


def timed_reps(outcome: Outcome, budget: Budget, label: str, sample: str,
               rep, scale: float = 1.0) -> float:
    """Run ``rep()`` under the budget; returns task rows per second.

    ``rep`` returns ``(task_rows, signatures)``.  An exception, a
    signature that differs from the first seen, or a leaked shared-memory
    segment fails the rep; its time is still a sample.  The rate is the
    rows of one rep over the *fastest* rep (see ``run.BEST_OF_REPS``).
    """
    from repro.runtime.executor import active_shm_segments

    rows_total, best, n = 0, float("inf"), 0
    while budget.more():
        problems: list[str] = []
        t0 = time.perf_counter()
        try:
            rows, sigs = rep()
        except Exception as exc:  # one bad rep must not end the run
            traceback.print_exc()
            rows, sigs = 0, {}
            problems.append(f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - t0
        problems += outcome.check_signatures(sigs)
        leaked = active_shm_segments()
        if leaked:
            problems.append(f"leaked shm segments {sorted(leaked)}")
        outcome.operation(f"{label}#{n}", problems)
        outcome.sample(sample, seconds * scale)
        rows_total += rows
        best = min(best, seconds)
        n += 1
    return rows_total / n / best


class Workload:
    """Common surface: ``setup``, ``measure``, ``close`` and the checks."""

    name = ""

    def __init__(self, seed: int, data_seed: int):
        #: drives what may vary without changing the amount of work: the
        #: service schedule and the kernel probe's sample
        self.seed = seed
        #: synthesis seed of the ``micro`` dataset (see README: datasets
        #: differ by up to 30 % in work, so it does not follow ``--seed``)
        self.data_seed = data_seed

    def setup(self) -> None:
        """Everything before the first timed operation.  For the two cold
        workloads that is the import alone: their reps build the inputs."""
        from repro.core import api  # noqa: F401

    def measure(self, outcome: Outcome, args) -> None:
        outcome.values["tasks_per_s"] = timed_reps(
            outcome, Budget(args.reps, args.seconds), self.name, "wall_s",
            self.rep)

    def reference_signatures(self) -> dict[str, str]:
        """Signatures an unpinned seed is checked against (none: reps are
        only compared with each other)."""
        return {}

    def close(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        """Max RSS of this process or any reaped child (pool workers)."""
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return max(own, kids) / 1024.0


class MicroWorkload(Workload):
    """``run_alignment`` on the ``micro`` dataset, real kernel."""

    def __init__(self, name: str, seed: int, data_seed: int, engine: str,
                 nodes: int, cores: int, shard: dict | None = None,
                 backend: str = "serial"):
        super().__init__(seed, data_seed)
        self.name, self.engine = name, engine
        self.nodes, self.cores = nodes, cores
        self.shard = shard or {}
        self.backend = backend

    def setup(self) -> None:
        from repro.core import api
        from repro.engines.base import EngineConfig

        self.config = EngineConfig(
            backend=self.backend,
            workers=min(2, os.cpu_count() or 1)
            if self.backend == "process" else 1,
        )
        self.wl = api.get_workload("micro", self.data_seed, **self.shard)
        machine = api.make_machine(self.nodes, self.cores)
        self.wl.micro_plan(machine.total_ranks)

    def rep(self):
        from repro.core import api

        result = api.run_alignment(
            self.wl, self.nodes, self.engine, config=self.config,
            cores_per_node=self.cores, kernel="real",
        )
        return len(result.alignments), {"run": result.signature()}

    def reference_signatures(self) -> dict[str, str]:
        """serial == process == sharded: the same dataset through the
        materialized workload and the serial backend (untimed)."""
        if not self.shard and self.backend == "serial":
            return {}
        from repro.core import api

        result = api.run_alignment(
            api.get_workload("micro", self.data_seed), self.nodes,
            self.engine,
            cores_per_node=self.cores, kernel="real",
        )
        return {"run": result.signature()}


class MacroColdRequest(Workload):
    """ecoli100x at 64 nodes as a user types it: cold, then warm."""

    name = "macro_cold_request"
    NODES = 64
    #: share of a ``--seconds`` budget spent on cold reps
    COLD_SHARE = 0.8
    MIN_WARM_REPS = 20

    def cold_rep(self):
        from repro.core import api

        api.clear_workload_cache()
        self.wl = api.get_workload("ecoli100x", seed=0)
        result = api.run_alignment(self.wl, self.NODES, "auto")
        return self.wl.n_tasks, {"auto": result.signature()}

    def warm_rep(self):
        from repro.core import api

        result = api.run_alignment(self.wl, self.NODES, "auto")
        compared = api.compare_engines(self.wl, self.NODES)
        sigs = {f"compare/{k}": r.signature() for k, r in compared.items()}
        sigs["auto"] = result.signature()
        #: simulated wall of auto's pick over the best measured engine
        self.regret = result.wall_time / min(
            r.wall_time for r in compared.values()) - 1.0
        self.grid_points = result.details["plan"]["grid_points"]
        return 0, sigs

    def measure(self, outcome: Outcome, args) -> None:
        timed = args.seconds is not None
        cold = Budget(args.reps,
                      args.seconds * self.COLD_SHARE if timed else None)
        warm = Budget(args.warm_reps,
                      args.seconds * (1 - self.COLD_SHARE) if timed else None,
                      min_reps=self.MIN_WARM_REPS)
        outcome.values["tasks_per_s"] = timed_reps(
            outcome, cold, "cold", "wall_s", self.cold_rep)
        timed_reps(outcome, warm, "warm", "warm_wall_ms", self.warm_rep,
                   scale=1e3)


class ShardedStream(Workload):
    """ecoli30x streamed shard by shard under a 2-shard resident budget."""

    name = "sharded_stream"
    SHARD = {"shard_tasks": 131072, "max_resident_shards": 2}
    wl = None

    def rep(self):
        from repro.core import api

        self.close()  # drop the previous rep's spill files
        api.clear_workload_cache()
        self.wl = api.get_workload("ecoli30x", **self.SHARD)
        bsp = api.run_alignment(self.wl, 8, "bsp")
        async_ = api.run_alignment(self.wl, 64, "async")
        return 2 * self.wl.n_tasks, {"bsp@8": bsp.signature(),
                                     "async@64": async_.signature()}

    def close(self) -> None:
        if self.wl is not None:
            self.wl.close()


class ServiceMixed(Workload):
    """Closed loop of two clients against ``python -m repro serve``."""

    name = "service_mixed"
    #: the server keeps every finished job, so its resident set grows by
    #: ~5 MiB per second of load: ``peak_rss_mb`` is read once each client
    #: has done this many jobs, not after however many the window allowed
    RSS_AT_JOB = 300

    def __init__(self, seed: int, data_seed: int):
        super().__init__(seed, data_seed)
        self.server = None
        self.server_rss = 0.0
        self.next_index = 0
        #: request body (canonical JSON) -> signature of its first answer
        self.first_signature: dict[str, str] = {}

    def setup(self) -> None:
        import service_load

        # client and server take turns, so together they are one core's
        # work.  Left on two vCPUs, every hand-off waits for the host to
        # wake a halted vCPU: throughput then follows the host's load (97
        # jobs/s in quiet hours, 59-77 in busy ones) where one CPU for both
        # held 88-123 through the same busy hour.  The server inherits it.
        if hasattr(os, "sched_setaffinity"):
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self.server = service_load.Server(str(REPO))
        self.warmup = [
            (body, service_load.run_job(self.server.host, self.server.port,
                                        body))
            for body in service_load.warmup_bodies(self.data_seed)
        ]

    def _check(self, rec: dict, key: str) -> list[str]:
        """cached == fresh (and twin == twin): one body, one signature."""
        if not rec["ok"]:
            return [rec["error"] or "job failed"]
        first = self.first_signature.setdefault(key, rec["signature"])
        if rec["signature"] != first:
            return [f"signature {rec['signature'][:12]} != first answer "
                    f"{first[:12]} for {key}"]
        return []

    def check_warmup(self, outcome: Outcome) -> None:
        import service_load

        for body, rec in self.warmup:
            key = json.dumps(body, sort_keys=True)
            outcome.operation(f"warm-up {key}", self._check(rec, key))
        for key, (_body, rec) in zip(service_load.HOT_KEYS, self.warmup):
            outcome.signatures[f"hot/{key['engine']}@{key['nodes']}"] = \
                rec["signature"] or "missing"

    def read_rss(self) -> None:
        if not self.server_rss:  # once: a traced run drives two windows
            self.server_rss = self.server.peak_rss_mb()

    def window(self, outcome: Outcome, jobs: int | None,
               seconds: float | None, tracer=None) -> tuple[list, float]:
        """One closed-loop window; every job counts as an operation."""
        import service_load

        records, elapsed, self.next_index = service_load.closed_loop(
            self.server.host, self.server.port, self.seed, self.data_seed,
            self.next_index, jobs, seconds, tracer,
            at_job=(self.RSS_AT_JOB, self.read_rss),
        )
        for rec in records:
            outcome.operation(f"job {rec['job_id']} ({rec['cls']})",
                              self._check(rec, rec["key"]))
        return records, elapsed

    def measure(self, outcome: Outcome, args) -> None:
        self.check_warmup(outcome)
        records, elapsed = self.window(outcome, args.jobs, args.seconds)
        outcome.values["jobs_per_s"] = len(records) / elapsed
        for rec in records:
            if not rec["ok"]:
                continue
            ms = rec["latency_s"] * 1e3
            latencies = outcome.populations
            latencies.setdefault("job_ms", []).append(ms)
            # a scheduled "cached" job whose key the LRU had evicted ran
            # fresh: it counts as a job, not as a cache-hit latency
            if rec["cls"] == "cached" and rec["source"] == "cache":
                latencies.setdefault("cached_p50_ms", []).append(ms)
            elif rec["cls"] in ("fresh_macro", "fresh_micro") \
                    and rec["source"] is None:
                latencies.setdefault(f"{rec['cls']}_p50_ms", []).append(ms)

    def close(self) -> None:
        if self.server is None:
            return
        self.read_rss()  # a window shorter than RSS_AT_JOB jobs
        code = self.server.stop()
        self.server = None
        if code != 0:
            raise RuntimeError(f"service exited with code {code}")

    def peak_rss_mb(self) -> float:
        """The server's VmHWM after ``RSS_AT_JOB`` jobs per client."""
        return self.server_rss


def make_workload(name: str, seed: int, data_seed: int) -> Workload:
    if name == "micro_bsp_real":
        return MicroWorkload(name, seed, data_seed, "bsp-micro", 2, 4)
    if name == "micro_async_real":
        return MicroWorkload(name, seed, data_seed, "async-micro", 1, 2)
    if name == "micro_sharded_process":
        return MicroWorkload(
            name, seed, data_seed, "bsp-micro", 2, 4, backend="process",
            shard={"shard_tasks": 256, "max_resident_shards": 2})
    for cls in (MacroColdRequest, ShardedStream, ServiceMixed):
        if cls.name == name:
            return cls(seed, data_seed)
    raise SystemExit(f"unknown workload {name!r}")


def verify(outcome: Outcome, workload: Workload) -> str:
    """Pinned signatures for data seeds in expected.json, identities
    otherwise.

    Returns how the outputs were verified.  A mismatch is one more failed
    operation: the program's simulated output changed.
    """
    expected = json.loads((HERE / "expected.json").read_text())
    reference = expected.get(str(workload.data_seed), {}).get(workload.name)
    if reference is not None:
        how = f"expected.json[{workload.data_seed}]"
    else:
        how = ("identities only (data seed not pinned): all reps equal, "
               "cached == fresh")
        reference = workload.reference_signatures()
        if reference:
            how += ", serial == process == sharded"
    problems = [
        f"signature {label} {outcome.signatures.get(label, 'missing')[:12]}"
        f" != {sig[:12]} ({how})"
        for label, sig in reference.items()
        if outcome.signatures.get(label) != sig
    ]
    outcome.operation("verify", problems)
    return how


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--data-seed", type=int, required=True)
    p.add_argument("--phase", choices=("setup", "measure", "trace"),
                   required=True)
    p.add_argument("--reps", type=int)
    p.add_argument("--warm-reps", type=int)
    p.add_argument("--jobs", type=int, help="service jobs per client")
    p.add_argument("--seconds", type=float)
    p.add_argument("--t0", type=float, required=True,
                   help="time.time() of the parent just before the spawn")
    p.add_argument("--out", required=True)
    p.add_argument("--trace-file")
    p.add_argument("--skip-verify", action="store_true",
                   help="run.py --pin: the signatures are being recorded")
    args = p.parse_args(argv)

    sys.path.insert(0, str(REPO / "src"))
    workload = make_workload(args.workload, args.seed, args.data_seed)
    outcome = Outcome()
    report: dict = {"workload": args.workload, "phase": args.phase}
    try:
        if args.phase == "trace":
            import layers

            layers.traced_run(workload, outcome, report, args)
        else:
            workload.setup()
            report["setup_s"] = time.time() - args.t0
            if args.phase == "measure":
                workload.measure(outcome, args)
        if args.phase != "setup" and not args.skip_verify:
            report["verified_by"] = verify(outcome, workload)
    finally:
        workload.close()
    outcome.values["peak_rss_mb"] = workload.peak_rss_mb()
    report.update(
        samples=outcome.samples, populations=outcome.populations,
        values=outcome.values,
        attempted=outcome.attempted, failed=outcome.failed,
        failures=outcome.failures[:50], signatures=outcome.signatures,
    )
    Path(args.out).write_text(json.dumps(report))
    return 0
