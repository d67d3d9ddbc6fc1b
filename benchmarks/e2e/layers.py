"""The traced run: spans around every layer, and the per-layer metrics.

``traced_run`` is the body of ``workloads.py --phase trace``.  It runs the
workload's operation once untraced and once with every layer boundary
wrapped (:func:`wrapped`), so the two times give
``bench.trace_overhead_frac``; then the layer probes run under their own
root spans.  Spans are kept in memory and written to ``--trace-file``
when the run ends.

A per-layer metric a workload never enters stays absent here; ``run.py``
reports it as 0 — the layer did no work for that workload.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import stats as st
from tracing import Tracer, account_roots, self_time_by_name, self_times
from workloads import (Budget, MacroColdRequest, MicroWorkload, Outcome,
                       ServiceMixed, ShardedStream, timed_reps)

#: tasks arriving in batches below this count as "small batch" — the
#: batched kernel's measured crossover with the scalar one (BENCH_KERNEL)
SMALL_BATCH = 8

ALIGN_PROBE_PAIRS = 256
#: scalar, batch 1 and batch 4 are slow per pair; they time this prefix
ALIGN_PROBE_SLOW_PAIRS = 64
ALIGN_BATCHES = (1, 4, 16, 64, 256)


@contextmanager
def wrapped(tracer: Tracer, notes: dict):
    """The public entry point of every layer, wrapped for the ``with``
    body and restored after it."""
    from repro.core import api
    from repro.engines.registry import available_engines, get_engine
    from repro.perf import planner
    from repro.pipeline.sharded import ShardedWorkload
    from repro.pipeline.workload import ConcreteWorkload, StatisticalWorkload
    from repro.runtime.executor import ProcessExecutor, SerialExecutor

    def ranks(span, args, _result):
        span["num_ranks"] = int(args[1])

    def batch(span, args, _result):
        span["tasks"] = len(args[1])
        notes["executor_stats"] = {
            k: v for k, v in args[0].stats().items()
            if isinstance(v, (int, float))
        }

    try:
        for fn in ("get_workload", "make_machine", "run_alignment",
                   "compare_engines"):
            tracer.wrap(api, fn, f"core.api.{fn}")
        # get_workload reaches the synthesizer through core.api's own name
        tracer.wrap(api, "synthesize_dataset", "genome.synthesize")
        tracer.wrap(ConcreteWorkload, "from_pipeline",
                    "pipeline.from_pipeline")
        for cls in (ConcreteWorkload, ShardedWorkload):
            tracer.wrap(cls, "micro_plan", "pipeline.micro_plan", ranks)
        for cls in (ConcreteWorkload, StatisticalWorkload):
            tracer.wrap(cls, "assignment", "pipeline.assignment", ranks)
        tracer.wrap(ShardedWorkload, "assignment", "pipeline.sharded.assignment",
                    ranks)
        tracer.wrap(planner, "plan", "perf.planner.plan")
        for name in available_engines():
            tracer.wrap(get_engine(name).factory, "run",
                        f"engines.{name}.run")
        for cls in (SerialExecutor, ProcessExecutor):
            tracer.wrap(cls, "align_tasks", "runtime.executor.align_tasks",
                        batch)
        yield
    finally:
        tracer.unwrap_all()


def _under(tracer: Tracer | None, fn, name: str, request_id: str):
    """``fn`` run inside a root span (``fn`` itself without a tracer)."""
    if tracer is None:
        return fn

    def rooted():
        with tracer.span(name, request_id):
            return fn()
    return rooted


def _durations(spans, name: str, **attrs) -> list[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] == name
            and all(s.get(k) == v for k, v in attrs.items())]


def _median_ms(values) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


# -- probes ------------------------------------------------------------------


def align_probe(workload: MicroWorkload, outcome: Outcome) -> dict:
    """The kernel alone: seeded task pairs at five batch sizes and scalar.

    Cells and antidiagonals are exact counts of kernel work and must not
    move; batched results must equal the scalar ones pair by pair.
    """
    import numpy as np
    from repro.align.batch import BatchedXDropExtender
    from repro.align.seedextend import SeedExtendAligner

    wl = workload.wl
    tasks, codes = wl.tasks, wl.reads.codes
    rng = np.random.default_rng(workload.seed)
    chosen = rng.choice(len(tasks), size=min(ALIGN_PROBE_PAIRS, len(tasks)),
                        replace=False)
    pairs = [
        (codes(int(tasks.read_a[i])), codes(int(tasks.read_b[i])),
         int(tasks.pos_a[i]), int(tasks.pos_b[i]), tasks.k,
         bool(tasks.reverse[i]), int(tasks.read_a[i]), int(tasks.read_b[i]))
        for i in chosen
    ]
    slow = pairs[:ALIGN_PROBE_SLOW_PAIRS]
    aligner = SeedExtendAligner()
    aligner.align_batch(pairs[:2])  # builds the cached extenders
    aligner.align(*pairs[0][:5], reverse=pairs[0][5])

    t0 = time.perf_counter()
    scalar = [aligner.align(*p[:5], reverse=p[5], read_a=p[6], read_b=p[7])
              for p in slow]
    scalar_rate = sum(a.cells for a in scalar) / (time.perf_counter() - t0)
    out = {"align.scalar.cells_per_s": scalar_rate}

    problems = []
    crossover = 0
    for b in ALIGN_BATCHES:
        subset = slow if b < 16 else pairs
        t0 = time.perf_counter()
        got = []
        for i in range(0, len(subset), b):
            got += aligner.align_batch(subset[i:i + b])
        rate = sum(a.cells for a in got) / (time.perf_counter() - t0)
        out[f"align.batch.cells_per_s.b{b}"] = rate
        if not crossover and rate >= scalar_rate:
            crossover = b
        if got[:len(scalar)] != scalar:
            problems.append(f"batch {b} differs from the scalar kernel")
    out["align.crossover_batch"] = crossover
    out["align.cells"] = sum(a.cells for a in got)
    forward = [(p[0][p[2] + p[4]:], p[1][p[3] + p[4]:])
               for p in pairs if not p[5]]
    out["align.antidiagonals"] = sum(
        r.antidiagonals for r in BatchedXDropExtender().extend_batch(forward))
    outcome.operation("align probe", problems)
    return out


def executor_metrics(spans, notes: dict) -> dict:
    sizes = [s["tasks"] for s in spans
             if s["name"] == "runtime.executor.align_tasks"]
    if not sizes:
        return {}
    tasks = sum(sizes)
    out = {
        "runtime.executor.calls": len(sizes),
        "runtime.executor.tasks": tasks,
        "runtime.executor.batch_p50": statistics.median(sizes),
        "runtime.executor.small_batch_task_frac":
            sum(n for n in sizes if n < SMALL_BATCH) / tasks,
        "runtime.executor.busy_s":
            sum(_durations(spans, "runtime.executor.align_tasks")),
    }
    pool = notes.get("executor_stats", {})
    for key in ("dispatch_s", "wait_s", "merge_s", "chunks"):
        if key in pool:
            out[f"runtime.executor.{key}"] = pool[key]
    return out


def micro_layers(workload: MicroWorkload, tracer: Tracer, notes: dict,
                 outcome: Outcome, setup_spans, rep_spans) -> dict:
    out = executor_metrics(rep_spans, notes)
    selfs = self_times(tracer.spans)
    out["engines.micro.self_s"] = sum(
        selfs[s["id"]] for s in rep_spans
        if s["name"] == f"engines.{workload.engine}.run")
    for metric, name in (("genome.synthesize_s", "genome.synthesize"),
                         ("pipeline.from_pipeline_s", "pipeline.from_pipeline"),
                         ("pipeline.micro_plan_s", "pipeline.micro_plan")):
        out[metric] = sum(_durations(setup_spans, name))
    with tracer.span("probe.align", "probe.align"):
        out.update(align_probe(workload, outcome))
    return out


def macro_layers(workload: MacroColdRequest, tracer: Tracer,
                 rep_spans) -> dict:
    p4096 = _durations(rep_spans, "pipeline.assignment", num_ranks=4096)
    with tracer.span("probe.assignment.p512", "probe.assignment.p512"):
        t0 = time.perf_counter()
        workload.wl.assignment(512)
        p512 = time.perf_counter() - t0
    out = {
        "pipeline.assignment_s.p4096": max(p4096),
        "pipeline.assignment_s.p512": p512,
        "pipeline.assignment_rows_per_s": workload.wl.n_tasks / max(p4096),
        "perf.planner.plan_ms":
            _median_ms(_durations(rep_spans, "perf.planner.plan")),
        "perf.planner.grid_points": workload.grid_points,
        "perf.planner.regret": workload.regret,
    }
    for engine in ("bsp", "async", "hybrid"):
        out[f"engines.{engine}.run_ms"] = _median_ms(
            _durations(rep_spans, f"engines.{engine}.run"))
    return out


def sharded_layers(workload: ShardedStream, tracer: Tracer,
                   rep_spans) -> dict:
    from repro.core import api

    sharded = max(_durations(rep_spans, "pipeline.sharded.assignment",
                             num_ranks=512))
    store = workload.wl.store.stats()
    with tracer.span("probe.assignment.materialized",
                     "probe.assignment.materialized"):
        t0 = time.perf_counter()
        api.get_workload("ecoli30x").assignment(512)
        materialized = time.perf_counter() - t0
    out = {f"pipeline.sharded.{k}": store[k] for k in
           ("builds", "reloads", "evictions", "spilled",
            "peak_resident_bytes")}
    out["pipeline.sharded.assignment_s"] = sharded
    out["pipeline.sharded.penalty"] = sharded / materialized
    return out


def api_layers(spans) -> dict:
    from repro.core import api

    cache = api.workload_cache_stats()
    builds = _durations(spans, "core.api.get_workload")
    return {
        "core.api.get_workload_s": max(builds) if builds else 0.0,
        "core.api.make_machine_ms":
            _median_ms(_durations(spans, "core.api.make_machine")),
        "core.api.workload_cache_hits": cache["hits"],
        "core.api.workload_cache_misses": cache["misses"],
    }


def service_layers(workload: ServiceMixed, records: list[dict]) -> dict:
    """Client-side HTTP parts plus the server's own job timestamps."""
    listing = workload.server.get_json("/jobs")
    jobs = {j["id"]: j for j in listing["jobs"]}
    ok = [r for r in records if r["ok"]]
    run_s = {}
    waits, runs = [], []
    for r in ok:
        j = jobs[r["job_id"]]
        if r["source"] is None and j["started_at"] is not None:
            waits.append(j["started_at"] - j["created_at"])
            run_s[r["job_id"]] = j["finished_at"] - j["started_at"]
            runs.append(run_s[r["job_id"]])
    fresh_events = [r["events"] for r in ok if r["source"] is None]
    queue, cache = listing["stats"], listing["stats"]["cache"]
    lookups = cache["hits"] + cache["misses"]
    return {
        "service.http.post_ms_p50": _median_ms([r["post_s"] for r in ok]),
        "service.http.events_ms_p50": _median_ms([r["events_s"] for r in ok]),
        "service.http.result_ms_p50": _median_ms([r["result_s"] for r in ok]),
        "service.http.result_bytes_p50":
            statistics.median(r["result_bytes"] for r in ok),
        "service.queue.wait_ms_p50": _median_ms(waits),
        "service.queue.run_ms_p50": _median_ms(runs),
        "service.overhead_ms_p50": _median_ms(
            [r["latency_s"] - run_s.get(r["job_id"], 0.0) for r in ok]),
        "service.events_per_job_p50":
            statistics.median(fresh_events) if fresh_events else 0.0,
        "service.queue.executed": queue["executed"],
        "service.queue.cache_hits": queue["cache_hits"],
        "service.queue.coalesced": queue["coalesced"],
        "service.queue.rejected": queue["rejected"],
        "service.cache.hit_frac": cache["hits"] / lookups if lookups else 0.0,
        "service.cache.evictions": cache["evictions"],
        "service.fresh_macro_p90_ms": st.percentile(
            [r["latency_s"] * 1e3 for r in ok
             if r["cls"] == "fresh_macro" and r["source"] is None], 90),
        "service.job_p99_ms":
            st.percentile([r["latency_s"] * 1e3 for r in ok], 99),
    }


# -- the traced run ----------------------------------------------------------


def _traced_service(workload: ServiceMixed, outcome: Outcome, args,
                    tracer: Tracer) -> tuple[dict, float]:
    # a traced run drives a quarter of the schedule, once with spans off
    # and once with them on; the server is a separate process, so spans
    # come from the client side of each HTTP call
    jobs = None if args.jobs is None else max(1, args.jobs // 4)
    seconds = None if args.seconds is None else args.seconds / 4
    workload.check_warmup(outcome)
    plain, plain_s = workload.window(outcome, jobs, seconds)
    traced, traced_s = workload.window(outcome, jobs, seconds, tracer)
    overhead = (traced_s / len(traced)) / (plain_s / len(plain)) - 1.0
    return service_layers(workload, plain + traced), overhead


def _traced_reps(workload, outcome: Outcome, tracer: Tracer,
                 notes: dict) -> tuple[list, float]:
    """One untraced operation, then the same one under spans."""
    macro = isinstance(workload, MacroColdRequest)
    op = workload.cold_rep if macro else workload.rep

    def run(label: str, spans: Tracer | None) -> float:
        mark = len(outcome.samples.get("wall_s", []))
        timed_reps(outcome, Budget(reps=1), label, "wall_s",
                   _under(spans, op, "request", f"{workload.name}/request"))
        if macro:
            timed_reps(outcome, Budget(reps=workload.MIN_WARM_REPS // 2),
                       f"{label}-warm", "warm_wall_ms",
                       _under(spans, workload.warm_rep, "request.warm",
                              f"{workload.name}/request.warm"), scale=1e3)
        return outcome.samples["wall_s"][mark]

    plain_s = run("untraced", None)
    first = len(tracer.spans)
    with wrapped(tracer, notes):
        traced_s = run("traced", tracer)
    return tracer.spans[first:], traced_s / plain_s - 1.0


def traced_run(workload, outcome: Outcome, report: dict, args) -> None:
    tracer, notes = Tracer(), {}
    # the service runs in another process: nothing to wrap in this one
    service = isinstance(workload, ServiceMixed)
    with nullcontext() if service else wrapped(tracer, notes), \
            tracer.span("setup", f"{workload.name}/setup"):
        workload.setup()
    report["setup_s"] = time.time() - args.t0
    setup_spans = list(tracer.spans)

    if service:
        layers, overhead = _traced_service(workload, outcome, args, tracer)
    else:
        rep_spans, overhead = _traced_reps(workload, outcome, tracer, notes)
        with wrapped(tracer, notes):
            if isinstance(workload, MicroWorkload):
                layers = micro_layers(workload, tracer, notes, outcome,
                                      setup_spans, rep_spans)
            elif isinstance(workload, MacroColdRequest):
                layers = macro_layers(workload, tracer, rep_spans)
            else:
                layers = sharded_layers(workload, tracer, rep_spans)
        layers.update(api_layers(tracer.spans))
        from repro.runtime.executor import active_shm_segments

        layers["runtime.executor.shm_leaked"] = len(active_shm_segments())
    layers["engines.sim_signature_mismatches"] = sum(
        "signature" in f for f in outcome.failures)
    layers["bench.trace_overhead_frac"] = overhead
    layers["bench.nproc"] = os.cpu_count() or 1
    report["per_layer"] = layers

    roots = account_roots(tracer.spans)
    outcome.operation("span accounting", [
        f"root {r['name']} leaves {r['unaccounted_s']:.3g} s unaccounted"
        for r in roots if abs(r["unaccounted_s"]) > 1e-6
    ])
    Path(args.trace_file).write_text(json.dumps({
        "workload": workload.name, "seed": workload.seed,
        "data_seed": workload.data_seed,
        "clock": "time.perf_counter (host seconds)",
        "spans": tracer.spans, "roots": roots,
        "self_time_by_name": self_time_by_name(tracer.spans),
    }))
