"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
``run``      simulate one engine on a workload and print the breakdown
``compare``  run the macro engines on identical inputs (the paper's method)
``sweep``    strong-scaling sweep over node counts
``plan``     rank engine × knob candidates by wall clock
``datasets`` list the available workload presets
``engines``  list the registered engines

The ``--approach`` choices (``--engine`` is an alias) come straight from
the engine registry — registering a new engine makes it runnable here with
no CLI edits (docs/ARCHITECTURE.md).  ``--engine auto`` runs the
planner's engine × knob grid and keeps the winner (docs/PLANNER.md).

Examples
--------
::

    python -m repro datasets
    python -m repro run --workload ecoli100x --nodes 16 --approach async
    python -m repro run --workload ecoli100x --nodes 16 --engine auto
    python -m repro plan --workload ecoli100x --nodes 16
    python -m repro compare --workload human_ccs --nodes 8
    python -m repro sweep --workload ecoli100x --nodes 1 4 16 64
"""

from __future__ import annotations

import argparse
import math
import signal
import sys

from repro.core.api import (
    compare_engines,
    get_workload,
    make_machine,
    run_alignment,
    scaling_sweep,
)
from repro.engines.base import EngineConfig
from repro.engines.registry import available_engines, get_engine
from repro.engines.report import churn_summary
from repro.runtime.executor import BACKENDS
from repro.errors import ConfigurationError, ExecutorError, FaultError
from repro.faults import parse_fault_spec
from repro.genome.datasets import DATASETS
from repro.obs import MetricsRegistry, Tracer, check_breakdown, check_trace
from repro.perf.format import render_breakdown_rows, render_table
from repro.pipeline.sharded import DEFAULT_RESIDENT_SHARDS, ShardedWorkload
from repro.utils.units import fmt_bytes, fmt_time

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Simulate the paper's BSP/Async many-to-many alignment "
                    "engines on a modeled Cori KNL.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--workload", default="ecoli100x",
                       choices=sorted(DATASETS))
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--shard-tasks", type=int, default=0, metavar="N",
                       help="Table-1 presets: generate and aggregate "
                            "task rows in N-task shards, an out-of-core "
                            "model that differs from the statistical one "
                            "(0); results are bit-identical for any N > 0. "
                            "Sequence-level presets ignore it: their task "
                            "table is in memory")
        p.add_argument("--max-resident-shards", type=int,
                       default=DEFAULT_RESIDENT_SHARDS,
                       metavar="M",
                       help="with --shard-tasks: at most M shards resident "
                            "in memory; the rest spill to disk (or shared "
                            "memory via REPRO_SHARD_SPILL_DIR=/dev/shm)")
        p.add_argument("--cores-per-node", type=int, default=64)
        p.add_argument("--comm-only", action="store_true",
                       help="skip alignment computation (paper 4.3 mode)")
        p.add_argument("--trace", metavar="PATH", default=None,
                       help="write a Chrome trace-format JSON of the run(s) "
                            "(open in chrome://tracing or Perfetto)")
        p.add_argument("--metrics", action="store_true",
                       help="print per-rank counter rollups after the run")

    def fault_args(p):
        p.add_argument("--faults", metavar="SPEC", default=None,
                       help="inject faults, e.g. "
                            "'drop=0.05,straggle=2@r1:0:1,kill=r3@0.5' "
                            "(see docs/RESILIENCE.md for the grammar)")
        p.add_argument("--fault-seed", type=int, default=0,
                       help="seed for the deterministic fault realization")

    p_run = sub.add_parser("run", help="run one engine")
    common(p_run)
    fault_args(p_run)
    p_run.add_argument("--nodes", type=int, default=4)
    p_run.add_argument("--approach", "--engine", dest="approach",
                       default="bsp",
                       choices=list(available_engines()) + ["auto"],
                       help="registered engine to run (--engine is an "
                            "alias); 'auto' keeps the planner's top "
                            "grid point (docs/PLANNER.md)")
    p_run.add_argument("--kernel", choices=("model", "real"), default="model",
                       help="micro engines only: 'real' runs the X-drop "
                            "alignment kernel; 'model' charges modeled costs")
    p_run.add_argument("--backend", choices=list(BACKENDS), default="serial",
                       help="compute backend for --kernel real task batches: "
                            "serial inline, process pool, or auto "
                            "(the pool on >= 2 usable CPUs and a large "
                            "enough workload, else serial; "
                            "docs/PARALLEL.md)")
    p_run.add_argument("--workers", type=int, default=1,
                       help="chunks each kernel call is split into on the "
                            "worker pool (--backend process or auto)")

    p_cmp = sub.add_parser("compare",
                           help="run the macro engines side by side")
    common(p_cmp)
    fault_args(p_cmp)
    p_cmp.add_argument("--nodes", type=int, default=4)

    p_sweep = sub.add_parser("sweep", help="strong-scaling sweep")
    common(p_sweep)
    fault_args(p_sweep)
    p_sweep.add_argument("--nodes", type=int, nargs="+",
                         default=[1, 4, 16, 64])

    p_plan = sub.add_parser(
        "plan",
        help="run the engine x knob grid and rank it by wall clock "
             "(docs/PLANNER.md)",
    )
    common(p_plan)
    p_plan.add_argument("--nodes", type=int, default=4)
    p_plan.add_argument("--top", type=int, default=0, metavar="K",
                        help="print only the best K plans (0 = all)")
    p_plan.add_argument("--tiny", action="store_true",
                        help="shortcut for the smoke grid: "
                             "--workload micro --nodes 2 "
                             "--cores-per-node 8")

    p_faults = sub.add_parser("faults", help="fault-spec utilities")
    faults_sub = p_faults.add_subparsers(dest="faults_command", required=True)
    p_val = faults_sub.add_parser(
        "validate",
        help="parse a fault spec and pretty-print the realized plan",
    )
    p_val.add_argument("spec",
                       help="fault spec string, e.g. "
                            "'evict=r1@5:grace=2,join=r3@10,redistribute'")

    p_serve = sub.add_parser(
        "serve",
        help="run the alignment-as-a-service HTTP API (docs/SERVICE.md)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8642,
                         help="listen port (0 = ephemeral, printed at start)")
    p_serve.add_argument("--slots", type=int, default=2,
                         help="jobs allowed to run concurrently")
    p_serve.add_argument("--backlog", type=int, default=64,
                         help="queued-job bound; submissions beyond it are "
                              "rejected with HTTP 429")
    p_serve.add_argument("--memory-mb", type=int, default=2048,
                         help="admission memory ledger capacity (MiB)")
    p_serve.add_argument("--cache-entries", type=int, default=None,
                         help="result-cache size (whole RunResults; "
                              "default: repro.service.DEFAULT_CACHE_ENTRIES)")
    p_serve.add_argument("--verbose", action="store_true",
                         help="log every HTTP request to stderr")

    sub.add_parser("datasets", help="list workload presets")
    sub.add_parser("engines", help="list registered engines")
    return parser


def _config(args) -> EngineConfig:
    cfg = EngineConfig(
        seed=args.seed,
        backend=getattr(args, "backend", "serial"),
        workers=getattr(args, "workers", 1),
    )
    return cfg.comm_only() if args.comm_only else cfg


def _observability(args) -> tuple[Tracer | None, MetricsRegistry | None]:
    tracer = Tracer() if args.trace else None
    metrics = None
    # counter registries are sized to one rank count, so --metrics only
    # applies to commands with a single --nodes value (run / compare)
    if args.metrics:
        if isinstance(getattr(args, "nodes", None), int):
            machine = make_machine(args.nodes, args.cores_per_node)
            metrics = MetricsRegistry(machine.total_ranks)
        else:
            print("metrics: skipped (rank count varies across a sweep; "
                  "use `run` or `compare` for counter rollups)")
    return tracer, metrics


def _finish_observability(args, tracer: Tracer | None,
                          metrics: MetricsRegistry | None,
                          results) -> int:
    """Write the trace, print conservation status and counter rollups.

    Returns a process exit code: nonzero when the trace file could not
    be written (the simulation results above it are still valid).
    """
    rc = 0
    if tracer is not None:
        for res in results:
            report = check_breakdown(res.breakdown)
            print(report.describe())
        # one check per traced run (one Chrome pid each)
        for pid in range(tracer.current_pid + 1):
            wall = results[pid].wall_time if pid < len(results) else None
            if wall is not None:
                print(check_trace(tracer, wall, pid=pid).describe())
        try:
            tracer.write_chrome(args.trace)
        except OSError as exc:
            print(f"error: cannot write trace {args.trace}: {exc}",
                  file=sys.stderr)
            rc = 1
        else:
            print(f"trace: {len(tracer.events)} events -> {args.trace}")
    if metrics is not None and metrics.names():
        print(render_table(
            "Per-rank counters",
            ["counter", "min", "avg", "max", "sum"],
            metrics.rows(),
        ))
    return rc


def _compare_verdict(bsp: float, asy: float) -> str:
    """Human verdict on the two wall times.

    Guards the degenerate cases reachable with ``--comm-only`` on tiny
    workloads: zero wall times (no division) and ties (no
    "+0.0% slower" nonsense).
    """
    if bsp <= 0 or asy <= 0:
        return (f"wall times too small to compare "
                f"(bsp={fmt_time(bsp)}, async={fmt_time(asy)})")
    if math.isclose(bsp, asy, rel_tol=1e-9):
        return f"engines tie (both {fmt_time(bsp)})"
    if asy < bsp:
        return f"async is {100 * (bsp / asy - 1):.1f}% faster"
    return f"async is {100 * (asy / bsp - 1):.1f}% slower"


def _print_result(name: str, res) -> None:
    f = res.breakdown.fractions()
    print(f"{name:6s} wall {fmt_time(res.wall_time):>10}  "
          f"align {100 * f['compute_align']:5.1f}%  "
          f"overhead {100 * f['compute_overhead']:4.1f}%  "
          f"comm {100 * f['comm']:5.1f}%  "
          f"sync {100 * f['sync']:5.1f}%  "
          f"rounds={res.exchange_rounds}  "
          f"mem/core {fmt_bytes(res.max_memory_per_rank)}")


def _fault_detail_bits(details: dict) -> list[str]:
    """Fault-path numbers worth a column in the degradation report."""
    bits = []
    for key, label in (("rpc_retries", "rpc_retries"),
                       ("exchange_retries", "xchg_retries"),
                       ("tasks_redistributed", "tasks_moved"),
                       ("ranks_lost", "ranks_lost")):
        val = details.get(key)
        if val:
            if key == "tasks_redistributed":
                bits.append(f"{label}={val:.0f}")
            elif key == "ranks_lost":
                bits.append(f"{label}={','.join(str(r) for r in val)}")
            else:
                bits.append(f"{label}={val}")
    return bits


def _degradation_section(clean: dict, faulty: dict, plan) -> None:
    """How much wall clock each engine lost to the injected faults."""
    print(f"Degradation under faults ({plan.describe()}):")
    for name in clean:
        c = clean[name].wall_time
        f = faulty[name].wall_time
        inflation = (f"{100 * (f / c - 1):+.1f}%" if c > 0 else "n/a")
        d = faulty[name].details
        bits = [f"faults={d.get('faults_injected', 0)}"]
        bits += _fault_detail_bits(d)
        print(f"  {name:6s} wall {fmt_time(c):>10} -> {fmt_time(f):>10}  "
              f"({inflation})  " + "  ".join(bits))
        summary = churn_summary(d)
        if summary:
            print(f"         churn: {summary}")


def _print_fault_plan(plan) -> None:
    """Pretty-print one parsed fault plan: clauses, policy, timeline."""
    print(f"plan: {plan.describe() or '(no-op: no fault clauses)'}")
    probs = [
        f"{label}={val:g}"
        for label, val in (("drop", plan.drop_prob),
                           ("delay", plan.delay_prob),
                           ("dup", plan.dup_prob),
                           ("xchg_drop", plan.exchange_drop_prob))
        if val
    ]
    if plan.delay_prob:
        probs.append(f"delay_seconds={plan.delay_seconds:g}")
    if probs:
        print("message faults: " + "  ".join(probs))
    policy = [f"redistribute={'on' if plan.redistribute else 'off'}"]
    if plan.message_faults_possible:
        timeout = ("auto" if plan.rpc_timeout is None
                   else f"{plan.rpc_timeout:g}s")
        policy.append(f"rpc_timeout={timeout}")
        policy.append(f"rpc_max_retries={plan.rpc_max_retries}")
    print("policy: " + "  ".join(policy))
    for w in plan.links:
        print(f"  [{w.start:g}s .. {w.end:g}s)  link degradation "
              f"bandwidth x{w.bandwidth_factor:g} "
              f"latency x{w.latency_factor:g}")
    for w in plan.stragglers:
        print(f"  [{w.start:g}s .. {w.end:g}s)  rank {w.rank} straggles "
              f"x{w.factor:g}")
    events = plan.schedule.membership_events()
    if events:
        print("membership timeline:")
        for ev in events:
            if ev.kind == "join":
                what = f"rank {ev.rank} joins"
            elif ev.kind == "evict_notice":
                what = (f"rank {ev.rank} receives eviction notice "
                        f"(grace {ev.grace:g}s: checkpoint + hand off)")
            elif ev.kind == "evict_depart":
                what = f"rank {ev.rank} departs (eviction honored)"
            else:
                what = f"rank {ev.rank} killed (abrupt)"
            print(f"  t={ev.time:<10g} {what}")
    if plan.has_churn:
        print("churn: runs rebalance work across membership changes; "
              "see docs/RESILIENCE.md")


def _cmd_serve(args) -> int:
    # imported lazily: the service layer sits above the CLI's usual
    # dependencies and only loads when asked for
    from repro.runtime import pool
    from repro.service import RunQueue, ServiceServer
    from repro.utils.cache import LruCache

    try:
        queue = RunQueue(
            slots=args.slots,
            backlog=args.backlog,
            memory_bytes=float(args.memory_mb) * 1024 ** 2,
            cache=(None if args.cache_entries is None
                   else LruCache(args.cache_entries)),
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        server = ServiceServer(queue=queue, host=args.host, port=args.port,
                               verbose=args.verbose)
    except OSError as exc:
        queue.shutdown()
        print(f"error: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2
    # a shell starts a background job with SIGINT ignored; the drain
    # below is how the server stops, so take SIGINT back
    signal.signal(signal.SIGINT, signal.default_int_handler)
    print(f"repro service listening on http://{server.host}:{server.port} "
          f"({args.slots} slots, backlog {args.backlog}, "
          f"cache {queue.cache.maxsize} entries); Ctrl-C to stop",
          flush=True)
    try:
        server.serve_forever()
    finally:
        queue.shutdown(cancel_running=True)
        pool.shutdown()
    print("service stopped; queue drained")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "serve":
        return _cmd_serve(args)

    if args.command == "plan" and args.tiny:
        # the smoke grid: small enough for CI, big enough to rank
        args.workload = "micro"
        args.nodes = 2
        args.cores_per_node = 8

    if args.command == "faults":
        try:
            plan = parse_fault_spec(args.spec)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        _print_fault_plan(plan)
        return 0

    fault_plan = None
    if getattr(args, "faults", None):
        try:
            fault_plan = parse_fault_spec(args.faults)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    if args.command == "engines":
        rows = [
            [name, get_engine(name).kind, get_engine(name).description]
            for name in available_engines()
        ]
        print(render_table("Registered engines",
                           ["name", "kind", "description"], rows))
        return 0

    if args.command == "datasets":
        rows = [
            [name, spec.species,
             spec.n_reads or "synthesized", spec.n_tasks or "synthesized",
             "sequence-level" if spec.sequence_level else "statistical"]
            for name, spec in sorted(DATASETS.items())
        ]
        print(render_table("Workload presets",
                           ["name", "species", "reads", "tasks", "kind"],
                           rows))
        return 0

    try:
        workload = get_workload(args.workload, seed=args.seed,
                                shard_tasks=args.shard_tasks,
                                max_resident_shards=args.max_resident_shards)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sharded = (f" ({args.shard_tasks:,}-task shards, "
               f"<= {args.max_resident_shards} resident)"
               if isinstance(workload, ShardedWorkload) else "")
    print(f"{args.workload}: {workload.n_reads:,} reads, "
          f"{workload.n_tasks:,} tasks{sharded}")

    if args.command == "plan":
        from repro.perf.planner import plan as plan_grid

        try:
            points = plan_grid(workload, nodes=args.nodes,
                               cores_per_node=args.cores_per_node,
                               config=_config(args))
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        shown = points[:args.top] if args.top > 0 else points
        rows = [
            [i, p.engine, p.describe_knobs(),
             fmt_time(p.predicted_wall) if p.feasible else "-",
             fmt_bytes(p.predicted_memory) if p.feasible else "-",
             p.predicted_rounds if p.feasible else "-",
             "yes" if p.feasible else f"no ({p.reason})"]
            for i, p in enumerate(shown, 1)
        ]
        print(render_table(
            f"Ranked plans: {args.workload} @ {args.nodes} nodes "
            f"x {args.cores_per_node} cores",
            ["rank", "engine", "knobs", "pred_wall", "pred_mem",
             "rounds", "feasible"],
            rows,
        ))
        top = next((p for p in points if p.feasible), None)
        if top is not None:
            print(f"winner: {top.engine} ({top.describe_knobs()}) "
                  f"predicted {fmt_time(top.predicted_wall)} — execute with "
                  f"`repro run --workload {args.workload} "
                  f"--nodes {args.nodes} --engine auto`")
        else:
            print("no feasible plan")
        return 0

    if args.command == "run":
        tracer, metrics = _observability(args)
        try:
            res = run_alignment(workload, args.nodes, args.approach,
                                config=_config(args),
                                cores_per_node=args.cores_per_node,
                                tracer=tracer, metrics=metrics,
                                fault_plan=fault_plan,
                                fault_seed=args.fault_seed,
                                kernel=args.kernel)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (FaultError, ExecutorError) as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        plan_info = res.details.get("plan")
        label = (plan_info["engine"] if args.approach == "auto"
                 else args.approach)
        _print_result(label, res)
        if plan_info is not None:
            knobs = ", ".join(f"{k}={v}" for k, v
                              in plan_info["knobs"].items()) or "-"
            print(f"plan: predicted {plan_info['engine']} ({knobs}) at "
                  f"{fmt_time(plan_info['predicted_wall'])}; actual "
                  f"{fmt_time(plan_info['actual_wall'])} "
                  f"({100 * plan_info['prediction_error']:+.3f}% error "
                  f"over {plan_info['grid_points']} grid points)")
        if fault_plan is not None:
            bits = [f"faults={res.details.get('faults_injected', 0)}"]
            bits += _fault_detail_bits(res.details)
            print(f"fault report ({fault_plan.describe()}): "
                  + "  ".join(bits))
            summary = churn_summary(res.details)
            if summary:
                print(f"churn report: {summary}")
        return _finish_observability(args, tracer, metrics, [res])

    if args.command == "compare":
        tracer, metrics = _observability(args)
        try:
            results = compare_engines(workload, args.nodes,
                                      config=_config(args),
                                      cores_per_node=args.cores_per_node,
                                      tracer=tracer, metrics=metrics,
                                      fault_plan=fault_plan,
                                      fault_seed=args.fault_seed)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (FaultError, ExecutorError) as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        for name, res in results.items():
            _print_result(name, res)
        print(_compare_verdict(results["bsp"].wall_time,
                               results["async"].wall_time))
        if fault_plan is not None:
            # fault-free reference runs (same workload/config, no injector):
            # the spread between the two columns is the degradation story
            clean = compare_engines(workload, args.nodes,
                                    config=_config(args),
                                    cores_per_node=args.cores_per_node)
            _degradation_section(clean, results, fault_plan)
        return _finish_observability(args, tracer, metrics,
                                     list(results.values()))

    if args.command == "sweep":
        tracer = Tracer() if args.trace else None
        sweep_metrics: dict | None = {} if args.metrics else None
        try:
            results = scaling_sweep(workload, args.nodes,
                                    config=_config(args),
                                    cores_per_node=args.cores_per_node,
                                    tracer=tracer, metrics=sweep_metrics,
                                    fault_plan=fault_plan,
                                    fault_seed=args.fault_seed)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except (FaultError, ExecutorError) as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
        print(render_table(
            f"Strong scaling {args.workload}",
            ["engine", "nodes", "wall_s", "comm%", "sync%", "align%",
             "overhead%", "rounds"],
            render_breakdown_rows(results),
        ))
        if sweep_metrics:
            # one registry per node count (rank counts differ across sizes)
            for nodes in args.nodes:
                reg = sweep_metrics.get(nodes)
                if reg is not None and reg.names():
                    print(render_table(
                        f"Per-rank counters ({nodes} nodes)",
                        ["counter", "min", "avg", "max", "sum"],
                        reg.rows(),
                    ))
        if tracer is not None:
            ordered = [results[a][n] for n in args.nodes for a in results]
            return _finish_observability(args, tracer, None, ordered)
        return 0

    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
