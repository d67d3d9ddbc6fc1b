"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import _compare_verdict, build_parser, main
from repro.pipeline.sharded import DEFAULT_RESIDENT_SHARDS
from repro.runtime import executor, pool
from repro.service.jobs import JobRequest


def test_datasets_command(capsys):
    assert main(["datasets"]) == 0
    out = capsys.readouterr().out
    assert "ecoli30x" in out and "human_ccs" in out
    assert "statistical" in out and "sequence-level" in out


def test_run_command(capsys):
    rc = main(["run", "--workload", "micro", "--nodes", "1",
               "--engine", "async", "--cores-per-node", "8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "async" in out and "wall" in out


def test_compare_command(capsys):
    rc = main(["compare", "--workload", "micro", "--nodes", "2",
               "--cores-per-node", "8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "bsp" in out and "async is" in out


def test_sweep_command(capsys):
    rc = main(["sweep", "--workload", "micro", "--nodes", "1", "2",
               "--cores-per-node", "8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Strong scaling" in out


def test_comm_only_flag(capsys):
    rc = main(["run", "--workload", "micro", "--nodes", "2",
               "--cores-per-node", "8", "--comm-only"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "align   0.0%" in out


def test_compare_verdict_wording():
    assert "faster" in _compare_verdict(2.0, 1.0)
    assert "33.3% slower" in _compare_verdict(1.5, 2.0)
    assert "+" not in _compare_verdict(1.5, 2.0)
    assert "tie" in _compare_verdict(1.0, 1.0)
    # zero wall times (reachable with --comm-only on tiny workloads)
    # must not divide by zero
    assert "too small" in _compare_verdict(0.0, 0.0)
    assert "too small" in _compare_verdict(1.0, 0.0)


def test_run_trace_and_metrics(tmp_path, capsys):
    trace = tmp_path / "t.json"
    rc = main(["run", "--workload", "micro", "--nodes", "2",
               "--cores-per-node", "8", "--engine", "async",
               "--trace", str(trace), "--metrics"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "conservation OK [breakdown]" in out
    assert "conservation OK [trace]" in out
    assert "Per-rank counters" in out
    doc = json.loads(trace.read_text())
    events = doc["traceEvents"]
    lanes = {e["tid"] for e in events if e["ph"] == "X"}
    assert lanes == set(range(16))  # per-rank lanes
    cats = {e["cat"] for e in events if e["ph"] == "X"}
    assert {"comm", "sync"} <= cats


def test_compare_trace_two_runs(tmp_path, capsys):
    trace = tmp_path / "cmp.json"
    rc = main(["compare", "--workload", "micro", "--nodes", "2",
               "--cores-per-node", "8", "--trace", str(trace)])
    assert rc == 0
    doc = json.loads(trace.read_text())
    pids = {e["pid"] for e in doc["traceEvents"] if e["ph"] == "X"}
    # bsp, async, hybrid as separate trace processes
    assert pids == {0, 1, 2}


def test_resident_shard_defaults_are_the_pipeline_constant():
    for command in ("run", "compare", "sweep"):
        args = build_parser().parse_args([command, "--nodes", "1"])
        assert args.max_resident_shards == DEFAULT_RESIDENT_SHARDS
    assert JobRequest().max_resident_shards == DEFAULT_RESIDENT_SHARDS


def test_parser_rejects_unknown():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["run", "--engine", "mpi"])
    with pytest.raises(SystemExit):
        parser.parse_args(["bogus"])


def test_bad_fault_spec_clean_error(capsys):
    """An unknown --faults key exits with code 2 and a one-line error on
    stderr — no traceback."""
    rc = main(["run", "--workload", "micro", "--nodes", "1",
               "--cores-per-node", "8", "--faults", "bogus=1"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "unknown fault spec key 'bogus'" in captured.err
    assert "known keys:" in captured.err
    assert "Traceback" not in captured.err


def test_bad_fault_spec_on_compare(capsys):
    rc = main(["compare", "--workload", "micro", "--nodes", "1",
               "--cores-per-node", "8", "--faults", "drop=nope"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err
    assert "Traceback" not in captured.err


def test_run_with_faults_reports_plan(capsys):
    rc = main(["run", "--workload", "micro", "--nodes", "2",
               "--cores-per-node", "8", "--engine", "async",
               "--faults", "drop=0.05,dup=0.02", "--fault-seed", "3",
               "--metrics"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fault report (drop=0.05,dup=0.02)" in out
    assert "rpc_retries" in out


def test_run_kill_without_redistribute_typed_failure(capsys):
    rc = main(["run", "--workload", "micro", "--nodes", "2",
               "--cores-per-node", "8",
               "--faults", "kill=r1@1ms"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "rank 1 died" in captured.err
    assert "Traceback" not in captured.err


def test_compare_degradation_section(capsys):
    rc = main(["compare", "--workload", "micro", "--nodes", "2",
               "--cores-per-node", "8",
               "--faults", "drop=0.05,xchg_drop=0.5", "--fault-seed", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Degradation under faults" in out
    assert "wall" in out and "->" in out


def test_fault_run_is_deterministic(capsys):
    args = ["run", "--workload", "micro", "--nodes", "2",
            "--cores-per-node", "8", "--engine", "bsp",
            "--faults", "xchg_drop=0.6,straggle=2@r1:0:1", "--fault-seed", "7"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second


# -- compute-backend flags (docs/PARALLEL.md) --------------------------------


def test_invalid_backend_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--workload", "micro", "--nodes", "1",
              "--engine", "bsp-micro", "--backend", "threads"])
    assert exc.value.code == 2
    assert "--backend" in capsys.readouterr().err


def test_workers_zero_exits_2(capsys):
    rc = main(["run", "--workload", "micro", "--nodes", "1",
               "--cores-per-node", "4", "--engine", "bsp-micro",
               "--kernel", "real", "--backend", "process", "--workers", "0"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "workers" in err


@pytest.mark.parametrize("argv", [
    ["run", "--workload", "micro", "--engine", "bsp-micro",
     "--kernel", "real", "--backend", "process", "--chunk-tasks", "5"],
    ["serve", "--phase-stride", "3"],
])
def test_removed_flags_are_argparse_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [
    ["--kernel", "real"],
    ["--backend", "process"],
    ["--workers", "2"],
    ["--backend", "auto"],
])
def test_backend_flags_rejected_for_macro_engines(capsys, extra):
    rc = main(["run", "--workload", "micro", "--nodes", "1",
               "--cores-per-node", "8", "--engine", "bsp"] + extra)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "micro engines only" in err
    assert "Traceback" not in err


def test_run_micro_with_process_backend(capsys):
    rc = main(["run", "--workload", "micro", "--nodes", "1",
               "--cores-per-node", "4", "--engine", "bsp-micro",
               "--kernel", "real", "--backend", "process", "--workers", "2",
               "--metrics"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "bsp-micro" in out and "wall" in out
    # executor wall-clock accounting surfaces as exec_* counters
    assert "exec_dispatch_s" in out and "exec_w0_chunks" in out


def test_run_micro_serial_vs_process_same_breakdown(capsys):
    base = ["run", "--workload", "micro", "--nodes", "1",
            "--cores-per-node", "4", "--engine", "async-micro",
            "--kernel", "real"]
    assert main(base) == 0
    serial_out = capsys.readouterr().out
    assert main(base + ["--backend", "process", "--workers", "2"]) == 0
    process_out = capsys.readouterr().out
    # identical simulated results => identical printed breakdowns
    assert serial_out == process_out


def test_run_micro_with_auto_backend(capsys, monkeypatch):
    """``micro`` is below ``AUTO_POOL_TASKS``: auto resolves to serial and
    prints no ``exec_*`` row; at a threshold of 0 on two CPUs it takes the
    pool and prints the process backend's counters."""
    base = ["run", "--workload", "micro", "--nodes", "1",
            "--cores-per-node", "4", "--engine", "bsp-micro",
            "--kernel", "real"]
    assert main(base) == 0
    serial_out = capsys.readouterr().out
    monkeypatch.setattr(pool, "usable_cpus", lambda: 2)
    assert main(base + ["--backend", "auto", "--metrics"]) == 0
    auto_out = capsys.readouterr().out
    assert serial_out.splitlines()[1] in auto_out
    assert "exec_" not in auto_out
    monkeypatch.setattr(executor, "AUTO_POOL_TASKS", 0)
    assert main(base + ["--backend", "auto", "--metrics"]) == 0
    auto_out = capsys.readouterr().out
    assert serial_out.splitlines()[1] in auto_out
    assert "exec_batches" in auto_out and "exec_w0_chunks" in auto_out


@pytest.mark.parametrize("extra", [
    ["--backend", "process", "--workers", "2"],
    ["--backend", "auto"],
    ["--workers", "2"],
])
def test_model_kernel_pool_flags_exit_2(capsys, extra):
    """Pool knobs on a run that never invokes the kernel are an error,
    as on the macro engines — not a silent serial run."""
    rc = main(["run", "--workload", "micro", "--nodes", "1",
               "--cores-per-node", "4", "--engine", "bsp-micro",
               "--kernel", "model"] + extra)
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "kernel='real'" in err
    assert "Traceback" not in err
