"""Golden-signature regression suite.

Every registered engine runs two small fixed synthetic workloads; each
run's :meth:`~repro.engines.report.RunResult.signature` (a SHA-256 over a
canonical serialization of *everything* the run produced) must match the
digest pinned in ``tests/goldens/signatures.json``.

The case matrix and run construction are imported from
``tools/regen_goldens.py`` so this suite and the regeneration script can
never drift apart.  A red test here means behavior changed: either fix the
regression, or — if the change is intentional — regenerate with
``PYTHONPATH=src python tools/regen_goldens.py`` and justify the diff in
the same commit.

The process-backend cases are the lockdown for docs/PARALLEL.md's
determinism contract: fanning kernel batches out to a worker pool must
reproduce the *same* digest as the inline serial run.
"""

from __future__ import annotations

import importlib.util
import json
import os
from pathlib import Path

import pytest

from repro.engines import micro
from repro.obs import MetricsRegistry

REPO = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "regen_goldens", REPO / "tools" / "regen_goldens.py"
)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

GOLDENS = json.loads((REPO / "tests" / "goldens" / "signatures.json")
                     .read_text())


def test_matrix_and_goldens_agree():
    """The pinned file covers exactly the declared case matrix."""
    expected = {
        regen.case_key(engine, workload, seed)
        for workload, seed in regen.WORKLOADS
        for engine in regen.ENGINES
    }
    expected |= {regen.churn_key(engine) for engine in regen.ENGINES}
    expected |= {regen.kill_key(engine) for engine in regen.KILL_ENGINES}
    assert set(GOLDENS) == expected


@pytest.mark.parametrize("key", sorted(GOLDENS))
def test_signature_matches_golden(key):
    engine, rest = key.split("/")
    if rest == "churn":
        res = regen.compute_churn_result(engine)
    elif rest == "kill":
        res = regen.compute_kill_result(engine)
    else:
        workload, seed = rest.split("@")
        res = regen.compute_result(engine, workload, int(seed))
    assert res.signature() == GOLDENS[key], (
        f"{key}: result signature drifted from the pinned golden — "
        f"behavioral change (regenerate deliberately with "
        f"tools/regen_goldens.py if intended)"
    )


@pytest.mark.parametrize("backend", ["process", "auto"])
@pytest.mark.parametrize("engine", ["bsp-micro", "async-micro"])
def test_parallel_backends_hit_serial_golden(engine, backend, monkeypatch):
    """process and auto must be bit-identical to serial: same digest.

    ``auto`` samples two kernel calls serial and two on the pool before
    it commits, and ``micro``'s 1 639 tasks resolve in two calls at the
    default ``FLUSH_TASKS``.  So the run is cut into 7 calls of 256 tasks
    or fewer, and the host reports two cores (one core commits to serial
    before any probe): the pool is probed on any machine, and the digest
    holds whichever side ``auto`` then keeps.
    """
    monkeypatch.setattr(micro, "FLUSH_TASKS", 256)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    machine = regen.cori_knl(regen.NODES,
                             app_cores_per_node=regen.CORES_PER_NODE)
    metrics = MetricsRegistry(machine.total_ranks)
    res = regen.run_alignment(
        regen.get_workload("micro", seed=11), regen.NODES, engine,
        config=regen.EngineConfig(backend=backend, workers=2),
        machine=machine, kernel="real", metrics=metrics,
    )
    assert res.signature() == GOLDENS[regen.case_key(engine, "micro", 11)]
    if backend == "auto":
        assert metrics.get("exec_auto_probe_process_pps").sum() > 0
    else:
        assert metrics.get("exec_batches").sum() == 7


@pytest.mark.parametrize("engine", regen.ENGINES)
def test_sharded_path_hits_materialized_golden(engine):
    """The out-of-core workload path must reproduce the pinned digests.

    Sharding (generation, streamed aggregation, spill/reload) is a pure
    memory knob: the same engine on the same
    preset through ``shard_tasks > 0`` cannot move a single bit of the
    result.  A shard size well below n_tasks forces multiple shards,
    evictions, and spill reloads on every existing golden workload.
    """
    key = regen.case_key(engine, "micro", 11)
    res = regen.compute_result(engine, "micro", 11, shard_tasks=97)
    assert res.signature() == GOLDENS[key], (
        f"{engine}: sharded-path signature diverged from the materialized "
        f"golden — sharding changed behavior"
    )


@pytest.mark.parametrize("engine", ["bsp-micro"])
def test_sharded_process_backend_hits_golden(engine):
    """A sharded workload through the pool's one store keeps the serial
    digest."""
    key = regen.case_key(engine, "micro", 11)
    res = regen.compute_result(engine, "micro", 11, shard_tasks=97,
                               backend="process", workers=2)
    assert res.signature() == GOLDENS[key]


@pytest.mark.parametrize("engine", ["bsp", "async", "hybrid"])
def test_fault_runs_leave_cached_assignment_untouched(engine):
    """One rendered assignment per rank count is shared by every run.

    The fault code adjusts phase arrays in place (a dead rank's remainder
    is added onto the survivors'); those arrays are derived from the
    assignment and must never be the assignment's own.  The arrays are
    read-only, so aliasing would raise — and after a redistributed kill
    and a churn run on the cached object it is byte-identical and the
    next fault-free run still hits its golden.
    """
    w = regen.get_workload("micro", seed=11)
    machine = regen.cori_knl(regen.NODES,
                             app_cores_per_node=regen.CORES_PER_NODE)
    a = w.assignment(machine.total_ranks)
    before = regen.assignment_digest(a)
    for field in regen.ASSIGNMENT_FIELDS:
        with pytest.raises(ValueError, match="read-only"):
            getattr(a, field)[0] += 1

    killed = regen.run_alignment(
        w, regen.NODES, engine, machine=machine,
        fault_plan=regen.parse_fault_spec("kill=r1@0.005,redistribute"),
        fault_seed=regen.CHURN_FAULT_SEED)
    assert killed.details["ranks_lost"] == [1]
    churned = regen.compute_churn_result(engine)
    assert churned.details["churn"]["evictions_honored"] == [1]
    assert churned.details["churn"]["joins_honored"] == [3]

    assert w.assignment(machine.total_ranks) is a
    assert regen.assignment_digest(a) == before
    key = regen.case_key(engine, "micro", 11)
    assert regen.compute_result(engine, "micro", 11).signature() \
        == GOLDENS[key]
