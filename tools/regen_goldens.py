#!/usr/bin/env python
"""Regenerate the golden result signatures in tests/goldens/signatures.json.

The golden suite (``tests/test_golden_signatures.py``) pins a SHA-256
signature (:meth:`repro.engines.report.RunResult.signature`) for every
registered engine on two small fixed synthetic workloads.  A signature
covers *everything* a run produces — wall clock, all per-rank category
vectors, memory high-water marks, alignments field-by-field, details — so
any behavioral change trips the suite, while pure refactors keep it green.

When a change is *supposed* to shift behavior (a model fix, a kernel
change), regenerate deliberately::

    PYTHONPATH=src python tools/regen_goldens.py

then review the diff of ``tests/goldens/signatures.json`` in the same
commit as the behavioral change, stating why the numbers moved.

``--assignments`` regenerates ``tests/goldens/assignments.json`` instead:
SHA-256 digests of the nine per-rank :class:`WorkloadAssignment` arrays
for each renderer (statistical, sharded-synthetic, concrete).  They pin
the assignment layer without going through an engine, so a renderer
optimization is checked against bits recorded *before* it
(``tests/test_pipeline_workload.py``).  The ``sharded-concrete`` keys
request ``micro`` with shard knobs, which a sequence-level preset
ignores: they pin that the knobs give the materialized rendering.

The case matrix and the result-construction helper live here so the test
module imports them — the suite and the regeneration script can never
disagree about what a case means.
"""

from __future__ import annotations

import hashlib
import json
import sys
from functools import lru_cache, partial
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))

from repro.core.api import get_workload, run_alignment  # noqa: E402
from repro.engines.base import EngineConfig  # noqa: E402
from repro.engines.registry import get_engine  # noqa: E402
from repro.faults import parse_fault_spec  # noqa: E402
from repro.genome.datasets import DATASETS, DatasetSpec  # noqa: E402
from repro.machine.config import cori_knl  # noqa: E402
from repro.pipeline.sharded import ShardedWorkload  # noqa: E402
from repro.pipeline.workload import StatisticalWorkload  # noqa: E402

GOLDENS_PATH = REPO / "tests" / "goldens" / "signatures.json"
ASSIGNMENTS_PATH = REPO / "tests" / "goldens" / "assignments.json"

ASSIGNMENT_FIELDS = (
    "reads_per_rank", "partition_bytes", "tasks_per_rank",
    "compute_seconds", "local_pair_seconds", "lookups", "lookup_bytes",
    "incoming_lookups", "incoming_bytes",
)

#: statistical renderer: 1 rank, few, many, a non-power-of-two count that
#: does not divide the task total, and the benchmark's cold-request size
STAT_RANKS = (1, 8, 64, 513, 4096)

#: the ``macro_cold_request`` benchmark's render: ecoli100x on 64 nodes
COLD_REQUEST_PRESET, COLD_REQUEST_RANKS = "ecoli100x", 4096

#: sharded-synthetic renderer: one generator block per shard, two, and a
#: single shard holding everything (n_tasks + 1)
SYNTH_RANKS = (8, 64)
SYNTH_SHARDS = (1 << 16, 1 << 17, DATASETS["ecoli30x"].n_tasks + 1)

#: the ``sharded_stream`` benchmark's shard size, rendered at the cold
#: request's rank count
BENCH_SHARD, BENCH_RANKS = 131_072, 4096

#: more reads than a 16-bit id holds: pins the synthetic renderer on
#: 4-byte read ids, at a block-aligned and an unaligned shard size
WIDE_ID_SPEC = DatasetSpec(
    name="wide_id_stat", species="test", n_reads=70_000, n_tasks=200_000,
    coverage=10.0, error_rate=0.1, mean_read_length=3_000,
    length_sigma=0.5, genome_size=1_000_000, sequence_level=False,
)
WIDE_ID_SHARDS = (1 << 16, 75_000)

#: rank counts where the task-row renderer's owner ids and keys change
#: type, on the block-aligned wide-id shards: the last 8-bit owner id
#: (P = 256), and 32-bit owner ids whose ``requester * n_reads + read``
#: keys pass 2**32 (P = 65 537 over 70 000 reads)
WIDE_ID_BOUNDARY_RANKS = (256, 65_537)

CONCRETE_RANKS = (2, 8)
CONCRETE_SHARD_TASKS = 97

#: more ranks than reads: most ranks own an empty read range (repeated
#: partition boundaries) yet still receive their share of the tasks
EMPTY_RANK_SPEC = DatasetSpec(
    name="empty_rank_stat", species="test", n_reads=6, n_tasks=2_000,
    coverage=10.0, error_rate=0.1, mean_read_length=3_000,
    length_sigma=0.5, genome_size=1_000_000, sequence_level=False,
)
EMPTY_RANK_RANKS = 16

#: (workload preset, synthesis seed) — two small sequence-level workloads,
#: fast enough that every engine runs them with the real kernel in seconds
WORKLOADS = (("micro", 11), ("micro", 23))

#: every registered engine: three macro strategies + both micro SPMD codes
ENGINES = ("bsp", "async", "hybrid", "bsp-micro", "async-micro")

NODES = 2
CORES_PER_NODE = 4  # P = 8 ranks: several ranks per node, still fast

#: membership-churn cases: one per engine, the same plan everywhere — a
#: graced eviction whose checkpoint is handed off, plus a later join that
#: reclaims work.  Event times sit inside the micro workload's wall clock.
CHURN_SPEC = "evict=r1@0.005:grace=0.01,join=r3@0.02"
CHURN_FAULT_SEED = 7

#: BSP engines honor churn at superstep boundaries; shrink the exchange
#: budget so the tiny workload runs ~6 rounds and both events land on one
CHURN_EMF = {"bsp": 1e-5, "bsp-micro": 1e-5}

#: kill-only cases: the macro engines under two redistributed kills
#: (written in time order), both inside every engine's wall clock; BSP
#: uses the churn budget so the kills land on different superstep starts
KILL_SPEC = "kill=r2@0.001,kill=r5@0.004,redistribute"
KILL_ENGINES = ("bsp", "async", "hybrid")


def case_key(engine: str, workload: str, seed: int) -> str:
    return f"{engine}/{workload}@{seed}"


def churn_key(engine: str) -> str:
    return f"{engine}/churn"


def kill_key(engine: str) -> str:
    return f"{engine}/kill"


def compute_fault_result(engine: str, spec: str):
    """The micro workload under fault plan ``spec``.

    Runs the model kernel everywhere — these cases pin the fault
    scheduling arithmetic (membership boundaries, checkpoint handoffs,
    redistribution, migration accounting); kernel output is already
    pinned by the base matrix.
    """
    w = get_workload("micro", seed=11)
    machine = cori_knl(NODES, app_cores_per_node=CORES_PER_NODE)
    emf = CHURN_EMF.get(engine)
    config = (EngineConfig(exchange_memory_fraction=emf)
              if emf is not None else EngineConfig())
    return run_alignment(w, NODES, engine, config=config, machine=machine,
                         fault_plan=parse_fault_spec(spec),
                         fault_seed=CHURN_FAULT_SEED)


def compute_churn_result(engine: str):
    """One churn golden: the micro workload under the shared churn plan."""
    return compute_fault_result(engine, CHURN_SPEC)


def compute_kill_result(engine: str):
    """One kill-only golden: the micro workload under :data:`KILL_SPEC`."""
    return compute_fault_result(engine, KILL_SPEC)


def compute_result(engine: str, workload: str, seed: int, *,
                   backend: str = "serial", workers: int = 1,
                   shard_tasks: int = 0):
    """One golden case's run: micro engines get the real kernel.

    ``shard_tasks > 0`` requests the same case with shard knobs, which a
    sequence-level preset ignores — the digest must not move
    (docs/ARCHITECTURE.md "Sharded workloads").
    """
    w = get_workload(workload, seed=seed, shard_tasks=shard_tasks)
    machine = cori_knl(NODES, app_cores_per_node=CORES_PER_NODE)
    kernel = "real" if get_engine(engine).is_micro else "model"
    config = EngineConfig(backend=backend, workers=workers)
    return run_alignment(w, NODES, engine, config=config,
                         machine=machine, kernel=kernel)


def compute_signatures() -> dict[str, str]:
    signatures = {
        case_key(engine, workload, seed):
            compute_result(engine, workload, seed).signature()
        for workload, seed in WORKLOADS
        for engine in ENGINES
    }
    signatures.update({
        churn_key(engine): compute_churn_result(engine).signature()
        for engine in ENGINES
    })
    signatures.update({
        kill_key(engine): compute_kill_result(engine).signature()
        for engine in KILL_ENGINES
    })
    return signatures


def assignment_digest(assignment) -> str:
    """SHA-256 over the nine per-rank arrays: dtype, shape and raw bytes."""
    h = hashlib.sha256()
    for field in ASSIGNMENT_FIELDS:
        arr = getattr(assignment, field)
        h.update(f"{field}:{arr.dtype.str}:{arr.shape}:".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def assignment_cases():
    """``(key, workload factory, num_ranks)`` per pinned rendering.

    Factories go through :func:`get_workload`, whose LRU makes cases that
    share a workload build it once.
    """
    stat = partial(get_workload, "ecoli30x", seed=0)
    micro = partial(get_workload, "micro", seed=11)
    for p in STAT_RANKS:
        yield f"statistical/ecoli30x@0/p{p}", stat, p
    yield (f"statistical/{COLD_REQUEST_PRESET}@0/p{COLD_REQUEST_RANKS}",
           partial(get_workload, COLD_REQUEST_PRESET, seed=0),
           COLD_REQUEST_RANKS)
    yield (f"statistical/{EMPTY_RANK_SPEC.name}@0/p{EMPTY_RANK_RANKS}",
           partial(StatisticalWorkload, EMPTY_RANK_SPEC, seed=0),
           EMPTY_RANK_RANKS)
    for shard in SYNTH_SHARDS:
        synth = partial(stat, shard_tasks=shard, max_resident_shards=2)
        for p in SYNTH_RANKS:
            yield f"sharded-synthetic/ecoli30x@0/s{shard}/p{p}", synth, p
    yield (f"sharded-synthetic/ecoli30x@0/s{BENCH_SHARD}/p{BENCH_RANKS}",
           partial(stat, shard_tasks=BENCH_SHARD, max_resident_shards=2),
           BENCH_RANKS)
    for shard in WIDE_ID_SHARDS:
        wide = lru_cache(maxsize=1)(partial(
            ShardedWorkload.synthetic, WIDE_ID_SPEC, seed=0,
            shard_tasks=shard, max_resident_shards=2))
        boundary = WIDE_ID_BOUNDARY_RANKS if shard == WIDE_ID_SHARDS[0] else ()
        for p in SYNTH_RANKS + boundary:
            yield (f"sharded-synthetic/{WIDE_ID_SPEC.name}@0/s{shard}/p{p}",
                   wide, p)
    sharded = partial(micro, shard_tasks=CONCRETE_SHARD_TASKS,
                      max_resident_shards=2)
    for p in CONCRETE_RANKS:
        yield f"concrete/micro@11/p{p}", micro, p
        yield (f"sharded-concrete/micro@11/s{CONCRETE_SHARD_TASKS}/p{p}",
               sharded, p)


def compute_assignment_digests() -> dict[str, str]:
    return {
        key: assignment_digest(factory().assignment(p))
        for key, factory, p in assignment_cases()
    }


def write_pins(path: Path, pins: dict[str, str], what: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    old = json.loads(path.read_text()) if path.exists() else {}
    for key in sorted(pins):
        status = (
            "unchanged" if old.get(key) == pins[key]
            else ("NEW" if key not in old else "CHANGED")
        )
        print(f"  {key:44s} {pins[key][:16]}…  {status}")
    path.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} {what} -> {path}")


def main(argv: list[str]) -> int:
    if "--assignments" in argv[1:]:
        write_pins(ASSIGNMENTS_PATH, compute_assignment_digests(),
                   "assignment digests")
    else:
        write_pins(GOLDENS_PATH, compute_signatures(), "signatures")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
