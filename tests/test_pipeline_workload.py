"""Tests for concrete and statistical workloads."""

import importlib.util
import json
import multiprocessing
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest

import repro.pipeline.workload as workload_mod
from repro.align.cost import AlignmentCostModel
from repro.errors import ConfigurationError, PartitionError, WorkerCrashError
from repro.genome.datasets import DatasetSpec, DATASETS, synthesize_dataset
from repro.pipeline.tasks import TaskTable
from repro.pipeline.workload import (
    ConcreteWorkload,
    StatisticalWorkload,
    TaskCostDistribution,
)
from repro.runtime import pool
from tests.render_faults import FailingRngs, RankFailed


REPO = Path(__file__).resolve().parent.parent

# the case matrix lives with the regeneration script, as for the run goldens
_spec = importlib.util.spec_from_file_location(
    "regen_goldens", REPO / "tools" / "regen_goldens.py"
)
regen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regen)

ASSIGNMENT_PINS = json.loads(
    (REPO / "tests" / "goldens" / "assignments.json").read_text()
)
ASSIGNMENT_CASES = {key: (factory, p)
                    for key, factory, p in regen.assignment_cases()}


def tiny_spec(n_reads=3000, n_tasks=40_000):
    return DatasetSpec(
        name="unit_stat",
        species="synthetic",
        n_reads=n_reads,
        n_tasks=n_tasks,
        coverage=20.0,
        error_rate=0.1,
        mean_read_length=2000.0,
        length_sigma=0.3,
    )


@pytest.fixture(scope="module")
def stat_wl():
    return StatisticalWorkload(tiny_spec(), seed=3)


def check_assignment_consistency(a):
    assert a.tasks_per_rank.sum() == a.total_tasks
    assert a.reads_per_rank.sum() == a.total_reads
    assert np.all(a.compute_seconds >= a.local_pair_seconds)
    # requester and server sides of the dedup'd exchange must mirror
    assert a.lookups.sum() == pytest.approx(a.incoming_lookups.sum())
    assert a.lookup_bytes.sum() == pytest.approx(a.incoming_bytes.sum())
    assert np.all(a.lookup_bytes >= 0) and np.all(a.partition_bytes >= 0)


def test_statistical_totals_match_spec(stat_wl):
    assert stat_wl.n_reads == 3000
    assert stat_wl.n_tasks == 40_000
    assert stat_wl.read_lengths.size == 3000


def test_statistical_assignment_consistency(stat_wl):
    for P in (1, 7, 64):
        check_assignment_consistency(stat_wl.assignment(P))


def test_statistical_single_rank_all_local(stat_wl):
    a = stat_wl.assignment(1)
    assert a.lookups[0] == 0
    assert a.lookup_bytes[0] == 0
    assert a.local_pair_seconds[0] == pytest.approx(a.compute_seconds[0])


def test_statistical_deterministic():
    a1 = StatisticalWorkload(tiny_spec(), seed=3).assignment(16)
    a2 = StatisticalWorkload(tiny_spec(), seed=3).assignment(16)
    assert np.array_equal(a1.compute_seconds, a2.compute_seconds)
    assert np.array_equal(a1.lookup_bytes, a2.lookup_bytes)


def test_statistical_seed_changes_draws():
    a1 = StatisticalWorkload(tiny_spec(), seed=3).assignment(16)
    a2 = StatisticalWorkload(tiny_spec(), seed=4).assignment(16)
    assert not np.array_equal(a1.compute_seconds, a2.compute_seconds)


def test_statistical_total_compute_independent_of_p(stat_wl):
    t16 = stat_wl.assignment(16).compute_seconds.sum()
    t64 = stat_wl.assignment(64).compute_seconds.sum()
    # totals drift only by sampling noise (same distributions, same count)
    assert t64 == pytest.approx(t16, rel=0.1)


def test_statistical_lookups_scale_down_with_p(stat_wl):
    a8 = stat_wl.assignment(8)
    a64 = stat_wl.assignment(64)
    assert a64.lookups.mean() < a8.lookups.mean()
    # but total lookups grow with P (less dedup, fewer local partners)
    assert a64.lookups.sum() >= a8.lookups.sum()


def test_statistical_anchor_calibration():
    wl = StatisticalWorkload(DATASETS["ecoli30x"], seed=1)
    # mean task cost calibrated to the 1-hour single-core anchor
    from repro.align.cost import MEAN_TASK_COST

    a = wl.assignment(64)
    mean_task_cost = a.compute_seconds.sum() / a.tasks_per_rank.sum()
    assert mean_task_cost == pytest.approx(
        MEAN_TASK_COST["ecoli30x"], rel=0.05
    )


def test_statistical_rejects_sequence_level_spec():
    with pytest.raises(ConfigurationError):
        StatisticalWorkload(DATASETS["ecoli30x_tiny"])


def test_single_exchange_estimate(stat_wl):
    a = stat_wl.assignment(16)
    expected = a.lookup_bytes.sum() / 16 + a.partition_bytes.mean()
    assert a.single_exchange_estimate() == pytest.approx(expected)


def test_cost_distribution_calibration():
    rng = np.random.default_rng(0)
    dist = TaskCostDistribution(AlignmentCostModel(), fp_rate=0.3)
    dist.calibrate(2000.0, 0.3, target_mean=1e-3, rng=rng)
    la = rng.lognormal(np.log(2000), 0.3, 100_000)
    lb = rng.lognormal(np.log(2000), 0.3, 100_000)
    mean = dist.sample_seconds(la, lb, rng).mean()
    assert mean == pytest.approx(1e-3, rel=0.05)


def test_concrete_from_pipeline():
    run = synthesize_dataset(DATASETS["ecoli30x_tiny"], seed=5)
    wl = ConcreteWorkload.from_pipeline(
        "tiny", run.reads, k=13, bounds=(2, 60), measure_sample=40
    )
    assert wl.n_tasks > 100
    assert np.all(wl.task_costs > 0)
    a = wl.assignment(8)
    check_assignment_consistency(a)
    # most reads overlap something at 30x coverage
    assert wl.n_tasks > wl.n_reads


def test_concrete_assignment_cached():
    tasks = TaskTable(
        read_a=np.array([0, 1]),
        read_b=np.array([1, 2]),
        pos_a=np.array([0, 0]),
        pos_b=np.array([0, 0]),
        reverse=np.array([False, False]),
        k=5,
    )
    from repro.genome.sequence import ReadSet

    reads = ReadSet.from_strings(["ACGTACGT", "ACGTACGTAA", "GGGGCCCC"])
    wl = ConcreteWorkload("c", reads, tasks, np.array([1.0, 2.0]))
    assert wl.assignment(2) is wl.assignment(2)


def test_concrete_cost_length_mismatch():
    from repro.genome.sequence import ReadSet

    reads = ReadSet.from_strings(["ACGT"])
    tasks = TaskTable(
        read_a=np.array([0]), read_b=np.array([0]),
        pos_a=np.array([0]), pos_b=np.array([0]),
        reverse=np.array([False]), k=3,
    )
    with pytest.raises(ConfigurationError):
        ConcreteWorkload("c", reads, tasks, np.array([1.0, 2.0]))


# -- assignment pins: every renderer, without going through an engine -------


def test_assignment_pins_cover_the_case_matrix():
    assert set(ASSIGNMENT_PINS) == set(ASSIGNMENT_CASES)


@pytest.mark.parametrize("key", sorted(ASSIGNMENT_PINS))
def test_assignment_matches_pinned_digest(key):
    factory, num_ranks = ASSIGNMENT_CASES[key]
    digest = regen.assignment_digest(factory().assignment(num_ranks))
    assert digest == ASSIGNMENT_PINS[key], (
        f"{key}: a per-rank assignment array changed bits (regenerate "
        f"deliberately with tools/regen_goldens.py --assignments)"
    )


def test_statistical_empty_ranks_serve_nothing():
    """More ranks than reads: the ``hi_r == lo_r`` branch of the rank loop."""
    P = regen.EMPTY_RANK_RANKS
    a = StatisticalWorkload(regen.EMPTY_RANK_SPEC, seed=0).assignment(P)
    check_assignment_consistency(a)
    empty = a.reads_per_rank == 0
    assert empty.sum() >= P - regen.EMPTY_RANK_SPEC.n_reads
    # an empty rank still computes its share of tasks, all of them remote...
    assert np.all(a.tasks_per_rank[empty] > 0)
    assert np.all(a.local_pair_seconds[empty] == 0)
    assert np.all(a.lookups[empty] > 0)
    # ...and owns no read anyone could ask it for
    assert np.all(a.incoming_lookups[empty] == 0)
    assert np.all(a.incoming_bytes[empty] == 0)
    assert np.all(a.incoming_lookups[~empty] > 0)


@pytest.fixture
def process_render(monkeypatch):
    """Every statistical render in this process goes to the process's
    pool (the threshold is forced to 0 here, in the parent), sized to the
    number of CPUs the returned setter gives; the caller's own chunks and
    the pool's futures are logged.

    After a render the only live children are the pool's workers, at
    most one per CPU; after the pool's shutdown there are none."""
    monkeypatch.setattr(workload_mod, "PROCESS_RENDER_TASKS", 0)
    caller_chunks, futures, sizes = [], [], []
    real_render, real_submit = workload_mod._render_ranks, pool.submit

    def logged(draws, lo, hi, sums, requests):
        caller_chunks.append((lo, hi))
        real_render(draws, lo, hi, sums, requests)

    def submit(fn, *args):
        futures.append(real_submit(fn, *args))
        assert len(multiprocessing.active_children()) <= sizes[-1]
        return futures[-1]

    monkeypatch.setattr(workload_mod, "_render_ranks", logged)
    monkeypatch.setattr(pool, "submit", submit)

    def use_cpus(cpus: int) -> list:
        pool.shutdown()  # the next submit builds a pool of `cpus` workers
        monkeypatch.setattr(pool, "usable_cpus", lambda: cpus)
        sizes.append(cpus)
        caller_chunks.clear()
        futures.clear()
        return caller_chunks

    use_cpus.futures = futures
    yield use_cpus
    assert len(multiprocessing.active_children()) <= sizes[-1]
    pool.shutdown()
    assert not multiprocessing.active_children()


def test_statistical_render_is_process_count_invariant(process_render):
    """Rank chunks rendered in 1 or 2 pool workers besides the caller
    give the serial arrays bit for bit: ranks with no reads (P = 16 over
    6 reads) and with no tasks (P = 2 500 over 2 000 tasks) included.  The
    workers render the low chunks, the caller the high ones."""
    cases = [(DATASETS["ecoli30x"], p) for p in (1, 7, 64, 513)]
    cases += [(regen.EMPTY_RANK_SPEC, regen.EMPTY_RANK_RANKS),
              (regen.EMPTY_RANK_SPEC, 2_500)]
    for spec, num_ranks in cases:
        wl = StatisticalWorkload(spec, seed=0)
        renders = {}
        for cpus in (1, 2, 3):
            caller_chunks = process_render(cpus)
            renders[cpus] = wl._render_assignment(num_ranks)
            assert num_ranks not in wl.assignment_cache
            chunks = min(workload_mod.RENDER_CHUNKS, num_ranks)
            workers = min(cpus, chunks) - 1
            assert bool(process_render.futures) == bool(workers)
            if workers:
                # the caller took chunks from the top, none of the first
                # one per worker, which are submitted before it starts
                los = [lo for lo, _ in caller_chunks]
                assert los == sorted(los, reverse=True)
                assert caller_chunks[0][1] == num_ranks
                assert min(los, default=num_ranks) >= (
                    num_ranks * workers // chunks)
        pin = ASSIGNMENT_PINS.get(f"statistical/{spec.name}@0/p{num_ranks}")
        if pin is not None:
            assert regen.assignment_digest(renders[1]) == pin
        for cpus in (2, 3):
            for field in regen.ASSIGNMENT_FIELDS:
                serial = getattr(renders[1], field)
                spread = getattr(renders[cpus], field)
                assert spread.dtype == serial.dtype, (num_ranks, field)
                assert spread.tobytes() == serial.tobytes(), (
                    f"{spec.name} P={num_ranks} on {cpus} CPUs: "
                    f"{field} moved")


STATISTICAL_PINS = sorted(k for k in ASSIGNMENT_PINS
                          if k.startswith("statistical/"))


@pytest.mark.parametrize("key", STATISTICAL_PINS)
def test_statistical_pins_hold_in_worker_processes(key, process_render):
    factory, num_ranks = ASSIGNMENT_CASES[key]
    process_render(2)
    digest = regen.assignment_digest(factory()._render_assignment(num_ranks))
    assert digest == ASSIGNMENT_PINS[key]


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_one_pool_holds_every_pin_on_any_cpu_count(cpus, process_render):
    """On a pool of 1, 2 or 3 workers, every statistical pin renders its
    bits, and a real-kernel micro run gives the serial run's bits on the
    serial, process and auto backends; each executor leaves no segment."""
    from repro.core.api import get_workload, run_alignment
    from repro.engines.base import EngineConfig
    from repro.machine.config import cori_knl
    from repro.runtime.executor import active_shm_segments

    process_render(cpus)
    for key in STATISTICAL_PINS:
        factory, num_ranks = ASSIGNMENT_CASES[key]
        assert regen.assignment_digest(
            factory()._render_assignment(num_ranks)) == ASSIGNMENT_PINS[key]
    micro = get_workload("micro", seed=11)
    machine = cori_knl(1, app_cores_per_node=4)
    runs = {}
    for backend in ("serial", "process", "auto"):
        runs[backend] = run_alignment(
            micro, 1, "bsp-micro", machine=machine, kernel="real",
            config=EngineConfig(backend=backend,
                                workers=1 if backend == "serial" else 2))
        assert not active_shm_segments()
    for backend in ("process", "auto"):
        assert runs[backend].signature() == runs["serial"].signature()
        assert runs[backend].alignments == runs["serial"].alignments


@pytest.mark.parametrize("failing", ["caller", "worker"])
def test_statistical_render_failure_joins_every_worker(process_render,
                                                      monkeypatch, failing):
    """A rank that raises, in the caller or in a worker, reaches the caller
    as its own exception type after every chunk it gave the pool has
    finished, and the render caches nothing."""
    process_render(3)
    wl = StatisticalWorkload(tiny_spec(), seed=3)
    num_ranks = 24
    # workers are given chunks 0-1 before the caller takes the top one
    bad_rank = 0 if failing == "worker" else num_ranks - 1
    monkeypatch.setattr(wl, "rngs", FailingRngs(wl.rngs, bad_rank))
    with pytest.raises(RankFailed, match=f"rank {bad_rank}"):
        wl.assignment(num_ranks)
    assert len(process_render.futures) >= 2
    assert all(f.done() for f in process_render.futures)
    assert num_ranks not in wl.assignment_cache


def test_statistical_render_worker_killed_is_typed(process_render,
                                                   monkeypatch):
    """A worker SIGKILLed mid-render fails the render with the typed
    WorkerCrashError and caches nothing; the next render builds a new
    pool and gives the serial bits."""
    process_render(2)
    wl = StatisticalWorkload(tiny_spec(), seed=3)
    num_ranks = 24
    monkeypatch.setattr(wl, "rngs", FailingRngs(wl.rngs, 0, how="kill"))
    with pytest.raises(WorkerCrashError, match="render worker died"):
        wl.assignment(num_ranks)
    assert all(f.done() for f in process_render.futures)
    assert num_ranks not in wl.assignment_cache
    monkeypatch.setattr(wl, "rngs", wl.rngs.rngs)
    assert regen.assignment_digest(wl.assignment(num_ranks)) == \
        regen.assignment_digest(
            StatisticalWorkload(tiny_spec(), seed=3)._render_assignment(
                num_ranks))


@pytest.mark.parametrize("bad", [-1, 3])
def test_concrete_corrupt_read_column_fails_typed(bad):
    from repro.genome.sequence import ReadSet

    reads = ReadSet.from_strings(["ACGTACGT", "ACGTACGTAA", "GGGGCCCC"])
    tasks = TaskTable(
        read_a=np.array([0, bad]), read_b=np.array([1, 2]),
        pos_a=np.array([0, 0]), pos_b=np.array([0, 0]),
        reverse=np.array([False, False]), k=5,
    )
    wl = ConcreteWorkload("c", reads, tasks, np.array([1.0, 2.0]))
    with pytest.raises(PartitionError, match="out of range"):
        wl.micro_plan(3)
    with pytest.raises(PartitionError, match="out of range"):
        wl.assignment(3)


def _fresh_micro():
    """An uncached concrete workload over the ``micro`` rows."""
    from repro.core.api import get_workload

    wl = get_workload("micro", seed=11)
    return ConcreteWorkload(wl.name, wl.reads, wl.tasks, wl.task_costs)


@pytest.mark.parametrize("order", ["plan_first", "assignment_first"])
def test_resident_rows_run_the_greedy_stream_once(monkeypatch, order):
    """Materialized rows: ``assignment`` folds the cached micro plan, so the
    Python greedy loop runs once per (workload, P) whichever is asked first."""
    calls = []
    real = workload_mod.assign_tasks_balanced

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(workload_mod, "assign_tasks_balanced", counting)
    wl = _fresh_micro()
    for num_ranks in (8, 3):
        calls.clear()
        if order == "plan_first":
            plan = wl.micro_plan(num_ranks)
            a = wl.assignment(num_ranks)
        else:
            a = wl.assignment(num_ranks)
            plan = wl.micro_plan(num_ranks)
        assert calls == [num_ranks]
        assert a.tasks_per_rank.sum() == plan.assigned.size == wl.n_tasks


def test_resident_rows_never_touch_disk(tmp_path, monkeypatch):
    """The in-memory dedup of a materialized workload creates no file."""
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    wl = _fresh_micro()
    wl.assignment(8)
    wl.assignment(16)
    assert os.listdir(tmp_path) == []
