"""Tests for concrete and statistical workloads."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.align.cost import AlignmentCostModel
from repro.errors import ConfigurationError, PartitionError
from repro.genome.datasets import DatasetSpec, DATASETS, synthesize_dataset
from repro.pipeline.tasks import TaskTable
from repro.pipeline.workload import (
    ConcreteWorkload,
    StatisticalWorkload,
    TaskCostDistribution,
)


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
    assert a.mean_task_cost == pytest.approx(
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
