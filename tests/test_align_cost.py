"""Tests for the KNL alignment cost model, including its empirical fit."""

import numpy as np
import pytest

from repro.align.cost import KNL_CELL_RATE, MEAN_TASK_COST, AlignmentCostModel
from repro.align.xdrop import XDropExtender
from repro.genome import alphabet
from repro.genome.synth import ErrorModel
from repro.utils.units import HOUR


def test_anchor_ecoli30x_one_hour():
    # paper 4.1: ~1 hour on one KNL core for 2,270,260 tasks
    total = MEAN_TASK_COST["ecoli30x"] * 2_270_260
    assert total == pytest.approx(1.0 * HOUR, rel=1e-6)


def test_anchor_ecoli100x_seven_hours():
    total = MEAN_TASK_COST["ecoli100x"] * 24_869_171
    assert total == pytest.approx(7.0 * HOUR, rel=1e-6)


def test_cells_to_seconds_linear():
    m = AlignmentCostModel()
    assert m.cells_to_seconds(KNL_CELL_RATE) == pytest.approx(1.0)
    assert m.cells_to_seconds(0) == 0.0


def test_band_width_grows_with_x():
    assert AlignmentCostModel(x_drop=50).band_width > AlignmentCostModel(x_drop=10).band_width


def test_estimate_cells_true_vs_false_positive():
    m = AlignmentCostModel()
    true_cells = m.estimate_cells(2000.0, early_terminated=False)
    fp_cells = m.estimate_cells(2000.0, early_terminated=True)
    assert fp_cells < true_cells
    assert float(fp_cells) == 600.0


def test_estimate_cells_vectorized():
    m = AlignmentCostModel()
    overlaps = np.array([1000.0, 2000.0, 3000.0])
    early = np.array([False, True, False])
    cells = m.estimate_cells(overlaps, early)
    assert cells.shape == (3,)
    assert cells[1] == 600.0
    assert cells[2] > cells[0]


def test_task_seconds_positive():
    m = AlignmentCostModel()
    t = m.task_seconds(np.array([500.0, 5000.0]))
    assert np.all(t > 0)
    assert t[1] > t[0]


def test_band_model_fits_real_kernel():
    """The analytic cells estimate must track the numpy kernel within 2x."""
    rng = np.random.default_rng(7)
    model = AlignmentCostModel(x_drop=15)
    em = ErrorModel(error_rate=0.15, n_rate=0.0)
    for core_len in (500, 1500):
        core = alphabet.random_sequence(core_len, rng)
        a = em.apply(core, rng)
        b = em.apply(core, rng)
        res = XDropExtender(x_drop=15).extend(a, b)
        overlap = (res.length_a + res.length_b) / 2  # per-read aligned length
        est = float(model.estimate_cells(overlap))
        assert 0.5 * res.cells < est < 2.0 * res.cells


def test_mean_task_cost_lookup():
    m = AlignmentCostModel()
    assert m.mean_task_cost("human_ccs") == MEAN_TASK_COST["human_ccs"]
    with pytest.raises(KeyError):
        m.mean_task_cost("nope")
