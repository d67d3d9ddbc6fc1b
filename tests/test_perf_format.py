"""Tests for table rendering and the dataset registry helpers."""

import pytest

from repro.genome.datasets import DATASETS, table1_rows
from repro.perf.format import render_breakdown_rows, render_table


def test_render_table_alignment():
    text = render_table("My Title", ["a", "bee"], [[1, 2.5], [30, 0.001]])
    lines = text.splitlines()
    assert lines[0] == "My Title"
    assert "a" in lines[2] and "bee" in lines[2]
    assert "30" in text and "2.50" in text and "0.001" in text


def test_render_table_empty_rows():
    text = render_table("T", ["x"], [])
    assert "x" in text


def test_table1_rows_exact():
    rows = {r["short_name"]: r for r in table1_rows()}
    assert rows["ecoli30x"]["reads"] == 16_890
    assert rows["ecoli30x"]["tasks"] == 2_270_260
    assert rows["ecoli100x"]["reads"] == 91_394
    assert rows["ecoli100x"]["tasks"] == 24_869_171
    assert rows["human_ccs"]["reads"] == 1_148_839
    assert rows["human_ccs"]["tasks"] == 87_621_409


def test_dataset_registry_properties():
    spec = DATASETS["ecoli30x"]
    # read volume over coverage is close to the real E. coli genome
    # (~4.6 Mbp)
    assert (spec.n_reads * spec.mean_read_length / spec.coverage
            == pytest.approx(4.6e6, rel=0.05))
    micro = DATASETS["micro"]
    assert micro.sequence_level
    assert micro.genome_size == 12_000


def test_render_breakdown_rows():
    from repro.core.api import get_workload, scaling_sweep

    wl = get_workload("micro", seed=0)
    results = scaling_sweep(wl, [1], approaches=("bsp", "async"))
    rows = render_breakdown_rows(results)
    assert len(rows) == 2
    engines = {r[0] for r in rows}
    assert engines == {"bsp", "async"}
