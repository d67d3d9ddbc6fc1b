"""Tests for k-mer histogramming and the owner hash."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.genome.sequence import ReadSet
from repro.kmer.histogram import KmerHistogram, count_kmers, owner_of
from repro.kmer.kmers import canonical_kmers


def test_count_kmers_simple():
    rs = ReadSet.from_strings(["ACGT", "ACGT"])
    hist = count_kmers(rs, k=4)
    assert hist.kmers.size == 1  # ACGT is its own revcomp canonical class
    assert hist.total == 2


def test_count_kmers_empty():
    hist = count_kmers(ReadSet.from_strings([]), k=5)
    assert hist.kmers.size == 0 and hist.total == 0


def test_frequency_of_lookup():
    rs = ReadSet.from_strings(["ACGTACGT"])
    hist = count_kmers(rs, k=3)
    km, _ = canonical_kmers(rs.codes(0), 3)
    freqs = hist.frequency_of(km)
    assert np.all(freqs >= 1)
    # absent k-mer
    absent = np.array([np.uint64(2**35)], dtype=np.uint64)
    assert hist.frequency_of(absent).tolist() == [0]


def test_filtered_band():
    hist = KmerHistogram(
        np.array([1, 2, 3, 4], dtype=np.uint64),
        np.array([1, 2, 5, 9], dtype=np.int64),
        k=5,
    )
    f = hist.filtered(2, 5)
    assert f.kmers.tolist() == [2, 3]
    assert f.counts.tolist() == [2, 5]


def test_merge_equals_joint_count():
    rs1 = ReadSet.from_strings(["ACGTACGTAA"])
    rs2 = ReadSet.from_strings(["ACGTACGTAA", "TTTTTTT"])
    joint = ReadSet.from_strings(["ACGTACGTAA", "ACGTACGTAA", "TTTTTTT"])
    h = count_kmers(rs1, k=4).merge(count_kmers(rs2, k=4))
    hj = count_kmers(joint, k=4)
    assert np.array_equal(h.kmers, hj.kmers)
    assert np.array_equal(h.counts, hj.counts)


def test_merge_k_mismatch():
    h1 = count_kmers(ReadSet.from_strings(["ACGT"]), k=3)
    h2 = count_kmers(ReadSet.from_strings(["ACGT"]), k=4)
    with pytest.raises(ValueError):
        h1.merge(h2)


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        KmerHistogram(np.array([1], dtype=np.uint64),
                      np.array([1, 2], dtype=np.int64), k=3)


@given(st.lists(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=200),
       st.integers(min_value=1, max_value=64))
def test_owner_of_range_and_determinism(kmer_vals, owners):
    kmers = np.array(kmer_vals, dtype=np.uint64)
    o1 = owner_of(kmers, owners)
    o2 = owner_of(kmers, owners)
    assert np.array_equal(o1, o2)
    assert o1.min() >= 0 and o1.max() < owners


def test_owner_of_spreads_consecutive_kmers():
    kmers = np.arange(10_000, dtype=np.uint64)
    owners = owner_of(kmers, 16)
    counts = np.bincount(owners, minlength=16)
    # multiplicative hashing should spread consecutive values roughly evenly
    assert counts.min() > 0.5 * counts.mean()
    assert counts.max() < 1.5 * counts.mean()
