"""Tests for Read/ReadSet structure-of-arrays containers."""

import numpy as np
import pytest

from repro.errors import SequenceError
from repro.genome import alphabet
from repro.genome.sequence import Read, ReadSet


def make_set():
    return ReadSet.from_strings(["ACGT", "GG", "TTTTT"])


def test_lengths_and_total():
    rs = make_set()
    assert len(rs) == 3
    assert rs.lengths.tolist() == [4, 2, 5]
    assert rs.total_bases == 11


def test_codes_view_is_zero_copy():
    rs = make_set()
    view = rs.codes(1)
    assert view.base is rs.buffer or view.base is not None
    assert alphabet.decode(view) == "GG"


def test_read_materialization():
    rs = make_set()
    r = rs.read(2)
    assert isinstance(r, Read)
    assert str(r) == "TTTTT"
    assert len(r) == 5
    assert r.id == 2


def test_iteration_order():
    rs = make_set()
    assert [str(r) for r in rs] == ["ACGT", "GG", "TTTTT"]


def test_subset_preserves_metadata():
    reads = [
        Read(id=5, codes=alphabet.encode("ACGT"), name="a", origin=100,
             origin_end=104, strand=-1),
        Read(id=9, codes=alphabet.encode("GG"), name="b", origin=7,
             origin_end=9, strand=1),
    ]
    rs = ReadSet.from_reads(reads)
    sub = rs.subset(np.array([1]))
    r = sub.read(0)
    assert r.id == 9 and r.name == "b" and r.origin == 7 and r.strand == 1


def test_from_reads_roundtrip():
    reads = [Read(id=i, codes=alphabet.encode(s)) for i, s in
             enumerate(["A", "CC", "GGG"])]
    rs = ReadSet.from_reads(reads)
    assert [str(r) for r in rs] == ["A", "CC", "GGG"]
    assert rs.ids.tolist() == [0, 1, 2]


def test_invalid_offsets_rejected():
    with pytest.raises(SequenceError):
        ReadSet(np.zeros(4, dtype=np.uint8), np.array([0, 2]))  # wrong end
    with pytest.raises(SequenceError):
        ReadSet(np.zeros(4, dtype=np.uint8), np.array([1, 4]))  # wrong start
    with pytest.raises(SequenceError):
        ReadSet(np.zeros(4, dtype=np.uint8), np.array([0, 3, 2, 4]))  # decreasing


def test_ids_length_mismatch():
    with pytest.raises(SequenceError):
        ReadSet.from_strings(["AC", "GT"], ids=np.array([1]))


def test_empty_readset():
    rs = ReadSet.from_strings([])
    assert len(rs) == 0
    assert rs.total_bases == 0
    assert list(rs) == []
