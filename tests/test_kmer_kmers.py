"""Tests for k-mer packing, reverse complement, and canonicalization."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import SequenceError
from repro.genome import alphabet
from repro.kmer.kmers import (
    KmerExtractor,
    canonical_kmers,
    pack_kmers,
    revcomp_packed,
    unpack_kmer,
)

dna_acgt = st.text(alphabet="ACGT", min_size=0, max_size=120)


def test_pack_simple():
    codes = alphabet.encode("ACGT")
    packed, pos = pack_kmers(codes, 2)
    # AC=0*4+1=1, CG=1*4+2=6, GT=2*4+3=11
    assert packed.tolist() == [1, 6, 11]
    assert pos.tolist() == [0, 1, 2]


def test_pack_skips_N_windows():
    codes = alphabet.encode("ACNGT")
    packed, pos = pack_kmers(codes, 2)
    assert pos.tolist() == [0, 3]  # AC and GT only
    assert packed.tolist() == [1, 11]


def test_pack_short_sequence():
    packed, pos = pack_kmers(alphabet.encode("AC"), 5)
    assert packed.size == 0 and pos.size == 0


def test_pack_invalid_k():
    with pytest.raises(SequenceError):
        pack_kmers(alphabet.encode("ACGT"), 0)
    with pytest.raises(SequenceError):
        pack_kmers(alphabet.encode("ACGT"), 32)


@given(dna_acgt, st.integers(min_value=1, max_value=31))
def test_unpack_inverts_pack(s, k):
    codes = alphabet.encode(s)
    packed, pos = pack_kmers(codes, k)
    for p, start in zip(packed[:5], pos[:5]):
        assert unpack_kmer(int(p), k) == s[start: start + k]


@given(dna_acgt, st.integers(min_value=1, max_value=31))
def test_revcomp_packed_matches_string_revcomp(s, k):
    codes = alphabet.encode(s)
    packed, pos = pack_kmers(codes, k)
    if packed.size == 0:
        return
    rc = revcomp_packed(packed, k)
    for p, r, start in zip(packed[:5], rc[:5], pos[:5]):
        window = codes[start: start + k]
        expected = alphabet.decode(alphabet.reverse_complement(window))
        assert unpack_kmer(int(r), k) == expected


@given(dna_acgt, st.integers(min_value=1, max_value=31))
def test_revcomp_packed_involution(s, k):
    packed, _ = pack_kmers(alphabet.encode(s), k)
    if packed.size:
        assert np.array_equal(revcomp_packed(revcomp_packed(packed, k), k), packed)


@given(dna_acgt, st.integers(min_value=1, max_value=31))
def test_canonical_strand_invariance(s, k):
    codes = alphabet.encode(s)
    rc_codes = alphabet.reverse_complement(codes)
    fwd, _ = canonical_kmers(codes, k)
    rev, _ = canonical_kmers(rc_codes, k)
    # canonical multisets must be identical across strands
    assert np.array_equal(np.sort(fwd), np.sort(rev))


def test_extractor_readset():
    from repro.genome.sequence import ReadSet

    rs = ReadSet.from_strings(["ACGTACGT", "TTT", "NN"])
    kmers, rids, pos = KmerExtractor(k=3).extract_readset(rs)
    assert kmers.size == 6 + 1 + 0
    assert set(rids.tolist()) == {0, 1}
    assert np.all(pos[rids == 0] == np.arange(6))


def test_extractor_invalid_k():
    with pytest.raises(SequenceError):
        KmerExtractor(k=40)
