"""Tests for the seed-and-extend aligner (the per-task kernel)."""

import numpy as np
import pytest

from repro.align.seedextend import SeedExtendAligner
from repro.errors import AlignmentError
from repro.genome import alphabet
from repro.genome.synth import ErrorModel


def make_overlap(rng, core_len=400, left_a=100, right_b=120, err=0.0):
    """Reads a = [pad_a | core], b = [core | pad_b] (dovetail overlap)."""
    core = alphabet.random_sequence(core_len, rng)
    pad_a = alphabet.random_sequence(left_a, rng)
    pad_b = alphabet.random_sequence(right_b, rng)
    em = ErrorModel(error_rate=err, n_rate=0.0)
    a = np.concatenate([pad_a, em.apply(core, rng)])
    b = np.concatenate([em.apply(core, rng), pad_b])
    return a, b, core


def test_perfect_dovetail_alignment():
    rng = np.random.default_rng(0)
    a, b, core = make_overlap(rng, err=0.0)
    k = 17
    # seed in the middle of the shared core
    seed_core = 200
    pos_a, pos_b = 100 + seed_core, seed_core
    res = SeedExtendAligner(x_drop=15).align(a, b, pos_a, pos_b, k)
    assert res.score == 400  # whole core matches
    assert res.begin_a == 100 and res.end_a == 500
    assert res.begin_b == 0 and res.end_b == 400
    assert res.overlap_class(len(a), len(b), slack=10) == "dovetail"


def test_noisy_overlap_still_extends():
    rng = np.random.default_rng(1)
    a, b, core = make_overlap(rng, core_len=600, err=0.10)
    # place the seed by finding an exact shared 13-mer via candidates
    from repro.genome.sequence import ReadSet
    from repro.kmer.seeds import CandidateGenerator

    reads = ReadSet.from_codes([a, b])
    cands = CandidateGenerator(k=13, bounds=(1, 64)).generate(reads)
    # two reads: the one candidate is the pair (0, 1)
    assert (cands.read_a.tolist(), cands.read_b.tolist()) == ([0], [1])
    c = cands.candidate(0)
    res = SeedExtendAligner(x_drop=20).align_candidate(reads, c)
    # should recover the bulk of the ~600bp overlap despite ~20% divergence
    assert res.aligned_length_a > 300
    assert res.score > 100


def test_reverse_candidate_alignment():
    rng = np.random.default_rng(2)
    a, b, core = make_overlap(rng, err=0.0)
    b_rc = alphabet.reverse_complement(b)
    k = 17
    seed_core = 200
    pos_a = 100 + seed_core
    pos_b_fwd = seed_core  # position on b's forward strand
    pos_b_on_rc_strand = len(b) - (pos_b_fwd + k)
    # candidate stores pos on b's forward strand; reverse=True
    res = SeedExtendAligner(x_drop=15).align(
        a, b_rc, pos_a, pos_b_on_rc_strand, k, reverse=True
    )
    assert res.score == 400
    assert res.reverse


def test_containment_classification():
    rng = np.random.default_rng(3)
    core = alphabet.random_sequence(300, rng)
    a = core  # a is contained in b
    b = np.concatenate(
        [alphabet.random_sequence(80, rng), core, alphabet.random_sequence(90, rng)]
    )
    res = SeedExtendAligner(x_drop=15).align(a, b, 150, 230, 17)
    assert res.overlap_class(len(a), len(b), slack=10) == "contained"


def test_internal_false_positive():
    rng = np.random.default_rng(4)
    # unrelated reads sharing one planted 17-mer in the middle
    seed = alphabet.random_sequence(17, rng)
    a = np.concatenate(
        [alphabet.random_sequence(500, rng), seed, alphabet.random_sequence(500, rng)]
    )
    b = np.concatenate(
        [alphabet.random_sequence(400, rng), seed, alphabet.random_sequence(600, rng)]
    )
    res = SeedExtendAligner(x_drop=10).align(a, b, 500, 400, 17)
    assert res.terminated_early
    assert res.overlap_class(len(a), len(b)) == "internal"
    # score stays near the bare seed score
    assert res.score < 17 + 40


def test_score_includes_seed():
    a = alphabet.encode("ACGTACGTACGTACGTA")
    res = SeedExtendAligner().align(a, a.copy(), 0, 0, 17)
    assert res.score == 17


def test_seed_bounds_validation():
    a = alphabet.encode("ACGTACGT")
    aligner = SeedExtendAligner()
    with pytest.raises(AlignmentError):
        aligner.align(a, a, 5, 0, 17)
    with pytest.raises(AlignmentError):
        aligner.align(a, a, 0, -1, 4)


def test_cells_accounted():
    rng = np.random.default_rng(5)
    a, b, _ = make_overlap(rng, err=0.05)
    res = SeedExtendAligner(x_drop=15).align(a, b, 300, 200, 17)
    assert res.cells > 0
    # roughly band * overlap work, far below full DP
    assert res.cells < 0.2 * len(a) * len(b)
