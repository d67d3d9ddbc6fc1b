"""End-to-end integration: genome -> reads -> seeds -> alignments -> quality.

These tests tie every substrate together and check *biological* ground
truth: candidates found by shared reliable k-mers must correspond to reads
that genuinely overlap on the synthetic genome, and the X-drop alignments
must recover those overlaps.
"""

import numpy as np
import pytest

from repro.align.seedextend import SeedExtendAligner
from repro.genome.datasets import DATASETS, synthesize_dataset
from repro.kmer.bella import BellaModel
from repro.kmer.histogram import count_kmers
from repro.kmer.seeds import CandidateGenerator


@pytest.fixture(scope="module")
def run():
    return synthesize_dataset(DATASETS["micro"], seed=21)


@pytest.fixture(scope="module")
def candidates(run):
    gen = CandidateGenerator(
        k=13, model=BellaModel(coverage=8, error_rate=0.08, k=13)
    )
    return gen.generate(run.reads)


def pairs_of(tasks):
    return list(zip(tasks.read_a.tolist(), tasks.read_b.tolist()))


def genome_overlap(reads, i, j):
    """True genomic overlap length of reads i and j (from ground truth)."""
    a0, a1 = int(reads.origins[i]), int(reads.origin_ends[i])
    b0, b1 = int(reads.origins[j]), int(reads.origin_ends[j])
    return max(0, min(a1, b1) - max(a0, b0))


def test_candidates_are_mostly_true_overlaps(run, candidates):
    """Reliable shared k-mers should select genuinely overlapping reads."""
    assert len(candidates) > 50
    true = sum(
        1 for a, b in pairs_of(candidates)
        if genome_overlap(run.reads, a, b) >= 13
    )
    # repeat copies share k-mers without sharing genome coordinates, so a
    # tail of repeat-induced candidates is expected (that is exactly why
    # the paper's costs include false-positive early termination)
    assert true / len(candidates) > 0.75


def test_candidates_recall_long_overlaps(run, candidates):
    """Pairs overlapping by >= 300 bp should mostly be discovered."""
    found = set(pairs_of(candidates))
    reads = run.reads
    long_pairs = missed = 0
    for i in range(len(reads)):
        for j in range(i + 1, len(reads)):
            if genome_overlap(reads, i, j) >= 300:
                long_pairs += 1
                if (i, j) not in found:
                    missed += 1
    assert long_pairs > 20
    assert missed / long_pairs < 0.2


def test_alignments_recover_overlap_extent(run, candidates):
    """Alignment extents should track the true genomic overlap length."""
    aligner = SeedExtendAligner(x_drop=20)
    ratios = []
    for c in map(candidates.candidate, range(min(60, len(candidates)))):
        true_len = genome_overlap(run.reads, c.read_a, c.read_b)
        if true_len < 200:
            continue
        res = aligner.align_candidate(run.reads, c)
        ratios.append(res.aligned_length_a / true_len)
    assert len(ratios) > 10
    # most alignments recover the bulk of the true overlap
    assert np.median(ratios) > 0.6


def test_alignment_scores_separate_true_from_false(run, candidates):
    """Scores on true overlaps must dominate scores on random pairs."""
    aligner = SeedExtendAligner(x_drop=15)
    true_scores = [
        aligner.align_candidate(run.reads, candidates.candidate(i)).score
        for i in range(min(40, len(candidates)))
    ]
    # synthesize false candidates: random read pairs with a fake seed at 0
    rng = np.random.default_rng(0)
    false_scores = []
    reads = run.reads
    k = 13
    while len(false_scores) < 20:
        i, j = rng.integers(0, len(reads), 2)
        if i == j or genome_overlap(reads, int(i), int(j)) > 0:
            continue
        la, lb = len(reads.codes(int(i))), len(reads.codes(int(j)))
        if la <= k or lb <= k:
            continue
        res = aligner.align(reads.codes(int(i)), reads.codes(int(j)),
                            0, 0, k, read_a=int(i), read_b=int(j))
        false_scores.append(res.score)
    assert np.median(true_scores) > 3 * np.median(false_scores)


def test_bella_band_improves_candidate_precision(run):
    """Without the frequency band, repeat k-mers create false candidates."""
    hist = count_kmers(run.reads, k=13)
    unfiltered = CandidateGenerator(k=13, bounds=(1, 10_000)).generate(run.reads)
    model = BellaModel(coverage=8, error_rate=0.08, k=13)
    filtered = CandidateGenerator(k=13, model=model).generate(run.reads, hist)

    def precision(cands):
        if not len(cands):
            return 1.0
        true = sum(
            1 for a, b in pairs_of(cands)
            if genome_overlap(run.reads, a, b) >= 13
        )
        return true / len(cands)

    assert precision(filtered) >= precision(unfiltered)
    # the unfiltered set is a superset in size
    assert len(unfiltered) >= len(filtered)


def test_reverse_candidates_exist_and_align(run, candidates):
    """Both-strand sampling must produce reverse-orientation candidates."""
    reverse = np.flatnonzero(candidates.reverse)
    assert 0 < reverse.size < len(candidates)
    aligner = SeedExtendAligner(x_drop=20)
    res = aligner.align_candidate(run.reads, candidates.candidate(reverse[0]))
    assert res.reverse
    assert res.score >= 13
