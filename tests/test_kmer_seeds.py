"""Tests for shared-seed candidate generation."""

import numpy as np
import pytest

from repro.genome import alphabet
from repro.genome.sequence import ReadSet
from repro.kmer import seeds
from repro.kmer.histogram import KmerHistogram
from repro.kmer.kmers import KmerExtractor
from repro.kmer.seeds import CandidateGenerator, SeedIndex, extract_with_orientation


def overlapping_reads(k=9):
    """Two reads sharing a 30 bp region, plus one unrelated read."""
    rng = np.random.default_rng(0)
    core = alphabet.decode(alphabet.random_sequence(30, rng))
    left = alphabet.decode(alphabet.random_sequence(20, rng))
    right = alphabet.decode(alphabet.random_sequence(20, rng))
    other = alphabet.decode(alphabet.random_sequence(60, rng))
    return ReadSet.from_strings([left + core, core + right, other])


def pairs_of(tasks):
    return list(zip(tasks.read_a.tolist(), tasks.read_b.tolist()))


def candidate_of(tasks, a, b):
    """The scalar view of the task for read pair ``(a, b)``."""
    return tasks.candidate(pairs_of(tasks).index((a, b)))


def test_candidates_found_for_overlap():
    reads = overlapping_reads()
    gen = CandidateGenerator(k=9, bounds=(1, 64))
    cands = gen.generate(reads)
    assert (0, 1) in pairs_of(cands)


def test_candidate_pair_normalized_and_deduplicated():
    reads = overlapping_reads()
    cands = CandidateGenerator(k=9, bounds=(1, 64)).generate(reads)
    assert np.all(cands.read_a < cands.read_b)
    assert len(set(pairs_of(cands))) == len(cands)


def test_candidate_counts_shared_seeds():
    reads = overlapping_reads()
    cands = CandidateGenerator(k=9, bounds=(1, 64)).generate(reads)
    c01 = candidate_of(cands, 0, 1)
    # a 30bp shared region has 30-9+1=22 shared 9-mers
    assert c01.shared_seeds >= 15


def test_seed_positions_actually_match():
    reads = overlapping_reads()
    cands = CandidateGenerator(k=9, bounds=(1, 64)).generate(reads)
    c01 = candidate_of(cands, 0, 1)
    a = reads.codes(0)[c01.pos_a: c01.pos_a + 9]
    b = reads.codes(1)[c01.pos_b: c01.pos_b + 9]
    if c01.reverse:
        b = alphabet.reverse_complement(b)
    assert np.array_equal(a, b)


def test_reverse_orientation_detected():
    rng = np.random.default_rng(1)
    core = alphabet.random_sequence(40, rng)
    a = alphabet.decode(core)
    b = alphabet.decode(alphabet.reverse_complement(core))
    reads = ReadSet.from_strings([a + "ACGTACGTACGT", "TTTGGGCCCAAA" + b])
    cands = CandidateGenerator(k=11, bounds=(1, 64)).generate(reads)
    c01 = candidate_of(cands, 0, 1)
    assert c01.reverse
    # mapped seed must match after flipping
    sa = reads.codes(0)[c01.pos_a: c01.pos_a + 11]
    sb = reads.codes(1)[c01.pos_b: c01.pos_b + 11]
    assert np.array_equal(sa, alphabet.reverse_complement(sb))


def test_frequency_band_filters_repeats():
    # k-mer shared by 3 reads; with hi=2 its occurrence list (3) > hi is cut
    rng = np.random.default_rng(2)
    core = alphabet.decode(alphabet.random_sequence(20, rng))
    pads = [alphabet.decode(alphabet.random_sequence(20, rng)) for _ in range(3)]
    reads = ReadSet.from_strings([p + core for p in pads])
    none = CandidateGenerator(k=11, bounds=(2, 2)).generate(reads)
    some = CandidateGenerator(k=11, bounds=(2, 8)).generate(reads)
    assert len(none) == 0
    assert len(some) >= 3


def test_max_occurrences_cap():
    rng = np.random.default_rng(3)
    core = alphabet.decode(alphabet.random_sequence(20, rng))
    pads = [alphabet.decode(alphabet.random_sequence(20, rng)) for _ in range(6)]
    reads = ReadSet.from_strings([p + core for p in pads])
    capped = CandidateGenerator(k=11, bounds=(1, 1000), max_occurrences=2).generate(reads)
    uncapped = CandidateGenerator(k=11, bounds=(1, 1000)).generate(reads)
    # the 10 k-mers inside the core occur in all 6 reads: with lists longer
    # than 2 skipped entirely, no pair is seeded inside the core (two pads
    # ending alike may still share a k-mer that straddles into it)
    assert np.all(capped.pos_a < 20) and np.all(capped.pos_b < 20)
    assert np.all(capped.shared_seeds < 20 - 11 + 1)
    core_pairs = [(a, b) for a in range(6) for b in range(a + 1, 6)]
    assert pairs_of(uncapped) == core_pairs
    assert np.all(uncapped.shared_seeds >= 20 - 11 + 1)


def test_generator_requires_model_or_bounds():
    reads = overlapping_reads()
    with pytest.raises(ValueError):
        CandidateGenerator(k=9).generate(reads)


def test_seed_index_build_counts():
    reads = ReadSet.from_strings(["ACGTACGT", "ACGT"])
    idx = SeedIndex.build(reads, k=4, retained=None)
    assert idx.num_occurrences == 5 + 1
    assert idx.num_distinct >= 1
    # offsets are CSR over distinct kmers
    assert idx.group_offsets[-1] == idx.num_occurrences


def test_extract_with_orientation_consistency():
    codes = alphabet.encode("ACGTTGCA")
    canon, pos, is_fwd = extract_with_orientation(codes, 4)
    from repro.kmer.kmers import pack_kmers, revcomp_packed

    fwd, _ = pack_kmers(codes, 4)
    rc = revcomp_packed(fwd, 4)
    assert np.array_equal(canon, np.minimum(fwd, rc))
    assert np.array_equal(is_fwd, fwd <= rc)


def test_no_self_pairs():
    # a read with an internal tandem repeat shares k-mers with itself only
    reads = ReadSet.from_strings(["ACGTACGTACGTACGT"])
    cands = CandidateGenerator(k=5, bounds=(1, 64)).generate(reads)
    assert len(cands) == 0


# -- the columnar generator against the pair loop it replaced ---------------


def loop_oracle(reads, k, lo, hi, max_occurrences):
    """Candidate generation as a per-read extraction and a Python pair loop.

    Test-only: the straightforward form of the candidate definition.  Every
    pair ``i < j`` of each retained k-mer's occurrence list (k-mers in
    sorted order, occurrences read-major) is visited in turn; a pair keeps
    its first seed and counts all of them.
    """
    occ = [extract_with_orientation(reads.codes(i), k) for i in range(len(reads))]
    kmers = np.concatenate([c for c, _, _ in occ] + [np.empty(0, np.uint64)])
    rids = np.concatenate([np.full(c.size, i) for i, (c, _, _) in enumerate(occ)]
                          + [np.empty(0, np.int64)]).astype(np.int64)
    pos = np.concatenate([p for _, p, _ in occ] + [np.empty(0, np.int64)])
    fwd = np.concatenate([f for _, _, f in occ] + [np.empty(0, bool)])
    uniq, counts = np.unique(kmers, return_counts=True)
    band = set(uniq[(counts >= lo) & (counts <= hi)].tolist())
    first = {}
    order = np.argsort(kmers, kind="stable")
    for kmer in sorted(band):
        group = order[kmers[order] == kmer]
        if not 2 <= group.size <= max_occurrences:
            continue
        for x in range(group.size):
            for y in range(x + 1, group.size):
                i, j = group[x], group[y]
                if rids[i] == rids[j]:
                    continue
                if rids[i] > rids[j]:
                    i, j = j, i
                key = (int(rids[i]), int(rids[j]))
                if key in first:
                    first[key][-1] += 1
                else:
                    first[key] = [int(pos[i]), int(pos[j]), bool(fwd[i] != fwd[j]), 1]
    rows = [key + tuple(first[key]) for key in sorted(first)]
    names = ("read_a", "read_b", "pos_a", "pos_b", "reverse", "shared_seeds")
    return {n: [r[c] for r in rows] for c, n in enumerate(names)}


def columns(tasks):
    return {n: getattr(tasks, n).tolist() for n in
            ("read_a", "read_b", "pos_a", "pos_b", "reverse", "shared_seeds")}


def random_reads(rng):
    """Reads drawn from a small genome with planted repeats, both strands,
    tandem duplications (k-mers a read shares with itself) and N calls."""
    genome = alphabet.random_sequence(int(rng.integers(40, 300)), rng)
    unit = genome[: int(rng.integers(4, 12))]
    genome = np.concatenate([genome, np.tile(unit, int(rng.integers(1, 6))), genome[:50]])
    reads = []
    for _ in range(int(rng.integers(0, 14))):
        start = int(rng.integers(0, genome.size))
        r = genome[start:start + int(rng.integers(0, 90))].copy()
        if rng.random() < 0.2:
            r = np.concatenate([r, r[: int(rng.integers(0, 30))]])
        if rng.random() < 0.5:
            r = alphabet.reverse_complement(r)
        if r.size and rng.random() < 0.2:
            r[int(rng.integers(0, r.size))] = alphabet.N
        reads.append(r)
    return ReadSet.from_codes(reads)


def random_case(seed):
    rng = np.random.default_rng(seed)
    reads = random_reads(rng)
    k = int(rng.choice([3, 4, 5, 7, 9]))
    lo = int(rng.integers(1, 3))
    hi = int(rng.integers(lo, 20))
    # put the occurrence cap on a list length that occurs (the edge)
    sizes = np.diff(SeedIndex.build(reads, k).group_offsets)
    sizes = sizes[sizes >= 2]
    cap = int(rng.choice(sizes)) if sizes.size else 2
    return reads, k, (lo, hi), cap


@pytest.mark.parametrize("seed", range(40))
def test_generate_matches_the_pair_loop(seed):
    reads, k, (lo, hi), cap = random_case(seed)
    got = CandidateGenerator(k=k, bounds=(lo, hi), max_occurrences=cap).generate(reads)
    assert columns(got) == loop_oracle(reads, k, lo, hi, cap)
    assert got.k == k


@pytest.mark.parametrize("seed", range(40, 60))
def test_generate_in_tiny_ranges_merges_to_the_same_table(seed, monkeypatch):
    reads, k, (lo, hi), cap = random_case(seed)
    gen = CandidateGenerator(k=k, bounds=(lo, hi), max_occurrences=cap)
    whole = columns(gen.generate(reads))
    monkeypatch.setattr(seeds, "PAIR_BLOCK", 3)
    assert columns(gen.generate(reads)) == whole == loop_oracle(reads, k, lo, hi, cap)


def test_generate_with_a_given_histogram_matches_the_pair_loop():
    rng = np.random.default_rng(7)
    reads = random_reads(rng)
    hist = KmerExtractor(k=5).extract_readset(reads)[0]
    histogram = KmerHistogram(*np.unique(hist, return_counts=True), 5)
    got = CandidateGenerator(k=5, bounds=(2, 9)).generate(reads, histogram)
    assert columns(got) == loop_oracle(reads, 5, 2, 9, 256)


def test_generate_empty_inputs():
    for reads in (ReadSet.from_strings([]), ReadSet.from_strings(["ACG", ""]),
                  overlapping_reads()):
        got = CandidateGenerator(k=9, bounds=(50, 60)).generate(reads)
        assert len(got) == 0 and got.shared_seeds.size == 0
        assert columns(got) == loop_oracle(reads, 9, 50, 60, 256)
