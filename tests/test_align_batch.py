"""Batched wavefront kernel: bit-identity with the scalar path.

The batch kernel is an execution strategy, not an approximation — the cost
model and every paper figure consume its cells / early-termination numbers,
so ``align_batch`` must equal per-pair ``align`` field-by-field.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.align import batch as batch_module
from repro.align.batch import BatchedXDropExtender
from repro.align.scoring import ScoringScheme
from repro.align.seedextend import SeedExtendAligner
from repro.align.xdrop import XDropExtender
from repro.errors import AlignmentError
from repro.genome import alphabet
from repro.genome.synth import ErrorModel

dna = st.text(alphabet="ACGTN", min_size=0, max_size=40)


def _ext_tuple(r):
    return (r.score, r.length_a, r.length_b, r.cells, r.antidiagonals,
            r.terminated_early)


@st.composite
def seeded_pair(draw):
    """(codes_a, codes_b, pos_a, pos_b, k, reverse) with a valid seed."""
    k = draw(st.integers(min_value=1, max_value=8))
    sa = draw(st.text(alphabet="ACGTN", min_size=k, max_size=60))
    sb = draw(st.text(alphabet="ACGTN", min_size=k, max_size=60))
    pos_a = draw(st.integers(min_value=0, max_value=len(sa) - k))
    pos_b = draw(st.integers(min_value=0, max_value=len(sb) - k))
    reverse = draw(st.booleans())
    return (alphabet.encode(sa), alphabet.encode(sb), pos_a, pos_b, k,
            reverse)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(dna, dna), min_size=1, max_size=12),
       st.integers(min_value=0, max_value=25))
def test_extend_batch_matches_scalar(pairs_txt, x):
    pairs = [(alphabet.encode(a), alphabet.encode(b)) for a, b in pairs_txt]
    scalar = XDropExtender(x_drop=x)
    batch = BatchedXDropExtender(x_drop=x).extend_batch(pairs)
    assert len(batch) == len(pairs)
    for (a, b), got in zip(pairs, batch):
        assert _ext_tuple(got) == _ext_tuple(scalar.extend(a, b))


@settings(max_examples=60, deadline=None)
@given(st.lists(seeded_pair(), min_size=1, max_size=10),
       st.integers(min_value=0, max_value=25))
def test_align_batch_matches_align_fieldwise(pairs, x):
    aligner = SeedExtendAligner(x_drop=x)
    got = aligner.align_batch(
        [(*p, 7, 9) for p in pairs]  # exercise read-id passthrough too
    )
    for p, g in zip(pairs, got):
        want = aligner.align(*p[:5], reverse=p[5], read_a=7, read_b=9)
        assert want == g  # frozen dataclass: full field-by-field equality


def test_batch_size_one():
    rng = np.random.default_rng(0)
    a = alphabet.random_sequence(300, rng)
    b = a.copy()
    aligner = SeedExtendAligner(x_drop=10)
    (got,) = aligner.align_batch([(a, b, 50, 50, 17)])
    assert got == aligner.align(a, b, 50, 50, 17)


def test_empty_suffix_and_prefix_extensions():
    # seed flush at either end: one direction gets an empty sequence
    a = alphabet.encode("ACGTACGTACGTACGT")
    aligner = SeedExtendAligner(x_drop=5)
    pairs = [
        (a, a.copy(), 0, 0, 16),                 # nothing on either flank
        (a, a.copy(), 0, 0, 4),                  # empty left extensions
        (a, a.copy(), 12, 12, 4),                # empty right extensions
    ]
    for want, got in zip(
        [aligner.align(*p) for p in pairs], aligner.align_batch(pairs)
    ):
        assert want == got


def test_all_n_reads():
    # N never matches anything, including N: pure-mismatch extensions
    n_read = np.full(30, alphabet.N, dtype=np.uint8)
    aligner = SeedExtendAligner(x_drop=6)
    pairs = [(n_read, n_read.copy(), 10, 10, 5),
             (n_read, n_read.copy(), 0, 25, 5, True)]
    got = aligner.align_batch(pairs)
    want = [aligner.align(*pairs[0]),
            aligner.align(*pairs[1][:5], reverse=True)]
    assert want == got
    assert all(g.score == aligner.scoring.perfect_score(5) for g in got)


def test_mixed_early_termination_within_batch():
    # a long true overlap and an immediately-dying false positive share the
    # batch: compaction must keep both results exact
    rng = np.random.default_rng(3)
    core = alphabet.random_sequence(800, rng)
    truthy = (core, core.copy(), 100, 100, 17)
    fp = (alphabet.random_sequence(800, rng),
          alphabet.random_sequence(800, rng), 400, 400, 17)
    aligner = SeedExtendAligner(x_drop=10)
    got = aligner.align_batch([truthy, fp, truthy])
    want = [aligner.align(*truthy), aligner.align(*fp),
            aligner.align(*truthy)]
    assert want == got
    assert not got[0].terminated_early
    assert got[1].terminated_early


def _drifting_pairs(rng, count, length):
    """Overlaps whose alignment walks off the main diagonal: b carries
    mostly insertions, so ``i - j`` drifts by ~10 % of the length."""
    drift = ErrorModel(error_rate=0.15, insertion_frac=0.8, deletion_frac=0.1,
                       substitution_frac=0.1)
    plain = ErrorModel(error_rate=0.1)
    pairs = []
    for _ in range(count):
        core = alphabet.random_sequence(length, rng)
        pairs.append((plain.apply(core, rng), drift.apply(core, rng)))
        pairs.append((drift.apply(core, rng), plain.apply(core, rng)))
    return pairs


@pytest.mark.parametrize("x", [5, 15, 40])
def test_drifting_overlaps_recentre_and_widen_the_frame(x, monkeypatch):
    # Long overlaps drift across the shared frame (re-centring) and, at
    # large X, their windows outgrow it (widening): both must be exact.
    calls = {"shift": 0, "pack": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(batch_module, "_shift_rows",
                        counted("shift", batch_module._shift_rows))
    monkeypatch.setattr(batch_module, "_pack",
                        counted("pack", batch_module._pack))
    pairs = _drifting_pairs(np.random.default_rng(x), 4, 700)
    got = BatchedXDropExtender(x_drop=x).extend_batch(pairs)
    scalar = XDropExtender(x_drop=x)
    for (a, b), g in zip(pairs, got):
        assert _ext_tuple(g) == _ext_tuple(scalar.extend(a, b))
    assert max(g.antidiagonals for g in got) > 300
    assert calls["shift"] > 0
    if x == 40:
        assert calls["pack"] > 2   # packed once per frame width


def test_unbounded_x_drop_computes_every_cell():
    # X so large that nothing is ever pruned: every window is the whole
    # antidiagonal, the widest frame there is, and extensions end only by
    # exhausting both sequences.
    rng = np.random.default_rng(5)
    pairs = [(alphabet.random_sequence(40, rng),
              alphabet.random_sequence(int(s), rng))
             for s in rng.integers(1, 60, 12)]
    x = 2**31
    got = BatchedXDropExtender(x_drop=x).extend_batch(pairs)
    scalar = XDropExtender(x_drop=x)
    for (a, b), g in zip(pairs, got):
        assert _ext_tuple(g) == _ext_tuple(scalar.extend(a, b))
        assert g.cells == (a.size + 1) * (b.size + 1) - 1
        assert not g.terminated_early


def test_empty_batch():
    assert SeedExtendAligner().align_batch([]) == []
    assert BatchedXDropExtender().extend_batch([]) == []


def test_batch_validates_seed_bounds():
    a = alphabet.encode("ACGT")
    with pytest.raises(AlignmentError):
        SeedExtendAligner().align_batch([(a, a, 2, 0, 4)])


def test_batch_rejects_negative_x():
    with pytest.raises(AlignmentError):
        BatchedXDropExtender(x_drop=-1)


def test_substitution_table_matches_predicate():
    s = ScoringScheme(match=2, mismatch=-3, gap=-1)
    table = s.substitution_table
    assert table.shape == (5, 5) and table.dtype == np.int64
    for a in range(5):
        for b in range(5):
            want = s.match if (a == b and a < 4 and b < 4) else s.mismatch
            assert table[a, b] == want
    with pytest.raises(ValueError):
        table[0, 0] = 99  # read-only: shared by every kernel call


def test_extenders_are_cached_per_aligner():
    aligner = SeedExtendAligner(x_drop=9)
    assert aligner._extender is aligner._extender
    assert aligner._batch_extender is aligner._batch_extender
    assert aligner._extender.x_drop == 9
    assert aligner._batch_extender.scoring is aligner.scoring
