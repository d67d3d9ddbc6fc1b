"""Tests for the BELLA reliable-k-mer frequency model."""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.genome.datasets import DATASETS
from repro.kmer.bella import BellaModel, reliable_bounds


def test_p_correct():
    m = BellaModel(coverage=30, error_rate=0.15, k=17)
    assert m.p_correct == pytest.approx(0.85**17)
    assert m.expected_multiplicity == pytest.approx(30 * 0.85**17)


def test_bounds_order_and_floor():
    lo, hi = BellaModel(coverage=30, error_rate=0.15, k=17).bounds()
    assert lo == 2
    assert hi >= lo


def test_upper_bound_grows_with_coverage():
    hi30 = BellaModel(coverage=30, error_rate=0.15).upper_bound()
    hi100 = BellaModel(coverage=100, error_rate=0.15).upper_bound()
    assert hi100 > hi30


def test_upper_bound_grows_with_accuracy():
    # more accurate reads -> correct k-mers seen more often -> higher cutoff
    raw = BellaModel(coverage=30, error_rate=0.15).upper_bound()
    ccs = BellaModel(coverage=30, error_rate=0.01).upper_bound()
    assert ccs > raw


def test_upper_bound_is_binomial_tail():
    stats = pytest.importorskip("scipy.stats")

    m = BellaModel(coverage=30, error_rate=0.10, k=17, tail_prob=0.001)
    hi = m.upper_bound()
    d = 30
    p = m.p_correct
    assert stats.binom.sf(hi - 1, d, p) < 0.001
    if hi > m.min_count:
        assert stats.binom.sf(hi - 2, d, p) >= 0.001


def test_retention_probability_band():
    m = BellaModel(coverage=30, error_rate=0.15)
    lo, hi = m.bounds()
    mult = np.array([lo - 1, lo, hi, hi + 1])
    assert m.retention_probability(mult).tolist() == [0.0, 1.0, 1.0, 0.0]


def test_describe_keys():
    d = BellaModel(coverage=30, error_rate=0.15).describe()
    assert {"coverage", "error_rate", "k", "p_correct",
            "expected_multiplicity", "lo", "hi"} <= set(d)


def test_reliable_bounds_wrapper():
    assert reliable_bounds(30, 0.15) == BellaModel(30, 0.15).bounds()


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(coverage=0, error_rate=0.1),
        dict(coverage=30, error_rate=1.0),
        dict(coverage=30, error_rate=0.1, k=0),
        dict(coverage=30, error_rate=0.1, tail_prob=0.0),
    ],
)
def test_validation(kwargs):
    with pytest.raises(ConfigurationError):
        BellaModel(**kwargs)


def test_error_free_bound_just_above_coverage():
    # p == 1: a correct single-copy k-mer appears exactly `coverage` times,
    # so the smallest multiplicity with vanishing tail mass is coverage+1 —
    # everything up to coverage is retained, true repeats are cut.
    m = BellaModel(coverage=10, error_rate=0.0, k=1, tail_prob=1e-300)
    assert m.upper_bound() == 11


def _scipy_crossing(stats, model):
    """The bound as ``scipy.stats.binom.sf`` places it: the smallest m in
    ``0..d+1`` with ``P[X >= m] < tail_prob``, floored at ``min_count``."""
    d = max(1, int(round(model.coverage)))
    m = np.arange(0, d + 2)
    sf = stats.binom.sf(m - 1, d, model.p_correct)
    return max(int(np.nonzero(sf < model.tail_prob)[0][0]), model.min_count)


def _fraction_crossing(model):
    """The bound from textbook rational arithmetic, term by term."""
    d = max(1, int(round(model.coverage)))
    p = Fraction(model.p_correct)
    tail = Fraction(0)
    for j in range(d, -1, -1):
        tail += math.comb(d, j) * p**j * (1 - p) ** (d - j)
        if tail >= Fraction(model.tail_prob):
            return max(j + 1, model.min_count)
    raise AssertionError("P[X >= 0] = 1 must reach any tail_prob < 1")


ORACLE_ERRORS = (0.0, 0.01, 0.05, 0.08, 0.1, 0.15, 0.3)
ORACLE_KS = (1, 13, 17, 31)
ORACLE_TAILS = (1e-12, 1e-6, 1e-3, 0.01, 0.1, 0.5)


@pytest.mark.parametrize("coverage", [1, 4.6, 5, 8, 20, 30, 100, 300, 1000])
def test_upper_bound_matches_scipy_crossing(coverage):
    stats = pytest.importorskip("scipy.stats")
    for e, k, t in itertools.product(ORACLE_ERRORS, ORACLE_KS, ORACLE_TAILS):
        m = BellaModel(coverage, e, k, t)
        assert m.upper_bound() == _scipy_crossing(stats, m), (e, k, t)


@pytest.mark.parametrize("name", sorted(DATASETS))
def test_preset_bounds_match_scipy_crossing(name):
    stats = pytest.importorskip("scipy.stats")
    spec = DATASETS[name]
    for t in ORACLE_TAILS:
        m = BellaModel(spec.coverage, spec.error_rate, tail_prob=t)
        assert m.upper_bound() == _scipy_crossing(stats, m), t


@pytest.mark.parametrize("coverage", [1, 2, 7, 30, 64])
def test_upper_bound_matches_fraction_tail(coverage):
    for e, k, t in itertools.product((0.0, 0.05, 0.15, 0.3), (1, 17),
                                     (1e-300, 1e-6, 0.001, 0.5)):
        m = BellaModel(coverage, e, k, t)
        assert m.upper_bound() == _fraction_crossing(m), (e, k, t)


@pytest.mark.parametrize(
    "coverage, error_rate, k, hi",
    [(150, 0.3, 17, 125), (300, 0.15, 17, 278), (300, 0.2, 13, 271)],
)
def test_upper_bound_exact_where_double_tail_underflows(coverage, error_rate,
                                                       k, hi):
    # binom.sf rounds the tail mass away near 1e-300 and placed these
    # cutoffs at 123, 269 and 262; the exact tail reaches 1e-300 later.
    m = BellaModel(coverage, error_rate, k, tail_prob=1e-300)
    assert m.upper_bound() == hi


def test_upper_bound_when_p_underflows_to_zero():
    m = BellaModel(coverage=30, error_rate=0.999, k=2000)
    assert m.p_correct == 0.0
    assert m.upper_bound() == m.min_count


def test_upper_bound_is_fast_at_high_coverage():
    # ~1000 steps of small-factor bigint products; a term-by-term Fraction
    # evaluation takes seconds here.
    t0 = time.perf_counter()
    for e, k in itertools.product((0.01, 0.15, 0.3), (13, 31)):
        BellaModel(coverage=1000, error_rate=e, k=k, tail_prob=1e-12).upper_bound()
    assert time.perf_counter() - t0 < 2.0
