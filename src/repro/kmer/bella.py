"""The BELLA reliable-k-mer frequency model (Guidi et al., ACDA 2021).

The paper (§4) filters k-mers "according to the BELLA model", which uses the
dataset's sequencing coverage ``d``, per-base error rate ``e``, and k-mer
length ``k`` to choose which k-mer multiplicities mark *reliable* seeds:

* A k-mer drawn from one read is error-free with probability
  ``p = (1 - e)**k``.
* A unique (single-copy) genomic position is covered by ``d`` reads on
  average, so the multiplicity of a correct k-mer from that locus is
  approximately ``Binomial(d, p)``.
* k-mers seen fewer than 2 times are overwhelmingly sequencing errors
  (lower bound ``lo = 2``); k-mers seen far more often than the binomial
  upper tail allows are almost surely genomic repeats, which seed
  false-positive candidates and blow up the task count (upper bound ``hi``
  = the smallest m whose binomial survival probability drops below
  ``tail_prob``).

This module implements that calculation in exact integer arithmetic (the
float ``p`` and ``tail_prob`` are dyadic rationals, so every binomial term
scaled by ``den**d`` is an integer) and exposes both the bounds and the
retention probability curve for tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["BellaModel", "reliable_bounds"]


@dataclass(frozen=True)
class BellaModel:
    """Reliable k-mer bounds for one dataset.

    Parameters
    ----------
    coverage : sequencing depth ``d``.
    error_rate : per-base error probability ``e``.
    k : k-mer length (17 in the paper).
    tail_prob : binomial survival probability below which higher
        multiplicities are attributed to repeats (BELLA uses ~0.001).
    min_count : lower reliability bound (2 removes singleton error k-mers).
    """

    coverage: float
    error_rate: float
    k: int = 17
    tail_prob: float = 0.001
    min_count: int = 2

    def __post_init__(self) -> None:
        if self.coverage <= 0:
            raise ConfigurationError("coverage must be positive")
        if not 0 <= self.error_rate < 1:
            raise ConfigurationError("error_rate must be in [0,1)")
        if self.k < 1:
            raise ConfigurationError("k must be >= 1")
        if not 0 < self.tail_prob < 1:
            raise ConfigurationError("tail_prob must be in (0,1)")

    @property
    def p_correct(self) -> float:
        """Probability a length-k window of a read is error-free."""
        return float((1.0 - self.error_rate) ** self.k)

    @property
    def expected_multiplicity(self) -> float:
        """Mean multiplicity of a correct single-copy k-mer: ``d * p``."""
        return self.coverage * self.p_correct

    def upper_bound(self) -> int:
        """Smallest m with ``P[Binomial(d, p) >= m] < tail_prob``.

        k-mers seen ``> hi`` times are treated as repeats and discarded.

        Exact: with ``p = a / den`` and ``tail_prob = t_num / t_den`` (floats
        are dyadic rationals), ``P[X >= j] >= tail_prob`` iff
        ``t_num * den**d - t_den * sum_{i >= j} C(d, i) a**i (den - a)**(d - i)
        <= 0``, all integers.  The tail is summed from ``j = d`` downward and
        the first ``j`` whose mass reaches ``tail_prob`` gives ``hi = j + 1``.
        Term ``j - 1`` is term ``j`` times ``j (den - a) / ((d - j + 1) a)``;
        rather than divide the term, the loop multiplies the running deficit
        by the denominator (only its sign is read), so each step is two
        small-factor products and no bigint division.
        """
        d = max(1, int(round(self.coverage)))
        a, den = self.p_correct.as_integer_ratio()
        b = den - a
        t_num, t_den = float(self.tail_prob).as_integer_ratio()
        deficit = t_num * den**d
        term = t_den * a**d  # t_den * C(d, d) a**d b**0
        # a == 0 (p underflowed): every term above j = 0 vanishes
        j = d if a else 0
        while j > 0:
            deficit -= term
            if deficit <= 0:
                break
            deficit *= (d - j + 1) * a
            term *= j * b
            j -= 1
        # j == 0 here means P[X >= 1] < tail_prob <= P[X >= 0] = 1
        return max(j + 1, self.min_count)

    def bounds(self) -> tuple[int, int]:
        """``(lo, hi)`` multiplicity band of reliable k-mers."""
        return self.min_count, self.upper_bound()

    def retention_probability(self, multiplicity: np.ndarray) -> np.ndarray:
        """Indicator of retention for each multiplicity (vectorized)."""
        lo, hi = self.bounds()
        m = np.asarray(multiplicity)
        return ((m >= lo) & (m <= hi)).astype(float)

    def describe(self) -> dict:
        lo, hi = self.bounds()
        return {
            "coverage": self.coverage,
            "error_rate": self.error_rate,
            "k": self.k,
            "p_correct": self.p_correct,
            "expected_multiplicity": self.expected_multiplicity,
            "lo": lo,
            "hi": hi,
        }


def reliable_bounds(coverage: float, error_rate: float, k: int = 17,
                    tail_prob: float = 0.001) -> tuple[int, int]:
    """Convenience wrapper returning the BELLA ``(lo, hi)`` band."""
    return BellaModel(coverage, error_rate, k, tail_prob).bounds()
