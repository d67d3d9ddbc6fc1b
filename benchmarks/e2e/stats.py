"""Order statistics for the benchmark: quartiles and the percentile rule.

Pure standard library, no ``repro`` import — the parent driver, the
children, ``compare.py`` and the harness tests all share these.
"""

from __future__ import annotations

import statistics

__all__ = ["percentile", "quartiles", "summarize", "tail_percentile",
           "spread"]

#: a percentile is reported only when at least this many samples lie
#: beyond it (choosing-metrics §1) — so p90 needs 100 samples, p99 1000
MIN_SAMPLES_BEYOND = 10


def percentile(values, p: float) -> float:
    """The ``p``-th percentile by linear interpolation between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them — the driver's own spread rule; one sample is its own quartiles."""
    values = list(values)
    if len(values) < 2:
        return (values[0],) * 3
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median (0 for < 2 samples)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def tail_percentile(n: int) -> int | None:
    """The highest of p99/p90 that ``n`` samples can support, else None."""
    for p in (99, 90):
        if n * (100 - p) / 100.0 >= MIN_SAMPLES_BEYOND:
            return p
    return None


def summarize(values) -> dict:
    """Median, quartiles, count, and the tail percentile the count allows."""
    values = list(values)
    q1, med, q3 = quartiles(values)
    out = {"median": med, "q1": q1, "q3": q3, "n": len(values)}
    tail = tail_percentile(len(values))
    if tail is not None:
        out[f"p{tail}"] = percentile(values, tail)
    return out
