"""Seed analysis: k-mer extraction, histogramming, BELLA filtering, candidates.

This package implements the data analysis DiBELLA performs between its first
and second pipeline stages (paper §3): compute a k-mer histogram over all
reads, filter k-mers by frequency using the BELLA reliability model, and emit
candidate overlap pairs (alignment tasks) for every pair of reads sharing a
retained k-mer — one seed per candidate pair, as in the paper's experiments.
"""

from repro.kmer.kmers import (
    KmerExtractor,
    canonical_kmers,
    pack_kmers,
    unpack_kmer,
)
from repro.kmer.histogram import KmerHistogram, count_kmers
from repro.kmer.bella import BellaModel, reliable_bounds
from repro.kmer.seeds import SeedIndex, CandidateGenerator

__all__ = [
    "KmerExtractor",
    "canonical_kmers",
    "pack_kmers",
    "unpack_kmer",
    "KmerHistogram",
    "count_kmers",
    "BellaModel",
    "reliable_bounds",
    "SeedIndex",
    "CandidateGenerator",
]
