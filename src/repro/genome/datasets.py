"""Named workload presets mirroring Table 1 of the paper.

Two tiers per dataset (DESIGN.md §2):

* **Table-1-exact statistical presets** (``ecoli30x``, ``ecoli100x``,
  ``human_ccs``): read and task counts match the paper exactly; these feed
  the statistical workload generator in :mod:`repro.pipeline.workload`, used
  by the figure benchmarks where only distributions matter.
* **Sequence-level reduced presets** (``*_tiny`` / ``*_small``): genuinely
  synthesized genomes + reads, small enough to run the full pipeline
  (k-mers -> BELLA filter -> candidates -> X-drop alignment) in pure Python.
  They are used by tests, examples, and for calibrating the statistical
  distributions of the exact presets.

Paper Table 1:

=============  =================  =========  ==========
Short name     Species            Reads      Tasks
=============  =================  =========  ==========
E. coli 30x    Escherichia coli   16,890     2,270,260
E. coli 100x   Escherichia coli   91,394     24,869,171
Human CCS      Homo sapiens       1,148,839  87,621,409
=============  =================  =========  ==========
"""

from __future__ import annotations

from dataclasses import dataclass


from repro.errors import ConfigurationError
from repro.genome.synth import (
    ErrorModel,
    GenomeSimulator,
    LongReadSequencer,
    ReadLengthModel,
    SequencingRun,
)

__all__ = ["DatasetSpec", "DATASETS", "synthesize_dataset", "table1_rows"]


@dataclass(frozen=True)
class DatasetSpec:
    """A named dataset, either statistical (Table-1-exact) or sequence-level.

    Parameters
    ----------
    name, species : identification (Table 1 columns).
    n_reads, n_tasks : totals; for statistical presets these equal Table 1.
    coverage : sequencing depth.
    error_rate : per-base sequencer error rate (CCS reads are accurate,
        raw long reads are not; affects the BELLA k-mer filter).
    mean_read_length, length_sigma : read length distribution (lognormal).
    genome_size : genome size in bp; for sequence-level presets this is the
        synthesized size, for statistical presets it is implied
        (``n_reads * mean_read_length / coverage``) and recorded for
        reference only.
    sequence_level : True when the preset is meant to be synthesized
        base-by-base and run through the real pipeline.
    """

    name: str
    species: str
    n_reads: int
    n_tasks: int
    coverage: float
    error_rate: float
    mean_read_length: float
    length_sigma: float = 0.35
    genome_size: int = 0
    sequence_level: bool = False


def _exact(name, species, reads, tasks, coverage, err, mean_len, sigma) -> DatasetSpec:
    return DatasetSpec(
        name=name,
        species=species,
        n_reads=reads,
        n_tasks=tasks,
        coverage=coverage,
        error_rate=err,
        mean_read_length=mean_len,
        length_sigma=sigma,
    )


#: Registry of named dataset presets.
DATASETS: dict[str, DatasetSpec] = {
    # ------- Table-1-exact statistical presets ---------------------------
    # Mean read lengths chosen from the datasets' public characteristics:
    # E. coli 30x (CBCB PacBio): ~8.6 kb mean so 16,890 reads at 30x imply a
    # ~4.6 Mbp genome (actual E. coli K-12 size). E. coli 100x (NCBI): ~5 kb.
    # Human CCS: ~12.5 kb highly-accurate consensus reads (error ~1%).
    "ecoli30x": _exact(
        "ecoli30x", "Escherichia coli", 16_890, 2_270_260,
        coverage=30.0, err=0.15, mean_len=8_200.0, sigma=0.45,
    ),
    "ecoli100x": _exact(
        "ecoli100x", "Escherichia coli", 91_394, 24_869_171,
        coverage=100.0, err=0.15, mean_len=5_060.0, sigma=0.40,
    ),
    "human_ccs": _exact(
        "human_ccs", "Homo sapiens", 1_148_839, 87_621_409,
        coverage=4.6, err=0.01, mean_len=12_400.0, sigma=0.20,
    ),
    # A latency-bound cousin: protein-search-like workloads have far
    # shorter sequences (paper 2: "typically shorter reads but also a 20
    # character alphabet"), so their many-to-many exchange is dominated by
    # per-message costs rather than bandwidth.  Used by the aggregation
    # ablation (the paper's 5 future-work scenario).
    "protein_search": _exact(
        "protein_search", "protein database", 200_000, 5_000_000,
        coverage=20.0, err=0.05, mean_len=250.0, sigma=0.30,
    ),
    # ------- Sequence-level reduced presets -------------------------------
    "ecoli30x_tiny": DatasetSpec(
        name="ecoli30x_tiny", species="synthetic",
        n_reads=0, n_tasks=0,  # determined by synthesis
        coverage=30.0, error_rate=0.10,
        mean_read_length=900.0, length_sigma=0.35,
        genome_size=40_000, sequence_level=True,
    ),
    "ecoli100x_tiny": DatasetSpec(
        name="ecoli100x_tiny", species="synthetic",
        n_reads=0, n_tasks=0,
        coverage=100.0, error_rate=0.10,
        mean_read_length=900.0, length_sigma=0.35,
        genome_size=20_000, sequence_level=True,
    ),
    "human_ccs_tiny": DatasetSpec(
        name="human_ccs_tiny", species="synthetic",
        n_reads=0, n_tasks=0,
        coverage=5.0, error_rate=0.01,
        mean_read_length=1_200.0, length_sigma=0.20,
        genome_size=120_000, sequence_level=True,
    ),
    "micro": DatasetSpec(
        name="micro", species="synthetic",
        n_reads=0, n_tasks=0,
        coverage=8.0, error_rate=0.08,
        mean_read_length=600.0, length_sigma=0.30,
        genome_size=12_000, sequence_level=True,
    ),
    "ecoli30x_small": DatasetSpec(
        name="ecoli30x_small", species="synthetic",
        n_reads=0, n_tasks=0,
        coverage=30.0, error_rate=0.10,
        mean_read_length=1_500.0, length_sigma=0.40,
        genome_size=200_000, sequence_level=True,
    ),
}


def synthesize_dataset(spec: DatasetSpec, seed: int = 0) -> SequencingRun:
    """Synthesize a sequence-level dataset: genome + error-laden reads."""
    if not spec.sequence_level:
        raise ConfigurationError(
            f"dataset {spec.name!r} is a statistical preset; use "
            "repro.pipeline.workload.StatisticalWorkload for it"
        )
    from repro.utils.rng import RngFactory

    rngs = RngFactory(seed)
    genome = GenomeSimulator(size=spec.genome_size).generate(rngs.stream("genome"))
    sequencer = LongReadSequencer(
        length_model=ReadLengthModel(
            mean_length=spec.mean_read_length,
            sigma=spec.length_sigma,
            min_len=max(100, int(spec.mean_read_length // 8)),
            max_len=int(spec.mean_read_length * 8),
        ),
        error_model=ErrorModel(error_rate=spec.error_rate),
    )
    return sequencer.sequence(genome, spec.coverage, rngs.stream("read-sampler"))


def table1_rows() -> list[dict]:
    """The three Table-1 rows as dictionaries (for the Table 1 benchmark)."""
    rows = []
    for key in ("ecoli30x", "ecoli100x", "human_ccs"):
        spec = DATASETS[key]
        rows.append(
            {
                "short_name": spec.name,
                "species": spec.species,
                "reads": spec.n_reads,
                "tasks": spec.n_tasks,
            }
        )
    return rows
