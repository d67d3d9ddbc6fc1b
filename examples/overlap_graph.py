#!/usr/bin/env python3
"""Downstream use: build and analyze the overlap graph.

The paper motivates many-to-many alignment as the substrate for *de novo*
assembly and direct read-set analysis (§2): reads are vertices, and
sufficiently-scoring alignments are edges whose structure (dovetails,
containments) determines how the genome can be reconstructed.  This example
runs the full pipeline on a synthetic dataset, filters alignments by score,
builds the overlap graph with networkx, and reports its assembly-relevant
structure — with the synthetic genome's ground truth as a sanity check.

Run:  python examples/overlap_graph.py
"""

import networkx as nx

from repro.align.seedextend import SeedExtendAligner
from repro.genome.datasets import DATASETS, synthesize_dataset
from repro.kmer.bella import BellaModel
from repro.kmer.seeds import CandidateGenerator


def main() -> None:
    spec = DATASETS["micro"]
    run = synthesize_dataset(spec, seed=9)
    reads = run.reads
    print(f"{len(reads)} reads at {run.depth_achieved:.1f}x depth, "
          f"genome {run.genome.size} bp")

    model = BellaModel(coverage=spec.coverage, error_rate=spec.error_rate, k=13)
    tasks = CandidateGenerator(k=13, model=model).generate(reads)
    aligner = SeedExtendAligner(x_drop=20)
    # all candidate rows extend together in one batched wavefront pass
    alignments = aligner.align_candidates(reads, tasks, range(len(tasks)))
    print(f"{len(tasks)} candidates aligned (one batch)")

    # keep alignments that clearly extend beyond the seed ("only those
    # alignments which meet or exceed the scoring criteria are saved")
    min_score = 3 * 13
    graph = nx.Graph()
    graph.add_nodes_from(range(len(reads)))
    kept = 0
    for ra, rb, a in zip(tasks.read_a.tolist(), tasks.read_b.tolist(), alignments):
        if a.score < min_score:
            continue
        la, lb = int(reads.lengths[ra]), int(reads.lengths[rb])
        graph.add_edge(
            ra, rb,
            score=a.score,
            kind=a.overlap_class(la, lb, slack=30),
            reverse=a.reverse,
        )
        kept += 1
    print(f"{kept} alignments pass score >= {min_score}")

    kinds = {}
    for _, _, data in graph.edges(data=True):
        kinds[data["kind"]] = kinds.get(data["kind"], 0) + 1
    print("overlap classes:", dict(sorted(kinds.items())))

    components = sorted(nx.connected_components(graph), key=len, reverse=True)
    giant = components[0]
    print(f"connected components: {len(components)}; "
          f"giant component covers {len(giant)}/{len(reads)} reads")

    # ground truth: at >=8x coverage over one genome, nearly all reads
    # should fall into one connected overlap component
    assert len(giant) > 0.8 * len(reads), "overlap graph is fragmented"

    # assembly-style sanity: order the giant component's reads by their true
    # genome coordinates and verify neighbours in that order are connected
    members = sorted(giant, key=lambda i: int(reads.origins[i]))
    connected_neighbours = sum(
        1 for a, b in zip(members, members[1:]) if graph.has_edge(a, b)
    )
    print(f"{connected_neighbours}/{len(members) - 1} genome-adjacent read "
          "pairs share an edge (contiguity of the layout)")


if __name__ == "__main__":
    main()
