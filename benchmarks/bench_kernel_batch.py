"""Kernel throughput: scalar per-pair X-drop vs the batched wavefront.

The paper's cost model counts DP cells (§4.2), but the pure-python
reproduction's wall-clock is dominated by per-pair-per-antidiagonal
dispatch overhead.  This benchmark establishes the perf trajectory of the
batched kernel (:mod:`repro.align.batch`): pairs/sec and cells/sec for the
scalar loop vs one ``align_batch`` call, on the two workload shapes that
drive the paper's load-imbalance story — true overlaps (long extensions)
and false positives (early termination).

Writes ``BENCH_KERNEL.json`` at the repo root.  Also runnable standalone:

    python benchmarks/bench_kernel_batch.py [--tiny]
"""

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.align.seedextend import SeedExtendAligner
from repro.genome import alphabet
from repro.genome.synth import ErrorModel

JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_KERNEL.json"

X_DROP = 15
SEED_K = 17
BATCH_SIZES = (1, 16, 64, 256)

#: tiny smoke size: still >= 64 pairs so the batch-64 row always exists
TINY = (64, 400)


def make_pairs(rng, num_pairs: int, length: int, true_overlap: bool):
    """Synthetic candidate tasks with a planted seed at the midpoint."""
    em = ErrorModel(error_rate=0.15, n_rate=0.0)
    pairs = []
    for _ in range(num_pairs):
        if true_overlap:
            core = alphabet.random_sequence(length, rng)
            a, b = em.apply(core, rng), em.apply(core, rng)
        else:
            a = alphabet.random_sequence(length, rng)
            b = alphabet.random_sequence(length, rng)
        pos = min(a.size, b.size) // 2
        b = b.copy()
        b[pos: pos + SEED_K] = a[pos: pos + SEED_K]
        pairs.append((a, b, pos, pos, SEED_K, False, -1, -1))
    return pairs


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def measure(pairs, batch_size: int) -> dict:
    """Scalar-loop vs batched throughput over the same pairs."""
    aligner = SeedExtendAligner(x_drop=X_DROP)
    scalar, t_scalar = _timed(
        lambda: [aligner.align(*p[:5], reverse=p[5]) for p in pairs])
    batched, t_batch = _timed(
        lambda: [a
                 for i in range(0, len(pairs), batch_size)
                 for a in aligner.align_batch(pairs[i: i + batch_size])])
    if [(a.score, a.cells) for a in scalar] != \
            [(a.score, a.cells) for a in batched]:
        raise AssertionError("batched kernel diverged from scalar kernel")
    cells = sum(a.cells for a in scalar)
    return {
        "batch_size": batch_size,
        "pairs": len(pairs),
        "cells": cells,
        "scalar_pairs_per_sec": len(pairs) / t_scalar,
        "batch_pairs_per_sec": len(pairs) / t_batch,
        "scalar_cells_per_sec": cells / t_scalar,
        "batch_cells_per_sec": cells / t_batch,
        "speedup": t_scalar / t_batch,
    }


def sweep(num_pairs: int = 256, length: int = 1500) -> dict:
    rng = np.random.default_rng(1234)
    workloads = {
        "true_overlap": make_pairs(rng, num_pairs, length, True),
        "false_positive": make_pairs(rng, num_pairs, length, False),
    }
    rows = []
    report: dict = {
        "x_drop": X_DROP,
        "seed_k": SEED_K,
        "pair_length": length,
        "num_pairs": num_pairs,
        "cpus": os.cpu_count(),
        "workloads": {},
    }
    for name, pairs in workloads.items():
        runs = [measure(pairs, b) for b in BATCH_SIZES if b <= num_pairs]
        report["workloads"][name] = runs
        for r in runs:
            rows.append([
                name, r["batch_size"],
                round(r["scalar_pairs_per_sec"], 1),
                round(r["batch_pairs_per_sec"], 1),
                round(r["scalar_cells_per_sec"] / 1e6, 2),
                round(r["batch_cells_per_sec"] / 1e6, 2),
                round(r["speedup"], 2),
            ])
    at_64 = [r["speedup"]
             for runs in report["workloads"].values()
             for r in runs if r["batch_size"] >= 64]
    report["min_speedup_at_batch_64"] = min(at_64) if at_64 else None
    return {
        "title": "Kernel throughput: scalar X-drop vs batched wavefront "
                 f"(X={X_DROP}, {length}bp pairs)",
        "columns": ["workload", "batch", "scalar_pairs/s", "batch_pairs/s",
                    "scalar_Mcells/s", "batch_Mcells/s", "speedup"],
        "rows": rows,
        "report": report,
    }


def write_json(fig: dict) -> None:
    JSON_PATH.write_text(json.dumps(fig["report"], indent=2) + "\n")


def test_kernel_batch(benchmark):
    from conftest import FAST, emit, run_once

    fig = run_once(benchmark, sweep, *(TINY if FAST else ()))
    emit("kernel_batch", {k: fig[k] for k in ("title", "columns", "rows")})
    write_json(fig)
    speedup = fig["report"]["min_speedup_at_batch_64"]
    assert speedup is not None
    if not FAST:  # tiny sizes under-amortize; only gate the full run
        assert speedup >= 3.0, f"batched kernel only {speedup:.2f}x scalar"


if __name__ == "__main__":
    tiny = "--tiny" in sys.argv
    fig = sweep(*TINY) if tiny else sweep()
    widths = [max(len(str(r[i])) for r in [fig["columns"]] + fig["rows"])
              for i in range(len(fig["columns"]))]
    print(fig["title"])
    for row in [fig["columns"]] + fig["rows"]:
        print("  ".join(str(v).rjust(w) for v, w in zip(row, widths)))
    write_json(fig)
    print(f"wrote {JSON_PATH}")
