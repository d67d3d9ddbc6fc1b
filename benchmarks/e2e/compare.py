#!/usr/bin/env python3
"""Compare two result files of ``run.py``: one row per (workload, metric).

    python benchmarks/e2e/compare.py BASE.json NEW.json

Each row gives base, new, their ratio (new / base) and a verdict against
the metric's bound in ``BENCHMARK.json``:

``ok``          the new median is not worse than the base by more than
                the bound;
``regressed``   it is;
``unresolved``  the samples inside one of the files spread wider than the
                bound (interquartile distance over median) and the two
                files' sample ranges overlap — the runs cannot tell.

Exit code 1 on any ``regressed`` row or any rise in ``failed_frac``,
2 on files that cannot be compared (``--quick`` or ``--trace`` runs).
Rows a workload has no request class for (``native: false``) are skipped.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats as st  # noqa: E402

__all__ = ["verdict", "compare", "main"]


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    """``ok`` / ``regressed`` / ``unresolved`` for one metric.

    ``base`` and ``new`` are metric entries of a result file: ``value``
    plus, where the run repeated the operation, the ``samples`` it was
    taken from (a single number has no spread of its own).
    """
    a = base.get("samples", [base["value"]])
    b = new.get("samples", [new["value"]])
    spread = max(st.spread(a), st.spread(b))
    overlap = min(a) <= max(b) and min(b) <= max(a)
    if spread > bound and overlap:
        return "unresolved"
    change = new["value"] / base["value"] - 1.0
    worse_by = change if better == "lower" else -change
    return "regressed" if worse_by > bound else "ok"


def compare(base: dict, new: dict, spec: dict) -> list[dict]:
    """All comparable rows of two result documents."""
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    rows = []
    for name, wb in base["workloads"].items():
        wn = new["workloads"].get(name)
        if wn is None:
            continue
        for metric, m in metrics.items():
            eb, en = wb["end_to_end"][metric], wn["end_to_end"][metric]
            if not (eb["native"] and en["native"]):
                continue
            rows.append({
                "workload": name, "metric": metric, "unit": m["unit"],
                "base": eb["value"], "new": en["value"],
                "ratio": en["value"] / eb["value"], "bound": m["bound"],
                "verdict": verdict(eb, en, m["better"], m["bound"]),
            })
        rows.append({
            "workload": name, "metric": "failed_frac", "unit": "ratio",
            "base": wb["failed_frac"], "new": wn["failed_frac"],
            "ratio": None, "bound": 0.0,
            "verdict": "regressed" if wn["failed_frac"] > wb["failed_frac"]
            else "ok",
        })
    return rows


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    docs = [json.loads(Path(p).read_text()) for p in argv]
    for path, doc in zip(argv, docs):
        for flag in ("quick", "trace"):
            if doc.get(flag):
                print(f"refusing {path}: a --{flag} run carries no "
                      f"comparable end-to-end numbers")
                return 2
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    rows = compare(docs[0], docs[1], spec)
    for doc, label in zip(docs, ("base", "new")):
        env = doc["env"]
        print(f"{label}: commit {env['commit'][:12]} seed {env['seed']} "
              f"nproc {env['nproc']} python {env['python']} "
              f"numpy {env['numpy']}")
    print(f"\n{'workload':<24}{'metric':<22}{'base':>14}{'new':>14}"
          f"{'ratio':>8}{'bound':>7}  verdict")
    for r in rows:
        ratio = "-" if r["ratio"] is None else f"{r['ratio']:.3f}"
        print(f"{r['workload']:<24}{r['metric']:<22}{r['base']:>14.4f}"
              f"{r['new']:>14.4f}{ratio:>8}{r['bound']:>7.0%}  "
              f"{r['verdict']}  [{r['unit']}]")
    counts = {v: sum(r["verdict"] == v for r in rows)
              for v in ("ok", "unresolved", "regressed")}
    print("\n" + ", ".join(f"{n} {v}" for v, n in counts.items()))
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main())
