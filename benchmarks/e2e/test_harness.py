"""Harness tests: the rules the benchmark's own numbers rest on.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q

Fast (no workload runs) and not part of tier-1.  ``PYTHONPATH=src`` is
for ``benchmarks/conftest.py``; nothing here imports ``repro``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import service_load  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


# -- the percentile rule -----------------------------------------------------

def test_no_p99_under_1000_samples():
    assert stats.tail_percentile(999) == 90
    assert stats.tail_percentile(1000) == 99
    assert stats.tail_percentile(100) == 90
    assert stats.tail_percentile(99) is None
    summary = stats.summarize(range(500))
    assert "p90" in summary and "p99" not in summary
    assert set(stats.summarize([1.0, 2.0, 3.0])) == {"median", "q1", "q3", "n"}


def test_quartiles_follow_statistics_quantiles():
    import statistics

    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.3]
    assert list(stats.quartiles(values)) == statistics.quantiles(values, n=4)
    assert stats.quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert stats.spread([7.0]) == 0.0
    assert stats.percentile([10, 20, 30, 40, 50], 50) == 30
    assert stats.percentile([10, 20], 90) == pytest.approx(19.0)


# -- self time = span - children ---------------------------------------------

def _span(i, name, start, end, parent=None):
    return {"id": i, "name": name, "start": start, "end": end,
            "parent": parent, "request_id": "r"}


def test_self_time_on_a_hand_built_tree():
    spans = [
        _span(0, "request", 0.0, 10.0),
        _span(1, "engine", 1.0, 9.0, parent=0),
        _span(2, "executor", 2.0, 4.0, parent=1),
        _span(3, "executor", 5.0, 8.0, parent=1),
        _span(4, "setup", 20.0, 21.0),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == {0: 2.0, 1: 3.0, 2: 2.0, 3: 3.0, 4: 1.0}
    assert tracing.self_time_by_name(spans) == {
        "request": 2.0, "engine": 3.0, "executor": 5.0, "setup": 1.0}
    roots = {r["name"]: r for r in tracing.account_roots(spans)}
    assert roots["request"]["descendants_self_s"] == 8.0
    assert roots["request"]["unaccounted_s"] == 0.0
    assert roots["setup"]["self_s"] == 1.0


def test_overlapping_children_are_not_subtracted_twice():
    spans = [_span(0, "root", 0.0, 10.0),
             _span(1, "a", 1.0, 6.0, parent=0),
             _span(2, "b", 4.0, 8.0, parent=0)]
    assert tracing.self_times(spans)[0] == 3.0


def test_tracer_wraps_and_restores_methods_and_classmethods():
    class Base:
        def run(self, n):
            return n + 1

    class Child(Base):
        @classmethod
        def build(cls, n):
            return cls, n

    tracer = tracing.Tracer()
    tracer.wrap(Child, "run", "layer.run",
                after=lambda span, args, result: span.update(n=args[1]))
    tracer.wrap(Child, "build", "layer.build")
    with tracer.span("request", "req-1"):
        assert Child().run(2) == 3
        assert Child.build(5) == (Child, 5)
    assert Base().run(1) == 2  # the base class was never touched
    tracer.unwrap_all()
    assert "run" not in Child.__dict__
    assert isinstance(Child.__dict__["build"], classmethod)
    names = [(s["name"], s["parent"], s["request_id"]) for s in tracer.spans]
    assert names == [("request", None, "req-1"), ("layer.run", 0, "req-1"),
                     ("layer.build", 0, "req-1")]
    assert tracer.spans[1]["n"] == 2
    before = len(tracer.spans)
    Child().run(2)
    assert len(tracer.spans) == before


# -- the service schedule ----------------------------------------------------

def test_schedule_is_deterministic_per_seed_and_client():
    for client in range(service_load.CLIENTS):
        a = [service_load.schedule_item(11, client, i) for i in range(200)]
        b = [service_load.schedule_item(11, client, i) for i in range(200)]
        assert a == b
    c0 = [service_load.schedule_item(11, 0, i) for i in range(200)]
    c1 = [service_load.schedule_item(11, 1, i) for i in range(200)]
    assert [x["cls"] for x in c0] == [x["cls"] for x in c1]
    assert [x["body"] for x in c0] != [x["body"] for x in c1]
    other = [service_load.schedule_item(23, 0, i) for i in range(200)]
    assert [x["cls"] for x in other] != [x["cls"] for x in c0]


def test_every_block_holds_the_exact_mix():
    for seed in (11, 23, 5):
        for block in range(3):
            lo = block * service_load.BLOCK
            classes = [service_load.schedule_item(seed, 0, i)["cls"]
                       for i in range(lo, lo + service_load.BLOCK)]
            assert {c: classes.count(c) for c, _ in service_load.MIX} == \
                dict(service_load.MIX)


def test_twins_match_and_fresh_requests_are_unique():
    fresh = []
    for i in range(400):
        a = service_load.schedule_item(11, 0, i)
        b = service_load.schedule_item(11, 1, i)
        if a["cls"] == "twin":
            assert a["body"] == b["body"]
            fresh.append(json.dumps(a["body"], sort_keys=True))
        elif a["cls"] != "cached":
            fresh += [json.dumps(x["body"], sort_keys=True) for x in (a, b)]
        else:
            assert "config" not in a["body"]
    assert len(fresh) == len(set(fresh))
    hot = [json.dumps(k, sort_keys=True) for k in service_load.HOT_KEYS]
    assert len(hot) == len(set(hot)) == 16 and not set(hot) & set(fresh)


# -- compare.py verdicts -----------------------------------------------------

def _metric(samples):
    return {"value": stats.quartiles(samples)[1], "samples": samples,
            "native": True}


def test_verdict_ok_regressed_unresolved():
    base = _metric([1.00, 1.01, 0.99, 1.00])
    assert compare.verdict(base, _metric([1.03, 1.04, 1.02, 1.03]),
                           "lower", 0.08) == "ok"
    assert compare.verdict(base, _metric([1.20, 1.21, 1.19, 1.20]),
                           "lower", 0.08) == "regressed"
    # higher-is-better: a drop is the regression, a rise is not
    assert compare.verdict(base, _metric([0.80, 0.81, 0.79, 0.80]),
                           "higher", 0.08) == "regressed"
    assert compare.verdict(base, _metric([1.20, 1.21, 1.19, 1.20]),
                           "higher", 0.08) == "ok"
    # spread wider than the bound and the runs overlap: cannot tell
    noisy = _metric([0.8, 1.0, 1.2, 1.4])
    assert compare.verdict(base, noisy, "lower", 0.08) == "unresolved"
    # just as noisy, but every new run is worse than every base run
    assert compare.verdict(base, _metric([1.6, 2.0, 2.4, 2.8]),
                           "lower", 0.08) == "regressed"


def _doc(wall, failed_frac=0.0, **flags):
    e2e = {m["name"]: {"value": 1.0, "samples": [1.0], "native": False}
           for m in SPEC["end_to_end"]}
    e2e["wall_s"] = _metric(wall)
    return {"quick": False, "trace": False, **flags,
            "env": {"commit": "c" * 40, "seed": 11, "nproc": 2,
                    "python": "3", "numpy": "1"},
            "workloads": {"micro_bsp_real": {"end_to_end": e2e,
                                            "failed_frac": failed_frac}}}


def test_compare_exit_codes(tmp_path, capsys):
    def run_compare(base, new):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(base))
        b.write_text(json.dumps(new))
        return compare.main([str(a), str(b)])

    same = _doc([2.0, 2.1, 2.05])
    assert run_compare(same, same) == 0
    assert run_compare(same, _doc([3.0, 3.1, 3.05])) == 1
    assert run_compare(same, _doc([2.0, 2.1, 2.05], failed_frac=0.1)) == 1
    assert run_compare(same, _doc([2.0, 2.1, 2.05], quick=True)) == 2
    assert "refusing" in capsys.readouterr().out
    rows = compare.compare(same, same, SPEC)
    assert [r["metric"] for r in rows] == ["wall_s", "failed_frac"]


# -- the names line up -------------------------------------------------------

def test_benchmark_json_names_the_workloads_the_code_runs():
    names = list(run.FULL)
    assert names == list(run.QUICK)
    # the driver gates a subset: the workloads that repeat inside its run
    # window and keep one core busy (README, "Gated workloads")
    gated = [w["name"] for w in SPEC["workloads"]]
    assert gated == [n for n in names if n in gated] and len(gated) >= 2
    for name in names:
        assert workloads.make_workload(name, 11, 11).name == name
    assert SPEC["paths"] == ["benchmarks/e2e"]
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert set(run.BEST_OF_REPS) <= set(e2e)
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    assert all(m["unit"] in ("s", "ms", "1/s", "MiB") for m in e2e.values())


def test_budget_counts_or_runs_out_of_time():
    fixed = workloads.Budget(reps=3)
    assert [fixed.more() for _ in range(5)] == [True] * 3 + [False] * 2
    spent = workloads.Budget(seconds=0.0, min_reps=2)
    assert [spent.more() for _ in range(4)] == [True, True, False, False]


def test_pinned_micro_shapes_equal_the_repo_goldens():
    goldens_path = REPO / "tests" / "goldens" / "signatures.json"
    if not goldens_path.exists():
        pytest.skip("no golden signatures in this checkout")
    goldens = json.loads(goldens_path.read_text())
    expected = json.loads((HERE / "expected.json").read_text())
    assert set(expected) == {"11", "23"}
    for seed, pinned in expected.items():
        assert set(pinned) == set(run.FULL)
        golden = goldens[f"bsp-micro/micro@{seed}"]
        # the golden shape, and the same run through the sharded workload
        # and the process backend
        assert pinned["micro_bsp_real"]["run"] == golden
        assert pinned["micro_sharded_process"]["run"] == golden
