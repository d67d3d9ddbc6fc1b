"""Registry coverage: every registered engine runs, conserves, and is
reachable from the CLI; config validation; workload-cache accounting."""

import sys
import threading
import time

import pytest

import repro.core.api as api
from repro.cli import build_parser
from repro.core.api import (
    ENGINES,
    clear_workload_cache,
    get_workload,
    run_alignment,
    scaling_sweep,
    set_workload_cache_cap,
    workload_cache_stats,
)
from repro.engines import (
    AsyncEngine,
    BSPEngine,
    EngineConfig,
    HybridEngine,
    MicroAsyncEngine,
    MicroBSPEngine,
)
from repro.engines.registry import (
    MACRO,
    MICRO,
    available_engines,
    create_engine,
    get_engine,
    register_engine,
)
from repro.errors import ConfigurationError
from repro.faults import parse_fault_spec
from repro.machine.config import cori_knl
from repro.obs import MetricsRegistry, assert_conserved, check_breakdown
from repro.utils.cache import LruCache

ALL_ENGINES = ("bsp", "async", "bsp-micro", "async-micro", "hybrid")


# -- registry contents ------------------------------------------------------

def test_registration_order_and_kinds():
    assert available_engines() == ALL_ENGINES
    assert available_engines(kind=MACRO) == ("bsp", "async", "hybrid")
    assert available_engines(kind=MICRO) == ("bsp-micro", "async-micro")
    assert get_engine("bsp").factory is BSPEngine
    assert get_engine("async").factory is AsyncEngine
    assert get_engine("hybrid").factory is HybridEngine
    assert get_engine("bsp-micro").factory is MicroBSPEngine
    assert get_engine("async-micro").factory is MicroAsyncEngine


def test_engines_view_tracks_registry():
    assert set(ENGINES) == set(ALL_ENGINES)
    assert len(ENGINES) == len(ALL_ENGINES)
    assert ENGINES["hybrid"] is HybridEngine
    with pytest.raises(KeyError):
        ENGINES["mpi"]


def test_unknown_name_clean_error():
    with pytest.raises(ConfigurationError, match="unknown approach 'mpi'"):
        get_engine("mpi")
    with pytest.raises(ConfigurationError, match="choose from"):
        create_engine("upc")
    wl = get_workload("micro", seed=0)
    with pytest.raises(ConfigurationError, match="unknown approach"):
        run_alignment(wl, 1, approach="openmp", cores_per_node=4)


def test_duplicate_registration_raises():
    with pytest.raises(ConfigurationError, match="already registered"):
        @register_engine("bsp")
        class Impostor:
            pass


def test_bad_kind_raises():
    with pytest.raises(ConfigurationError, match="kind"):
        register_engine("novel", kind="quantum")


def test_create_engine_passes_config():
    cfg = EngineConfig(seed=42)
    eng = create_engine("hybrid", cfg)
    assert isinstance(eng, HybridEngine)
    assert eng.config.seed == 42
    assert isinstance(create_engine("bsp").config, EngineConfig)


# -- every engine runs a tiny workload, conserved, same task count ----------

@pytest.mark.parametrize("name", ALL_ENGINES)
def test_every_engine_runs_and_conserves(name):
    wl = get_workload("micro", seed=0)
    machine = cori_knl(2, app_cores_per_node=4)
    metrics = MetricsRegistry(machine.total_ranks)
    res = run_alignment(wl, nodes=2, approach=name, cores_per_node=4,
                        metrics=metrics)
    assert res.wall_time > 0
    assert_conserved(check_breakdown(res.breakdown))
    # identical inputs: every strategy processes exactly the same tasks
    assert int(metrics.get("tasks").sum()) == wl.n_tasks


@pytest.mark.parametrize("name", ALL_ENGINES)
def test_every_engine_in_cli_choices(name):
    args = build_parser().parse_args(
        ["run", "--workload", "micro", "--approach", name]
    )
    assert args.approach == name


def test_cli_engine_alias_and_rejection():
    args = build_parser().parse_args(["run", "--engine", "hybrid"])
    assert args.approach == "hybrid"
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--approach", "mpi"])


# -- EngineConfig validation -------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    {"noise_fraction": -0.01},
    {"hybrid_aggregation": 0},
    {"hybrid_aggregation": -4},
    # types: a float where an int belongs used to run the model at the
    # float while reporting the int; a string seed failed only at run time
    {"hybrid_aggregation": 2.5},
    {"async_window": 8.0},
    {"seed": "abc"},
    {"seed": 1.5},
    {"seed": -1},
    {"workers": True},
    {"async_aggregation": None},
    {"noise_fraction": True},
    {"noise_fraction": "0.01"},
    {"noise_fraction": float("nan")},
    {"exchange_memory_fraction": "0.4"},
    {"mode": "comm_only"},
])
def test_config_validation_rejects(kwargs):
    with pytest.raises(ConfigurationError):
        EngineConfig(**kwargs)


def test_config_validation_accepts_boundaries():
    EngineConfig(noise_fraction=0.0, hybrid_aggregation=1)


def test_config_stores_real_fields_as_float():
    """``0`` and ``0.0`` are one configuration, so one cache key."""
    cfg = EngineConfig(noise_fraction=0, exchange_memory_fraction=1)
    assert type(cfg.noise_fraction) is float
    assert type(cfg.exchange_memory_fraction) is float
    assert cfg == EngineConfig(noise_fraction=0.0,
                               exchange_memory_fraction=1.0)


# -- LRU cache + sweep reuse -------------------------------------------------

def test_lru_cache_semantics():
    c = LruCache(maxsize=2)
    c.put("a", 1)
    c.put("b", 2)
    assert c.get("a") == 1            # refreshes 'a'
    c.put("c", 3)                     # evicts 'b' (LRU)
    assert c.get("b") is None
    assert c.get("a") == 1 and c.get("c") == 3
    assert c.stats() == {"size": 2, "maxsize": 2, "hits": 3, "misses": 1,
                         "evictions": 1}
    c.resize(1)
    assert len(c) == 1 and c.evictions == 2
    c.clear()
    assert c.stats()["hits"] == 0 and len(c) == 0
    with pytest.raises(ConfigurationError):
        LruCache(maxsize=0)


def _run_threads(target, n: int, timeout: float = 30.0) -> None:
    threads = [threading.Thread(target=target, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
    assert not any(t.is_alive() for t in threads), "a thread hung"


def test_lru_cache_thread_hammer():
    """get/put/get_or_create from 4 threads at a 1 µs switch interval: no
    KeyError from an eviction between lookup and refresh, and no lost
    counter update — every lookup counts once."""
    c = LruCache(maxsize=4)
    n_threads, rounds = 4, 5_000
    errors = []

    def hammer(tid):
        try:
            for i in range(rounds):
                key = (tid + i) % 7
                c.get(key)
                c.put(key, i)
                c.get_or_create((key + 3) % 7, lambda: i)
        except Exception as exc:  # pragma: no cover - the failure mode
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _run_threads(hammer, n_threads)
    finally:
        sys.setswitchinterval(old)
    assert errors == []
    stats = c.stats()
    assert stats["hits"] + stats["misses"] == n_threads * rounds * 2
    assert stats["size"] == 4


def test_get_or_create_failed_build_caches_nothing_and_waiter_retries():
    c = LruCache(maxsize=4)

    def boom():
        raise RuntimeError("no value")

    with pytest.raises(RuntimeError, match="no value"):
        c.get_or_create("x", boom)
    assert "x" not in c and c.stats()["misses"] == 1

    c.clear()
    started, release, waiting = (threading.Event() for _ in range(3))
    calls, results = [], {}

    def factory():
        calls.append(threading.current_thread().name)
        if len(calls) == 1:
            started.set()
            release.wait(5)
            raise RuntimeError("first build fails")
        return "built"

    def first():
        with pytest.raises(RuntimeError, match="first build fails"):
            c.get_or_create("k", factory)
        results["first"] = "raised"

    def waiter():
        results["waiter"] = c.get_or_create("k", factory)

    t1 = threading.Thread(target=first, name="builder")
    t1.start()
    assert started.wait(5)
    # let the waiter announce that it is blocked on the in-flight build
    build = c._building["k"]
    wait = build.done.wait
    build.done.wait = lambda timeout=None: waiting.set() or wait(timeout)
    t2 = threading.Thread(target=waiter, name="waiter")
    t2.start()
    assert waiting.wait(5)
    release.set()
    for t in (t1, t2):
        t.join(5)
        assert not t.is_alive()
    assert results == {"first": "raised", "waiter": "built"}
    assert calls == ["builder", "waiter"]  # the waiter rebuilt it itself
    assert c.get("k") == "built"
    assert c.stats()["misses"] == 2 and c.stats()["hits"] == 1


def test_get_workload_builds_a_cold_key_once(monkeypatch):
    """4 threads asking for one cold workload: one build, one object, and
    the three that waited count as hits."""
    real, builds = api.synthesize_dataset, []

    def counted(spec, seed=0):
        builds.append(seed)
        time.sleep(0.2)  # hold the build open while the others arrive
        return real(spec, seed=seed)

    monkeypatch.setattr(api, "synthesize_dataset", counted)
    clear_workload_cache()
    gate, got = threading.Barrier(4, timeout=5), [None] * 4

    def fetch(i):
        gate.wait()
        got[i] = get_workload("micro", seed=9_001)

    try:
        _run_threads(fetch, 4)
        stats = workload_cache_stats()
    finally:
        clear_workload_cache()
    assert builds == [9_001]
    assert all(wl is got[0] for wl in got) and got[0] is not None
    assert stats["misses"] == 1 and stats["hits"] == 3


def test_workload_cache_bounded_and_counted():
    clear_workload_cache()
    set_workload_cache_cap(2)
    try:
        get_workload("micro", seed=0)
        get_workload("micro", seed=0)      # hit
        get_workload("micro", seed=1)
        get_workload("micro", seed=2)      # evicts seed=0
        stats = workload_cache_stats()
        assert stats["maxsize"] == 2
        assert stats["size"] == 2
        assert stats["hits"] == 1
        assert stats["evictions"] == 1
    finally:
        clear_workload_cache()
        set_workload_cache_cap(8)


def test_sweep_computes_each_assignment_once():
    wl = get_workload("ecoli30x", seed=0)
    wl.assignment_cache.clear()
    node_counts = [1, 2, 4]
    metrics: dict = {}
    plan = parse_fault_spec("drop=0.01,xchg_drop=0.1")
    out = scaling_sweep(wl, node_counts, cores_per_node=4,
                        metrics=metrics, fault_plan=plan, fault_seed=1)
    approaches = available_engines(kind=MACRO)
    assert set(out) == set(approaches)
    stats = wl.assignment_cache.stats()
    # one render per node count; every other approach reuses it
    assert stats["misses"] == len(node_counts)
    assert stats["hits"] == len(node_counts) * (len(approaches) - 1)
    # the caller-supplied dict got one correctly sized registry per size
    assert set(metrics) == set(node_counts)
    for nodes, reg in metrics.items():
        assert reg.num_ranks == nodes * 4
        assert reg.get("tasks").sum() > 0


def test_sweep_rejects_unknown_approach_before_running():
    wl = get_workload("micro", seed=0)
    with pytest.raises(ConfigurationError, match="unknown approach"):
        scaling_sweep(wl, [1], approaches=("bsp", "nope"), cores_per_node=4)
