"""The CI import-hygiene check, run as a test.

Mirrors ``tools/check_imports.py``: the real source tree must have no
module-level import cycles, none of the banned cross-imports (engine
siblings; utils reaching up the stack), no flag-less ``np.unique`` in
the assignment renderers, no cost hook calling a ``NetworkModel`` cost
method directly, no ``shard`` identifier under ``engines/`` or ``runtime/``,
exactly one ``align_tasks`` call in ``engines/micro.py``, no scipy import
anywhere, one task-row renderer under ``pipeline/``, no hand-rolled
LRU outside ``utils/cache.py`` and ``pipeline/sharded.py``, no process
pool built outside ``ProcessExecutor.__init__``, and no thread started
under ``pipeline/``, ``engines/`` or ``runtime/`` outside the statistical
renderer.  The synthetic
cases prove the checker actually detects what it claims to; subprocesses
prove the public entry points load no scipy and that every runtime module
imports first in a fresh interpreter.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_imports  # noqa: E402


def test_source_tree_is_clean():
    problems = check_imports.run(REPO_ROOT / "src")
    assert problems == []


def test_engine_modules_do_not_cross_import():
    graph = check_imports.build_graph(REPO_ROOT / "src")
    for name in check_imports.ENGINE_IMPLS:
        assert name in graph, f"engine module {name} missing from graph"
        crossed = graph[name] & check_imports.ENGINE_IMPLS
        assert not crossed, f"{name} imports sibling engine(s) {crossed}"


def _write_pkg(root: Path, files: dict[str, str]) -> Path:
    for rel, body in files.items():
        path = root / "repro" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(body))
    return root


def test_detects_cycle(tmp_path):
    _write_pkg(tmp_path, {
        "__init__.py": "",
        "a.py": "from repro.b import thing\n",
        "b.py": "from repro.a import other\n",
    })
    problems = check_imports.run(tmp_path)
    assert any("import cycle" in p for p in problems)


def test_function_local_import_breaks_cycle(tmp_path):
    _write_pkg(tmp_path, {
        "__init__.py": "",
        "a.py": "from repro.b import thing\n",
        "b.py": "def f():\n    from repro.a import other\n    return other\n",
    })
    assert check_imports.run(tmp_path) == []


def test_detects_banned_sibling_engine_import(tmp_path):
    _write_pkg(tmp_path, {
        "__init__.py": "",
        "engines/__init__.py": "",
        "engines/bsp.py": "from repro.engines.async_ import x\n",
        "engines/async_.py": "",
    })
    problems = check_imports.run(tmp_path)
    assert any("sibling engine" in p for p in problems)


def test_detects_utils_layering_violation(tmp_path):
    _write_pkg(tmp_path, {
        "__init__.py": "",
        "utils/__init__.py": "",
        "utils/helper.py": "from repro.core.api import run_alignment\n",
        "core/__init__.py": "",
        "core/api.py": "",
    })
    problems = check_imports.run(tmp_path)
    assert any("bottom layer" in p for p in problems)


def test_detects_service_layering_violation(tmp_path):
    # repro.service is the top layer: the library below must not reach it
    _write_pkg(tmp_path, {
        "__init__.py": "",
        "core/__init__.py": "",
        "core/api.py": "from repro.service.queue import RunQueue\n",
        "service/__init__.py": "",
        "service/queue.py": "",
    })
    problems = check_imports.run(tmp_path)
    assert any("top layer" in p for p in problems)


def test_detects_flagless_unique_in_pipeline_and_engines(tmp_path):
    _write_pkg(tmp_path, {
        "__init__.py": "",
        "pipeline/__init__.py": "",
        "pipeline/workload.py": """\
            import numpy as np
            def f(x):
                return np.unique(x[x >= 0])
            """,
        "engines/__init__.py": "",
        "engines/bsp.py": """\
            import numpy
            def g(x):
                counted = numpy.unique(x, return_counts=True)
                return numpy.unique(x), counted
            """,
        # outside the two packages the call is allowed
        "kmer/__init__.py": "",
        "kmer/seeds.py": "import numpy as np\nu = np.unique([1, 1])\n",
    })
    problems = check_imports.run(tmp_path)
    assert len(problems) == 2
    assert all("repro.utils.arrays.sorted_unique" in p for p in problems)
    assert any(p.startswith("repro.pipeline.workload:3 ") for p in problems)
    assert any(p.startswith("repro.engines.bsp:4 ") for p in problems)


def test_detects_shard_awareness_and_extra_dispatch_sites(tmp_path):
    _write_pkg(tmp_path, {
        "__init__.py": "",
        "engines/__init__.py": "",
        "engines/micro.py": """\
            def run(workload, executor, todo):
                \"\"\"Prose may say shard; identifiers may not.\"\"\"
                if getattr(workload, "shard_tasks", 0):
                    return executor.align_tasks(todo[:1])
                return executor.align_tasks(todo)
            """,
        "runtime/__init__.py": "",
        "runtime/executor.py": """\
            class SharedShardStore:
                def __init__(self, workload):
                    self.per_batch = workload.n_shards > 1
            """,
        # the pipeline is where sharding lives
        "pipeline/__init__.py": "",
        "pipeline/sharded.py": "class ShardedWorkload:\n    shard_tasks = 0\n",
    })
    problems = check_imports.run(tmp_path)
    assert len(problems) == 4
    assert any(p.startswith("repro.engines.micro:3 names 'shard_tasks'")
               for p in problems)
    assert any("calls align_tasks at lines [4, 5]" in p for p in problems)
    assert any("'SharedShardStore'" in p for p in problems)
    assert any("'n_shards'" in p for p in problems)


def test_micro_engines_have_one_kernel_dispatch_site(tmp_path):
    _write_pkg(tmp_path, {
        "__init__.py": "",
        "engines/__init__.py": "",
        "engines/micro.py": "def run(executor, todo):\n    return todo\n",
    })
    problems = check_imports.run(tmp_path)
    assert len(problems) == 1 and "calls align_tasks at lines []" in problems[0]


def test_detects_second_task_row_renderer(tmp_path):
    _write_pkg(tmp_path, {
        "__init__.py": "",
        "pipeline/__init__.py": "",
        "pipeline/partition.py": """\
            def assign_tasks_balanced(owner_a, owner_b, num_ranks):
                return assign_tasks_balanced(owner_a, owner_b, num_ranks)
            """,
        "pipeline/workload.py": """\
            from repro.pipeline import partition
            from repro.pipeline.partition import assign_tasks_balanced
            class TaskRowWorkload:
                def micro_plan(self, num_ranks):
                    return assign_tasks_balanced(0, 0, num_ranks)
            """,
        "pipeline/sharded.py": """\
            from repro.pipeline import partition
            from repro.pipeline.workload import TaskRowWorkload
            class ShardedWorkload(TaskRowWorkload):
                def micro_plan(self, num_ranks):
                    \"\"\"Even a guard that defers to the renderer.\"\"\"
                    self._need_backing("a micro plan")
                    return super().micro_plan(num_ranks)
                def assignment(self, num_ranks):
                    return partition.assign_tasks_balanced(1, 1, num_ranks)
            """,
    })
    problems = check_imports.run(tmp_path)
    assert len(problems) == 3
    assert any(p.startswith("repro.pipeline.sharded:4 defines micro_plan")
               for p in problems)
    assert any(p.startswith("repro.pipeline.sharded:8 defines assignment")
               for p in problems)
    assert any("calls assign_tasks_balanced at ['repro.pipeline.sharded:9', "
               "'repro.pipeline.workload:5']" in p for p in problems)


def test_one_task_row_renderer_needs_its_greedy_call(tmp_path):
    _write_pkg(tmp_path, {
        "__init__.py": "",
        "pipeline/__init__.py": "",
        "pipeline/partition.py": "def assign_tasks_balanced(a, b, p):\n"
                                 "    return a\n",
        "pipeline/workload.py": "class TaskRowWorkload:\n    pass\n",
    })
    problems = check_imports.run(tmp_path)
    assert len(problems) == 1
    assert "calls assign_tasks_balanced at []" in problems[0]


def test_detects_hand_rolled_lru(tmp_path):
    _write_pkg(tmp_path, {
        "__init__.py": "",
        "utils/__init__.py": "",
        "utils/cache.py": """\
            from collections import OrderedDict
            class LruCache:
                def get(self, key):
                    self._data.move_to_end(key)
            """,
        "pipeline/__init__.py": "",
        "pipeline/sharded.py": """\
            import collections
            resident = collections.OrderedDict()
            resident.move_to_end(1)
            """,
        "service/__init__.py": "",
        "service/cache.py": """\
            import collections
            from collections import OrderedDict as _OD
            class ResultCache:
                def __init__(self):
                    self._data = collections.OrderedDict()
                def get(self, key):
                    self._data.move_to_end(key)
            """,
    })
    problems = check_imports.run(tmp_path)
    assert len(problems) == 3, problems
    assert problems[0].startswith("repro.service.cache:2 uses OrderedDict")
    assert problems[1].startswith("repro.service.cache:5 uses OrderedDict")
    assert problems[2].startswith("repro.service.cache:7 uses move_to_end")


def test_detects_second_process_pool(tmp_path):
    _write_pkg(tmp_path, {
        "__init__.py": "",
        "runtime/__init__.py": "",
        "runtime/executor.py": """\
            from concurrent.futures import ProcessPoolExecutor
            class ProcessExecutor:
                def __init__(self, workers):
                    self._pool = ProcessPoolExecutor(max_workers=workers)
            def fanout_map(fn, payloads, workers):
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    return list(pool.map(fn, payloads))
            """,
        "core/__init__.py": "",
        "core/api.py": """\
            import multiprocessing
            def grid(fn, points):
                with multiprocessing.Pool(2) as pool:
                    pool.map(fn, points)
                ctx = multiprocessing.get_context("fork")
                ctx.Pool(2)
                multiprocessing.get_context("spawn").Pool(2)
                return ChurnPool(points)
            """,
    })
    problems = check_imports.run(tmp_path)
    assert len(problems) == 4, problems
    assert problems[0].startswith("repro.core.api:3 constructs a Pool")
    assert problems[1].startswith("repro.core.api:6 constructs a Pool")
    assert problems[2].startswith("repro.core.api:7 constructs a Pool")
    assert problems[3].startswith(
        "repro.runtime.executor:6 constructs a ProcessPoolExecutor")


def test_detects_threads_outside_the_statistical_renderer(tmp_path):
    _write_pkg(tmp_path, {
        "__init__.py": "",
        "pipeline/__init__.py": "",
        "pipeline/workload.py": """\
            from concurrent.futures import ThreadPoolExecutor
            class StatisticalWorkload:
                def _render_assignment(self, num_ranks):
                    with ThreadPoolExecutor(1) as pool:
                        pool.submit(print)
                def assignment(self, num_ranks):
                    with ThreadPoolExecutor(2) as pool:
                        pool.submit(print)
            """,
        "engines/__init__.py": "",
        "engines/bsp.py": """\
            import threading
            def run(fn):
                threading.Thread(target=fn).start()
                return threading.Lock()
            """,
        "runtime/__init__.py": "",
        "runtime/executor.py": """\
            from threading import Thread
            def spin(fn):
                Thread(target=fn).start()
            """,
        "service/__init__.py": "",
        "service/queue.py": """\
            import threading
            def workers(fn):
                threading.Thread(target=fn).start()
            """,
    })
    problems = check_imports.run(tmp_path)
    assert len(problems) == 3, problems
    assert problems[0].startswith("repro.engines.bsp:3 constructs a Thread")
    assert problems[1].startswith(
        "repro.pipeline.workload:7 constructs a ThreadPoolExecutor")
    assert problems[2].startswith(
        "repro.runtime.executor:3 constructs a Thread")


def test_cli_reaches_service_only_lazily():
    graph = check_imports.build_graph(REPO_ROOT / "src")
    service_deps = {d for d in graph["repro.cli"]
                    if d.startswith("repro.service")}
    assert not service_deps, (
        "repro.cli must import repro.service inside the serve command, "
        f"not at module level: {service_deps}"
    )


def test_detects_scipy_imports_at_any_depth(tmp_path):
    _write_pkg(tmp_path, {
        "__init__.py": "",
        "kmer/__init__.py": "",
        "kmer/bella.py": """\
            import numpy as np
            import scipy.special as sp
            def sf(m, d, p):
                from scipy import stats
                return stats.binom.sf(m, d, p)
            """,
        # a relative import of a local module named scipy is not the package
        "kmer/local.py": "from .scipy import x\n",
    })
    problems = check_imports.run(tmp_path)
    assert len(problems) == 2
    assert any(p.startswith("repro.kmer.bella:2 imports scipy.special")
               for p in problems)
    assert any(p.startswith("repro.kmer.bella:4 imports scipy")
               for p in problems)


def test_entry_points_load_no_scipy():
    code = ("import sys\n"
            "import repro.core.api, repro.cli, repro.service.http\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.split('.')[0] == 'scipy'))\n")
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("module", [
    "repro.runtime",
    "repro.runtime.collectives",
    "repro.runtime.context",
    "repro.runtime.executor",
    "repro.runtime.queues",
    "repro.runtime.rpc",
])
def test_runtime_module_imports_first(module):
    """Each runtime module loads as the first ``repro`` import of a fresh
    interpreter.  The context once reached the engines package for its
    phase timers, and the engines package imports the runtime back — a
    cycle through a parent ``__init__`` the static graph cannot see."""
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", f"import {module}"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
