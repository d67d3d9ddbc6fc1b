#!/usr/bin/env python3
"""Static import-hygiene check for ``src/repro``.

Ten classes of violation, all enforced in CI (and mirrored by
``tests/test_import_hygiene.py``):

1. **Import cycles** anywhere in the package — found on the module-level
   import graph built from the AST (function-local imports are ignored;
   deferring an import inside a function is the sanctioned way to break a
   genuine runtime cycle).  The graph has no edge from a submodule to its
   parent package's ``__init__``, although importing ``a.b`` runs
   ``a/__init__.py`` first; a cycle that closes only through such an
   ``__init__`` (``runtime.context`` -> ``engines.report`` -> the
   ``engines`` package -> ``engines.micro`` -> ``runtime.collectives`` ->
   ``runtime.context`` was one) passes this check.  CI catches those by
   importing every module first in a fresh interpreter.

2. **Banned cross-imports** that the engine refactor removed and must not
   creep back:

   * engine implementation modules (``bsp``, ``async_``, ``micro``,
     ``hybrid``) may not import one another — shared math belongs in
     ``engines.common``, shared wiring in ``engines.harness``;
   * ``repro.utils`` is the bottom layer: it may import only itself and
     ``repro.errors``.

3. **Flag-less ``np.unique(x)``** under ``repro/pipeline`` and
   ``repro/engines``.  numpy >= 2.3 routes it through a hash table and
   then sorts anyway — 18-47x slower than sorting outright on the
   mostly-distinct keys of the deduplicated exchange, which made it half
   of a cold request (docs/PERFORMANCE.md "Assignment rendering").  Use
   ``repro.utils.arrays.sorted_unique``.  Calls with ``return_counts`` /
   ``return_inverse`` take numpy's sort path and are fine.

4. *(Retired: the planner runs the engines, so no second copy of the
   model remains to check.  Rules 5-10 keep their numbers.)*

5. **Shards below ``pipeline/``, or a second kernel dispatch site.**  No
   identifier or attribute under ``repro/engines`` or ``repro/runtime``
   may contain ``shard``: only a ``ConcreteWorkload`` reaches the micro
   engines and the executor, a sharded workload reaches the macro
   engines as its ``WorkloadAssignment``, and code that asks how a
   workload is stored is a second data path.  And ``engines/micro.py`` calls ``align_tasks`` exactly
   once — the flush in ``_resolve_alignments``; every other site records
   (docs/PERFORMANCE.md "Kernel dispatch").

6. **A scipy import anywhere under ``repro/``**, module-level or
   function-local.  The runtime depends on numpy alone: scipy once came in
   through the BELLA tail and cost every process ~1 s of import and
   ~60 MiB of RSS (docs/PERFORMANCE.md "Cold start").  Tests may still
   use it as an oracle.

7. **A second task-row renderer.**  Outside ``pipeline/partition.py``
   (where it is defined), ``assign_tasks_balanced`` is called exactly once
   under ``repro/pipeline`` — by ``ConcreteWorkload``, whose one resident
   chunk is the only one ``TaskRowWorkload`` (the renderer of both the
   materialized and the sharded workload) streams greedily — and
   ``pipeline/sharded.py`` defines no ``assignment`` and no
   ``micro_plan`` at all (docs/ARCHITECTURE.md "Sharded workloads").

8. **A hand-rolled LRU.**  ``OrderedDict`` or ``.move_to_end`` anywhere
   under ``repro/`` outside ``utils/cache.py`` (the one thread-safe,
   build-once :class:`~repro.utils.cache.LruCache`) and
   ``pipeline/sharded.py`` (the shard store's spill-on-evict LRU, whose
   eviction writes to disk and frees a memory ledger).  A private LRU was
   how the caches came to need a second, service-wide lock.

9. **A second process pool.**  A ``ProcessPoolExecutor(``,
   ``multiprocessing.Pool(`` or ``get_context(...).Pool(`` call anywhere
   under ``repro/`` but one ``ProcessPoolExecutor(`` in
   ``runtime/pool.py`` whose ``mp_context`` is a literal
   ``get_context("spawn")``.  That module owns the process's one pool,
   which the statistical renderer and the ``process`` backend lease
   (docs/PARALLEL.md "One worker pool per process").  Each other pool is
   a second set of workers nobody counts, and a fork or forkserver pool
   is a fork site: forking from a process that already runs threads is
   the service's fork-safety hazard, and a grid fan-out once forked a
   pool per call and ran 4-12x slower than the serial loop it replaced
   (docs/PLANNER.md "Why grids run serially").

10. **Threads below the service.**  A ``threading.Thread(`` or
    ``ThreadPoolExecutor(`` call anywhere under ``repro/pipeline``,
    ``repro/engines`` or ``repro/runtime``.  The engines, the renderers
    and the executor stay single-threaded: the service's slot threads
    are the only threads that run them.

11. **A public definition only tests reach.**  A public function, class
    or method under ``repro/`` whose name appears in no code under
    ``src/``, ``examples/``, ``benchmarks/`` or ``tools/`` but at its own
    definition (an ``__all__`` entry is not a use).  Code that only its
    own unit test calls is code to delete, with that test.  The
    exceptions are listed in :data:`TEST_ONLY_ALLOWED`, each with its
    reason; an entry the program reaches again, or that no longer
    exists, is reported too.  The check reads names, not types, so a
    method that shares its name with a used one passes.

Usage: ``python tools/check_imports.py [src-root]`` — exits nonzero and
prints one line per violation.  Rules 1-10 read the package under
``src-root``; rule 11 also reads ``examples/``, ``benchmarks/`` and
``tools/`` beside it.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = "repro"

#: engine implementation modules that must stay siblings (no cross-imports)
ENGINE_IMPLS = {
    "repro.engines.bsp",
    "repro.engines.async_",
    "repro.engines.micro",
    "repro.engines.hybrid",
}

#: packages whose hot paths must not call flag-less ``np.unique``
NO_BARE_UNIQUE = ("repro.pipeline", "repro.engines")

#: packages that must not know how a workload is stored
SHARD_BLIND = ("repro.engines", "repro.runtime")

#: the module with the one kernel dispatch site, and the method it calls
DISPATCH_MODULE = "repro.engines.micro"
DISPATCH_METHOD = "align_tasks"

#: top-level packages nothing under ``repro`` may import
BANNED_PACKAGES = ("scipy",)

#: the one task-row renderer: where the greedy stream is defined, the
#: package that calls it once, and the module that inherits the rendering
GREEDY_MODULE = "repro.pipeline.partition"
GREEDY_FUNC = "assign_tasks_balanced"
RENDER_PACKAGE = "repro.pipeline"
STREAMED_MODULE = "repro.pipeline.sharded"
RENDER_METHODS = ("assignment", "micro_plan")

#: the only modules that may keep an LRU of their own, and what marks one
LRU_MODULES = ("repro.utils.cache", "repro.pipeline.sharded")
LRU_NAMES = ("OrderedDict", "move_to_end")

#: the callees that make a process pool, and the one module that may make
#: one spawn-context ``ProcessPoolExecutor``
POOL_CONSTRUCTORS = ("ProcessPoolExecutor", "Pool")
POOL_MODULE = "repro.runtime.pool"

#: packages that start no thread, and the callees that start one
THREAD_PACKAGES = ("repro.pipeline", "repro.engines", "repro.runtime")
THREAD_CONSTRUCTORS = ("Thread", "ThreadPoolExecutor")

#: directories beside ``src`` whose code counts as a use of a definition
USE_DIRS = ("examples", "benchmarks", "tools")

#: public definitions that only tests reach, kept on purpose
TEST_ONLY_ALLOWED = {
    # oracles: tests hold the production path to these
    "repro.align.seedextend.SeedExtendAligner.align_candidate":
        "the scalar kernel the batched one is held to, per candidate",
    "repro.align.seedextend.Alignment.aligned_length_a":
        "how the integration tests score an alignment against the truth",
    "repro.genome.alphabet.is_valid_codes":
        "checks that synthesized sequences stay in the alphabet",
    "repro.kmer.seeds.extract_with_orientation":
        "the per-read extraction the vectorized seed index is held to",
    "repro.runtime.rpc.RpcLayer.served":
        "the per-rank served count the RPC tests read",
    "repro.service.queue.RunQueue.executions":
        "the execution count the coalescing tests read",
    "repro.service.events.JobEventLog.snapshot":
        "how the tests read a job's events without streaming them",
    # http.server calls these by name
    "repro.service.http.ServiceHandler.do_GET": "http.server hook",
    "repro.service.http.ServiceHandler.do_POST": "http.server hook",
    "repro.service.http.ServiceHandler.do_DELETE": "http.server hook",
    # public API of an embedded server
    "repro.service.http.ServiceServer.url":
        "the address an in-process caller of the server sends to",
    # not deleted yet: each goes with its own unit test (ROADMAP item 17)
    "repro.align.cost.AlignmentCostModel.mean_task_cost": "pending deletion",
    "repro.kmer.histogram.owner_of": "pending deletion",
    "repro.kmer.histogram.KmerHistogram.merge": "pending deletion",
    "repro.utils.arrays.bincount_exact": "pending deletion",
    "repro.utils.arrays.segment_max": "pending deletion",
    "repro.utils.arrays.segment_min": "pending deletion",
    "repro.utils.stats.Summary.scaled": "pending deletion",
}


def module_name(path: Path, src_root: Path) -> str:
    rel = path.relative_to(src_root).with_suffix("")
    parts = list(rel.parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def module_level_imports(
    tree: ast.Module, current: str
) -> list[tuple[str, tuple[str, ...]]]:
    """Module-level import statements as ``(module, imported_names)``.

    ``imported_names`` is empty for plain ``import X`` statements.
    """
    out: list[tuple[str, tuple[str, ...]]] = []
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == PACKAGE:
                    out.append((alias.name, ()))
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = current.split(".")
                base = base[: len(base) - node.level + 1]
                mod = ".".join(base + ([node.module] if node.module else []))
            else:
                mod = node.module or ""
            if mod.split(".")[0] == PACKAGE:
                out.append((mod, tuple(a.name for a in node.names)))
    return out


def build_graph(src_root: Path) -> dict[str, set[str]]:
    raw: dict[str, list[tuple[str, tuple[str, ...]]]] = {}
    for path in sorted((src_root / PACKAGE).rglob("*.py")):
        name = module_name(path, src_root)
        tree = ast.parse(path.read_text(), filename=str(path))
        raw[name] = module_level_imports(tree, name)
    known = set(raw)
    graph: dict[str, set[str]] = {}
    for name, statements in raw.items():
        deps: set[str] = set()
        for mod, imported in statements:
            if not imported:
                if mod in known:
                    deps.add(mod)
                continue
            for sym in imported:
                # `from X import name` importing the submodule X.name
                # depends on that submodule, not on package X's __init__
                sub = f"{mod}.{sym}"
                deps.add(sub if sub in known else mod)
        graph[name] = {d for d in deps if d in known and d != name}
    return graph


def find_cycles(graph: dict[str, set[str]]) -> list[list[str]]:
    """All elementary cycles reachable via DFS (reported once each)."""
    cycles: list[list[str]] = []
    seen_cycles: set[tuple[str, ...]] = set()
    WHITE, GREY, BLACK = 0, 1, 2
    color = {m: WHITE for m in graph}
    stack: list[str] = []

    def visit(m: str) -> None:
        color[m] = GREY
        stack.append(m)
        for dep in sorted(graph[m]):
            if color[dep] == GREY:
                cycle = stack[stack.index(dep):] + [dep]
                key = tuple(sorted(set(cycle)))
                if key not in seen_cycles:
                    seen_cycles.add(key)
                    cycles.append(cycle)
            elif color[dep] == WHITE:
                visit(dep)
        stack.pop()
        color[m] = BLACK

    for m in sorted(graph):
        if color[m] == WHITE:
            visit(m)
    return cycles


def banned_imports(graph: dict[str, set[str]]) -> list[str]:
    problems: list[str] = []
    for name, deps in sorted(graph.items()):
        if name in ENGINE_IMPLS:
            for dep in sorted(deps & ENGINE_IMPLS):
                problems.append(
                    f"{name} imports sibling engine {dep}; move shared code "
                    f"into repro.engines.common or repro.engines.harness"
                )
        if name.startswith("repro.utils"):
            for dep in sorted(deps):
                if not (dep.startswith("repro.utils")
                        or dep == "repro.errors"):
                    problems.append(
                        f"{name} imports {dep}; repro.utils is the bottom "
                        f"layer and may only import repro.errors"
                    )
        if not name.startswith("repro.service"):
            for dep in sorted(deps):
                if dep.startswith("repro.service"):
                    problems.append(
                        f"{name} imports {dep}; repro.service is the top "
                        f"layer — only the CLI may reach it, and lazily"
                    )
    return problems


def bare_unique_calls(src_root: Path) -> list[str]:
    """``np.unique(<one argument>)`` calls in the :data:`NO_BARE_UNIQUE` packages."""
    problems: list[str] = []
    for path in sorted((src_root / PACKAGE).rglob("*.py")):
        name = module_name(path, src_root)
        if not name.startswith(NO_BARE_UNIQUE):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "unique"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")
                and len(node.args) == 1
                and not node.keywords
            ):
                problems.append(
                    f"{name}:{node.lineno} calls flag-less np.unique(x), a "
                    f"hash-then-sort cliff on numpy >= 2.3; use "
                    f"repro.utils.arrays.sorted_unique"
                )
    return problems


def _identifiers(tree: ast.Module):
    """``(name, lineno)`` of every identifier-like token in a module:
    names, attributes, parameters, keywords, def/class names, and string
    literals spelled like one (``getattr(w, "name")``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.arg):
            yield node.arg, node.lineno
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, node.value.lineno
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            yield node.name, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value, node.lineno


def dispatch_path_violations(src_root: Path) -> list[str]:
    """``shard`` identifiers in the :data:`SHARD_BLIND` packages, and any
    count but one of :data:`DISPATCH_METHOD` calls in
    :data:`DISPATCH_MODULE`."""
    problems: list[str] = []
    for path in sorted((src_root / PACKAGE).rglob("*.py")):
        name = module_name(path, src_root)
        if not name.startswith(SHARD_BLIND):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for ident, lineno in _identifiers(tree):
            if "shard" in ident.lower():
                problems.append(
                    f"{name}:{lineno} names {ident!r}; engines and the "
                    f"runtime must not know how a workload is stored — "
                    f"sharding ends at repro.pipeline"
                )
        if name == DISPATCH_MODULE:
            calls = sorted(
                node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == DISPATCH_METHOD
            )
            if len(calls) != 1:
                problems.append(
                    f"{name} calls {DISPATCH_METHOD} at lines {calls}; the "
                    f"micro engines record tasks and resolve them in "
                    f"exactly one place"
                )
    return problems


def renderer_violations(src_root: Path) -> list[str]:
    """Any count but one of :data:`GREEDY_FUNC` calls in the
    :data:`RENDER_PACKAGE` outside :data:`GREEDY_MODULE`, and rendering
    methods defined in :data:`STREAMED_MODULE`."""
    problems: list[str] = []
    calls: list[str] = []
    has_greedy = False
    for path in sorted((src_root / PACKAGE).rglob("*.py")):
        name = module_name(path, src_root)
        if not name.startswith(RENDER_PACKAGE):
            continue
        if name == GREEDY_MODULE:
            has_greedy = True
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        calls += [
            f"{name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and GREEDY_FUNC in (getattr(node.func, "id", None),
                                getattr(node.func, "attr", None))
        ]
        if name != STREAMED_MODULE:
            continue
        for fn in ast.walk(tree):
            if (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and fn.name in RENDER_METHODS):
                problems.append(
                    f"{name}:{fn.lineno} defines {fn.name}; the sharded "
                    f"workload inherits task-row rendering from "
                    f"TaskRowWorkload"
                )
    if has_greedy and len(calls) != 1:
        problems.append(
            f"{RENDER_PACKAGE} calls {GREEDY_FUNC} at {calls}; task rows "
            f"are rendered in exactly one place (TaskRowWorkload)"
        )
    return problems


def banned_package_imports(src_root: Path) -> list[str]:
    """Imports of a :data:`BANNED_PACKAGES` package, at any depth."""
    problems: list[str] = []
    for path in sorted((src_root / PACKAGE).rglob("*.py")):
        name = module_name(path, src_root)
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                mods = [node.module or ""]
            else:
                continue
            for mod in mods:
                if mod.split(".")[0] in BANNED_PACKAGES:
                    problems.append(
                        f"{name}:{node.lineno} imports {mod}; the runtime "
                        f"depends on numpy only (docs/PERFORMANCE.md "
                        f"\"Cold start\")"
                    )
    return problems


def hand_rolled_lru(src_root: Path) -> list[str]:
    """:data:`LRU_NAMES` outside the :data:`LRU_MODULES`."""
    problems: list[str] = []
    for path in sorted((src_root / PACKAGE).rglob("*.py")):
        name = module_name(path, src_root)
        if name in LRU_MODULES:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        hits = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                ident = node.id
            elif isinstance(node, ast.Attribute):
                ident = node.attr
            elif isinstance(node, ast.alias):
                ident = node.name.rsplit(".", 1)[-1]
            else:
                continue
            if ident in LRU_NAMES:
                hits.add((node.lineno, ident))
        for lineno, ident in sorted(hits):
            problems.append(
                f"{name}:{lineno} uses {ident}, a hand-rolled LRU; cache "
                f"through repro.utils.cache.LruCache (thread-safe, builds "
                f"each key once)"
            )
    return problems


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", None)


def _calls(src_root: Path, packages: tuple[str, ...],
           callees: tuple[str, ...]):
    """``(module, callee, call)`` per call to one of ``callees`` under
    ``packages``, in source order."""
    hits = []
    for path in sorted((src_root / PACKAGE).rglob("*.py")):
        name = module_name(path, src_root)
        if not name.startswith(packages):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _callee(node) in callees:
                hits.append((name, _callee(node), node))
    return sorted(hits, key=lambda h: (h[0], h[2].lineno, h[2].col_offset))


def _spawn_context(call: ast.Call) -> bool:
    """Whether ``call`` passes ``mp_context=...get_context("spawn")``."""
    return any(
        kw.arg == "mp_context" and isinstance(kw.value, ast.Call)
        and _callee(kw.value) == "get_context" and not kw.value.keywords
        and [getattr(a, "value", None) for a in kw.value.args] == ["spawn"]
        for kw in call.keywords
    )


def pool_constructions(src_root: Path) -> list[str]:
    """:data:`POOL_CONSTRUCTORS` calls, but for one spawn-context
    ``ProcessPoolExecutor`` in :data:`POOL_MODULE`."""
    problems = []
    spawned = False
    for module, callee, call in _calls(src_root, (PACKAGE,),
                                       POOL_CONSTRUCTORS):
        where = f"{module}:{call.lineno} constructs a {callee}"
        if module != POOL_MODULE:
            problems.append(
                f"{where}; the process has one pool, {POOL_MODULE}'s (a "
                f"second pool is a second fork site)")
        elif (callee == "ProcessPoolExecutor" and _spawn_context(call)
                and not spawned):
            spawned = True
        else:
            problems.append(
                f"{where}; {POOL_MODULE} builds one ProcessPoolExecutor, "
                f'with mp_context=multiprocessing.get_context("spawn") (a '
                f"fork or forkserver pool is a fork site)")
    return problems


def thread_starts(src_root: Path) -> list[str]:
    """:data:`THREAD_CONSTRUCTORS` calls in the :data:`THREAD_PACKAGES`."""
    return [
        f"{module}:{call.lineno} constructs a {callee}; below the service "
        f"nothing starts a thread"
        for module, callee, call in _calls(src_root, THREAD_PACKAGES,
                                           THREAD_CONSTRUCTORS)
    ]


def _public_definitions(tree: ast.Module, module: str):
    """``(module, qualified name, name, lineno)`` of the module's public
    functions and classes, and of the public methods of its classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield module, f"{module}.{node.name}", node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if (isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef))
                        and not sub.name.startswith("_")):
                    yield (module, f"{module}.{node.name}.{sub.name}",
                           sub.name, sub.lineno)


def _names_used(tree: ast.Module) -> set[str]:
    """Every name a module uses: names, attributes, keywords, imported
    names and string literals spelled like one (``getattr(w, "name")``),
    but not the strings of ``__all__``."""
    exported = {
        id(const) for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for const in ast.walk(node.value)
    }
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.keyword) and node.arg:
            used.add(node.arg)
        elif isinstance(node, ast.alias):
            used.add(node.name.rsplit(".", 1)[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in exported):
            used.add(node.value)
    return used


def unreached_definitions(src_root: Path,
                          allowed: dict[str, str] | None = None) -> list[str]:
    """Rule 11: public definitions under ``repro/`` whose name no code
    under ``src_root`` or the :data:`USE_DIRS` beside it uses, less the
    ``allowed`` ones (default :data:`TEST_ONLY_ALLOWED`); and ``allowed``
    entries that are not such a definition."""
    allowed = TEST_ONLY_ALLOWED if allowed is None else allowed
    used: set[str] = set()
    definitions = []
    roots = [src_root] + [src_root.parent / d for d in USE_DIRS]
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            used |= _names_used(tree)
            if root == src_root and path.is_relative_to(src_root / PACKAGE):
                definitions += _public_definitions(
                    tree, module_name(path, src_root))
    problems = []
    unreached = set()
    for module, qualified, name, lineno in definitions:
        if name in used:
            continue
        unreached.add(qualified)
        if qualified not in allowed:
            problems.append(
                f"{module}:{lineno} defines {name}, which no code outside "
                f"tests uses; delete it with its tests, or list it in "
                f"TEST_ONLY_ALLOWED with the reason")
    for qualified in sorted(set(allowed) - unreached):
        problems.append(
            f"TEST_ONLY_ALLOWED lists {qualified}, which is not a public "
            f"definition only tests reach; drop the entry")
    return problems


def run(src_root: Path) -> list[str]:
    graph = build_graph(src_root)
    problems = [
        "import cycle: " + " -> ".join(c) for c in find_cycles(graph)
    ]
    problems += banned_imports(graph)
    problems += bare_unique_calls(src_root)
    problems += dispatch_path_violations(src_root)
    problems += banned_package_imports(src_root)
    problems += renderer_violations(src_root)
    problems += hand_rolled_lru(src_root)
    problems += pool_constructions(src_root)
    problems += thread_starts(src_root)
    return problems


def main(argv: list[str]) -> int:
    src_root = Path(argv[1]) if len(argv) > 1 else Path("src")
    problems = run(src_root) + unreached_definitions(src_root)
    for p in problems:
        print(f"error: {p}", file=sys.stderr)
    if not problems:
        graph = build_graph(src_root)
        print(f"import hygiene OK: {len(graph)} modules, no cycles, "
              f"no banned imports, no flag-less np.unique in "
              f"pipeline/engines, "
              f"no shard-aware engine/runtime code, one kernel dispatch "
              f"site, no scipy, one task-row renderer, no hand-rolled LRU, "
              f"one spawned process pool, no thread below the "
              f"service, no public definition only tests reach")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
