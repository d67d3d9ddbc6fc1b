"""Decorator-driven engine registry: the extension point of the engine layer.

The paper's method is running *interchangeable* parallelization strategies
over the same fixed inputs (§3), and §5 explicitly anticipates further
variants.  The registry makes "add a strategy" a one-file change: decorate
the engine class with :func:`register_engine` and import the module from
:mod:`repro.engines` — the driver API (``repro.core.api.ENGINES``,
``run_alignment``, ``compare_engines``, ``scaling_sweep``) and the CLI's
``--approach`` choices all derive their engine sets from here, with zero
edits elsewhere.  ``docs/ARCHITECTURE.md`` walks through adding one.

Engines come in two kinds:

* ``macro`` — analytic per-rank phase models consuming a
  :class:`~repro.pipeline.workload.WorkloadAssignment` (scales to 32K
  ranks);
* ``micro`` — message-level SPMD programs consuming a
  :class:`~repro.pipeline.workload.ConcreteWorkload` (validation and real
  alignment output).

Both expose ``run(...) -> RunResult`` and a ``config: EngineConfig`` field;
the driver dispatches on :attr:`EngineInfo.kind`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = [
    "EngineInfo",
    "register_engine",
    "register_cost_hook",
    "get_engine",
    "get_cost_hook",
    "available_engines",
    "engines_with_cost_hooks",
    "create_engine",
]

MACRO = "macro"
MICRO = "micro"

_REGISTRY: dict[str, "EngineInfo"] = {}

#: engine name -> analytic cost predictor (see :func:`register_cost_hook`)
_COST_HOOKS: dict[str, object] = {}


@dataclass(frozen=True)
class EngineInfo:
    """One registered parallelization strategy."""

    name: str
    factory: type
    #: ``"macro"`` (assignment-driven analytic model) or ``"micro"``
    #: (message-level SPMD program over a concrete workload)
    kind: str
    description: str = ""

    @property
    def is_micro(self) -> bool:
        """Whether the engine executes concrete workloads (and so can run
        the real kernel behind a compute backend, docs/PARALLEL.md)."""
        return self.kind == MICRO


def register_engine(name: str, *, kind: str = MACRO, description: str = ""):
    """Class decorator adding an engine to the registry under ``name``.

    Names are unique: re-registering an existing name raises, so a typo'd
    copy-paste cannot silently shadow a built-in engine.
    """
    if kind not in (MACRO, MICRO):
        raise ConfigurationError(
            f"engine kind must be 'macro' or 'micro', got {kind!r}"
        )

    def deco(cls):
        if name in _REGISTRY:
            raise ConfigurationError(
                f"engine {name!r} is already registered "
                f"(by {_REGISTRY[name].factory.__qualname__})"
            )
        _REGISTRY[name] = EngineInfo(
            name=name, factory=cls, kind=kind, description=description
        )
        return cls

    return deco


def register_cost_hook(name: str):
    """Function decorator attaching an analytic cost predictor to engine
    ``name`` (the planner's extension point, mirroring
    :func:`register_engine`).

    A cost hook has the signature ``fn(assignment, machine, config) ->
    dict`` and returns at least ``{"wall": seconds}`` — the engine's
    predicted fault-free, noise-free wall clock on that assignment and
    machine under that :class:`~repro.engines.base.EngineConfig` — plus
    optional ``"peak_memory"`` (bytes) and ``"rounds"`` keys.  It may
    raise :class:`~repro.errors.ConfigurationError` for infeasible
    configurations (e.g. the BSP partition not fitting per-rank memory);
    the planner records such grid points as infeasible instead of
    crashing the plan.

    A hook does not price a phase itself: it calls the phase functions
    in :mod:`repro.engines.common` that the engine's ``run`` charges and
    reads the wall clock off their result, so the prediction is the run's
    own model (``tools/check_imports.py`` rejects a hook that calls a
    ``NetworkModel`` cost method directly).

    Engines without a hook (the micro SPMD engines) are simply not
    rankable analytically: ``repro.perf.planner`` lists them as
    "measure instead" and ``run --engine auto`` falls back to exhaustive
    measurement when no hook-backed plan is feasible.
    """

    def deco(fn):
        if name in _COST_HOOKS:
            raise ConfigurationError(
                f"cost hook for engine {name!r} is already registered "
                f"(by {_COST_HOOKS[name].__qualname__})"
            )
        _COST_HOOKS[name] = fn
        return fn

    return deco


def get_cost_hook(name: str):
    """The cost predictor registered for ``name``, or ``None``.

    ``None`` means the engine cannot be ranked analytically (no
    :func:`register_cost_hook` call) — callers should fall back to
    measuring it.
    """
    return _COST_HOOKS.get(name)


def engines_with_cost_hooks() -> tuple[str, ...]:
    """Registered engine names that have a cost hook (registration order)."""
    return tuple(name for name in _REGISTRY if name in _COST_HOOKS)


def get_engine(name: str) -> EngineInfo:
    """Look up a registered engine, with a helpful error on unknown names."""
    info = _REGISTRY.get(name)
    if info is None:
        raise ConfigurationError(
            f"unknown approach {name!r}; choose from {sorted(_REGISTRY)}"
        )
    return info


def available_engines(kind: str | None = None) -> tuple[str, ...]:
    """Registered engine names (registration order), optionally by kind."""
    return tuple(
        name for name, info in _REGISTRY.items()
        if kind is None or info.kind == kind
    )


def create_engine(name: str, config=None):
    """Instantiate a registered engine with the given config."""
    from repro.engines.base import EngineConfig

    info = get_engine(name)
    return info.factory(config=config if config is not None else EngineConfig())
