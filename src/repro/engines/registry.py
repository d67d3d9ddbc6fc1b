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
    "get_engine",
    "available_engines",
    "create_engine",
]

MACRO = "macro"
MICRO = "micro"

_REGISTRY: dict[str, "EngineInfo"] = {}


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
