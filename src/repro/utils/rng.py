"""Deterministic random-number stream management.

Every stochastic component of the library draws from a stream derived from a
single root seed via :class:`numpy.random.SeedSequence` spawning, so that

* the whole reproduction is bit-reproducible from one seed, and
* independent components (genome synthesis, error model, per-block task
  attributes, OS-noise model...) never share a stream, which keeps results
  stable when one component changes how many numbers it draws.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

__all__ = ["RngFactory", "spawn_rng"]


def spawn_rng(seed: int | np.random.SeedSequence, *key: int) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for a namespaced child stream.

    ``key`` is a tuple of integers identifying the consumer (for example
    ``(BLOCK_DOMAIN, block_id)``).  The same ``(seed, key)`` always yields the
    same stream, independent of any other stream the program creates.
    """
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    else:
        root = np.random.SeedSequence(seed)
    child = np.random.SeedSequence(
        entropy=root.entropy,
        spawn_key=tuple(root.spawn_key) + tuple(int(k) for k in key),
    )
    return np.random.Generator(np.random.PCG64(child))


class RngFactory:
    """Factory handing out independent named random streams from one seed.

    Examples
    --------
    >>> f = RngFactory(1234)
    >>> g1 = f.stream("genome")
    >>> g2 = f.stream("errors", 7)
    >>> f2 = RngFactory(1234)
    >>> bool(np.all(f2.stream("genome").integers(0, 100, 5)
    ...             == g1.integers(0, 100, 5)))
    True
    """

    #: stable mapping from well-known stream names to integer domains
    _DOMAINS = {
        "genome": 1,
        "read-sampler": 2,
        "error-model": 3,
        "workload-block": 4,
        "noise": 5,
        "partition": 6,
        "network": 7,
        "misc": 8,
    }

    def __init__(self, seed: int):
        self.seed = int(seed)

    @cached_property
    def _root(self) -> np.random.SeedSequence:
        # built on the first draw: a noise-isolated engine run makes a
        # factory and never draws from it
        return np.random.SeedSequence(self.seed)

    def stream(self, name: str, *subkeys: int) -> np.random.Generator:
        """Return the generator for stream ``name`` (+ optional subkeys).

        Unknown names are hashed into a stable integer domain so user code can
        introduce new streams without registering them.
        """
        domain = self._DOMAINS.get(name)
        if domain is None:
            # Stable, platform-independent 31-bit hash of the name.
            domain = 1000 + (sum((i + 1) * ord(c) for i, c in enumerate(name)) % (2**31 - 1000))
        return spawn_rng(self._root, domain, *subkeys)

    def child(self, *key: int) -> "RngFactory":
        """Return a factory whose streams are all namespaced under ``key``."""
        sub = RngFactory(self.seed)
        sub._root = np.random.SeedSequence(
            entropy=self._root.entropy,
            spawn_key=tuple(self._root.spawn_key) + tuple(int(k) for k in key),
        )
        return sub

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngFactory(seed={self.seed})"
