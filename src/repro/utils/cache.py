"""A small, counted, thread-safe LRU cache.

Used to bound the memoization that used to grow without limit: the driver
API's workload and machine caches, the per-rank-count
``assignment``/``micro_plan``/partition caches inside the workload
classes, and the job service's result cache.  Entries are cheap to
rebuild, so the caps can stay small; the hit/miss/eviction counters exist
so tests (and ``scaling_sweep``) can *prove* reuse — e.g. that a
three-node-count sweep computes each assignment exactly once.

Thread safety: one lock guards the map and the counters, so the job
service's worker and HTTP threads share these caches directly.
:meth:`LruCache.get_or_create` builds each missing key once: the factory
runs outside the lock, concurrent callers for the same key wait for that
build and count as hits, and a build that raises caches nothing — the
builder sees its own exception and each waiter retries the build itself.
A factory must not ask its own cache for its own key (it would wait on
itself).  Forked worker processes never touch a cache: they receive
rendered arrays, not workloads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.errors import ConfigurationError

__all__ = ["LruCache"]

_MISSING = object()


class _Build:
    """One in-flight :meth:`LruCache.get_or_create` build its waiters join."""

    __slots__ = ("done", "value")

    def __init__(self):
        self.done = threading.Event()
        self.value = _MISSING


class LruCache:
    """Least-recently-used mapping with a fixed capacity and counters.

    ``get`` refreshes recency; inserting beyond ``maxsize`` evicts the
    least recently used entry.  ``hits`` / ``misses`` / ``evictions``
    count since construction or the last :meth:`clear`; every lookup
    counts exactly once.
    """

    def __init__(self, maxsize: int = 8):
        if maxsize < 1:
            raise ConfigurationError("LruCache maxsize must be >= 1")
        self.maxsize = int(maxsize)
        self._data: OrderedDict = OrderedDict()
        self._building: dict = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._data

    def _lookup(self, key):
        """Counted lookup; the caller holds the lock."""
        value = self._data.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
        else:
            self.hits += 1
            self._data.move_to_end(key)
        return value

    def _insert(self, key, value) -> None:
        """Insert and evict down to ``maxsize``; the caller holds the lock."""
        self._data[key] = value
        self._data.move_to_end(key)
        self._evict()

    def _evict(self) -> None:
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions += 1

    def get(self, key, default=None):
        with self._lock:
            value = self._lookup(key)
        return default if value is _MISSING else value

    def put(self, key, value) -> None:
        with self._lock:
            self._insert(key, value)

    def get_or_create(self, key, factory):
        """Cached value for ``key``, building it with ``factory()`` on miss.

        Each missing key is built once; see the module docstring for what
        concurrent callers and a raising factory see.
        """
        while True:
            with self._lock:
                build = self._building.get(key)
                if build is None:
                    value = self._lookup(key)
                    if value is not _MISSING:
                        return value
                    build = self._building[key] = _Build()
                    break
            build.done.wait()
            if build.value is not _MISSING:
                with self._lock:
                    self.hits += 1
                return build.value
            # that build raised: look again, and build here unless another
            # waiter got there first
        try:
            build.value = factory()
        finally:
            with self._lock:
                del self._building[key]
                if build.value is not _MISSING:
                    self._insert(key, build.value)
            build.done.set()
        return build.value

    def resize(self, maxsize: int) -> None:
        """Change capacity, evicting LRU entries if shrinking."""
        if maxsize < 1:
            raise ConfigurationError("LruCache maxsize must be >= 1")
        with self._lock:
            self.maxsize = int(maxsize)
            self._evict()

    def clear(self) -> None:
        """Drop all entries and reset the counters (builds in flight
        still finish and insert)."""
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def stats(self) -> dict:
        with self._lock:
            return {
                "size": len(self._data),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
