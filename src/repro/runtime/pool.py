"""The process's one worker pool, leased by every parallel caller.

The statistical renderer (rank chunks) and the ``process`` compute
backend (kernel chunks) both submit here, to one ``ProcessPoolExecutor``
with a worker per usable CPU.  It uses ``spawn``: a worker starts from a
fresh interpreter and inherits no lock another thread held (the service
runs jobs on slot threads beside its HTTP server).  Workers start on
demand; the next :func:`submit` after a worker died builds a new pool;
:func:`shutdown` runs at interpreter exit and when ``serve`` stops.
Tasks carry their own state, so no initializer ties the pool to one
caller.  A spawned worker imports the caller's main module, which must
keep its top-level code under ``if __name__ == "__main__":``.
"""

from __future__ import annotations

import atexit
import os
import threading

__all__ = ["usable_cpus", "submit", "shutdown"]

_lock = threading.Lock()
_pool = None


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask, where known)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def submit(fn, *args):
    """Queue ``fn(*args)`` on the process's pool; returns its future.

    Starts the pool on first use, and starts a new one when the current
    pool is broken, so a task submitted after a worker died runs.  Tasks
    already queued on the broken pool fail with its
    :class:`~concurrent.futures.process.BrokenProcessPool`.
    """
    global _pool
    # imported here: a process that never fans out never loads them
    import multiprocessing
    from concurrent.futures.process import BrokenProcessPool, \
        ProcessPoolExecutor

    with _lock:
        if _pool is not None:
            try:
                return _pool.submit(fn, *args)
            except BrokenProcessPool:
                _pool.shutdown(wait=False)
        _pool = ProcessPoolExecutor(
            usable_cpus(), mp_context=multiprocessing.get_context("spawn"))
        return _pool.submit(fn, *args)


def shutdown() -> None:
    """Stop the pool and join its workers; the next submit starts anew."""
    global _pool
    with _lock:
        pool, _pool = _pool, None
    if pool is not None:
        pool.shutdown(wait=True)


atexit.register(shutdown)
