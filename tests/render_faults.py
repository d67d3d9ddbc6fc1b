"""Fault injection for the process pool's spawned workers.

Kept apart from the test module so that a worker, which imports this
module to unpickle the injected stream factory, does not import pytest
and the golden case matrix on its way to its first rank.
"""

import multiprocessing
import os
import signal


class RankFailed(RuntimeError):
    pass


class FailingRngs:
    """An ``RngFactory`` whose stream for one rank of a statistical render
    raises :class:`RankFailed` (``how="raise"``) or SIGKILLs the process
    drawing it (``how="kill"``, in a worker only).  Every other stream is
    the wrapped factory's."""

    def __init__(self, rngs, rank: int, how: str = "raise"):
        self.rngs = rngs
        self.rank = rank
        self.how = how

    def stream(self, name, *keys):
        if keys[:1] == (2,) and keys[-1] == self.rank:
            if self.how == "kill" and multiprocessing.parent_process():
                os.kill(os.getpid(), signal.SIGKILL)
            if self.how == "raise":
                raise RankFailed(f"rank {self.rank}")
        return self.rngs.stream(name, *keys)


class KillingScoring:
    """A scoring scheme whose copy SIGKILLs the worker process that
    unpickles it, so a kernel chunk dies on arrival; the parent's copy is
    the wrapped scheme."""

    def __init__(self, scoring):
        self.scoring = scoring

    def __reduce__(self):
        return _kill_in_worker, (self.scoring,)


def _kill_in_worker(scoring):
    if multiprocessing.parent_process():
        os.kill(os.getpid(), signal.SIGKILL)
    return scoring
