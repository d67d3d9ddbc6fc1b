"""In-memory spans recorded from outside the program.

A :class:`Tracer` wraps public callables of ``repro`` (module functions,
methods, classmethods) so each call records a span
``{id, name, start, end, parent, request_id}`` on the host clock
(``time.perf_counter``).  Nothing under ``src/`` is edited: a wrapper
replaces the attribute for the duration of a traced run and
:meth:`Tracer.unwrap_all` puts the original back.  Spans stay in memory
until the run ends.

Self time of a span is its duration minus the part of its interval that
its child spans cover: the union of the child intervals, clipped to the
parent.  Each thread keeps its own parent stack and each service job is
its own root, so in the benchmark's traces siblings never overlap and a
root's duration is exactly its self time plus its descendants' self times.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager

__all__ = ["Tracer", "self_times", "self_time_by_name", "account_roots"]


_INHERITED = object()


class Tracer:
    """Span recorder with a per-thread parent stack."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._wrapped: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request_id: str | None = None):
        """Record one span; nested spans name this one as their parent."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = {
            "id": None, "name": name, "start": 0.0, "end": 0.0,
            "parent": parent["id"] if parent else None,
            "request_id": request_id or (parent["request_id"]
                                         if parent else None),
        }
        with self._lock:
            span["id"] = len(self.spans)
            self.spans.append(span)
        stack.append(span)
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            stack.pop()

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``after(span, args, result)`` may annotate the span (batch sizes,
        counters) once the call returned.  Classmethods are re-wrapped as
        classmethods so ``cls`` still binds.
        """
        if isinstance(owner, type):
            # the attribute may live on a base class (both micro engines
            # inherit ``run``): wrap on ``owner`` only, delete on unwrap
            inherited = attr not in owner.__dict__
            raw = next(k.__dict__[attr] for k in owner.__mro__
                       if attr in k.__dict__)
        else:
            inherited = False
            raw = getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(span, args, result)
                return result

        self._wrapped.append((owner, attr, _INHERITED if inherited else raw))
        setattr(owner, attr, classmethod(wrapper) if is_classmethod
                else wrapper)

    def unwrap_all(self) -> None:
        while self._wrapped:
            owner, attr, raw = self._wrapped.pop()
            if raw is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)


def _covered(span: dict, children: list[dict]) -> float:
    """Length of the union of the children's intervals inside ``span``."""
    intervals = sorted(
        (max(c["start"], span["start"]), min(c["end"], span["end"]))
        for c in children
    )
    covered, reach = 0.0, span["start"]
    for lo, hi in intervals:
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time per span id: duration minus what its children cover."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    return {
        s["id"]: (s["end"] - s["start"]) - _covered(s, children.get(s["id"], []))
        for s in spans
    }


def self_time_by_name(spans: list[dict]) -> dict[str, float]:
    """Summed self time per span name."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + selfs[s["id"]]
    return out


def account_roots(spans: list[dict]) -> list[dict]:
    """Per root span: duration, summed descendant self time, own self time.

    With siblings that do not overlap, every instant of a root lies in
    exactly one span's self time, so ``self_s + descendants_self_s`` must
    equal ``duration_s``; the difference is ``unaccounted_s``, and a traced
    run whose spans do not add up fails.
    """
    selfs = self_times(spans)
    root_of: dict[int, int] = {}
    for s in spans:  # parents are always recorded before their children
        root_of[s["id"]] = (s["id"] if s["parent"] is None
                            else root_of[s["parent"]])
    below: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            below[root_of[s["id"]]] = (below.get(root_of[s["id"]], 0.0)
                                       + selfs[s["id"]])
    out = []
    for s in spans:
        if s["parent"] is None:
            duration = s["end"] - s["start"]
            desc = below.get(s["id"], 0.0)
            out.append({
                "id": s["id"], "name": s["name"],
                "request_id": s["request_id"],
                "duration_s": duration, "self_s": selfs[s["id"]],
                "descendants_self_s": desc,
                "unaccounted_s": duration - selfs[s["id"]] - desc,
            })
    return out
