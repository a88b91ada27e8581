"""Tracing and statistics helpers for the mplq benchmark.

The tracer wraps functions at the module (or class) attribute their callers
look up, so the program itself is never edited. Each wrapped call records a
span: name, start, end, parent span and operation id. Spans stay in memory
until the run ends; per-layer figures are derived from them afterwards.
"""

from __future__ import annotations

import functools
import math
import time
from collections import Counter
from typing import Callable, Iterable, Optional, Sequence

# One span: [name, start, end, parent index (-1 for a root), operation id].
Span = list


def median(values: Sequence[float]) -> float:
    """Middle value of ``values``; the mean of the two middle values if even."""
    if not values:
        raise ValueError("median of an empty sequence")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, ``q`` in [0, 100] (numpy's default rule)."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must lie in [0, 100], got {q}")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def covered_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length of the union of closed intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (name, start, end, parent, op), kids in zip(spans, children):
        clipped = [(max(lo, start), min(hi, end)) for lo, hi in kids if hi > start and lo < end]
        out.append((end - start) - covered_length(clipped))
    return out


class Tracer:
    """In-memory span and counter store for wrapped calls.

    Nothing is recorded while ``op`` is None, so calls made by the benchmark's
    own output checks do not count towards any operation.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op = None
        self.scope: Optional[str] = None
        self.routes_seen: set = set()
        self._stack: list[int] = []

    def count(self, name: str, n: int = 1) -> None:
        if self.op is not None:
            self.counts[(self.op, name)] += n

    def wrap(self, name: str, fn: Callable,
             on_return: Optional[Callable[[tuple, dict, object], None]] = None,
             scope: bool = False) -> Callable:
        """Span-recording wrapper: returns ``fn``'s result, re-raises its exceptions.

        ``on_return(args, kwargs, result)`` runs after a successful call. A
        ``scope`` span (one solver run) marks where a solve starts, so
        per-solve state such as the set of routes already scheduled resets.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, tracer.clock(), 0.0, parent, tracer.op]
            tracer.spans.append(span)
            tracer._stack.append(idx)
            outer_scope = tracer.scope
            if scope:
                tracer.scope = name
                tracer.routes_seen = set()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = tracer.clock()
                tracer._stack.pop()
                tracer.scope = outer_scope
            tracer.count(name + ".calls")
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    def counter(self, name: str, fn: Callable) -> Callable:
        """Call-counting wrapper with no span, for very hot leaf calls."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def self_time_by_name(self, ops: Iterable) -> Counter:
        """Summed self time per span name over the given operations."""
        wanted = set(ops)
        totals: Counter = Counter()
        for span, own in zip(self.spans, self_times(self.spans)):
            if span[4] in wanted:
                totals[span[0]] += own
        return totals

    def count_total(self, name: str, ops: Iterable) -> int:
        return sum(self.counts[(op, name)] for op in set(ops))


__all__ = ["median", "percentile", "covered_length", "self_times", "Tracer"]
