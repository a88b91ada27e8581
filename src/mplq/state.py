"""Candidate-solution encoding, solver budget and the draws both solvers make.

A solution is a pair of tuples of Python ints over the task pool: ``x1[t]``
names the locker that executes task ``t`` and ``x2`` is the global
execution-priority permutation of task ids. Both solvers and the exact oracle
search over this encoding, so their rewards are directly comparable. A
solver's state cache (``hqm.Evaluator``) keys a state on ``x1 + x2`` packed
into one ``bytes``, one byte per id up to 256 tasks and four above, so it
keeps neither tuple alive: about 135 bytes an entry on a 19-task pool.

Every draw of a solve is made here: ``random_state`` sets up a state on a
numpy ``Generator``, and the ``Stream`` that takes the generator over makes
every later draw of HQM and the GA, reading ``roulette_cdf`` sums and
``PickTable`` rows.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import ClassVar, Iterable, Optional, Sequence

import numpy as np

from .errors import ConfigurationError, ShapeError

# The largest budget a solve accepts: 100 times the paper profile's agents and
# iterations. A larger count would exhaust memory or run for days.
MAX_AGENTS = 10_000
MAX_ITERATIONS = 100_000


@dataclass(frozen=True)
class BudgetProfile:
    """Solver effort: agents doubles as GA population, iterations as generations."""

    agents: int
    iterations: int
    # The named profiles, each as (agents, iterations): the names --budget takes.
    NAMED: ClassVar[dict[str, tuple[int, int]]] = {"desk": (20, 200), "paper": (100, 1000)}

    def __post_init__(self) -> None:
        if self.agents < 1 or self.iterations < 1:
            raise ConfigurationError(f"budget agents and iterations must be >= 1: {self}")
        if self.agents > MAX_AGENTS or self.iterations > MAX_ITERATIONS:
            raise ConfigurationError(f"budget agents and iterations must be at most "
                                     f"{MAX_AGENTS} and {MAX_ITERATIONS}: {self}")

    @classmethod
    def desk(cls) -> "BudgetProfile":
        return cls.named("desk")

    @classmethod
    def paper(cls) -> "BudgetProfile":
        return cls.named("paper")

    @classmethod
    def named(cls, name: str) -> "BudgetProfile":
        """The profile ``name`` names in any case."""
        try:
            return cls(*cls.NAMED[name.lower()])
        except KeyError:
            raise ConfigurationError(f"unknown budget profile {name!r}; expected "
                                     + " or ".join(cls.NAMED)) from None


@dataclass
class SearchState:
    x1: tuple[int, ...]
    x2: tuple[int, ...]
    reward: Optional[float] = field(default=None, compare=False)


def effective_locker_count(max_lockers: int, num_tasks: int) -> int:
    """Lockers worth distinguishing, and so the range of x1: never more than one per task."""
    return max(1, min(max_lockers, num_tasks))


def validate_state(state: SearchState, num_tasks: int, max_lockers: int) -> None:
    """Raise ShapeError unless ``state`` is a well-formed point of the search space."""
    x1, x2 = state.x1, state.x2
    if len(x1) != num_tasks or len(x2) != num_tasks:
        raise ShapeError(
            f"state vectors must both have length {num_tasks}, "
            f"got x1 of {len(x1)} and x2 of {len(x2)}"
        )
    if num_tasks == 0:
        return
    if min(x1) < 0 or max(x1) >= max_lockers:
        raise ShapeError(f"x1 references lockers outside 0..{max_lockers - 1}")
    if sorted(x2) != list(range(num_tasks)):
        raise ShapeError("x2 is not a permutation of the task ids")


def random_state(rng, num_tasks: int, lockers: int) -> SearchState:
    """A numpy ``Generator``'s ``integers(0, lockers, size=num_tasks)``, then ``permutation(num_tasks)``.

    The one set-up draw of an initial state, for HQM's agents and the GA's population alike.
    """
    return SearchState(x1=tuple(rng.integers(0, lockers, size=num_tasks).tolist()),
                       x2=tuple(rng.permutation(num_tasks).tolist()))


def roulette_cdf(scores: Iterable[float]) -> list[float]:
    """The running sums of ``scores``: the roulette's CDF, unnormalized.

    Like ``Generator.choice``, a non-finite total raises ``ValueError``.
    """
    sums = list(accumulate(scores))
    if not math.isfinite(sums[-1]):
        raise ValueError(f"scores sum to {sums[-1]}, not a finite number")
    return sums


BLOCK = 64  # raw outputs a Stream pulls from its bit generator at a time


class Stream:
    """A default ``Generator``'s draws on Python ints, bit for bit, with no numpy call per draw.

    ``Stream(rng)`` takes over a PCG64 ``Generator`` once its set-up draws are
    done; ``rng`` must draw nothing after that. It reads the bit generator's
    buffered 32-bit half once, then pulls raw 64-bit outputs ``BLOCK`` at a
    time with ``random_raw`` (O'Neill, 2014) and serves each draw with the
    operations numpy uses for the same call on ``rng``:

    - ``random()``: the top 53 bits of one output, times 2**-53.
    - ``integers(high)``: Lemire's (2019) bounded draw on 32-bit words, each
      output split low half first, the high half kept for the next word;
      ``high`` = 1 draws nothing.
    - ``uniform(low, high)``: ``low + (high - low) * random()``.
    - ``chain(table, row, n)``: n epsilon-greedy picks over a ``PickTable``,
      each from the row the one before it picked: a ``random()`` threshold,
      then ``random() < threshold`` takes the row's first (for a ``distinct``
      table, first unused) id by score, else a roulette pick over the row's
      (unused) ids.
    - ``breed(cdf, x1s, crossover_prob, rate, high, cut=False)``: one GA
      child's draws: two roulette picks, a ``random()`` crossover decision,
      if crossed one ``integers(2)`` per gene as ``integers(0, 2, size=n)``
      (read from whole outputs) and with ``cut`` a ``two_of(n + 1)``, then a
      ``random()`` per gene, each below ``rate`` followed by its
      ``integers(high)``.
    - ``two_of(m)``: ``choice(m, size=2, replace=False)``, Floyd's algorithm
      followed by a shuffle of the pair.

    A roulette pick over running sums ``cdf`` (``roulette_cdf``) draws one
    ``random()`` ``u`` and takes the first sum above ``u`` times the total, or
    the last nonzero score should that product round up to the total; a
    total of at most 0 draws one ``integers(len(cdf))`` instead.
    """

    __slots__ = ("_pull", "_raw", "_half")

    def __init__(self, rng: np.random.Generator):
        bitgen = rng.bit_generator
        if not isinstance(bitgen, np.random.PCG64):
            raise TypeError(f"a Stream reproduces PCG64 only, not {type(bitgen).__name__}")
        state = bitgen.state
        self._pull = bitgen.random_raw
        self._raw: list[int] = []  # the pulled block, next output last; one list for life
        self._half = state["uinteger"] if state["has_uint32"] else None

    def _refill(self) -> list[int]:  # fills the empty _raw in place and returns it
        raw = self._raw
        raw += self._pull(BLOCK).tolist()
        raw.reverse()
        return raw

    def _uint32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        raw = self._raw or self._refill()
        out = raw.pop()
        self._half = out >> 32
        return out & 0xFFFFFFFF

    def random(self) -> float:
        raw = self._raw or self._refill()
        return (raw.pop() >> 11) * 2 ** -53

    def chain(self, table: PickTable, row: int, n: int) -> list[int]:
        """``n`` chained epsilon-greedy picks over ``table``'s rows, the first from ``row``.

        Each pick draws a ``random()`` threshold, then a ``random()`` decision
        (two doubles compare as their top 53 bits do, so it compares those).
        Below the threshold it takes the row's first argmax, else the roulette
        pick of the row's running sums, read inline; the next pick draws from
        the row this one picked. Over a ``distinct`` table it skips picked ids:
        the greedy branch takes the first unused id of the row's order, and the
        roulette sums the unused ids' scores in ascending id order.
        """
        out = []
        raw = self._raw
        distinct = table.distinct
        if distinct:
            rows, orders = table.rows, table.orders
            unused = list(range(table.width))  # ascending ids
            fresh = [True] * table.width
        else:
            argmax, cdfs = table.argmax, table.cdfs
        for _ in range(n):
            if not raw:
                self._refill()
            threshold = raw.pop() >> 11
            if not raw:
                self._refill()
            if raw.pop() >> 11 < threshold:
                if distinct:
                    for row in orders[row]:  # stops at the first unused id
                        if fresh[row]:
                            break
                    unused.remove(row)
                else:
                    row = argmax[row]
            else:
                cdf = roulette_cdf(map(rows[row].__getitem__, unused)) if distinct else cdfs[row]
                total = cdf[-1]
                if total <= 0.0:
                    k = self.integers(len(cdf))
                else:
                    if not raw:
                        self._refill()
                    k = bisect_right(cdf, (raw.pop() >> 11) * 2 ** -53 * total)
                    if k == len(cdf):
                        k = bisect_left(cdf, total)
                row = unused.pop(k) if distinct else k
            if distinct:
                fresh[row] = False
            out.append(row)
        return out

    def breed(self, cdf: list[float], x1s: Sequence[tuple[int, ...]], crossover_prob: float,
              rate: float, high: int, cut: bool = False,
              ) -> tuple[int, int, Optional[tuple[int, int]], list[int]]:
        """One GA child's draws, as ``next_generation`` makes them, and its bred ``x1``.

        Parents ``a`` and ``b`` are roulette picks over ``cdf``. A ``random()``
        below ``crossover_prob`` (compared on the raw output as
        ``raw < ceil(p * 2**53) << 11``, which is exact) crosses them: a fair
        bit per gene keeps ``x1s[a]``'s gene or takes ``x1s[b]``'s, a buffered
        half first, then bit 31 and bit 63 of each output, an odd last word
        buffering its high half; with ``cut`` and over one gene it then draws
        the order crossover's ``two_of(n + 1)``. Then each gene whose
        ``random()`` falls below ``rate`` is reassigned to ``integers(high)``.
        Returns ``(a, b, cut pair or None, x1)``.
        """
        raw = self._raw
        total = cdf[-1]
        picks = []
        for _ in range(2):
            if total <= 0.0:
                picks.append(self.integers(len(cdf)))
                continue
            if not raw:
                self._refill()
            k = bisect_right(cdf, (raw.pop() >> 11) * 2 ** -53 * total)
            picks.append(k if k < len(cdf) else bisect_left(cdf, total))
        a, b = picks
        x1 = list(x1s[a])
        n = len(x1)
        pair = None
        if not raw:
            self._refill()
        if raw.pop() < math.ceil(crossover_prob * 2 ** 53) << 11:
            other = x1s[b]
            k = 0
            if n and self._half is not None:
                if not self._half >> 31:
                    x1[0] = other[0]
                self._half = None
                k = 1
            while k < n:
                if not raw:
                    self._refill()
                word = raw.pop()
                if not word >> 31 & 1:
                    x1[k] = other[k]
                if k + 1 == n:
                    self._half = word >> 32
                elif not word >> 63:
                    x1[k + 1] = other[k + 1]
                k += 2
            if cut and n > 1:
                pair = self.two_of(n + 1)
        below = math.ceil(rate * 2 ** 53) << 11
        for k in range(n):
            if not raw:
                self._refill()
            if raw.pop() < below:
                x1[k] = self.integers(high)
        return a, b, pair, x1

    def integers(self, high: int) -> int:
        """A uniform int in [0, high), for ``high`` in [1, 2**32]."""
        if type(high) is not int:
            high = operator.index(high)
        if not 1 <= high <= 2 ** 32:
            raise ValueError(f"high must lie in [1, 2**32], got {high}")
        if high == 1:
            return 0
        m = self._uint32() * high
        if high == 2 ** 32:
            return m >> 32
        leftover = m & 0xFFFFFFFF
        if leftover < high:
            threshold = (2 ** 32 - high) % high
            while leftover < threshold:
                m = self._uint32() * high
                leftover = m & 0xFFFFFFFF
        return m >> 32

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def two_of(self, m: int) -> tuple[int, int]:
        """Two distinct ints of [0, m), in the order ``choice`` returns them."""
        a = self.integers(m - 1)
        b = self.integers(m)
        if b == a:
            b = m - 1
        return (a, b) if self._uint32() >> 31 else (b, a)


class PickTable:
    """A fixed table's rows as ``Stream.chain`` picks from them.

    A plain table keeps each row's first argmax and its ``roulette_cdf``. A
    ``distinct`` table, whose chain skips picked ids, keeps each row and its
    ids by descending score, ties in ascending id order.
    """

    def __init__(self, rows: list[list[float]], distinct: bool = False):
        self.width = len(rows[0])
        self.distinct = distinct
        if distinct:
            self.rows = rows
            self.orders = [sorted(range(self.width), key=row.__getitem__, reverse=True)
                           for row in rows]  # a stable sort, so equal scores keep id order
        else:
            self.argmax = [row.index(max(row)) for row in rows]
            self.cdfs = [roulette_cdf(row) for row in rows]


__all__ = ["MAX_AGENTS", "MAX_ITERATIONS", "BLOCK", "BudgetProfile", "SearchState",
           "PickTable", "Stream", "effective_locker_count", "random_state", "roulette_cdf",
           "validate_state"]
