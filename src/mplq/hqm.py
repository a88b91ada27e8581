"""Hybrid Q-learning solver over the task-allocation / task-sequence encoding.

The solver learns two adjacency-value tables: one over locker indices scoring
which locker follows which in the allocation vector, one over task ids scoring
which task follows which in the execution permutation. Each table carries one
extra virtual start row used to pick the first element of its chain. A
population of agents alternates a global construction step (epsilon-greedy
sampling of both chains from the normalized tables, each pick greedy when one
``random()`` draw falls below another) with a differential local
move toward or away from another agent's best state; improvements are accepted
greedily and the accepted states feed the table updates.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import NothingToSolveError, ParameterError, ShapeError
from .instance import Instance
from .routing import (AdjustmentPolicy, RouteMemo, RoutePlan, evaluate_solution,
                      refuse_over_capacity)
from .state import BudgetProfile, SearchState, effective_locker_count, random_state
from .taskgen import TaskPool


GAMMA = 0.9  # discount of the next row's maximum in the value update
TOL = 1e-8  # the run stops once no table entry moves by this much in a step


@dataclass
class QMatrices:
    """Adjacency-value tables for the two chains.

    Both are nested lists of Python floats: ``q1`` has lockers + 1 rows of
    lockers entries, ``q2`` tasks + 1 rows of tasks entries; the extra last
    row of each is the virtual start row that scores first elements.
    """

    q1: list[list[float]]
    q2: list[list[float]]

    @classmethod
    def zeros(cls, lockers: int, tasks: int) -> "QMatrices":
        return cls(q1=[[0.0] * lockers for _ in range(lockers + 1)],
                   q2=[[0.0] * tasks for _ in range(tasks + 1)])

    def copy(self) -> "QMatrices":
        return QMatrices(q1=[row[:] for row in self.q1], q2=[row[:] for row in self.q2])


@dataclass
class Agent:
    """One solution holder: its best accepted state and its random stream."""

    best: SearchState
    rng: Stream

    def accept(self, state: SearchState) -> None:
        self.best = state


@dataclass
class RunHistory:
    initial_best: float
    best_per_step: list[float] = field(default_factory=list)
    convergence_step: Optional[int] = None

    @property
    def final_best(self) -> float:
        return self.best_per_step[-1] if self.best_per_step else self.initial_best


# ---------------------------------------------------------------------------
# Evaluation with memoization
# ---------------------------------------------------------------------------


class Evaluator:
    """Caches the rewards of scored states and their routes (evaluation is pure).

    Holds only the state cache, keyed on the pair ``(x1, x2)``, and the
    ``RouteMemo`` every state is scored through. ``plan`` always decodes the
    state it is given.
    """

    _CACHE_LIMIT = 150_000

    def __init__(self, pool: TaskPool, instance: Instance, policy: AdjustmentPolicy):
        self._cache: dict[tuple, float] = {}
        self._routes = RouteMemo(pool, instance, policy)

    def reward(self, state: SearchState) -> float:
        key = (state.x1, state.x2)
        hit = self._cache.get(key)
        if hit is not None:
            state.reward = hit
            return hit
        _, cost = evaluate_solution(state, self._routes)
        if len(self._cache) >= self._CACHE_LIMIT:
            self._cache.clear()
        self._cache[key] = cost.reward
        state.reward = cost.reward
        return cost.reward

    def plan(self, state: SearchState) -> RoutePlan:
        return evaluate_solution(state, self._routes)[0]


# ---------------------------------------------------------------------------
# Core operations
# ---------------------------------------------------------------------------


def init_agents(pool: TaskPool, max_lockers: int, agents: int, seed: int,
                ) -> tuple[list[Agent], QMatrices]:
    """One uniformly random state per agent, plus all-zero value tables.

    Each agent's state is its ``Generator``'s set-up draws; every later draw
    comes from the ``Stream`` that takes the generator over.
    """
    n = len(pool)
    if n == 0:
        raise NothingToSolveError("task pool is empty")
    lockers = effective_locker_count(max_lockers, n)
    out = []
    for s in np.random.SeedSequence(seed).spawn(agents):
        rng = np.random.default_rng(s)
        out.append(Agent(best=random_state(rng, n, lockers), rng=Stream(rng)))
    return out, QMatrices.zeros(lockers, n)


def normalize_q(q: list[list[float]]) -> list[list[float]]:
    """Row-wise min-max scaling to [0, 1], as a new table: ``(v - lo) / (hi - lo)`` per entry.

    A constant row becomes uniform; a non-finite entry raises ``ValueError``.
    """
    out = []
    for row in q:
        if not all(map(math.isfinite, row)):
            raise ValueError("Q matrix contains non-finite entries")
        lo = min(row)
        span = max(row) - lo
        out.append([1.0 / len(row)] * len(row) if span == 0.0
                   else [(v - lo) / span for v in row])
    return out


def roulette_cdf(scores: Iterable[float]) -> list[float]:
    """The running sums of ``scores``: the roulette's CDF, unnormalized.

    Like ``Generator.choice``, a non-finite total raises ``ValueError``.
    """
    sums = list(accumulate(scores))
    if not math.isfinite(sums[-1]):
        raise ValueError(f"scores sum to {sums[-1]}, not a finite number")
    return sums


def roulette_pick(cdf: list[float], rng: Stream) -> int:
    """An index drawn in proportion to its score from ``roulette_cdf``'s running sums.

    One ``random()`` double ``u`` picks the first sum above ``u`` times the
    total, or the last nonzero score should that product round up to the
    total. A total of at most 0 draws one uniform ``integers`` instead.
    """
    total = cdf[-1]
    if total <= 0.0:
        return rng.integers(len(cdf))
    k = bisect_right(cdf, rng.random() * total)
    return k if k < len(cdf) else bisect_left(cdf, total)


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
    - ``chain(table, row, n, distinct=False)``: n epsilon-greedy picks over a
      ``PickTable``, each from the row the one before it picked: a
      ``random()`` threshold, then ``random() < threshold`` takes the row's
      first (with ``distinct``, first unused) id by score, else a
      ``roulette_pick`` over the row's (unused) ids.
    - ``hits(n, rate)``: the k < n whose k-th of n ``random()`` draws falls
      below ``rate``, lazily, compared on the raw outputs.
    - ``mask(n)``: n draws of ``integers(2)``, as ``integers(0, 2, size=n)``,
      read from whole outputs.
    - ``two_of(m)``: ``choice(m, size=2, replace=False)``, Floyd's algorithm
      followed by a shuffle of the pair.
    """

    __slots__ = ("_pull", "_raw", "_half")

    def __init__(self, rng: np.random.Generator):
        bitgen = rng.bit_generator
        if not isinstance(bitgen, np.random.PCG64):
            raise TypeError(f"a Stream reproduces PCG64 only, not {type(bitgen).__name__}")
        state = bitgen.state
        self._pull = bitgen.random_raw
        self._raw: list[int] = []  # the pulled block, next output last
        self._half = state["uinteger"] if state["has_uint32"] else None

    def _refill(self) -> list[int]:
        self._raw = raw = self._pull(BLOCK).tolist()
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

    def chain(self, table: PickTable, row: int, n: int, distinct: bool = False) -> list[int]:
        """``n`` chained epsilon-greedy picks over ``table``'s rows, the first from ``row``.

        Each pick draws a ``random()`` threshold, then a ``random()`` decision
        (two doubles compare as their top 53 bits do, so it compares those).
        Below the threshold it takes the first id of the row's order, else the
        ``roulette_pick`` of the row's running sums, read inline; the next pick
        draws from the row this one picked. With ``distinct`` it skips picked
        ids: the roulette then sums the unused ids' scores in ascending id order.
        """
        out = []
        raw = self._raw
        orders, cdfs = table.orders, table.cdfs
        if distinct:
            rows = table.rows
            unused = list(range(table.width))  # ascending ids
            fresh = [True] * table.width
        for _ in range(n):
            if not raw:
                raw = self._refill()
            threshold = raw.pop() >> 11
            if not raw:
                raw = self._refill()
            if raw.pop() >> 11 < threshold:
                if distinct:
                    for row in orders[row]:  # stops at the first unused id
                        if fresh[row]:
                            break
                    unused.remove(row)
                else:
                    row = orders[row][0]
            else:
                cdf = roulette_cdf(map(rows[row].__getitem__, unused)) if distinct else cdfs[row]
                total = cdf[-1]
                if total <= 0.0:
                    k = self.integers(len(cdf))
                    raw = self._raw  # integers() may have refilled it
                else:
                    if not raw:
                        raw = self._refill()
                    k = bisect_right(cdf, (raw.pop() >> 11) * 2 ** -53 * total)
                    if k == len(cdf):
                        k = bisect_left(cdf, total)
                row = unused.pop(k) if distinct else k
            if distinct:
                fresh[row] = False
            out.append(row)
        return out

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

    def hits(self, n: int, rate: float) -> Iterator[int]:
        """Each k < n whose k-th ``random()`` draw falls below ``rate``, as a lazy generator.

        A double is an output's top 53 bits over 2**53, so it falls below
        ``rate`` exactly when the output falls below ``ceil(rate * 2**53) << 11``.
        The k-th output is read only when the generator is advanced past k - 1,
        so a draw the caller makes between yields lands where it would between
        ``random()`` calls.
        """
        below = math.ceil(rate * 2 ** 53) << 11
        raw = self._raw
        for k in range(n):
            if not raw:  # a caller's draw may have refilled self._raw between yields
                raw = self._raw or self._refill()
            if raw.pop() < below:
                yield k

    def mask(self, n: int) -> list[int]:
        """n fair bits: ``integers(2)`` never rejects, so each is a 32-bit word's top bit.

        A buffered half comes first; then each output gives its low half's top
        bit (bit 31) and its high half's (bit 63). An odd last word leaves its
        output's high half buffered.
        """
        out = []
        if n and self._half is not None:
            out.append(self._half >> 31)
            self._half = None
            n -= 1
        raw = self._raw
        for _ in range(n >> 1):
            if not raw:
                raw = self._refill()
            word = raw.pop()
            out.append((word >> 31) & 1)
            out.append(word >> 63)
        if n & 1:
            word = (raw or self._refill()).pop()
            out.append((word >> 31) & 1)
            self._half = word >> 32
        return out

    def two_of(self, m: int) -> tuple[int, int]:
        """Two distinct ints of [0, m), in the order ``choice`` returns them."""
        a = self.integers(m - 1)
        b = self.integers(m)
        if b == a:
            b = m - 1
        return (a, b) if self._uint32() >> 31 else (b, a)


class PickTable:
    """A fixed table's rows as ``Stream.chain`` picks from them: each row, its
    ``roulette_cdf`` and its ids by descending score, ties in ascending id order.
    """

    def __init__(self, rows: list[list[float]]):
        self.width = len(rows[0])
        self.rows = rows
        self.cdfs = [roulette_cdf(row) for row in rows]
        self.orders = [sorted(range(self.width), key=row.__getitem__, reverse=True)
                       for row in rows]  # a stable sort, so equal scores keep id order


def global_construct(agent: Agent, q1: PickTable, q2: PickTable) -> SearchState:
    """Build a full state by walking both chains of the normalized tables.

    ``q1`` and ``q2`` are the ``PickTable``s of the normalized locker and task
    tables, and each chain is one ``Stream.chain`` from its virtual start row
    on the agent's ``Stream``. Each task's locker is picked from the row of
    its predecessor's; the permutation is built the same way over the unused
    tasks only (``distinct``).
    """
    rng = agent.rng
    n_tasks = q2.width
    x1 = rng.chain(q1, q1.width, n_tasks)
    x2 = rng.chain(q2, n_tasks, n_tasks, distinct=True)
    return SearchState(x1=tuple(x1), x2=tuple(x2))


def local_move(state: SearchState, neighbor: SearchState, omega: float, *,
               max_lockers: int) -> SearchState:
    """Differential step: new = state + omega * (state - neighbor), repaired.

    The allocation vector is repaired by rounding half to even and wrapping
    modulo ``max_lockers``; the permutation by rank-ordering the raw values
    (stable ties). omega = 0 returns an exact copy.
    """
    n = len(state.x2)
    if len(state.x1) != len(neighbor.x1) or n != len(neighbor.x2):
        raise ShapeError("states come from different task pools")

    x1 = [round(a + omega * (a - b)) % max_lockers for a, b in zip(state.x1, neighbor.x1)]

    raw2 = [a + omega * (a - b) for a, b in zip(state.x2, neighbor.x2)]
    x2 = [0] * n
    for rank, t in enumerate(sorted(range(n), key=raw2.__getitem__)):
        x2[t] = rank
    return SearchState(x1=tuple(x1), x2=tuple(x2))


def update_q(qmats: QMatrices, states: Sequence[SearchState], rewards: Sequence[float],
             alpha: float, gamma: float) -> QMatrices:
    """One-step value update along both chains of each accepted state, in turn.

    Every adjacent pair (including the virtual start transition) receives
    Q <- Q + alpha * (reward + gamma * max(next row) - Q), applied
    sequentially in chain order, state after state. Mutates and returns
    ``qmats``.

    Each row's maximum is kept as it runs: a write above it raises it, and
    the row is rescanned only when the entry that held it falls. On finite
    tables that is ``max(row)`` at every read (a non-finite entry stops the
    solve at the next ``normalize_q`` either way).
    """
    for rows, chains in ((qmats.q1, [s.x1 for s in states]), (qmats.q2, [s.x2 for s in states])):
        tops = [max(row) for row in rows]
        start = len(rows) - 1  # the virtual start row
        for values, reward in zip(chains, rewards):
            a = start
            for b in values:
                row = rows[a]
                old = row[b]
                row[b] = new = old + alpha * (reward + gamma * tops[b] - old)
                if new > tops[a]:
                    tops[a] = new
                elif new < old == tops[a]:
                    tops[a] = max(row)
                a = b
    return qmats


def has_converged(prev: QMatrices, cur: QMatrices, tol: float) -> bool:
    """True when every entry of both tables moved by strictly less than ``tol`` (never on a NaN)."""
    pairs = ((prev.q1, cur.q1), (prev.q2, cur.q2))
    if any(list(map(len, a)) != list(map(len, b)) for a, b in pairs):
        raise ShapeError("Q matrices have mismatched dimensions")
    return all(abs(x - y) < tol
               for a, b in pairs for row_a, row_b in zip(a, b) for x, y in zip(row_a, row_b))


# ---------------------------------------------------------------------------
# Outer loop
# ---------------------------------------------------------------------------


def check_learning_settings(gamma: float, tol: float) -> None:
    """Refuse a discount ``gamma`` outside [0, 1] or a convergence ``tol`` that is not positive."""
    if not 0.0 <= gamma <= 1.0:
        raise ParameterError(f"gamma must lie in [0, 1], got {gamma}")
    if not tol > 0:
        raise ParameterError(f"tol must be > 0, got {tol}")


def run_hqm(pool: TaskPool, instance: Instance, policy: AdjustmentPolicy,
            budget: BudgetProfile, seed: int, gamma: float = GAMMA, tol: float = TOL,
            ) -> tuple[SearchState, RoutePlan, RunHistory]:
    """Full solver run of ``budget.agents`` agents; deterministic per seed.

    Per timestep every agent proposes one globally constructed state and one
    local differential move (omega drawn from U(-1, 1)) against another agent's
    best, accepting each only on strict reward improvement; the tables are then
    updated from every agent's current best with the learning rate
    alpha(t) = 0.9 * exp(-t / budget.iterations), and the loop stops after
    ``budget.iterations`` steps or once the tables stop moving. A pool with a
    task above the locker capacity is refused.
    """
    refuse_over_capacity(pool, instance)
    check_learning_settings(gamma, tol)
    evaluator = Evaluator(pool, instance, policy)
    agents, qmats = init_agents(pool, instance.fleet.max_lockers, budget.agents, seed)
    lockers = len(qmats.q1[0])
    for agent in agents:
        evaluator.reward(agent.best)

    history = RunHistory(initial_best=max(a.best.reward for a in agents))
    n_agents = len(agents)

    for t in range(1, budget.iterations + 1):
        alpha = 0.9 * math.exp(-t / budget.iterations)
        snapshot = qmats.copy()
        q1, q2 = PickTable(normalize_q(qmats.q1)), PickTable(normalize_q(qmats.q2))

        for agent in agents:
            candidate = global_construct(agent, q1, q2)
            if evaluator.reward(candidate) > agent.best.reward:
                agent.accept(candidate)

        for idx, agent in enumerate(agents):
            if n_agents > 1:
                j = agent.rng.integers(n_agents - 1)
                if j >= idx:
                    j += 1
                neighbor = agents[j].best
            else:
                neighbor = agent.best
            omega = agent.rng.uniform(-1.0, 1.0)
            moved = local_move(agent.best, neighbor, omega, max_lockers=lockers)
            if evaluator.reward(moved) > agent.best.reward:
                agent.accept(moved)

        update_q(qmats, [a.best for a in agents], [a.best.reward for a in agents],
                 alpha, gamma)

        best = max(a.best.reward for a in agents)
        history.best_per_step.append(best)
        if has_converged(snapshot, qmats, tol):
            history.convergence_step = t
            break

    best_agent = max(agents, key=lambda a: a.best.reward)
    best_state = best_agent.best
    plan = evaluator.plan(best_state)
    return best_state, plan, history


__all__ = [
    "GAMMA",
    "TOL",
    "QMatrices",
    "Agent",
    "RunHistory",
    "Evaluator",
    "init_agents",
    "normalize_q",
    "roulette_cdf",
    "roulette_pick",
    "Stream",
    "PickTable",
    "global_construct",
    "local_move",
    "update_q",
    "has_converged",
    "run_hqm",
]
