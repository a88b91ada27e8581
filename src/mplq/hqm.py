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
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import ParameterError, ShapeError
from .instance import Instance
from .routing import AdjustmentPolicy, RouteMemo, RoutePlan, check_pool, evaluate_solution
from .state import BudgetProfile, SearchState, random_state
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


def _pack_wide(ids: tuple[int, ...]) -> bytes:
    """``ids`` as four bytes each: the state cache's key above 256 tasks."""
    return array("I", ids).tobytes()


class Evaluator:
    """Caches the rewards of scored states and their routes (evaluation is pure).

    Holds only the state cache and the ``RouteMemo`` every state is scored
    through. The cache's key is ``x1 + x2`` packed into one ``bytes``: one
    byte per id when the pool has at most 256 tasks (every id of ``x1`` and
    ``x2`` is then below 256), four above that. Both halves have the pool's
    length, so the packing is one-to-one. A key keeps no state tuple alive and
    is not tracked by the garbage collector: an entry of a 19-task pool takes
    about 135 bytes, against about 435 with a key of the two tuples. ``plan``
    always decodes the state it is given.
    """

    _CACHE_LIMIT = 150_000

    def __init__(self, pool: TaskPool, instance: Instance, policy: AdjustmentPolicy):
        self._cache: dict[bytes, float] = {}
        self._routes = RouteMemo(pool, instance, policy)
        self._pack = bytes if len(pool) <= 256 else _pack_wide

    def reward(self, state: SearchState) -> float:
        key = self._pack(state.x1 + state.x2)
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


def init_agents(pool: TaskPool, lockers: int, agents: int, seed: int,
                ) -> tuple[list[Agent], QMatrices]:
    """One uniformly random state per agent, plus all-zero value tables.

    ``lockers`` is the pool's locker range, as ``routing.check_pool`` returns
    it. Each agent's state is its ``Generator``'s set-up draws; every later
    draw comes from the ``Stream`` that takes the generator over.
    """
    n = len(pool)
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
                    row = argmax[row]
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
                raw = self._raw  # integers() may have refilled it
                continue
            if not raw:
                raw = self._refill()
            k = bisect_right(cdf, (raw.pop() >> 11) * 2 ** -53 * total)
            picks.append(k if k < len(cdf) else bisect_left(cdf, total))
        a, b = picks
        x1 = list(x1s[a])
        n = len(x1)
        pair = None
        if not raw:
            raw = self._refill()
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
                    raw = self._refill()
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
                raw = self._raw
        below = math.ceil(rate * 2 ** 53) << 11
        for k in range(n):
            if not raw:
                raw = self._refill()
            if raw.pop() < below:
                x1[k] = self.integers(high)
                raw = self._raw
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


def global_construct(agent: Agent, q1: PickTable, q2: PickTable) -> SearchState:
    """Build a full state by walking both chains of the normalized tables.

    ``q1`` and ``q2`` are the ``PickTable``s of the normalized locker and task
    tables, the second ``distinct``, and each chain is one ``Stream.chain``
    from its virtual start row on the agent's ``Stream``. Each task's locker
    is picked from the row of its predecessor's; the permutation is built the
    same way over the unused tasks only.
    """
    rng = agent.rng
    n_tasks = q2.width
    x1 = rng.chain(q1, q1.width, n_tasks)
    x2 = rng.chain(q2, n_tasks, n_tasks)
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
    """Refuse a discount ``gamma`` outside [0, 1] or a convergence ``tol`` outside (0, inf)."""
    if not 0.0 <= gamma <= 1.0:
        raise ParameterError(f"gamma must lie in [0, 1], got {gamma}")
    if not 0 < tol < math.inf:
        raise ParameterError(f"tol must be positive and finite, got {tol}")


def run_hqm(pool: TaskPool, instance: Instance, policy: AdjustmentPolicy,
            budget: BudgetProfile, seed: int, gamma: float = GAMMA, tol: float = TOL,
            ) -> tuple[SearchState, RoutePlan, RunHistory]:
    """Full solver run of ``budget.agents`` agents; deterministic per seed.

    Per timestep every agent proposes one globally constructed state and one
    local differential move (omega drawn from U(-1, 1)) against another agent's
    best, accepting each only on strict reward improvement; the tables are then
    updated from every agent's current best with the learning rate
    alpha(t) = 0.9 * exp(-t / budget.iterations), and the loop stops after
    ``budget.iterations`` steps or once the tables stop moving. A bad
    ``gamma`` or ``tol`` is refused first, then a pool ``routing.check_pool``
    refuses.
    """
    check_learning_settings(gamma, tol)
    lockers = check_pool(pool, instance)
    evaluator = Evaluator(pool, instance, policy)
    agents, qmats = init_agents(pool, lockers, budget.agents, seed)
    for agent in agents:
        evaluator.reward(agent.best)

    history = RunHistory(initial_best=max(a.best.reward for a in agents))
    n_agents = len(agents)

    for t in range(1, budget.iterations + 1):
        alpha = 0.9 * math.exp(-t / budget.iterations)
        snapshot = qmats.copy()
        q1 = PickTable(normalize_q(qmats.q1))
        q2 = PickTable(normalize_q(qmats.q2), distinct=True)

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
    "Stream",
    "PickTable",
    "global_construct",
    "local_move",
    "update_q",
    "has_converged",
    "run_hqm",
]
