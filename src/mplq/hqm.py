"""Hybrid Q-learning solver over the task-allocation / task-sequence encoding.

The solver learns two adjacency-value tables: one over locker indices scoring
which locker follows which in the allocation vector, one over task ids scoring
which task follows which in the execution permutation. Each table carries one
extra virtual start row used to pick the first element of its chain. A
population of agents alternates a global construction step (epsilon-greedy
sampling of both chains from the normalized tables, each pick greedy when one
``random()`` draw falls below another) with a differential local
move toward or away from another agent's best state; improvements are accepted
greedily and the accepted states feed the table updates. This module holds
HQM alone, with the ``Evaluator`` and ``RunHistory`` the GA shares; every
draw after set-up comes from ``state.Stream``.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ParameterError, ShapeError
from .instance import Instance
from .routing import AdjustmentPolicy, RouteMemo, RoutePlan, check_pool, evaluate_solution
from .state import BudgetProfile, PickTable, SearchState, Stream, random_state
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
    """A solve's best reward per step (HQM step or GA generation), HQM's
    convergence step (None while its tables move), and its work, copied from
    the ``Evaluator`` with the final plan: evaluator calls, state-cache hits,
    evaluations (the final decode included), routes scheduled, the route memo's
    misses, and HQM's accepts (the GA's stays 0). What can be worked out is not
    stored: steps are ``len(best_per_step)``, HQM's proposals ``2 * agents *
    steps``, route-memo hits ``routes_scheduled - route_misses``, evictions
    ``route_misses`` less the memo's final size (not reported).
    """

    initial_best: float
    best_per_step: list[float] = field(default_factory=list)
    convergence_step: Optional[int] = None
    evaluator_calls: int = 0
    cache_hits: int = 0
    evaluations: int = 0
    routes_scheduled: int = 0
    route_misses: int = 0
    accepts: int = 0

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
    always decodes the state it is given. ``reward`` counts a hit or a miss's
    routes with one add, and ``plan`` copies the totals onto a ``RunHistory``.
    A miss is the one way into the cache, so misses are its size plus what
    clearing it dropped.
    """

    _CACHE_LIMIT = 150_000

    def __init__(self, pool: TaskPool, instance: Instance, policy: AdjustmentPolicy):
        self._cache: dict[bytes, float] = {}
        self._routes = RouteMemo(pool, instance, policy)
        self._pack = bytes if len(pool) <= 256 else _pack_wide
        self._hits = self._scheduled = self._dropped = self._decodes = 0

    def reward(self, state: SearchState) -> float:
        key = self._pack(state.x1 + state.x2)
        hit = self._cache.get(key)
        if hit is not None:
            self._hits += 1
            state.reward = hit
            return hit
        plan, cost = evaluate_solution(state, self._routes)
        self._scheduled += len(plan.routes)
        if len(self._cache) >= self._CACHE_LIMIT:
            self._dropped += len(self._cache)
            self._cache.clear()
        self._cache[key] = cost.reward
        state.reward = cost.reward
        return cost.reward

    def plan(self, state: SearchState, history: RunHistory) -> RoutePlan:
        """``state``'s plan; copies the counts so far, every decode included, onto ``history``."""
        plan = evaluate_solution(state, self._routes)[0]
        self._scheduled += len(plan.routes)
        self._decodes += 1
        history.evaluator_calls = self._hits + len(self._cache) + self._dropped
        history.cache_hits = self._hits
        history.evaluations = history.evaluator_calls - self._hits + self._decodes
        history.routes_scheduled = self._scheduled
        history.route_misses = self._routes.misses
        return plan


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
                history.accepts += 1

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
                history.accepts += 1

        update_q(qmats, [a.best for a in agents], [a.best.reward for a in agents],
                 alpha, gamma)

        best = max(a.best.reward for a in agents)
        history.best_per_step.append(best)
        if has_converged(snapshot, qmats, tol):
            history.convergence_step = t
            break

    best_agent = max(agents, key=lambda a: a.best.reward)
    best_state = best_agent.best
    plan = evaluator.plan(best_state, history)
    return best_state, plan, history


__all__ = ["GAMMA", "TOL", "QMatrices", "Agent", "RunHistory", "Evaluator", "init_agents",
           "normalize_q", "global_construct", "local_move", "update_q", "has_converged",
           "run_hqm"]
