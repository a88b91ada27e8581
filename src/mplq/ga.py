"""Genetic-algorithm baseline over the same solution encoding and evaluator.

Standard operators for a mixed allocation/permutation chromosome: fitness-
proportional selection, uniform crossover on the allocation vector, order
crossover on the permutation, per-gene mutation (random locker reassignment /
position swap), and elitism.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

import numpy as np

from .errors import NothingToSolveError, ParameterError
from .instance import Instance
from .routing import AdjustmentPolicy, RoutePlan, refuse_over_capacity
from .hqm import Evaluator, RunHistory, Stream, roulette_cdf
from .state import BudgetProfile, SearchState, effective_locker_count, random_state
from .taskgen import TaskPool

CROSSOVER_PROB = 0.5  # chance that two parents are crossed rather than cloned
MUTATION_RATE = 0.05  # per-gene chance of a locker reassignment or a position swap


def _uniform_crossover(a: Sequence[int], b: Sequence[int], rng: Stream) -> list[int]:
    return [x if m else y for x, y, m in zip(a, b, rng.mask(len(a)))]


def _order_crossover(a: Sequence[int], b: Sequence[int], rng: Stream) -> list[int]:
    """Keep a slice of ``a`` in place, fill the rest in ``b``'s order."""
    n = len(a)
    if n == 1:
        return list(a)
    c1, c2 = sorted(rng.two_of(n + 1))
    kept = a[c1:c2]
    used = set(kept)
    child = [v for v in b if v not in used]
    child[c1:c1] = kept
    return child


def _mutate(x1: list[int], x2: list[int], rate: float, max_lockers: int,
            rng: Stream) -> tuple[list[int], list[int]]:
    """Mutate both lists in place: per-gene locker reassignments, then position swaps.

    Each pass draws one ``random()`` per gene, compared with ``rate``; a hit
    draws its reassignment or its swap partner before the next gene's double.
    """
    n = len(x1)
    integers = rng.integers
    for k in rng.hits(n, rate):
        x1[k] = integers(max_lockers)
    for k in rng.hits(n, rate):
        if n > 1:
            j = integers(n - 1)
            if j >= k:
                j += 1
            x2[k], x2[j] = x2[j], x2[k]
    return x1, x2


def next_generation(population: list[SearchState], rng: Stream,
                    max_lockers: int) -> list[SearchState]:
    """Produce the next population from an evaluated one.

    The top 5% of the states, but at least one, pass through unchanged
    (rewards intact); the rest are bred by selection, crossover, and
    mutation. Each parent is a fitness-proportional pick through the
    generation's ``roulette_cdf``, uniform when the rewards sum to zero.
    Children come back with ``reward=None`` and must be evaluated by the
    caller.
    """
    size = len(population)
    if size < 2:
        raise ParameterError("population must hold at least 2 individuals")
    rewards = [s.reward for s in population]
    if None in rewards:
        raise ParameterError("population must be evaluated before breeding")

    ranked = sorted(population, key=lambda s: s.reward, reverse=True)
    out: list[SearchState] = ranked[:max(1, int(0.05 * size))]
    cdf = roulette_cdf(rewards)
    random, integers = rng.random, rng.integers
    crossover_prob, rate = CROSSOVER_PROB, MUTATION_RATE

    while len(out) < size:
        if cdf is None:
            pa, pb = population[integers(size)], population[integers(size)]
        else:
            pa = population[bisect_right(cdf, random())]
            pb = population[bisect_right(cdf, random())]
        if random() < crossover_prob:
            x1 = _uniform_crossover(pa.x1, pb.x1, rng)
            x2 = _order_crossover(pa.x2, pb.x2, rng)
        else:
            x1, x2 = list(pa.x1), list(pa.x2)
        _mutate(x1, x2, rate, max_lockers, rng)
        out.append(SearchState(tuple(x1), tuple(x2)))
    return out


def run_ga(pool: TaskPool, instance: Instance, policy: AdjustmentPolicy,
           budget: BudgetProfile, seed: int) -> tuple[SearchState, RoutePlan, RunHistory]:
    """Full GA run of ``budget.agents`` individuals for ``budget.iterations``
    generations on the shared encoding; deterministic per seed.

    The initial population is the ``Generator``'s set-up draws; breeding
    draws from the ``Stream`` that takes the generator over. The evaluator
    keys its state cache by the allocation alone on a pool without tied
    starts, where ``x2`` changes no reward. A pool with a task above the
    locker capacity is refused.
    """
    refuse_over_capacity(pool, instance)
    if budget.agents < 2:
        raise ParameterError("population must be >= 2")
    n = len(pool)
    if n == 0:
        raise NothingToSolveError("task pool is empty")
    lockers = effective_locker_count(instance.fleet.max_lockers, n)
    rng = np.random.default_rng(seed)
    evaluator = Evaluator(pool, instance, policy, key_by_allocation=True)

    population = [random_state(rng, n, lockers) for _ in range(budget.agents)]
    stream = Stream(rng)
    for state in population:
        evaluator.reward(state)

    best = max(population, key=lambda s: s.reward)
    history = RunHistory(initial_best=best.reward)

    for _ in range(budget.iterations):
        population = next_generation(population, stream, lockers)
        for state in population:
            if state.reward is None:
                evaluator.reward(state)
        gen_best = max(population, key=lambda s: s.reward)
        if gen_best.reward > best.reward:
            best = gen_best
        history.best_per_step.append(best.reward)

    plan = evaluator.plan(best)
    return best, plan, history


__all__ = ["next_generation", "run_ga"]
