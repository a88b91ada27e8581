"""Genetic-algorithm baseline over the same solution encoding and evaluator.

Standard operators for a mixed allocation/permutation chromosome: fitness-
proportional selection, uniform crossover on the allocation vector, order
crossover on the permutation, per-gene mutation (random locker reassignment /
position swap), and elitism. Where no two window starts tie, the permutation
orders nothing, so only the allocation is bred.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ParameterError
from .instance import Instance
from .routing import AdjustmentPolicy, RoutePlan, check_pool
from .hqm import Evaluator, RunHistory
from .state import BudgetProfile, SearchState, Stream, random_state, roulette_cdf
from .taskgen import TaskPool

CROSSOVER_PROB = 0.5  # chance that two parents are crossed rather than cloned
MUTATION_RATE = 0.05  # per-gene chance of a locker reassignment or a position swap


def _order_crossover(a: Sequence[int], b: Sequence[int], cuts: tuple[int, int]) -> list[int]:
    """Keep ``a``'s slice between the two cut points in place, fill the rest in ``b``'s order."""
    c1, c2 = sorted(cuts)
    kept = a[c1:c2]
    used = set(kept)
    child = [v for v in b if v not in used]
    child[c1:c1] = kept
    return child


def next_generation(population: list[SearchState], rng: Stream,
                    max_lockers: int, *, breed_x2: bool = True) -> list[SearchState]:
    """Produce the next population from an evaluated one.

    The top 5% of the states, but at least one, pass through unchanged
    (rewards intact); the rest are bred by selection, crossover, and
    mutation, each child's ``x1`` by one ``Stream.breed`` over the
    generation's ``roulette_cdf``: fitness-proportional parents, uniform when
    the rewards sum to zero. With ``breed_x2`` a crossed child of over one
    task also takes the order crossover at the cut pair ``breed`` drew, then
    a swap pass of one ``random()`` per gene, each below ``MUTATION_RATE``
    swapping it with a uniform other position; without it a child keeps its
    first parent's ``x2`` and draws neither. Children come back with
    ``reward=None`` and must be evaluated by the caller.
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
    x1s = [s.x1 for s in population]
    crossover_prob, rate = CROSSOVER_PROB, MUTATION_RATE

    while len(out) < size:
        a, b, cuts, x1 = rng.breed(cdf, x1s, crossover_prob, rate, max_lockers, breed_x2)
        pa = population[a]
        if not breed_x2:
            out.append(SearchState(tuple(x1), pa.x2))
            continue
        x2 = list(pa.x2) if cuts is None else _order_crossover(pa.x2, population[b].x2, cuts)
        n = len(x2)
        for k in range(n):
            if rng.random() < rate and n > 1:
                j = rng.integers(n - 1)
                if j >= k:
                    j += 1
                x2[k], x2[j] = x2[j], x2[k]
        out.append(SearchState(tuple(x1), tuple(x2)))
    return out


def run_ga(pool: TaskPool, instance: Instance, policy: AdjustmentPolicy,
           budget: BudgetProfile, seed: int) -> tuple[SearchState, RoutePlan, RunHistory]:
    """Full GA run of ``budget.agents`` individuals for ``budget.iterations``
    generations on the shared encoding; deterministic per seed.

    The initial population is the ``Generator``'s set-up draws; breeding
    draws from the ``Stream`` that takes the generator over. On a pool
    without tied starts ``x2`` changes no reward, so every state carries the
    identity ``x2`` in place of its drawn one and only ``x1`` is bred. A
    population below 2 is refused first, then a pool ``routing.check_pool``
    refuses.
    """
    if budget.agents < 2:
        raise ParameterError("population must be >= 2")
    lockers = check_pool(pool, instance)
    n = len(pool)
    rng = np.random.default_rng(seed)
    evaluator = Evaluator(pool, instance, policy)

    population = [random_state(rng, n, lockers) for _ in range(budget.agents)]
    breed_x2 = pool.start_order is None
    if not breed_x2:
        identity = tuple(range(n))
        population = [SearchState(s.x1, identity) for s in population]
    stream = Stream(rng)
    for state in population:
        evaluator.reward(state)

    best = max(population, key=lambda s: s.reward)
    history = RunHistory(initial_best=best.reward)

    for _ in range(budget.iterations):
        population = next_generation(population, stream, lockers, breed_x2=breed_x2)
        for state in population:
            if state.reward is None:
                evaluator.reward(state)
        gen_best = max(population, key=lambda s: s.reward)
        if gen_best.reward > best.reward:
            best = gen_best
        history.best_per_step.append(best.reward)

    plan = evaluator.plan(best, history)
    return best, plan, history


__all__ = ["next_generation", "run_ga"]
