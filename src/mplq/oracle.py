"""Exact solver for small task pools.

Splits the pool into at most L task sets, one route each, scored with the
scheduler the heuristic solvers use. The result certifies the best reward
reachable through the (x1, x2) encoding, the yardstick for solver quality.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from .errors import NothingToSolveError, SearchSpaceLimitError
from .instance import Instance
from .routing import (AdjustmentPolicy, RouteMemo, compute_cost, evaluate_solution,
                      refuse_over_capacity, schedule_route)
from .state import SearchState, effective_locker_count
from .taskgen import TaskPool

# The oracle schedules each of a pool's 2^n task sets once per order of its tied
# starts, and refuses a pool that needs more than 2^MAX_TASKS schedules. It then
# tries about 3^n / 2 (set, subset) pairs per locker count: a second at 13 tasks.
MAX_TASKS = 13


def tie_orders(ids: Sequence[int], starts: Sequence[float]) -> list[tuple[int, ...]]:
    """Every order of ``ids`` by window start, tasks sharing a start in each order, sorted."""
    runs = itertools.groupby(sorted(ids, key=starts.__getitem__), key=starts.__getitem__)
    perms = [list(itertools.permutations(run)) for _, run in runs]
    return [sum(orders, ()) for orders in itertools.product(*perms)]


def brute_force_best(pool: TaskPool, instance: Instance,
                     policy: AdjustmentPolicy) -> tuple[SearchState, float]:
    """Return the best state and its reward, by an exact split of the pool into task sets.

    A set's route is its shortest over the orders of its tied starts. The split
    is built over the tasks left, taking the set that holds the lowest
    remaining task next (Held and Karp, 1962). That is the order in which
    ``evaluate_solution`` adds route lengths, and float addition is monotone,
    so the least sum for each locker count, and the reward, are exact. Equal
    sums break toward the lexicographically smallest first-use ``x1``; ``x2`` is the
    identity, except that tied tasks take their slots in the order their
    locker serves them. Refuses a pool that needs more than 2 ** ``MAX_TASKS``
    route schedules.
    """
    n = len(pool)
    if n == 0:
        raise NothingToSolveError("task pool is empty")
    runs = [len(list(run)) for _, run in itertools.groupby(sorted(pool.starts))]
    schedules = math.prod(sum(math.perm(r, j) for j in range(r + 1)) for r in runs)
    if schedules > 2 ** MAX_TASKS:
        raise SearchSpaceLimitError(f"the pool holds {n} tasks, whose sets need {schedules} "
                                    f"route schedules, above the limit of {2 ** MAX_TASKS}")
    refuse_over_capacity(pool, instance)
    lockers = effective_locker_count(instance.fleet.max_lockers, n)
    memo = RouteMemo(pool, instance, policy)
    routes = [(0.0, ())] + [min(  # (distance, order) of each task set; bit t is task t
        ((schedule_route(memo, task_ids=order).distance_km, order)
         for order in tie_orders([t for t in range(n) if group >> t & 1], pool.starts)),
        key=lambda route: route[0]) for group in range(1, 1 << n)]

    # least[rest][k]: the least (distance, x1) of k routes over the tasks not in
    # rest, x1 holding -1 for the tasks in rest.
    least = [[(math.inf, ())] * (lockers + 1) for _ in routes]
    least[-1][0] = (0.0, (-1,) * n)
    for rest in range(len(routes) - 1, 0, -1):  # a set comes before its subsets
        front = [(k, total, x1) for k, (total, x1) in enumerate(least[rest][:lockers])
                 if total < math.inf]
        low = rest & -rest
        others = sub = rest ^ low
        for _ in range(1 << others.bit_count()):  # each subset of others, largest first
            group, row = sub | low, least[others ^ sub]
            for k, total, x1 in front:
                total += routes[group][0]
                if total <= row[k + 1][0]:
                    row[k + 1] = min(row[k + 1], (total, tuple(
                        k if group >> t & 1 else locker for t, locker in enumerate(x1))))
            sub = (sub - 1) & others

    _, x1 = min((-compute_cost(k, total, instance).reward, x1)
                for k, (total, x1) in enumerate(least[0]) if total < math.inf)
    served = {t: position for locker in range(max(x1) + 1) for position, t in
              enumerate(routes[sum(1 << t for t in range(n) if x1[t] == locker)][1])}
    by_start = sorted(range(n), key=pool.starts.__getitem__)
    x2 = list(range(n))
    for slot, t in zip(by_start, sorted(by_start, key=lambda t: (pool.starts[t], served[t]))):
        x2[slot] = t
    state = SearchState(x1=x1, x2=tuple(x2))
    state.reward = evaluate_solution(state, pool, instance, policy, memo=memo)[1].reward
    return state, state.reward


__all__ = ["MAX_TASKS", "tie_orders", "brute_force_best"]
