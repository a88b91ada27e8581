"""Exhaustive solver for tiny task pools.

Scores each distinct plan of the (x1, x2) encoding once, with the same
scheduler the heuristic solvers use. The result certifies the best reward
reachable through this encoding, the yardstick for solver-quality tests.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Sequence

from .errors import NothingToSolveError, SearchSpaceLimitError
from .instance import Instance
from .routing import AdjustmentPolicy, evaluate_solution
from .state import SearchState, effective_locker_count
from .taskgen import TaskPool

MAX_ENUMERATIONS = 10_000_000


def search_space_size(num_tasks: int, max_lockers: int) -> int:
    return max_lockers ** num_tasks * math.factorial(num_tasks)


def tie_orders(starts: Sequence[float]) -> list[tuple[int, ...]]:
    """Every order ``x2`` with ``starts[x2[k]] == starts[k]`` at each position, sorted.

    Such an order only permutes tasks that share a window start among their
    own positions, so the orders are the product of each tie class's
    permutations.
    """
    classes: dict[float, list[int]] = {}
    for t, start in enumerate(starts):
        classes.setdefault(start, []).append(t)
    ties = [ids for ids in classes.values() if len(ids) > 1]
    orders = []
    for perms in itertools.product(*(itertools.permutations(ids) for ids in ties)):
        x2 = list(range(len(starts)))
        for ids, perm in zip(ties, perms):
            for k, t in zip(ids, perm):
                x2[k] = t
        orders.append(tuple(x2))
    orders.sort()
    return orders


def brute_force_best(pool: TaskPool, instance: Instance,
                     policy: AdjustmentPolicy) -> tuple[SearchState, float]:
    """Return the best state and its reward, scoring each distinct plan once.

    Allocations range over ``effective_locker_count`` lockers, as the solvers'
    do, in first-use form: renaming lockers leaves the plan alone. Orders only
    permute tasks that share a window start, since the decode sorts by start.
    Refuses when the full encoding holds more than ``MAX_ENUMERATIONS``
    states. Ties break toward the lexicographically smallest scored pair.
    Renaming lockers reorders the sum of route lengths, so with three or more
    lockers a skipped renaming could differ in the reward's last bit.
    """
    n = len(pool)
    if n == 0:
        raise NothingToSolveError("task pool is empty")
    max_lockers = effective_locker_count(instance.fleet.max_lockers, n)
    cardinality = search_space_size(n, max_lockers)
    if cardinality > MAX_ENUMERATIONS:
        raise SearchSpaceLimitError(cardinality, MAX_ENUMERATIONS)

    orders = tie_orders(pool.starts)
    best_state: Optional[SearchState] = None
    best_reward = -math.inf
    routes: dict = {}  # route memo of this pool, instance and policy
    # itertools yields both coordinates in lexicographic order, so keeping the
    # first strict maximum realises the lexicographic tie-break.
    for x1 in itertools.product(range(max_lockers), repeat=n):
        if any(x1[t] > max(x1[:t], default=-1) + 1 for t in range(n)):
            continue  # renames the lockers of a first-use allocation
        for x2 in orders:
            state = SearchState(x1=x1, x2=x2)
            _, cost = evaluate_solution(state, pool, instance, policy, memo=routes)
            if cost.reward > best_reward:
                best_reward = cost.reward
                state.reward = cost.reward
                best_state = state
    return best_state, best_reward


__all__ = ["MAX_ENUMERATIONS", "search_space_size", "tie_orders", "brute_force_best"]
