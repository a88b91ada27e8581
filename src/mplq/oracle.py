"""Exact solver for small task pools.

Splits the pool into at most L task sets, one route each, scored with the
scheduler the heuristic solvers use. The result certifies the best reward
reachable through the (x1, x2) encoding, the yardstick for solver quality.
"""

from __future__ import annotations

import itertools
import math

from .errors import SearchSpaceLimitError
from .instance import Instance
from .routing import (AdjustmentPolicy, RouteMemo, check_pool, compute_cost,
                      evaluate_solution, visit)
from .state import SearchState
from .taskgen import TaskPool

# The oracle schedules each of a pool's 2^n task sets once per order of its tied
# starts, one visit per (set, order) pair, and refuses a pool that needs more
# than 2^MAX_TASKS of them. It then tries about 3^n / 2 (set, subset) pairs per
# locker count: about half a second at 13 tasks on a 2-vCPU host.
MAX_TASKS = 13


def set_routes(memo: RouteMemo) -> list[tuple[float, tuple[int, ...]]]:
    """The (distance, order) of each task set of ``memo``'s pool; bit t of a set is task t.

    A set's route is its shortest over the orders of its tied starts, the
    lexicographically smallest order among equal distances. Each order of a
    set is an order of the set minus its last task, whose start is the set's
    latest, plus one ``routing.visit``; so the sets are built in increasing
    bitmask order, each (set, order) pair extending the open end of the
    (subset, order) pair it grows from. The return leg is added only to get a
    set's distance.
    """
    n, starts, depot_km = len(memo.pool), memo.pool.starts, memo.leg_km[-1]
    tied = [sum(1 << u for u in range(n) if starts[u] == starts[t]) for t in range(n)]
    last = [0] * (1 << n)  # a task of each set whose start is the set's latest
    opened = [[((), None)]]  # each set's (order, open end) pairs
    routes = [(0.0, ())]
    for group in range(1, 1 << n):
        low = group & -group
        others = group ^ low
        t = low.bit_length() - 1
        if others and starts[last[others]] >= starts[t]:
            t = last[others]
        last[group] = t
        ends = []
        finals = group & tied[t]
        while finals:  # each task that can close an order of the set
            u = (finals & -finals).bit_length() - 1
            finals &= finals - 1
            ends += [(order + (u,), visit(memo, end, u)[0])
                     for order, end in opened[group ^ (1 << u)]]
        opened.append(ends)
        routes.append(min((distance + depot_km[tail], order)
                          for order, (_, _, tail, _, distance, _) in ends))
    return routes


def brute_force_best(pool: TaskPool, instance: Instance,
                     policy: AdjustmentPolicy) -> tuple[SearchState, float, int]:
    """Return the best state, its reward and the pool's locker range.

    The best state comes from an exact split of the pool into task sets.
    Each set's route comes from ``set_routes``. The split is built over the
    tasks left, taking the set that holds the lowest remaining task next
    (Held and Karp, 1962). That is the order in which ``evaluate_solution``
    adds route lengths, and float addition is monotone, so the least sum for
    each locker count, and the reward, are exact. Equal sums break toward
    the lexicographically smallest first-use ``x1``; ``x2`` is the identity,
    except that tied tasks take their slots in the order their locker serves
    them. The locker range is the one ``routing.check_pool`` returns: the
    most routes a split may use. Refuses a pool that needs more than 2 **
    ``MAX_TASKS`` route schedules, then a pool ``routing.check_pool`` refuses.
    """
    n = len(pool)
    runs = [len(list(run)) for _, run in itertools.groupby(sorted(pool.starts))]
    schedules = math.prod(sum(math.perm(r, j) for j in range(r + 1)) for r in runs)
    if schedules > 2 ** MAX_TASKS:
        raise SearchSpaceLimitError(f"the pool holds {n} tasks, whose sets need {schedules} "
                                    f"route schedules, above the limit of {2 ** MAX_TASKS}")
    lockers = check_pool(pool, instance)
    memo = RouteMemo(pool, instance, policy)
    routes = set_routes(memo)

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
    state.reward = evaluate_solution(state, memo)[1].reward
    return state, state.reward, lockers


__all__ = ["MAX_TASKS", "set_routes", "brute_force_best"]
