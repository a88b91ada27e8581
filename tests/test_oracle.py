import itertools
import math
from collections import Counter

import numpy as np
import pytest

from mplq import oracle
from mplq.errors import NothingToSolveError, OverCapacityError, SearchSpaceLimitError
from mplq.instance import GeneratorConfig, assign_customers, generate_instance
from mplq.oracle import brute_force_best, set_routes
from mplq.routing import (Adjustment, AdjustmentPolicy, RouteMemo, evaluate_solution,
                          schedule_route)
from mplq.state import effective_locker_count
from mplq.taskgen import TaskPool, build_tasks
from helpers import evaluate, make_instance, make_pool, make_space, make_state, make_task


def test_single_task_single_locker():
    sp = make_space(1, 3.0, 4.0)
    inst = make_instance([sp], max_lockers=1)
    pool = make_pool([make_task(1, window=(0, 1440))])
    best, reward, _ = brute_force_best(pool, inst, AdjustmentPolicy.HCPS)
    assert list(best.x1) == [0] and list(best.x2) == [0]
    assert reward == pytest.approx(1 / (5 + 2 * 5.0))


def _generated(spaces, locations, seed, **overrides):
    inst = generate_instance(GeneratorConfig(num_spaces=spaces, locations_per_space=locations,
                                             seed=seed, **overrides))
    return inst, build_tasks(inst, assign_customers(inst))


def test_oracle_accepts_max_tasks():
    inst, pool = _generated(8, 10, 3)
    assert len(pool) == oracle.MAX_TASKS
    best, reward, _ = brute_force_best(pool, inst, AdjustmentPolicy.HCPS)
    _, cost = evaluate(best, pool, inst, AdjustmentPolicy.HCPS)
    assert best.reward == reward == cost.reward
    n = len(pool)
    for x1 in ([0] * n, list(range(n))):  # one locker, and one locker per task
        _, other = evaluate(make_state(x1, range(n)), pool, inst, AdjustmentPolicy.HCPS)
        assert other.reward <= reward


def test_oracle_refuses_above_max_tasks():
    inst, pool = _generated(8, 10, 1)
    assert len(pool) == oracle.MAX_TASKS + 1
    with pytest.raises(SearchSpaceLimitError, match="holds 14 tasks, whose sets need 16384 "):
        brute_force_best(pool, inst, AdjustmentPolicy.BTD)


def test_oracle_counts_the_orders_of_tied_starts():
    # n tasks sharing one start need sum_j n!/(n-j)! schedules: 1957 for 6, 13700 for 7.
    spaces = [make_space(k, float(k), 1.0) for k in range(1, 8)]
    inst = make_instance(spaces, max_lockers=2)
    tied = make_pool([make_task(k, window=(0, 1440)) for k in range(1, 8)])
    with pytest.raises(SearchSpaceLimitError, match="holds 7 tasks, whose sets need 13700 "):
        brute_force_best(tied, inst, AdjustmentPolicy.BTD)
    six = make_pool(tied.tasks[:6])
    best, reward, _ = brute_force_best(six, inst, AdjustmentPolicy.BTD)
    assert reward == _first_use_enumeration(six, inst, AdjustmentPolicy.BTD)[1]


def test_oracle_refuses_a_task_above_capacity():
    inst, pool = _generated(2, 3, 2, capacity=5.0)
    with pytest.raises(OverCapacityError, match="task 0 .* demands 8 parcels"):
        brute_force_best(pool, inst, AdjustmentPolicy.BTD)


def test_line_instance_prefers_single_locker():
    spaces = [make_space(k, float(k), 0.0) for k in (1, 2, 3)]
    inst = make_instance(spaces, max_lockers=2)
    pool = make_pool([make_task(k, window=(0, 1440)) for k in (1, 2, 3)])
    best, reward, _ = brute_force_best(pool, inst, AdjustmentPolicy.HCPS)
    assert len(set(best.x1)) == 1
    # one locker sweeping 0 -> 1 -> 2 -> 3 -> 0 travels 6 km
    assert reward == pytest.approx(1 / (5 + 6.0))


def test_tie_break_is_lexicographically_smallest():
    # two identical spaces at the same point: many states share the optimum
    spaces = [make_space(1, 1.0, 0.0), make_space(2, 1.0, 0.0)]
    inst = make_instance(spaces, max_lockers=2)
    pool = make_pool([make_task(1, window=(0, 700)), make_task(2, window=(700, 1440))])
    best, reward, _ = brute_force_best(pool, inst, AdjustmentPolicy.HCPS)
    equal = []
    import itertools
    for x1 in itertools.product(range(2), repeat=2):
        for x2 in itertools.permutations(range(2)):
            state = make_state(list(x1), list(x2))
            _, cost = evaluate(state, pool, inst, AdjustmentPolicy.HCPS)
            if cost.reward == reward:
                equal.append((x1, tuple(x2)))
    assert (tuple(best.x1), tuple(best.x2)) == min(equal)


def test_oracle_dominates_any_state():
    spaces = [make_space(1, 1.0, 1.0), make_space(2, -2.0, 0.5)]
    inst = make_instance(spaces, max_lockers=2)
    pool = make_pool([make_task(1, window=(0, 400)), make_task(2, window=(500, 900)),
                      make_task(1, a=2, window=(400, 500))])
    _, opt, _ = brute_force_best(pool, inst, AdjustmentPolicy.BTD)
    import itertools
    for x1 in itertools.product(range(2), repeat=3):
        for x2 in itertools.permutations(range(3)):
            _, cost = evaluate(make_state(list(x1), list(x2)), pool, inst, AdjustmentPolicy.BTD)
            assert cost.reward <= opt + 1e-15


def test_empty_pool_rejected():
    inst = make_instance([make_space(1, 1.0, 0.0)])
    empty = TaskPool(tasks=(), unservable=())
    with pytest.raises(NothingToSolveError):
        brute_force_best(empty, inst, AdjustmentPolicy.BTD)


# ---------------------------------------------------------------------------
# Cross-check against the full enumeration
# ---------------------------------------------------------------------------


def _reference_best(pool, inst, policy, orders=None):
    """Every one of the L^n * n! states, first strict maximum kept."""
    n = len(pool)
    lockers = effective_locker_count(inst.fleet.max_lockers, n)
    best, best_reward = None, -math.inf
    memo = RouteMemo(pool, inst, policy)
    for x1 in itertools.product(range(lockers), repeat=n):
        for x2 in orders or itertools.permutations(range(n)):
            _, cost = evaluate_solution(make_state(x1, x2), memo)
            if cost.reward > best_reward:
                best, best_reward = (x1, tuple(x2)), cost.reward
    return best, best_reward


def _first_use_enumeration(pool, inst, policy):
    """The former oracle: each first-use allocation times each order of tied starts.

    Allocations range over the lockers the solvers use, skipping those that
    only rename lockers; orders only permute tasks that share a window start.
    The first strict maximum is kept, so ties break toward the
    lexicographically smallest scored pair.
    """
    n = len(pool)
    lockers = effective_locker_count(inst.fleet.max_lockers, n)
    starts = pool.starts
    orders = [x2 for x2 in itertools.permutations(range(n))
              if all(starts[t] == starts[k] for k, t in enumerate(x2))]
    best, best_reward = None, -math.inf
    memo = RouteMemo(pool, inst, policy)
    for x1 in itertools.product(range(lockers), repeat=n):
        if any(x1[t] > max(x1[:t], default=-1) + 1 for t in range(n)):
            continue  # renames the lockers of a first-use allocation
        for x2 in orders:
            _, cost = evaluate_solution(make_state(x1, x2), memo)
            if cost.reward > best_reward:
                best, best_reward = (x1, x2), cost.reward
    return best, best_reward


def tie_orders(ids, starts):
    """Every order of ``ids`` by window start, tasks sharing a start in each order, sorted."""
    runs = itertools.groupby(sorted(ids, key=starts.__getitem__), key=starts.__getitem__)
    perms = [list(itertools.permutations(run)) for _, run in runs]
    return [sum(orders, ()) for orders in itertools.product(*perms)]


def _per_set_routes(memo):
    """The reference set routes: each order scheduled from scratch, first least distance kept."""
    n = len(memo.pool)
    return [(0.0, ())] + [min(
        ((schedule_route(memo, task_ids=order).distance_km, order)
         for order in tie_orders([t for t in range(n) if group >> t & 1], memo.pool.starts)),
        key=lambda route: route[0]) for group in range(1, 1 << n)]


def _generated_pools():
    """Every generated pool of 1 to 4 tasks from a few small instance families."""
    for spaces, locations, max_lockers, seeds in ((3, 5, 3, range(40)), (2, 3, 3, range(15)),
                                                  (2, 4, 2, range(15)), (1, 5, 3, range(10))):
        for seed in seeds:
            inst = generate_instance(GeneratorConfig(num_spaces=spaces,
                                                     locations_per_space=locations,
                                                     max_lockers=max_lockers, seed=seed))
            pool = build_tasks(inst, assign_customers(inst))
            if 1 <= len(pool) <= 4:
                yield inst, pool


def _hand_built_pool(rng, sizes=(2, 4)):
    """``sizes`` tasks whose starts often tie, with long windows and tight capacity."""
    spaces = [make_space(k + 1, float(rng.uniform(-6, 6)), float(rng.uniform(-6, 6)),
                         service_time=float(rng.uniform(5, 40)))
              for k in range(int(rng.integers(1, 4)))]
    tasks = []
    for _ in range(int(rng.integers(sizes[0], sizes[1] + 1))):
        sp = spaces[int(rng.integers(len(spaces)))]
        start = 60.0 * int(rng.integers(0, 3))
        end = start + sp.service_time + float(rng.choice([0.0, rng.uniform(0, 90), 600.0]))
        tasks.append(make_task(sp.id, demand=int(rng.integers(1, 5)), window=(start, end),
                               members=((0, float(rng.uniform(0, start + 30))),)))
    inst = make_instance(spaces, capacity=float(rng.choice([4.0, 6.0, 1e9])),
                         speed=float(rng.uniform(0.1, 1.0)),
                         max_lockers=int(rng.integers(1, 4)))
    return inst, make_pool(tasks)


def _tied(pool):
    starts = [task.window.start for task in pool.tasks]
    return len(set(starts)) < len(starts)


def test_oracle_matches_the_full_enumeration():
    rng = np.random.default_rng(5)
    cases = list(_generated_pools()) + [_hand_built_pool(rng) for _ in range(70)]
    for inst, pool in cases:
        for policy in AdjustmentPolicy:
            best, reward, lockers = brute_force_best(pool, inst, policy)
            pair, ref_reward = _reference_best(pool, inst, policy)
            assert reward == ref_reward
            assert lockers == effective_locker_count(inst.fleet.max_lockers, len(pool))
            if not _tied(pool):
                assert (tuple(best.x1), tuple(best.x2)) == pair
    tied = sum(_tied(pool) for _, pool in cases)
    assert tied >= 30 and len(cases) - tied >= 60


def test_oracle_matches_the_first_use_enumeration():
    # 5 to 7 tasks, where the full L^n * n! enumeration is too slow.
    rng = np.random.default_rng(7)
    cases = [_generated(spaces, 5, seed, max_lockers=lockers)
             for spaces, lockers, seeds in ((4, 3, range(100)), (5, 2, range(40)))
             for seed in seeds]
    cases = [(inst, pool) for inst, pool in cases if 5 <= len(pool) <= 7]
    cases += [_hand_built_pool(rng, sizes=(5, 7)) for _ in range(20)]
    for inst, pool in cases:
        for policy in AdjustmentPolicy:
            best, reward, _ = brute_force_best(pool, inst, policy)
            pair, ref_reward = _first_use_enumeration(pool, inst, policy)
            assert reward == ref_reward and best.x1 == pair[0]
            if not _tied(pool):
                assert best.x2 == pair[1]
    sizes = [len(pool) for _, pool in cases]
    tied = sum(_tied(pool) for _, pool in cases)
    assert tied >= 15 and len(cases) - tied >= 60 and sizes.count(7) >= 8


def test_tie_orders_equal_the_filtered_permutations():
    rng = np.random.default_rng(11)
    tied = untied = 0
    for _ in range(300):
        n = int(rng.integers(0, 8))
        # Few distinct starts make ties; many make them rare.
        starts = (60.0 * rng.integers(0, int(rng.integers(1, 2 * n + 2)), size=n)).tolist()
        ids = sorted(rng.permutation(n)[:int(rng.integers(0, n + 1))].tolist())
        filtered = [order for order in itertools.permutations(ids)
                    if all(starts[a] <= starts[b] for a, b in zip(order, order[1:]))]
        assert tie_orders(ids, starts) == filtered
        distinct = len({starts[t] for t in ids})
        tied += distinct < len(ids)
        untied += distinct == len(ids) >= 2
    assert tied >= 60 and untied >= 45


def test_set_routes_match_the_per_set_enumeration():
    # Every (distance, order) bit-equal, on tied pools that hold, detour early
    # and detour for capacity under both policies, and on a pool at the bound.
    rng = np.random.default_rng(13)
    cases = [_hand_built_pool(rng, sizes=(3, 7)) for _ in range(60)]
    cases.append(_generated(8, 10, 3))
    assert len(cases[-1][1]) == oracle.MAX_TASKS
    seen = Counter()
    for inst, pool in cases:
        for policy in AdjustmentPolicy:
            memo = RouteMemo(pool, inst, policy)
            assert set_routes(memo) == _per_set_routes(memo)
            for route in memo.routes.values():
                load = 0.0
                for v in route.visits:
                    overflow = load + pool.tasks[v.task_id].demand > inst.fleet.capacity
                    seen[v.adjustment, overflow] += 1
                    load = v.load_after
    assert sum(_tied(pool) for _, pool in cases) >= 50
    assert seen[Adjustment.HCPS, False] >= 100 and seen[Adjustment.BTD, True] >= 100
    assert seen[Adjustment.BTD, False] >= 100


def test_tied_starts_are_ordered_by_the_oracle():
    # Three tasks open together and one locker serves them: the identity order
    # drives far, near, far, while serving both far tasks in a row is shorter.
    spaces = [make_space(1, 1.0, 0.0), make_space(2, 10.0, 0.0)]
    inst = make_instance(spaces, max_lockers=1)
    pool = make_pool([make_task(2, window=(0, 1440)), make_task(1, window=(0, 1440)),
                      make_task(2, a=2, window=(0, 1440))])
    best, reward, _ = brute_force_best(pool, inst, AdjustmentPolicy.BTD)
    _, full = _reference_best(pool, inst, AdjustmentPolicy.BTD)
    _, identity_only = _reference_best(pool, inst, AdjustmentPolicy.BTD, orders=[(0, 1, 2)])
    assert identity_only < reward == full
    assert list(best.x2) != [0, 1, 2]
