import pytest

from mplq.errors import NothingToSolveError, SearchSpaceLimitError
from mplq.oracle import brute_force_best, search_space_size
from mplq.routing import AdjustmentPolicy, evaluate_solution
from mplq.taskgen import TaskPool
from helpers import make_instance, make_pool, make_space, make_state, make_task


def test_search_space_size():
    assert search_space_size(2, 2) == 8
    assert search_space_size(3, 2) == 48
    assert search_space_size(1, 1) == 1


def test_single_task_single_locker():
    sp = make_space(1, 3.0, 4.0)
    inst = make_instance([sp], max_lockers=1)
    pool = make_pool([make_task(1, window=(0, 1440))])
    best, reward = brute_force_best(pool, inst, AdjustmentPolicy.HCPS)
    assert best.x1.tolist() == [0] and best.x2.tolist() == [0]
    assert reward == pytest.approx(1 / (5 + 2 * 5.0))


def test_cardinality_is_exactly_the_limit_boundary():
    spaces = [make_space(1, 1.0, 0.0), make_space(2, 2.0, 0.0)]
    inst = make_instance(spaces, max_lockers=2)
    pool = make_pool([make_task(1, window=(0, 720)), make_task(2, window=(720, 1440))])
    with pytest.raises(SearchSpaceLimitError) as err:
        brute_force_best(pool, inst, AdjustmentPolicy.BTD, limit=7)
    assert err.value.cardinality == 8
    best, _ = brute_force_best(pool, inst, AdjustmentPolicy.BTD, limit=8)
    assert best is not None


def test_line_instance_prefers_single_locker():
    spaces = [make_space(k, float(k), 0.0) for k in (1, 2, 3)]
    inst = make_instance(spaces, max_lockers=2)
    pool = make_pool([make_task(k, window=(0, 1440)) for k in (1, 2, 3)])
    best, reward = brute_force_best(pool, inst, AdjustmentPolicy.HCPS)
    assert len(set(best.x1.tolist())) == 1
    # one locker sweeping 0 -> 1 -> 2 -> 3 -> 0 travels 6 km
    assert reward == pytest.approx(1 / (5 + 6.0))


def test_tie_break_is_lexicographically_smallest():
    # two identical spaces at the same point: many states share the optimum
    spaces = [make_space(1, 1.0, 0.0), make_space(2, 1.0, 0.0)]
    inst = make_instance(spaces, max_lockers=2)
    pool = make_pool([make_task(1, window=(0, 700)), make_task(2, window=(700, 1440))])
    best, reward = brute_force_best(pool, inst, AdjustmentPolicy.HCPS)
    equal = []
    import itertools
    for x1 in itertools.product(range(2), repeat=2):
        for x2 in itertools.permutations(range(2)):
            state = make_state(list(x1), list(x2))
            _, cost = evaluate_solution(state, pool, inst, AdjustmentPolicy.HCPS)
            if cost.reward == reward:
                equal.append((x1, tuple(x2)))
    assert (tuple(best.x1.tolist()), tuple(best.x2.tolist())) == min(equal)


def test_oracle_dominates_any_state():
    spaces = [make_space(1, 1.0, 1.0), make_space(2, -2.0, 0.5)]
    inst = make_instance(spaces, max_lockers=2)
    pool = make_pool([make_task(1, window=(0, 400)), make_task(2, window=(500, 900)),
                      make_task(1, a=2, window=(400, 500))])
    _, opt = brute_force_best(pool, inst, AdjustmentPolicy.BTD)
    import itertools
    for x1 in itertools.product(range(2), repeat=3):
        for x2 in itertools.permutations(range(3)):
            _, cost = evaluate_solution(make_state(list(x1), list(x2)), pool, inst,
                                        AdjustmentPolicy.BTD)
            assert cost.reward <= opt + 1e-15


def test_empty_pool_rejected():
    inst = make_instance([make_space(1, 1.0, 0.0)])
    empty = TaskPool(tasks=(), unservable=())
    with pytest.raises(NothingToSolveError):
        brute_force_best(empty, inst, AdjustmentPolicy.BTD)
