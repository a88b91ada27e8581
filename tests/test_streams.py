"""Pins both solvers' random streams: best reward, (x1, x2) and steps run, exactly.

HQM's expected values were recorded with the roulette still on numpy arrays
(its masked q2 picks through ``ndarray.sum``, ``cumsum`` and
``searchsorted``). The GA's were re-recorded when it stopped breeding ``x2``
on pools without tied starts, as every generated pool here is: its best
states now carry the identity ``x2``. The GA's stream on pools with tied
starts, where it still breeds ``x2``, is pinned on hand-built pools below. A
change that keeps every draw and every bit leaves them as they are; one that
moves a draw or a float fails here.
"""

import numpy as np
import pytest

from helpers import random_hold_pool
from mplq.ga import run_ga
from mplq.hqm import run_hqm
from mplq.instance import GeneratorConfig, assign_customers, generate_instance
from mplq.routing import AdjustmentPolicy
from mplq.state import BudgetProfile
from mplq.taskgen import build_tasks

# (spaces, locations per space, seed), policy, solver -> tasks, (reward, x1, x2, steps)
PINNED = {
    ((5, 5, 0), "btd", "hqm"): (5, (0.029053657358031643, [0, 0, 4, 0, 0], [1, 0, 2, 3, 4], 30)),
    ((5, 5, 0), "btd", "ga"): (5, (0.029053657358031643, [2, 2, 2, 3, 3], [0, 1, 2, 3, 4], 30)),
    ((5, 5, 0), "hcps", "hqm"): (5, (0.029053657358031643, [0, 0, 4, 0, 0], [1, 0, 2, 3, 4], 30)),
    ((5, 5, 0), "hcps", "ga"): (5, (0.029053657358031643, [2, 2, 2, 3, 3], [0, 1, 2, 3, 4], 30)),
    ((6, 10, 1), "btd", "hqm"): (8, (0.0229992045182688, [0, 0, 0, 0, 0, 0, 0, 0],
                                     [0, 6, 1, 5, 4, 2, 3, 7], 30)),
    ((6, 10, 1), "btd", "ga"): (8, (0.0229992045182688, [6, 6, 6, 6, 6, 6, 6, 6],
                                    [0, 1, 2, 3, 4, 5, 6, 7], 30)),
    ((6, 10, 1), "hcps", "hqm"): (8, (0.0229992045182688, [0, 0, 0, 0, 0, 0, 0, 0],
                                      [0, 6, 1, 5, 4, 2, 3, 7], 30)),
    ((6, 10, 1), "hcps", "ga"): (8, (0.0229992045182688, [6, 6, 6, 6, 6, 6, 6, 6],
                                     [0, 1, 2, 3, 4, 5, 6, 7], 30)),
    ((10, 20, 0), "btd", "hqm"): (15, (0.011163774081262292,
                                       [0, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 11, 0, 5, 5],
                                       [12, 0, 13, 7, 14, 10, 11, 8, 1, 5, 6, 2, 3, 9, 4], 30)),
    ((10, 20, 0), "btd", "ga"): (15, (0.008275467468342774,
                                      [10, 6, 14, 10, 13, 13, 2, 1, 1, 10, 14, 13, 10, 14, 13],
                                      list(range(15)), 30)),
    ((10, 20, 0), "hcps", "hqm"): (15, (0.011163774081262292,
                                        [0, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 11, 0, 5, 5],
                                        [12, 0, 13, 7, 14, 10, 11, 8, 1, 5, 6, 2, 3, 9, 4], 30)),
    ((10, 20, 0), "hcps", "ga"): (15, (0.008275467468342774,
                                       [10, 6, 14, 10, 13, 13, 2, 1, 1, 10, 14, 13, 10, 14, 13],
                                       list(range(15)), 30)),
}


@pytest.mark.parametrize("cell,policy,solver", sorted(PINNED))
def test_solver_stream_is_pinned(cell, policy, solver):
    spaces, locations, seed = cell
    instance = generate_instance(GeneratorConfig(num_spaces=spaces,
                                                 locations_per_space=locations, seed=seed))
    pool = build_tasks(instance, assign_customers(instance))
    tasks, (reward, x1, x2, steps) = PINNED[cell, policy, solver]
    assert len(pool) == tasks
    run = run_hqm if solver == "hqm" else run_ga
    best, _, history = run(pool, instance, AdjustmentPolicy(policy),
                           BudgetProfile(agents=10, iterations=30), seed)
    assert (repr(best.reward), list(best.x1), list(best.x2),
            len(history.best_per_step)) == (repr(reward), x1, x2, steps)


# (pool index, policy) -> tasks, (reward, x1, x2, steps): the GA on the first three
# hand-built pools with tied window starts drawn from ``default_rng(11)``.
TIED_PINNED = {
    (0, "btd"): (4, (0.01717650701272829, [1, 1, 1, 1], [2, 1, 0, 3], 30)),
    (0, "hcps"): (4, (0.01717650701272829, [1, 1, 1, 1], [2, 1, 0, 3], 30)),
    (1, "btd"): (9, (0.015216136201856845, [1, 0, 1, 1, 0, 1, 1, 0, 1],
                     [8, 1, 0, 4, 5, 3, 6, 7, 2], 30)),
    (1, "hcps"): (9, (0.015082690873572476, [1, 0, 1, 0, 0, 0, 1, 0, 1],
                      [7, 0, 6, 2, 1, 8, 4, 5, 3], 30)),
    (2, "btd"): (9, (0.008869694577777693, [1, 1, 1, 1, 1, 1, 1, 2, 1],
                     [6, 1, 5, 0, 2, 7, 3, 4, 8], 30)),
    (2, "hcps"): (9, (0.00871255749005382, [1, 1, 1, 1, 1, 1, 1, 1, 1],
                      [0, 6, 8, 2, 3, 7, 4, 1, 5], 30)),
}


def _tied_pools(count):
    rng = np.random.default_rng(11)
    pools = []
    while len(pools) < count:
        inst, pool = random_hold_pool(rng)
        if pool.start_order is None:
            pools.append((inst, pool))
    return pools


@pytest.mark.parametrize("index,policy", sorted(TIED_PINNED))
def test_ga_stream_on_tied_starts_is_pinned(index, policy):
    """On a pool with tied starts the GA still breeds ``x2``, draw for draw."""
    inst, pool = _tied_pools(3)[index]
    tasks, (reward, x1, x2, steps) = TIED_PINNED[index, policy]
    assert len(pool) == tasks
    best, _, history = run_ga(pool, inst, AdjustmentPolicy(policy),
                              BudgetProfile(agents=10, iterations=30), index)
    assert (repr(best.reward), list(best.x1), list(best.x2),
            len(history.best_per_step)) == (repr(reward), x1, x2, steps)
