"""Pins both solvers' random streams: best reward, (x1, x2) and steps run, exactly.

The expected values were recorded with the roulette still on numpy arrays
(HQM's masked q2 picks through ``ndarray.sum``, ``cumsum`` and
``searchsorted``; the GA's selection CDF rebuilt for every draw). A change
that keeps every draw and every bit leaves them as they are; one that moves a
draw or a float fails here.
"""

import pytest

from mplq.ga import run_ga
from mplq.hqm import run_hqm
from mplq.instance import GeneratorConfig, assign_customers, generate_instance
from mplq.routing import AdjustmentPolicy
from mplq.state import BudgetProfile
from mplq.taskgen import build_tasks

# (spaces, locations per space, seed), policy, solver -> tasks, (reward, x1, x2, steps)
PINNED = {
    ((5, 5, 0), "btd", "hqm"): (5, (0.029053657358031643, [0, 0, 4, 0, 0], [1, 0, 2, 3, 4], 30)),
    ((5, 5, 0), "btd", "ga"): (5, (0.029053657358031643, [4, 4, 4, 3, 3], [2, 3, 0, 1, 4], 30)),
    ((5, 5, 0), "hcps", "hqm"): (5, (0.029053657358031643, [0, 0, 4, 0, 0], [1, 0, 2, 3, 4], 30)),
    ((5, 5, 0), "hcps", "ga"): (5, (0.029053657358031643, [4, 4, 4, 3, 3], [2, 3, 0, 1, 4], 30)),
    ((6, 10, 1), "btd", "hqm"): (8, (0.0229992045182688, [0, 0, 0, 0, 0, 0, 0, 0],
                                     [0, 6, 1, 5, 4, 2, 3, 7], 30)),
    ((6, 10, 1), "btd", "ga"): (8, (0.020627162834910142, [4, 4, 6, 6, 6, 6, 6, 4],
                                    [6, 5, 4, 1, 7, 3, 2, 0], 30)),
    ((6, 10, 1), "hcps", "hqm"): (8, (0.0229992045182688, [0, 0, 0, 0, 0, 0, 0, 0],
                                      [0, 6, 1, 5, 4, 2, 3, 7], 30)),
    ((6, 10, 1), "hcps", "ga"): (8, (0.020627162834910142, [4, 4, 6, 6, 6, 6, 6, 4],
                                     [6, 5, 4, 1, 7, 3, 2, 0], 30)),
    ((10, 20, 0), "btd", "hqm"): (15, (0.011163774081262292,
                                       [0, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 11, 0, 5, 5],
                                       [12, 0, 13, 7, 14, 10, 11, 8, 1, 5, 6, 2, 3, 9, 4], 30)),
    ((10, 20, 0), "btd", "ga"): (15, (0.008236992560088268,
                                      [4, 4, 14, 1, 13, 13, 2, 1, 10, 10, 14, 13, 10, 2, 13],
                                      [14, 6, 2, 5, 3, 7, 9, 13, 10, 1, 8, 0, 11, 12, 4], 30)),
    ((10, 20, 0), "hcps", "hqm"): (15, (0.011163774081262292,
                                        [0, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 11, 0, 5, 5],
                                        [12, 0, 13, 7, 14, 10, 11, 8, 1, 5, 6, 2, 3, 9, 4], 30)),
    ((10, 20, 0), "hcps", "ga"): (15, (0.008236992560088268,
                                       [4, 4, 14, 1, 13, 13, 2, 1, 10, 10, 14, 13, 10, 2, 13],
                                       [14, 6, 2, 5, 3, 7, 9, 13, 10, 1, 8, 0, 11, 12, 4], 30)),
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
