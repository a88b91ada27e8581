import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mplq import ga, hqm
from mplq.errors import NothingToSolveError, ParameterError
from mplq.ga import next_generation, run_ga, _order_crossover
from mplq.instance import GeneratorConfig, assign_customers, generate_instance
from mplq.routing import AdjustmentPolicy
from mplq.taskgen import TaskPool, build_tasks
from mplq.state import BudgetProfile, SearchState, Stream, roulette_cdf
from helpers import assert_same_continuation, make_state, random_hold_pool, stream_pair


def _evaluated_population(n_states, n_tasks, lockers, seed=0):
    rng = np.random.default_rng(seed)
    pop = []
    for k in range(n_states):
        s = make_state(rng.integers(0, lockers, size=n_tasks),
                       rng.permutation(n_tasks))
        s.reward = float(rng.uniform(0.1, 1.0))
        pop.append(s)
    return pop


def _choice_select(rewards, rng):
    """The selection as written with ``Generator.choice``: the reference stream."""
    total = rewards.sum()
    if total <= 0:
        return int(rng.integers(len(rewards)))
    return int(rng.choice(len(rewards), p=rewards / total))


def _rewards(maker, size, kind):
    return (maker.uniform(1e-3, 0.1, size) if kind == 0
            else maker.choice([0.01, 0.02], size=size) if kind == 1  # ties
            else np.zeros(size) if kind == 2
            else np.full(1, 0.05))  # one candidate


def test_selection_draws_what_generator_choice_drew(monkeypatch):
    # with no crossover and no mutation, each child is a clone of its first parent
    monkeypatch.setattr(ga, "CROSSOVER_PROB", 0.0)
    monkeypatch.setattr(ga, "MUTATION_RATE", 0.0)
    for seed in range(300):
        maker = np.random.default_rng(seed)
        size, n_tasks = int(maker.integers(2, 40)), int(maker.integers(1, 6))
        pop = _evaluated_population(size, n_tasks, 3, seed=seed)
        rewards = _rewards(maker, size, seed % 3)
        for state, reward in zip(pop, rewards):
            state.reward = float(reward)
        ours, ref = stream_pair(seed + 1000)
        children = [s for s in next_generation(pop, ours, max_lockers=3) if s.reward is None]
        for child in children:
            parent = pop[_choice_select(rewards, ref)]
            _choice_select(rewards, ref)
            for _ in range(1 + 2 * n_tasks):  # the crossover coin, then a double per gene twice
                ref.random()
            assert (child.x1, child.x2) == (parent.x1, parent.x2)
        assert_same_continuation(ours, ref)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_select_index_refuses_non_finite_rewards_like_generator_choice(bad):
    rewards = np.array([0.01, bad, 0.02])
    with pytest.raises(ValueError), np.errstate(invalid="ignore"):
        _choice_select(rewards, np.random.default_rng(0))
    with pytest.raises(ValueError):
        roulette_cdf(rewards.tolist())
    pop = _evaluated_population(3, 4, 2)
    pop[1].reward = float(bad)
    with pytest.raises(ValueError):
        next_generation(pop, Stream(np.random.default_rng(0)), max_lockers=2)


def _np_uniform_crossover(a, b, rng):
    """The uniform crossover on int64 arrays: the reference for the list operator."""
    mask = rng.integers(0, 2, size=a.shape[0]).astype(bool)
    return np.where(mask, a, b)


def _np_order_crossover(a, b, rng):
    """The order crossover on int64 arrays: the reference for the list operator."""
    n = len(a)
    if n == 1:
        return a.copy()
    c1, c2 = sorted(rng.choice(n + 1, size=2, replace=False).tolist())
    child = np.full(n, -1, dtype=np.int64)
    child[c1:c2] = a[c1:c2]
    used = set(a[c1:c2].tolist())
    fill = [v for v in b.tolist() if v not in used]
    slots = [k for k in range(n) if not (c1 <= k < c2)]
    for k, v in zip(slots, fill):
        child[k] = v
    return child


def _np_mutate(x1, x2, rate, max_lockers, rng):
    """The mutation with item writes into int64 arrays: the reference for the list operator."""
    n = len(x1)
    for k in range(n):
        if rng.random() < rate:
            x1[k] = rng.integers(max_lockers)
    for k in range(n):
        if rng.random() < rate and n > 1:
            j = int(rng.integers(n - 1))
            if j >= k:
                j += 1
            x2[k], x2[j] = x2[j], x2[k]
    return x1, x2


def _choice_next_generation(population, rng, max_lockers):
    """``next_generation`` on int64 arrays with ``_choice_select``: the reference stream."""
    ranked = sorted(population, key=lambda s: s.reward, reverse=True)
    out = ranked[:max(1, int(0.05 * len(population)))]
    rewards = np.array([s.reward for s in population])
    while len(out) < len(population):
        pa = population[_choice_select(rewards, rng)]
        pb = population[_choice_select(rewards, rng)]
        a1, a2, b1, b2 = (np.array(v, dtype=np.int64) for v in (pa.x1, pa.x2, pb.x1, pb.x2))
        if rng.random() < ga.CROSSOVER_PROB:
            x1 = _np_uniform_crossover(a1, b1, rng)
            x2 = _np_order_crossover(a2, b2, rng)
        else:
            x1, x2 = a1, a2
        x1, x2 = _np_mutate(x1, x2, ga.MUTATION_RATE, max_lockers, rng)
        out.append(SearchState(x1=tuple(x1.tolist()), x2=tuple(x2.tolist())))
    return out


def test_list_operators_match_the_array_operators(monkeypatch):
    # every child crossed: its mask, its cut pair (over one task) and both
    # mutation passes, against the int64 array operators
    monkeypatch.setattr(ga, "CROSSOVER_PROB", 1.0)
    for seed in range(400):
        maker = np.random.default_rng(seed)
        n, lockers = int(maker.integers(1, 20)), int(maker.integers(1, 6))
        pop = _evaluated_population(int(maker.integers(2, 5)), n, lockers, seed=seed)
        monkeypatch.setattr(ga, "MUTATION_RATE", (0.05, 0.5, 1.0)[seed % 3])
        ours, ref = stream_pair(seed + 1000)
        got = next_generation(pop, ours, max_lockers=lockers)
        expected = _choice_next_generation(pop, ref, max_lockers=lockers)
        assert [(s.x1, s.x2) for s in got] == [(s.x1, s.x2) for s in expected]
        assert all(type(v) is int for s in got for v in s.x1 + s.x2)
        assert_same_continuation(ours, ref)


def test_next_generation_draws_what_choice_selection_drew():
    # sizes past 128 take numpy's pairwise sum into its split branch
    for seed, size in enumerate((2, 3, 7, 8, 9, 20, 100, 129, 150, 300)):
        maker = np.random.default_rng(seed)
        n_tasks, lockers = int(maker.integers(1, 9)), int(maker.integers(1, 4))
        pop = _evaluated_population(size, n_tasks, lockers, seed=seed)
        for state, reward in zip(pop, _rewards(maker, size, seed % 3)):
            state.reward = float(reward)
        ours, ref = stream_pair(seed + 1000)
        for _ in range(2):
            got = next_generation(pop, ours, max_lockers=lockers)
            expected = _choice_next_generation(pop, ref, max_lockers=lockers)
            assert [(list(s.x1), list(s.x2), s.reward) for s in got] == \
                [(list(s.x1), list(s.x2), s.reward) for s in expected]
            assert_same_continuation(ours, ref)


def test_params_validation():
    pool, inst = _tiny_pool()
    with pytest.raises(ParameterError, match="population must be >= 2"):
        run_ga(pool, inst, AdjustmentPolicy.BTD, BudgetProfile(agents=1, iterations=1), 0)
    # the elites keep their rewards; the children come back unevaluated
    for size, elites in ((100, 5), (10, 1)):  # 0.5 elite rounds up to one
        nxt = next_generation(_evaluated_population(size, 4, 2),
                              Stream(np.random.default_rng(0)), max_lockers=2)
        assert sum(s.reward is not None for s in nxt) == elites


def test_elites_pass_through_unchanged():
    pop = _evaluated_population(100, 6, 3)
    nxt = next_generation(pop, Stream(np.random.default_rng(1)), max_lockers=3)
    ranked = sorted(pop, key=lambda s: s.reward, reverse=True)
    for k in range(5):  # the top 5% of 100
        assert list(nxt[k].x1) == list(ranked[k].x1)
        assert list(nxt[k].x2) == list(ranked[k].x2)
        assert nxt[k].reward == ranked[k].reward


def test_no_variation_yields_parent_clones(monkeypatch):
    monkeypatch.setattr(ga, "CROSSOVER_PROB", 0.0)
    monkeypatch.setattr(ga, "MUTATION_RATE", 0.0)
    pop = _evaluated_population(20, 5, 2)
    nxt = next_generation(pop, Stream(np.random.default_rng(2)), max_lockers=2)
    genotypes = {(tuple(s.x1), tuple(s.x2)) for s in pop}
    for child in nxt:
        assert (tuple(child.x1), tuple(child.x2)) in genotypes


def test_population_size_constant_and_children_valid():
    pop = _evaluated_population(30, 8, 4)
    nxt = next_generation(pop, Stream(np.random.default_rng(3)), max_lockers=4)
    assert len(nxt) == 30
    for child in nxt:
        assert sorted(child.x2) == list(range(8))
        assert all(0 <= v < 4 for v in child.x1)


def test_next_generation_requires_two_individuals():
    pop = _evaluated_population(2, 3, 2)
    with pytest.raises(ParameterError):
        next_generation(pop[:1], Stream(np.random.default_rng(0)), max_lockers=2)


def test_next_generation_requires_evaluated_population():
    pop = _evaluated_population(4, 3, 2)
    pop[2].reward = None
    with pytest.raises(ParameterError):
        next_generation(pop, Stream(np.random.default_rng(0)), max_lockers=2)


@settings(max_examples=50)
@given(data=st.data(), n=st.integers(2, 9))
def test_order_crossover_yields_permutation(data, n):
    a = data.draw(st.permutations(range(n)))
    b = data.draw(st.permutations(range(n)))
    rng = Stream(np.random.default_rng(data.draw(st.integers(0, 999))))
    child = _order_crossover(a, b, rng.two_of(n + 1))
    assert sorted(child) == list(range(n))


def _tiny_pool():
    inst = generate_instance(GeneratorConfig(num_spaces=2, locations_per_space=3,
                                             max_lockers=2, seed=4))
    pool = build_tasks(inst, assign_customers(inst))
    return pool, inst


def test_run_ga_refuses_an_empty_pool():
    _, inst = _tiny_pool()
    with pytest.raises(NothingToSolveError, match="task pool is empty"):
        run_ga(TaskPool(tasks=(), unservable=()), inst, AdjustmentPolicy.BTD,
               BudgetProfile(agents=4, iterations=2), 0)


def test_run_ga_elitism_monotone():
    pool, inst = _tiny_pool()
    best, plan, history = run_ga(pool, inst, AdjustmentPolicy.HCPS,
                                 BudgetProfile(agents=12, iterations=40), 5)
    assert history.final_best >= history.initial_best
    assert all(y >= x for x, y in zip(history.best_per_step, history.best_per_step[1:]))
    assert best.reward == history.final_best
    assert plan.lockers_dispatched >= 1


def test_run_ga_deterministic():
    pool, inst = _tiny_pool()
    budget = BudgetProfile(agents=10, iterations=25)
    b1, _, h1 = run_ga(pool, inst, AdjustmentPolicy.BTD, budget, 9)
    b2, _, h2 = run_ga(pool, inst, AdjustmentPolicy.BTD, budget, 9)
    assert h1.best_per_step == h2.best_per_step
    assert list(b1.x1) == list(b2.x1) and list(b1.x2) == list(b2.x2)


def _ga_evaluations(monkeypatch, pool, inst, policy, seed):
    """Every state one GA run hands its evaluator, and the states it evaluated."""
    states, evaluated = [], []
    evaluate, reward = hqm.evaluate_solution, hqm.Evaluator.reward
    with monkeypatch.context() as m:
        m.setattr(hqm, "evaluate_solution",
                  lambda state, *a, **k: evaluated.append(state) or evaluate(state, *a, **k))
        m.setattr(hqm.Evaluator, "reward",
                  lambda self, state: states.append(state) or reward(self, state))
        best, _, _ = run_ga(pool, inst, policy, BudgetProfile(agents=20, iterations=60), seed)
    # the last evaluation decodes the best state's plan
    assert evaluated.pop() is best
    return states, evaluated


@pytest.mark.parametrize("policy", [AdjustmentPolicy.BTD, AdjustmentPolicy.HCPS])
def test_generated_pools_breed_the_allocation_only(monkeypatch, policy):
    for spaces, locations, seed in ((5, 5, 0), (6, 10, 1), (10, 20, 0)):
        inst = generate_instance(GeneratorConfig(num_spaces=spaces,
                                                 locations_per_space=locations, seed=seed))
        pool = build_tasks(inst, assign_customers(inst))
        assert pool.start_order is not None
        states, evaluated = _ga_evaluations(monkeypatch, pool, inst, policy, seed)
        assert {s.x2 for s in states} == {tuple(range(len(pool)))}
        assert sorted(s.x1 for s in evaluated) == sorted({s.x1 for s in states})


@pytest.mark.parametrize("policy", [AdjustmentPolicy.BTD, AdjustmentPolicy.HCPS])
def test_tied_starts_keep_the_pair_key(monkeypatch, policy):
    rng = np.random.default_rng(41)
    tied = 0
    while tied < 4:
        inst, pool = random_hold_pool(rng)
        if pool.start_order is not None:
            continue
        tied += 1
        states, evaluated = _ga_evaluations(monkeypatch, pool, inst, policy, tied)
        assert len({s.x2 for s in states}) > 1
        pairs = sorted((s.x1, s.x2) for s in evaluated)
        assert pairs == sorted({(s.x1, s.x2) for s in states})
