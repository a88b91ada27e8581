import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mplq import hqm, routing
from mplq.errors import NothingToSolveError, ShapeError
from mplq.hqm import (Agent, QMatrices, global_construct, has_converged,
                      init_agents, local_move, normalize_q, run_hqm, update_q,
                      write_history_csv)
from mplq.hqm import PickTable, Stream, _pairwise_sum, roulette_cdf
from mplq.instance import GeneratorConfig, assign_customers, generate_instance
from mplq.oracle import brute_force_best
from mplq.routing import AdjustmentPolicy
from mplq.state import BudgetProfile, SearchState, effective_locker_count, random_state
from mplq.taskgen import TaskPool, build_tasks
from helpers import (assert_same_continuation, make_pool, make_state, make_task,
                     stream_pair)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def test_normalize_min_max_row():
    assert normalize_q([[0.0, 5.0, 10.0]]) == [[0.0, 0.5, 1.0]]


def test_normalize_constant_row_becomes_uniform():
    assert normalize_q([[3.0, 3.0, 3.0]]) == [[1 / 3, 1 / 3, 1 / 3]]


def test_normalize_idempotent_on_spanning_rows():
    rows = [[0.0, 0.25, 1.0], [1.0, 0.0, 0.5]]
    assert normalize_q(normalize_q(rows)) == normalize_q(rows)


def test_normalize_rejects_non_finite():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError):
            normalize_q([[0.0, 1.0], [0.0, bad]])


def _np_normalize_q(q):
    """``normalize_q`` as written on arrays: the reference."""
    if not np.all(np.isfinite(q)):
        raise ValueError("Q matrix contains non-finite entries")
    lo = q.min(axis=1, keepdims=True)
    hi = q.max(axis=1, keepdims=True)
    span = hi - lo
    out = np.empty_like(q, dtype=float)
    flat = (span == 0.0).ravel()
    np.divide(q - lo, span, out=out, where=~flat[:, None])
    out[flat] = 1.0 / q.shape[1]
    return out


def _raw_table(rng, rows, width):
    """An array table whose rows are spread, tied, constant or one-hot.

    It holds no negative zero, and no update writes one into a table that
    starts at zeros.
    """
    raw = []
    for _ in range(rows):
        kind = int(rng.integers(4))
        row = (rng.random(width) if kind == 0 else
               rng.choice([0.0, 0.5, 1.0], size=width) if kind == 1 else
               np.full(width, 0.3) if kind == 2 else
               np.eye(width)[int(rng.integers(width))])
        raw.append(row)
    return np.array(raw)


def _hex(table):
    """Every entry's exact bits (a negative zero included), row by row."""
    return [[float(v).hex() for v in row] for row in table]


def test_normalize_matches_the_array_version_bit_for_bit():
    kinds = set()
    for seed in range(400):
        rng = np.random.default_rng(seed)
        raw = _raw_table(rng, int(rng.integers(1, 8)), int(rng.integers(1, 12)))
        # Adding the offset, even 0.0, turns the -0.0 that a negative scale makes of 0.0
        # back into 0.0: numpy's row minimum of 0.0 and -0.0 may be either zero.
        raw = raw * rng.choice([1.0, -3.0, 1e-9, 1e12]) + rng.choice([0.0, 0.1, -7.0])
        want = _np_normalize_q(raw)
        got = normalize_q(raw.tolist())
        assert all(type(v) is float for row in got for v in row)
        assert _hex(got) == _hex(want)
        spans = raw.max(axis=1) - raw.min(axis=1)
        kinds |= {"one column" if raw.shape[1] == 1 else "constant" if s == 0 else "spread"
                  for s in spans}
        kinds |= {"tied" for row in raw if (row == row.max()).sum() > 1 and row.min() < row.max()}
    assert kinds == {"one column", "constant", "spread", "tied"}


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def _empty_pool_agent(seed=0):
    return Agent(best=make_state([], []), rng=Stream(np.random.default_rng(seed)))


def _one_locker_table():
    return PickTable(normalize_q([[0.0], [0.0]]))


def test_greedy_branch_follows_argmax():
    table = PickTable([[0.0, 1.0, 1.0]])
    rng = Stream(np.random.default_rng(0))
    assert {table.pick(0, 1.0, rng) for _ in range(20)} == {1}  # first index on ties
    # every unused task ties, so full greed walks them in id order
    state = global_construct(_empty_pool_agent(), _one_locker_table(),
                             [[0.25] * 4 for _ in range(5)], epsilon=1.0)
    assert list(state.x2) == [0, 1, 2, 3]


def test_sampling_branch_renormalizes_masked_row():
    # the start row forces task 1 first; row 1's scores 0.2 / 0.6 over the
    # unused tasks 0 and 2 renormalize to 0.25 / 0.75
    q2 = [[0.0, 0.0, 0.0], [0.2, 0.9, 0.6], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    q1 = _one_locker_table()
    agent = _empty_pool_agent(seed=123)
    draws = [global_construct(agent, q1, q2, epsilon=0.0).x2[1] for _ in range(4000)]
    freq0 = draws.count(0) / len(draws)
    assert freq0 == pytest.approx(0.25, abs=0.02)
    assert set(draws) == {0, 2}


def test_sampling_branch_uniform_on_zero_row():
    rng = Stream(np.random.default_rng(5))
    table = PickTable([[0.0] * 3])
    agent = _empty_pool_agent(seed=5)
    for draws in ([table.pick(0, 0.0, rng) for _ in range(3000)],
                  [global_construct(agent, _one_locker_table(), [[0.0] * 3 for _ in range(4)],
                                    epsilon=0.0).x2[0] for _ in range(3000)]):
        for k in range(3):
            assert draws.count(k) / len(draws) == pytest.approx(1 / 3, abs=0.03)


def _choice_pick(row, candidates, epsilon, rng):
    """The pick as written with ``Generator.choice``: the reference stream."""
    eps = rng.uniform() if epsilon is None else epsilon
    scores = row[candidates]
    if rng.uniform() < eps:
        return int(candidates[int(np.argmax(scores))])
    total = scores.sum()
    if total <= 0.0:
        return int(candidates[rng.integers(len(candidates))])
    return int(candidates[rng.choice(len(candidates), p=scores / total)])


def _choice_construct(rng, q1, q2, epsilon):
    """``global_construct`` as written with ``_choice_pick`` on arrays: the reference.

    Returns the state and the kinds of masked q2 rows it sampled from.
    """
    lockers, n_tasks = q1.shape[1], q2.shape[1]
    x1, prev = [], lockers
    for _ in range(n_tasks):
        prev = _choice_pick(q1[prev], np.arange(lockers), epsilon, rng)
        x1.append(prev)
    x2, kinds, unused, prev = [], set(), np.ones(n_tasks, dtype=bool), n_tasks
    for _ in range(n_tasks):
        candidates = unused.nonzero()[0]
        total = q2[prev][candidates].sum()
        kinds.add("single" if len(candidates) == 1 else "zero" if total == 0 else
                  "pairwise" if len(candidates) >= 8 else "spread")
        prev = _choice_pick(q2[prev], candidates, epsilon, rng)
        x2.append(prev)
        unused[prev] = False
    return make_state(x1, x2), kinds


def _random_table(rng, rows, width):
    """A normalized array table whose rows are spread, tied, constant or one-hot before scaling."""
    return _np_normalize_q(_raw_table(rng, rows, width))


@pytest.mark.parametrize("epsilon", [None, 0.0, 0.3, 1.0])
def test_pick_draws_what_generator_choice_drew(epsilon):
    # global_construct against the reference construct: same state, same stream
    kinds = set()
    for seed in range(120):
        maker = np.random.default_rng(seed)
        n_tasks = int(maker.integers(1, 20))
        lockers = effective_locker_count(int(maker.integers(1, 6)), n_tasks)
        q1 = _random_table(maker, lockers + 1, lockers)
        q2 = _random_table(maker, n_tasks + 1, n_tasks)
        agent = _empty_pool_agent(seed + 1000)
        ref = np.random.default_rng(seed + 1000)
        table, rows = PickTable(q1.tolist()), q2.tolist()
        for _ in range(3):
            state = global_construct(agent, table, rows, epsilon)
            expected, seen = _choice_construct(ref, q1, q2, epsilon)
            kinds |= seen
            assert list(state.x1) == list(expected.x1)
            assert list(state.x2) == list(expected.x2)
            assert_same_continuation(agent.rng, ref)
    assert kinds == {"single", "zero", "spread", "pairwise"}


@pytest.mark.parametrize("epsilon", [None, 0.0, 1.0])
def test_pick_table_draws_what_generator_choice_drew(epsilon):
    kinds = set()
    for seed in range(200):
        maker = np.random.default_rng(seed)
        width = int(maker.integers(1, 20))
        rows = [maker.random(width), np.full(width, 0.25), np.zeros(width)]
        if width > 1:
            rows.append(_np_normalize_q(maker.random((1, width)))[0])  # a 0 and a 1 in the row
        rows = np.array(rows)
        table = PickTable(rows.tolist())
        everyone = np.arange(width)
        ours, ref = stream_pair(seed + 1000)
        for _ in range(10):
            r = int(maker.integers(len(rows)))
            kinds.add(r)
            assert table.pick(r, epsilon, ours) == _choice_pick(rows[r], everyone, epsilon, ref)
            assert_same_continuation(ours, ref)
    assert kinds == {0, 1, 2, 3}


def _np_pick_rows(rows):
    """A ``PickTable`` on arrays: each row's first argmax and the CDF ``Generator.choice`` builds."""
    cdfs = []
    for row in rows:
        total = row.sum()
        if total <= 0.0:
            cdfs.append(None)
            continue
        cdf = (row / total).cumsum()
        cdf /= cdf[-1]
        cdfs.append(_hex([cdf])[0])
    return rows.argmax(axis=1).tolist(), cdfs


def test_pick_table_matches_the_array_argmax_and_cdfs_bit_for_bit():
    for seed in range(400):
        rng = np.random.default_rng(seed)
        raw = _raw_table(rng, int(rng.integers(1, 8)), int(rng.integers(1, 12)))
        for rows in (raw, _np_normalize_q(raw)):
            table = PickTable(rows.tolist())
            argmax, cdfs = _np_pick_rows(rows)
            assert table.width == rows.shape[1]
            assert table.argmax == argmax
            assert [None if c is None else _hex([c])[0] for c in table.cdfs] == cdfs


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pick_refuses_non_finite_scores_like_generator_choice(bad):
    row = [0.2, bad, 0.5]
    with pytest.raises(ValueError), np.errstate(invalid="ignore"):
        _choice_pick(np.array(row), np.arange(3), 0.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        roulette_cdf(row)
    with pytest.raises(ValueError):
        PickTable([row])
    with pytest.raises(ValueError):
        global_construct(_empty_pool_agent(), _one_locker_table(),
                         [[0.0] * 3, [0.0] * 3, [0.0] * 3, row], epsilon=0.0)


def test_pairwise_sum_is_numpy_add_reduce_bit_for_bit():
    rng = np.random.default_rng(17)
    for n in range(1, 1001):
        for values in (rng.random(n),
                       rng.choice([0.0, 0.25, 1 / 3], size=n),  # ties
                       np.zeros(n),
                       rng.random(n) * 10.0 ** rng.integers(-300, 300, size=n)):
            assert np.float64(_pairwise_sum(values.tolist())).tobytes() == \
                np.add.reduce(values).tobytes(), n


def test_roulette_cdf_is_the_choice_cdf_bit_for_bit():
    # the CDF Generator.choice builds for p = scores / scores.sum()
    rng = np.random.default_rng(23)
    for n in range(1, 300):
        for scores in (rng.random(n), rng.choice([0.0, 0.5, 1.0], size=n),
                       rng.uniform(1e-3, 0.1, n)):
            total = scores.sum()
            if total <= 0.0:
                assert roulette_cdf(scores.tolist()) is None
                continue
            cdf = (scores / total).cumsum()
            cdf /= cdf[-1]
            assert roulette_cdf(scores.tolist()) == cdf.tolist(), n


def test_construct_reproduces_unique_chain_under_full_greed():
    # q2 encodes start->2->0->1; q1 start->1, then 1->0, 0->0
    q = QMatrices.zeros(2, 3)
    q.q2[3][2] = 1.0
    q.q2[2][0] = 1.0
    q.q2[0][1] = 1.0
    q.q1[2][1] = 1.0
    q.q1[1][0] = 1.0
    state = global_construct(_empty_pool_agent(), PickTable(normalize_q(q.q1)),
                             normalize_q(q.q2), epsilon=1.0)
    assert list(state.x2) == [2, 0, 1]
    assert list(state.x1) == [1, 0, 0]


def test_construct_always_yields_permutation():
    q = QMatrices.zeros(3, 6)
    q1, q2 = PickTable(normalize_q(q.q1)), normalize_q(q.q2)
    agent = _empty_pool_agent(seed=42)
    for _ in range(25):
        state = global_construct(agent, q1, q2, epsilon=None)
        assert sorted(state.x2) == list(range(6))
        assert all(0 <= v < 3 for v in state.x1)


# ---------------------------------------------------------------------------
# Local move
# ---------------------------------------------------------------------------


def test_local_move_zero_omega_is_identity():
    s = make_state([1, 0, 1], [2, 0, 1])
    n = make_state([0, 1, 1], [0, 1, 2])
    out = local_move(s, n, omega=0.0, max_lockers=2)
    assert list(out.x1) == list(s.x1)
    assert list(out.x2) == list(s.x2)


def test_local_move_rank_repair():
    s = make_state([0, 0, 0], [0, 1, 2])
    n = make_state([0, 0, 0], [2, 1, 0])
    out = local_move(s, n, omega=1.0, max_lockers=1)
    assert list(out.x2) == [0, 1, 2]  # raw [-2, 1, 4] keeps the ordering


def test_local_move_modular_wrap():
    s = make_state([1, 0], [0, 1])
    n = make_state([0, 1], [0, 1])
    out = local_move(s, n, omega=1.0, max_lockers=2)
    assert list(out.x1) == [0, 1]  # raw [2, -1] wrapped modulo 2


def test_local_move_shape_mismatch():
    with pytest.raises(ShapeError):
        local_move(make_state([0], [0]), make_state([0, 0], [0, 1]), omega=0.5,
                   max_lockers=1)


def _np_local_move(state, neighbor, omega, max_lockers):
    """The local move on int64 arrays (rint, mod, stable argsort): the reference."""
    s1, s2, n1, n2 = (np.array(v, dtype=np.int64)
                      for v in (state.x1, state.x2, neighbor.x1, neighbor.x2))
    x1 = np.mod(np.rint(s1 + omega * (s1 - n1)).astype(np.int64), max_lockers)
    raw2 = s2 + omega * (s2 - n2)
    x2 = np.empty_like(s2)
    x2[np.argsort(raw2, kind="stable")] = np.arange(len(raw2))
    return x1.tolist(), x2.tolist()


def test_local_move_matches_the_array_reference():
    # omega = +-0.5 puts odd differences half-way between integers (rint and
    # round both go to even), omega = +-1 and 0.5 make tied raw priorities, and
    # lockers up to 7 give raw allocations far below zero to wrap.
    omegas = (-1.0, -0.5, 0.5, 1.0, 0.0, -0.0, 1 / 3, -0.25)
    halfway = ties = negative = 0
    for seed in range(300):
        rng = np.random.default_rng(seed)
        n, lockers = int(rng.integers(1, 20)), int(rng.integers(1, 8))
        s = make_state(rng.integers(0, lockers, size=n), rng.permutation(n))
        v = make_state(rng.integers(0, lockers, size=n), rng.permutation(n))
        for omega in omegas + (float(rng.uniform(-1.0, 1.0)),):
            out = local_move(s, v, omega, max_lockers=lockers)
            assert (list(out.x1), list(out.x2)) == _np_local_move(s, v, omega, lockers)
            assert all(type(x) is int for x in out.x1 + out.x2)
            raw1 = [a + omega * (a - b) for a, b in zip(s.x1, v.x1)]
            raw2 = [a + omega * (a - b) for a, b in zip(s.x2, v.x2)]
            halfway += any(r % 1 == 0.5 for r in raw1)
            negative += any(r < -0.5 for r in raw1)
            ties += len(set(raw2)) < n
    assert halfway and ties and negative


@settings(max_examples=60)
@given(data=st.data(), n=st.integers(1, 8), omega=st.floats(-1, 1))
def test_local_move_preserves_permutation(data, n, omega):
    perm = st.permutations(range(n))
    s = make_state(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
                   data.draw(perm))
    v = make_state(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
                   data.draw(perm))
    out = local_move(s, v, omega=omega, max_lockers=4)
    assert sorted(out.x2) == list(range(n))
    assert all(0 <= x < 4 for x in out.x1)


# ---------------------------------------------------------------------------
# Q updates and convergence
# ---------------------------------------------------------------------------


def test_update_q_single_step_value():
    q = QMatrices.zeros(1, 1)
    q.q1[0][0] = 2.0  # next-row maximum seen from the start transition
    update_q(q, [make_state([0], [0])], rewards=[1.0], alpha=0.5, gamma=0.9)
    assert q.q1[1][0] == pytest.approx(1.4)


def test_update_q_alpha_zero_is_identity():
    q = QMatrices(q1=[[0.7] * 2 for _ in range(3)], q2=[[0.3] * 3 for _ in range(4)])
    before = q.copy()
    update_q(q, [make_state([0, 1, 1], [2, 0, 1])], rewards=[5.0], alpha=0.0, gamma=0.9)
    assert q.q1 == before.q1 and q.q2 == before.q2


def test_update_q_gamma_zero_alpha_one_writes_reward():
    q = QMatrices.zeros(1, 1)
    update_q(q, [make_state([0], [0])], rewards=[0.25], alpha=1.0, gamma=0.0)
    assert q.q1[1][0] == 0.25
    assert q.q2[1][0] == 0.25


def _rescanning_update_q(qmats, states, rewards, alpha, gamma):
    """Reference: ``update_q`` as it was, reading ``max(rows[b])`` afresh at every step.

    Returns how many writes lowered the entry that held its row's maximum,
    and how many of those left an equal maximum elsewhere in the row.
    """
    falls = tied = 0
    for rows, chains in ((qmats.q1, [s.x1 for s in states]), (qmats.q2, [s.x2 for s in states])):
        start = len(rows) - 1
        for values, reward in zip(chains, rewards):
            a = start
            for b in values:
                top, old = max(rows[a]), rows[a][b]
                rows[a][b] += alpha * (reward + gamma * max(rows[b]) - rows[a][b])
                if old == top and rows[a][b] < old:
                    falls += 1
                    tied += max(rows[a]) == top
                a = b
    return falls, tied


def test_update_q_running_maxima_match_the_rescanning_update():
    rng = np.random.default_rng(23)
    falls = tied = 0
    for _ in range(300):
        lockers, n = int(rng.integers(1, 5)), int(rng.integers(1, 9))
        # Entries from a few levels, so rows hold tied maxima.
        levels = rng.uniform(-1.0, 2.0, size=3)
        q = QMatrices(q1=rng.choice(levels, size=(lockers + 1, lockers)).tolist(),
                      q2=rng.choice(levels, size=(n + 1, n)).tolist())
        states = [make_state(rng.integers(0, lockers, size=n), rng.permutation(n))
                  for _ in range(int(rng.integers(1, 6)))]
        # Rewards below the levels pull maxima down; above them they raise them.
        rewards = rng.uniform(-3.0, 3.0, size=len(states)).tolist()
        alpha, gamma = float(rng.uniform(0.0, 1.0)), float(rng.choice([0.0, 0.5, 0.9, 1.0]))
        reference = q.copy()
        counts = _rescanning_update_q(reference, states, rewards, alpha, gamma)
        falls, tied = falls + counts[0], tied + counts[1]
        update_q(q, states, rewards, alpha, gamma)
        for got, want in ((q.q1, reference.q1), (q.q2, reference.q2)):
            assert [repr(v) for row in got for v in row] \
                == [repr(v) for row in want for v in row]
    assert falls > 0 and tied > 0


def test_update_q_fixed_point():
    # If reward + gamma * max(next row) already equals Q, nothing moves.
    q = QMatrices(q1=[[10.0], [10.0]], q2=[[10.0], [10.0]])
    update_q(q, [make_state([0], [0])], rewards=[1.0], alpha=0.8, gamma=0.9)
    assert np.allclose(q.q1, 10.0) and np.allclose(q.q2, 10.0)


def _numpy_update_q(tables, state, reward, alpha, gamma):
    """The update as written on the (q1, q2) arrays, entry by entry: the reference."""
    for q, values in zip(tables, (state.x1, state.x2)):
        a = q.shape[0] - 1
        for b in list(values):
            q[a, b] += alpha * (reward + gamma * q[b].max() - q[a, b])
            a = b


def test_update_q_matches_the_array_update_bit_for_bit():
    # Random, tied, constant and one-hot rows; one locker gives one-column q1 tables.
    rng = np.random.default_rng(3)
    widths = set()
    for _ in range(200):
        lockers, tasks = int(rng.integers(1, 5)), int(rng.integers(1, 12))
        ref = (_raw_table(rng, lockers + 1, lockers), _raw_table(rng, tasks + 1, tasks))
        ours = QMatrices(q1=ref[0].tolist(), q2=ref[1].tolist())
        widths.add(min(lockers, tasks))
        for _ in range(3):  # repeated lockers give self-transitions and revisited rows
            agents = int(rng.integers(1, 6))
            states = [make_state(rng.integers(0, lockers, size=tasks), rng.permutation(tasks))
                      for _ in range(agents)]
            rewards = rng.random(agents).tolist()
            alpha = float(rng.random())
            update_q(ours, states, rewards, alpha, 0.9)
            for state, reward in zip(states, rewards):  # one agent after another
                _numpy_update_q(ref, state, reward, alpha, 0.9)
            assert _hex(ours.q1) == _hex(ref[0]) and _hex(ours.q2) == _hex(ref[1])
            assert all(type(v) is float for table in (ours.q1, ours.q2)
                       for row in table for v in row)
    assert 1 in widths


def test_one_update_per_step_equals_per_agent_updates():
    # The states a solve feeds its step's update: every agent's best, some shared.
    rng = np.random.default_rng(8)
    for _ in range(100):
        lockers, tasks = int(rng.integers(1, 6)), int(rng.integers(1, 20))
        ours = QMatrices(q1=rng.random((lockers + 1, lockers)).tolist(),
                         q2=rng.random((tasks + 1, tasks)).tolist())
        ref = ours.copy()
        pool = [make_state(rng.integers(0, lockers, size=tasks), rng.permutation(tasks))
                for _ in range(4)]
        states = [pool[int(k)] for k in rng.integers(0, len(pool), size=20)]
        rewards = [float(rng.random()) for _ in states]
        alpha = float(rng.random())
        update_q(ours, states, rewards, alpha, 0.9)
        for state, reward in zip(states, rewards):
            update_q(ref, [state], [reward], alpha, 0.9)
        assert _hex(ours.q1) == _hex(ref.q1) and _hex(ours.q2) == _hex(ref.q2)


def test_has_converged_thresholds():
    a = QMatrices.zeros(2, 3)
    b = a.copy()
    assert has_converged(a, b, 1e-8)
    b.q2[0][0] = 1e-7
    assert not has_converged(a, b, 1e-8)
    b.q2[0][0] = 9e-9
    assert has_converged(a, b, 1e-8)


def test_has_converged_shape_mismatch():
    with pytest.raises(ShapeError):
        has_converged(QMatrices.zeros(2, 3), QMatrices.zeros(2, 4), 1e-8)
    with pytest.raises(ShapeError):  # rows of equal width, one more of them
        has_converged(QMatrices.zeros(1, 2),
                      QMatrices(q1=[[0.0] for _ in range(3)], q2=[[0.0] * 2 for _ in range(3)]),
                      1e-8)


def _np_has_converged(prev, cur, tol):
    """``has_converged`` as written on the (q1, q2) arrays: the reference."""
    diff = max(np.abs(prev[0] - cur[0]).max(initial=0.0),
               np.abs(prev[1] - cur[1]).max(initial=0.0))
    return diff < tol


def test_has_converged_matches_the_array_version():
    # Finite moves just below, at and just above the threshold. A NaN move never
    # converges; the array version's builtin max of the two tables' maxima
    # dropped a NaN of q2 when it came second, so NaN is checked on its own.
    rng = np.random.default_rng(11)
    tol = 1e-8
    moves = [0.0, 0.5 * tol, 0.9999 * tol, tol, 1.0001 * tol, -tol, 1.0]
    outcomes = set()
    for _ in range(400):
        lockers, tasks = int(rng.integers(1, 5)), int(rng.integers(1, 12))
        prev = (_raw_table(rng, lockers + 1, lockers), _raw_table(rng, tasks + 1, tasks))
        cur = tuple(q.copy() for q in prev)
        for _ in range(int(rng.integers(0, 3))):
            q = cur[int(rng.integers(2))]
            r, c = int(rng.integers(q.shape[0])), int(rng.integers(q.shape[1]))
            q[r, c] += rng.choice(moves)
        got = has_converged(QMatrices(*(q.tolist() for q in prev)),
                            QMatrices(*(q.tolist() for q in cur)), tol)
        assert got == _np_has_converged(prev, cur, tol)
        outcomes.add(got)
        k = int(rng.integers(2))
        cur[k][int(rng.integers(cur[k].shape[0])), int(rng.integers(cur[k].shape[1]))] = np.nan
        assert not has_converged(QMatrices(*(q.tolist() for q in prev)),
                                 QMatrices(*(q.tolist() for q in cur)), tol)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# Initialization and full runs
# ---------------------------------------------------------------------------


def _pool_and_instance(seed=3):
    inst = generate_instance(GeneratorConfig(num_spaces=2, locations_per_space=3,
                                             max_lockers=2, seed=seed))
    pool = build_tasks(inst, assign_customers(inst))
    return pool, inst


def test_init_agents_shapes():
    pool = make_pool([make_task(1), make_task(1, a=2), make_task(1, a=3)])
    agents, q = init_agents(pool, 2, 10, 0)
    assert len(agents) == 10
    assert q.q1 == [[0.0] * 2] * 3 and q.q2 == [[0.0] * 3] * 4
    assert all(type(v) is float for table in (q.q1, q.q2) for row in table for v in row)
    assert len({id(row) for row in q.q1 + q.q2}) == 7  # no row is shared
    for a in agents:
        assert set(a.best.x1) <= {0, 1}
        assert sorted(a.best.x2) == [0, 1, 2]


def test_init_agents_population_size_default():
    pool = make_pool([make_task(1)])
    agents, _ = init_agents(pool, 1, BudgetProfile.paper().agents, 1)
    assert len(agents) == 100


def test_init_agents_deterministic():
    pool = make_pool([make_task(1), make_task(1, a=2)])
    a1, _ = init_agents(pool, 2, 5, 7)
    a2, _ = init_agents(pool, 2, 5, 7)
    for x, y in zip(a1, a2):
        assert list(x.best.x1) == list(y.best.x1)
        assert list(x.best.x2) == list(y.best.x2)


def test_random_state_is_the_old_set_up_draw():
    for seed in range(60):
        n = seed % 20 + 1
        lockers = effective_locker_count(seed % 7 + 1, n)
        ours, old = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(3):
            state = random_state(ours, n, lockers)
            want = SearchState(x1=tuple(old.integers(0, lockers, size=n).tolist()),
                               x2=tuple(old.permutation(n).tolist()))
            assert (state.x1, state.x2) == (want.x1, want.x2)
            assert all(type(v) is int for v in state.x1 + state.x2)
        assert ours.bit_generator.state == old.bit_generator.state
        assert ours.bit_generator.random_raw() == old.bit_generator.random_raw()


def test_init_agents_empty_pool():
    empty = TaskPool(tasks=(), unservable=())
    with pytest.raises(NothingToSolveError):
        init_agents(empty, 2, 5, 0)


def test_effective_locker_count():
    assert effective_locker_count(10, 3) == 3
    assert effective_locker_count(2, 5) == 2
    assert effective_locker_count(10, 0) == 1


def test_run_hqm_reaches_oracle_on_tiny_instance():
    pool, inst = _pool_and_instance(seed=3)
    assert 1 <= len(pool) <= 5
    _, opt = brute_force_best(pool, inst, AdjustmentPolicy.HCPS)
    best, plan, history = run_hqm(pool, inst, AdjustmentPolicy.HCPS,
                                  BudgetProfile(agents=15, iterations=300), 5)
    assert best.reward == pytest.approx(opt, rel=1e-12)
    assert history.final_best >= history.initial_best


def test_run_hqm_history_monotone_and_deterministic():
    pool, inst = _pool_and_instance(seed=6)
    budget = BudgetProfile(agents=8, iterations=60)
    b1, _, h1 = run_hqm(pool, inst, AdjustmentPolicy.BTD, budget, 11)
    b2, _, h2 = run_hqm(pool, inst, AdjustmentPolicy.BTD, budget, 11)
    assert h1.best_per_step == h2.best_per_step
    assert list(b1.x1) == list(b2.x1) and list(b1.x2) == list(b2.x2)
    assert all(y >= x for x, y in zip(h1.best_per_step, h1.best_per_step[1:]))
    assert h1.best_per_step[0] >= h1.initial_best


def test_history_csv(tmp_path):
    pool, inst = _pool_and_instance(seed=6)
    _, _, history = run_hqm(pool, inst, AdjustmentPolicy.BTD,
                            BudgetProfile(agents=4, iterations=10), 2)
    path = tmp_path / "history.csv"
    write_history_csv(history, path, header_comment="run")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "# run"
    assert lines[1] == "timestep,best_reward"
    assert float(lines[2].split(",")[1]) == history.initial_best


def test_run_hqm_evaluation_counts_are_pinned(monkeypatch):
    """The 10x20 seed-0 desk HCPS solve: evaluator calls, evaluations and route schedules.

    These are the benchmark's traced solve-mid counts for that solve, so a
    change to HQM's state cache or to its draws fails here: 8020 calls, of
    which 1539 hit the pair-keyed cache, leave 6481 evaluations, and the
    final plan decode makes the 6482nd.
    """
    counts = {"reward": 0, "evaluate": 0, "schedule": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(hqm.Evaluator, "reward", counted("reward", hqm.Evaluator.reward))
    monkeypatch.setattr(hqm, "evaluate_solution", counted("evaluate", hqm.evaluate_solution))
    monkeypatch.setattr(routing, "schedule_route", counted("schedule", routing.schedule_route))
    instance = generate_instance(GeneratorConfig(num_spaces=10, locations_per_space=20, seed=0))
    pool = build_tasks(instance, assign_customers(instance))
    best, _, _ = run_hqm(pool, instance, AdjustmentPolicy.HCPS, BudgetProfile.desk(), 0)
    assert repr(best.reward) == "0.01182376318627171"
    assert counts == {"reward": 8020, "evaluate": 6482, "schedule": 40889}
