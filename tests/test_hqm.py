import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mplq import hqm, routing
from mplq.errors import NothingToSolveError, ShapeError
from mplq.hqm import (Agent, QMatrices, RunHistory, global_construct, has_converged,
                      init_agents, local_move, normalize_q, run_hqm, update_q)
from mplq.bench import write_history_csv
from mplq.ga import run_ga
from mplq.instance import GeneratorConfig, assign_customers, generate_instance
from mplq.oracle import brute_force_best
from mplq.routing import AdjustmentPolicy, check_pool
from mplq.state import (BLOCK, BudgetProfile, PickTable, SearchState, Stream,
                        effective_locker_count, random_state, roulette_cdf, validate_state)
from mplq.taskgen import TaskPool, build_tasks
from helpers import (assert_same_continuation, make_pool, make_state, make_task,
                     random_hold_pool, roulette_pick, stream_pair)


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


def _greedy_outputs(picks):
    """Raw outputs for ``Stream._raw`` that make the next ``picks`` decisions greedy:
    each threshold the largest output, each decision 0."""
    return [0, 2 ** 64 - 1] * picks


def test_greedy_branch_follows_argmax():
    table = PickTable([[0.0, 1.0, 1.0]])
    rng = Stream(np.random.default_rng(0))
    rng._raw = _greedy_outputs(20)  # the first index on ties
    assert {rng.chain(table, 0, 1)[0] for _ in range(20)} == {1}
    # every unused task ties, so greedy picks walk them in id order
    agent = _empty_pool_agent()
    agent.rng._raw = _greedy_outputs(8)
    state = global_construct(agent, _one_locker_table(), PickTable([[0.25] * 4] * 5, True))
    assert list(state.x2) == [0, 1, 2, 3]


def test_sampling_branch_renormalizes_masked_row():
    # the start row forces task 1 first; row 1's scores 0.2 / 0.6 over the
    # unused tasks 0 and 2 renormalize to 0.25 / 0.75 on the roulette branch,
    # taken half the time, while the greedy branch always picks task 2
    q2 = PickTable([[0.0, 0.0, 0.0], [0.2, 0.9, 0.6], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]], True)
    q1 = _one_locker_table()
    agent = _empty_pool_agent(seed=123)
    draws = [global_construct(agent, q1, q2).x2[1] for _ in range(4000)]
    freq0 = draws.count(0) / len(draws)
    assert freq0 == pytest.approx(0.125, abs=0.02)
    assert set(draws) == {0, 2}


def test_sampling_branch_uniform_on_zero_row():
    # the roulette, taken half the time, is uniform over an all-zero row; the
    # greedy branch takes the first index
    rng = Stream(np.random.default_rng(5))
    table = PickTable([[0.0] * 3])
    agent = _empty_pool_agent(seed=5)
    for draws in ([rng.chain(table, 0, 1)[0] for _ in range(3000)],
                  [global_construct(agent, _one_locker_table(),
                                    PickTable([[0.0] * 3] * 4, True)).x2[0] for _ in range(3000)]):
        for k, share in enumerate((2 / 3, 1 / 6, 1 / 6)):
            assert draws.count(k) / len(draws) == pytest.approx(share, abs=0.03)


def _choice_pick(row, candidates, rng):
    """The pick as written with ``Generator.choice``: the reference stream."""
    eps = rng.uniform()
    scores = row[candidates]
    if rng.uniform() < eps:
        return int(candidates[int(np.argmax(scores))])
    total = scores.sum()
    if total <= 0.0:
        return int(candidates[rng.integers(len(candidates))])
    return int(candidates[rng.choice(len(candidates), p=scores / total)])


def _choice_construct(rng, q1, q2):
    """``global_construct`` as written with ``_choice_pick`` on arrays: the reference.

    Returns the state and the kinds of masked q2 rows it sampled from.
    """
    lockers, n_tasks = q1.shape[1], q2.shape[1]
    x1, prev = [], lockers
    for _ in range(n_tasks):
        prev = _choice_pick(q1[prev], np.arange(lockers), rng)
        x1.append(prev)
    x2, kinds, unused, prev = [], set(), np.ones(n_tasks, dtype=bool), n_tasks
    for _ in range(n_tasks):
        candidates = unused.nonzero()[0]
        total = q2[prev][candidates].sum()
        kinds.add("single" if len(candidates) == 1 else "zero" if total == 0 else
                  "pairwise" if len(candidates) >= 8 else "spread")
        prev = _choice_pick(q2[prev], candidates, rng)
        x2.append(prev)
        unused[prev] = False
    return make_state(x1, x2), kinds


def _random_table(rng, rows, width):
    """A normalized array table whose rows are spread, tied, constant or one-hot before scaling."""
    return _np_normalize_q(_raw_table(rng, rows, width))


def test_pick_draws_what_generator_choice_drew():
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
        tables = PickTable(q1.tolist()), PickTable(q2.tolist(), True)
        for _ in range(3):
            state = global_construct(agent, *tables)
            expected, seen = _choice_construct(ref, q1, q2)
            kinds |= seen
            assert list(state.x1) == list(expected.x1)
            assert list(state.x2) == list(expected.x2)
            assert_same_continuation(agent.rng, ref)
    assert kinds == {"single", "zero", "spread", "pairwise"}


def test_pick_table_draws_what_generator_choice_drew():
    # one-pick chains from a PickTable's lists against the reference pick
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
            picked = ours.chain(table, r, 1)[0]
            assert picked == _choice_pick(rows[r], everyone, ref)
            assert_same_continuation(ours, ref)
    assert kinds == {0, 1, 2, 3}


def test_pick_table_matches_the_array_argmax_and_cdfs_bit_for_bit():
    # a plain table: each row's first argmax, and its running sums as
    # np.cumsum adds them; a distinct table: each row and its ids by
    # descending score, ties in id order as a stable argsort of the negated
    # row puts them, so its first id is the first argmax too
    for seed in range(400):
        rng = np.random.default_rng(seed)
        raw = _raw_table(rng, int(rng.integers(1, 8)), int(rng.integers(1, 12)))
        for rows in (raw, _np_normalize_q(raw)):
            plain, distinct = PickTable(rows.tolist()), PickTable(rows.tolist(), True)
            assert plain.width == distinct.width == rows.shape[1]
            assert plain.argmax == rows.argmax(axis=1).tolist()
            assert _hex(plain.cdfs) == _hex(rows.cumsum(axis=1))
            assert distinct.rows == rows.tolist()
            assert distinct.orders == np.argsort(-rows, axis=1, kind="stable").tolist()
            assert [order[0] for order in distinct.orders] == plain.argmax


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pick_refuses_non_finite_scores_like_generator_choice(bad):
    row = [0.2, bad, 0.5]
    ref = np.random.default_rng(1)  # its first decision is the roulette's: 0.95 >= 0.51
    with pytest.raises(ValueError), np.errstate(invalid="ignore"):
        _choice_pick(np.array(row), np.arange(3), ref)
    with pytest.raises(ValueError):
        roulette_cdf(row)
    with pytest.raises(ValueError):
        PickTable([row])
    # every entry finite and every row's total too, but the unused scores of
    # row 1 overflow: three greedy q1 picks, a greedy q2 pick of task 1 from
    # the start row, then the masked q2 roulette, here and in the reference
    rows = [[0.0] * 3, [1e308, -1e308, 1e308], [0.0] * 3, [0.0, 1.0, 0.0]]
    for construct in (lambda agent: global_construct(agent, _one_locker_table(),
                                                     PickTable(rows, True)),
                      lambda agent: _masked_q2_construct(agent, normalize_q([[0.0], [0.0]]), rows)):
        agent = _empty_pool_agent()
        agent.rng._raw = [0, 0] + _greedy_outputs(4)
        with pytest.raises(ValueError):
            construct(agent)


def test_roulette_cdf_is_numpy_cumsum_bit_for_bit():
    rng = np.random.default_rng(23)
    for n in range(1, 301):
        for scores in (rng.random(n),
                       rng.choice([0.0, 0.5, 1.0], size=n),  # ties and zeros
                       np.zeros(n),
                       rng.random(n) * 10.0 ** rng.integers(-300, 300, size=n)):
            assert _hex([roulette_cdf(scores.tolist())]) == _hex([np.cumsum(scores)]), n


def test_roulette_pick_never_lands_on_a_zero_score():
    # the largest double below 1 over trailing zeros, 0.0 over leading zeros; a
    # subnormal total makes u * total round up to the total itself. Both
    # parents of one Stream.breed are picked at u, then its crossover and its
    # one gene's mutation draw a double each, at rates of 0
    top, bottom = (2 ** 53 - 1) << 11, 0  # the outputs of u = 1 - 2**-53 and u = 0
    rng = np.random.default_rng(5)
    rows = [[0.3, 0.7], [1.0], [5e-324], [5e-324, 1e-323], [0.25, 0.25, 0.5]]
    rows += [rng.random(int(rng.integers(1, 12))).tolist() for _ in range(200)]
    rows += [(rng.random(int(rng.integers(1, 12))) * 1e-310).tolist() for _ in range(200)]
    for row in rows:
        for pad in (0, 1, 5):
            for scores, u, expected in ((row + [0.0] * pad, top, len(row) - 1),
                                        ([0.0] * pad + row, bottom, pad)):
                stream = Stream(np.random.default_rng(0))
                stream._raw = [0, 0, u, u]
                x1s = [(k,) for k in range(len(scores))]
                assert stream.breed(roulette_cdf(scores), x1s, 0.0, 0.0, 1) == \
                    (expected, expected, None, [expected])
                assert stream._raw == []
    assert 5e-324 * (1 - 2 ** -53) == 5e-324  # the case the fallback serves


def test_construct_reproduces_unique_chain_under_full_greed():
    # q2 encodes start->2->0->1; q1 start->1, then 1->0, 0->0; every row on
    # the chain is one-hot, so the roulette picks what the greedy branch does
    q = QMatrices.zeros(2, 3)
    q.q2[3][2] = 1.0
    q.q2[2][0] = 1.0
    q.q2[0][1] = 1.0
    q.q1[2][1] = 1.0
    q.q1[1][0] = 1.0
    q.q1[0][0] = 1.0
    agent = _empty_pool_agent()
    for _ in range(20):
        state = global_construct(agent, PickTable(normalize_q(q.q1)),
                                 PickTable(normalize_q(q.q2), True))
        assert list(state.x2) == [2, 0, 1]
        assert list(state.x1) == [1, 0, 0]


def test_construct_always_yields_permutation():
    q = QMatrices.zeros(3, 6)
    q1, q2 = PickTable(normalize_q(q.q1)), PickTable(normalize_q(q.q2), True)
    agent = _empty_pool_agent(seed=42)
    for _ in range(25):
        state = global_construct(agent, q1, q2)
        assert sorted(state.x2) == list(range(6))
        assert all(0 <= v < 3 for v in state.x1)


def _score_list_construct(agent, q1, q2):
    """``global_construct`` as written with two ``random()`` calls per pick and a score list
    per q2 pick, its greedy pick ``scores.index(max(scores))``: the reference.

    Returns the state and how many greedy q2 picks met a tied maximum.
    """
    rng = agent.rng
    n_tasks = len(q2) - 1
    argmax = [row.index(max(row)) for row in q1]
    x1, prev = [], len(q1) - 1
    for _ in range(n_tasks):
        eps = rng.random()
        prev = argmax[prev] if rng.random() < eps else roulette_pick(roulette_cdf(q1[prev]), rng)
        x1.append(prev)
    x2, unused, prev, tied = [], list(range(n_tasks)), n_tasks, 0
    for _ in range(n_tasks):
        row = q2[prev]
        scores = list(map(row.__getitem__, unused))
        eps = rng.random()
        if rng.random() < eps:
            k = scores.index(max(scores))
            tied += scores.count(scores[k]) > 1
        else:
            k = roulette_pick(roulette_cdf(scores), rng)
        prev = unused.pop(k)
        x2.append(prev)
    return make_state(x1, x2), tied


def test_q2_greedy_picks_the_lowest_unused_id_of_tied_maxima():
    # tables whose rows tie at their maximum: each greedy q2 pick is the first
    # maximum over the unused ids in ascending order, as the score list's
    # ``scores.index(max(scores))`` was, and many such picks meet a tie
    tied = 0
    for seed in range(150):
        maker = np.random.default_rng(seed)
        n_tasks = int(maker.integers(1, 16))
        lockers = effective_locker_count(int(maker.integers(1, 5)), n_tasks)
        q1 = _random_table(maker, lockers + 1, lockers).tolist()
        q2 = _random_table(maker, n_tasks + 1, n_tasks).tolist()
        tables = PickTable(q1), PickTable(q2, True)
        agent, ref = _empty_pool_agent(seed + 2000), _empty_pool_agent(seed + 2000)
        for _ in range(3):
            state = global_construct(agent, *tables)
            expected, ties = _score_list_construct(ref, q1, q2)
            tied += ties
            assert (state.x1, state.x2) == (expected.x1, expected.x2)
        assert [agent.rng.random() for _ in range(8)] == [ref.rng.random() for _ in range(8)]
        assert [agent.rng.integers(7) for _ in range(8)] == [ref.rng.integers(7) for _ in range(8)]
    assert tied > 500


def _greedy(rng):
    """One epsilon-greedy decision as ``Stream.greedy`` made it: a ``random()``
    threshold, then ``random() < threshold``."""
    threshold = rng.random()
    return rng.random() < threshold


def _masked_q2_construct(agent, q1, q2):
    """``global_construct`` as written before one ``Stream.chain`` walked both chains,
    over the tables' rows: the q1 chain pick by pick over each row's first argmax,
    ``row.index(max(row))``, and running sums, then the masked q2 loop verbatim. The
    reference."""
    rng = agent.rng
    n_tasks = len(q2[0])
    argmax = [row.index(max(row)) for row in q1]
    cdfs = [roulette_cdf(row) for row in q1]
    x1, prev = [], len(q1[0])  # virtual start row first
    for _ in range(n_tasks):
        prev = argmax[prev] if _greedy(rng) else roulette_pick(cdfs[prev], rng)
        x1.append(prev)

    x2 = []
    unused = list(range(n_tasks))  # ascending task ids
    prev = n_tasks  # virtual start row
    for _ in range(n_tasks):
        row = q2[prev]
        if _greedy(rng):
            prev = max(unused, key=row.__getitem__)  # the first maximum in id order
            unused.remove(prev)
        else:
            prev = unused.pop(roulette_pick(roulette_cdf(map(row.__getitem__, unused)), rng))
        x2.append(prev)

    return make_state(x1, x2)


def test_construct_is_the_masked_q2_loop_it_replaces():
    # random tables with tied maxima and one-hot rows, whose masked rows turn
    # all-zero and draw integers; chains of up to 40 tasks refill the block
    # inside a chain; same state and same continuation as the reference
    class Counting(Stream):
        __slots__ = ("bounded", "refills")

        def integers(self, high):
            self.bounded += 1
            return super().integers(high)

        def _refill(self):
            self.refills += 1
            return super()._refill()

    bounded = long_refills = 0
    for seed in range(150):
        maker = np.random.default_rng(seed)
        n_tasks = int(maker.integers(1, 41))
        lockers = effective_locker_count(int(maker.integers(1, 6)), n_tasks)
        q1 = _random_table(maker, lockers + 1, lockers).tolist()
        q2 = _random_table(maker, n_tasks + 1, n_tasks).tolist()
        tables = PickTable(q1), PickTable(q2, True)
        agent = Agent(best=make_state([], []), rng=Counting(np.random.default_rng(seed + 3000)))
        agent.rng.bounded = agent.rng.refills = 0
        ref = _empty_pool_agent(seed + 3000)
        for _ in range(3):
            refills = agent.rng.refills
            state = global_construct(agent, *tables)
            expected = _masked_q2_construct(ref, q1, q2)
            assert (state.x1, state.x2) == (expected.x1, expected.x2), seed
            # over BLOCK / 2 tasks, the q2 chain alone reads more than a block
            long_refills += n_tasks > BLOCK // 2 and agent.rng.refills > refills
        bounded += agent.rng.bounded
        assert [agent.rng.random() for _ in range(8)] == [ref.rng.random() for _ in range(8)]
        assert [agent.rng.integers(7) for _ in range(8)] == [ref.rng.integers(7) for _ in range(8)]
    assert bounded > 0 and long_refills > 0


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


def test_run_hqm_refuses_an_empty_pool():
    _, inst = _pool_and_instance()
    with pytest.raises(NothingToSolveError, match="task pool is empty"):
        run_hqm(TaskPool(tasks=(), unservable=()), inst, AdjustmentPolicy.BTD,
                BudgetProfile(agents=2, iterations=1), 0)


def test_effective_locker_count():
    assert effective_locker_count(10, 3) == 3
    assert effective_locker_count(2, 5) == 2
    assert effective_locker_count(10, 0) == 1


def test_run_hqm_reaches_oracle_on_tiny_instance():
    pool, inst = _pool_and_instance(seed=3)
    assert 1 <= len(pool) <= 5
    _, opt, _ = brute_force_best(pool, inst, AdjustmentPolicy.HCPS)
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


def test_run_hqm_with_one_agent_moves_against_its_own_best():
    pool, inst = _pool_and_instance(seed=6)
    budget = BudgetProfile(agents=1, iterations=40)
    runs = [run_hqm(pool, inst, AdjustmentPolicy.HCPS, budget, 4) for _ in range(2)]
    (b1, p1, h1), (b2, p2, h2) = runs
    assert (b1.x1, b1.x2, repr(b1.reward), p1) == (b2.x1, b2.x2, repr(b2.reward), p2)
    assert list(map(repr, h1.best_per_step)) == list(map(repr, h2.best_per_step))
    assert all(y >= x for x, y in zip([h1.initial_best, *h1.best_per_step],
                                      h1.best_per_step))
    assert b1.reward == h1.final_best and p1.lockers_dispatched >= 1


def test_state_cache_clearing_changes_no_result(monkeypatch):
    """A full state cache is emptied and refilled; only the evaluation count moves."""
    instance = generate_instance(GeneratorConfig(num_spaces=8, locations_per_space=10, seed=0))
    pool = build_tasks(instance, assign_customers(instance))

    def solve():
        best, plan, history = run_hqm(pool, instance, AdjustmentPolicy.HCPS,
                                      BudgetProfile.desk(), 0)
        return (best.x1, best.x2, repr(best.reward), plan, repr(history.initial_best),
                list(map(repr, history.best_per_step)), history.convergence_step), history

    default, history = solve()
    monkeypatch.setattr(hqm.Evaluator, "_CACHE_LIMIT", 8)
    result, small = solve()
    assert result == default
    assert small.evaluations > history.evaluations  # the small cache was cleared and missed again


def _calls_hits_evaluations(evaluator, state):
    """``evaluator``'s calls, hits and evaluations, read by a ``plan`` that decodes ``state``."""
    history = RunHistory(initial_best=0.0)
    evaluator.plan(state, history)
    return history.evaluator_calls, history.cache_hits, history.evaluations


def test_state_cache_hits_an_equal_pair_and_misses_another_x2():
    instance = generate_instance(GeneratorConfig(num_spaces=8, locations_per_space=10, seed=0))
    pool = build_tasks(instance, assign_customers(instance))
    evaluator = hqm.Evaluator(pool, instance, AdjustmentPolicy.HCPS)
    state = random_state(np.random.default_rng(4), len(pool), check_pool(pool, instance))
    first = evaluator.reward(state)
    equal = SearchState(tuple(list(state.x1)), tuple(list(state.x2)))
    assert evaluator.reward(equal) == first == equal.reward
    assert _calls_hits_evaluations(evaluator, state) == (2, 1, 2)
    swapped = SearchState(state.x1, state.x2[1:] + state.x2[:1])
    evaluator.reward(swapped)
    assert _calls_hits_evaluations(evaluator, state) == (3, 1, 4)  # two misses, two decodes


def test_state_cache_keeps_no_state_tuple_alive():
    pool, instance = _pool_and_instance(seed=6)
    evaluator = hqm.Evaluator(pool, instance, AdjustmentPolicy.BTD)
    state = random_state(np.random.default_rng(0), len(pool), check_pool(pool, instance))
    before = sys.getrefcount(state.x1), sys.getrefcount(state.x2)
    evaluator.reward(state)
    evaluator.reward(state)
    assert (sys.getrefcount(state.x1), sys.getrefcount(state.x2)) == before


def test_state_cache_keys_a_pool_above_256_tasks():
    # ids above 255 take the wide packing; a repeat still hits and the reward is exact
    config = GeneratorConfig(num_spaces=160, locations_per_space=20, seed=0, capacity=40.0)
    instance = generate_instance(config)
    pool = build_tasks(instance, assign_customers(instance))
    assert len(pool) == 277
    evaluator = hqm.Evaluator(pool, instance, AdjustmentPolicy.HCPS)
    state = random_state(np.random.default_rng(0), len(pool), check_pool(pool, instance))
    reward = evaluator.reward(state)
    assert evaluator.reward(SearchState(state.x1, state.x2)) == reward
    assert _calls_hits_evaluations(evaluator, state) == (2, 1, 2)
    memo = routing.RouteMemo(pool, instance, AdjustmentPolicy.HCPS)
    assert reward == routing.evaluate_solution(state, memo)[1].reward


_COUNTS = ("evaluator_calls", "cache_hits", "evaluations", "routes_scheduled",
           "route_misses", "accepts")


@pytest.mark.parametrize("policy", [AdjustmentPolicy.BTD, AdjustmentPolicy.HCPS])
def test_solvers_score_only_valid_states_and_count_as_outside_wrappers_do(monkeypatch, policy):
    """The one test that counts a solve from outside: each ``RunHistory`` reports
    what wrappers count, a hit being a call that evaluates nothing, also with a
    state cache of 8. ``evaluate_solution`` checks no state, so every state
    either solver scores, on generated and on tied-start pools, must be valid."""
    reward, evaluate = hqm.Evaluator.reward, hqm.evaluate_solution
    schedule, accept = routing.schedule_route, Agent.accept
    seen, counts = [], Counter()

    def checked(self, state):  # inst and pool: the case the loop below solves
        validate_state(state, len(pool), inst.fleet.max_lockers)
        seen.append(state)
        evaluations = counts["evaluations"]
        out = reward(self, state)
        counts.update(evaluator_calls=1, cache_hits=counts["evaluations"] == evaluations)
        return out

    def scheduled(memo, *, task_ids):
        counts.update(routes_scheduled=1, route_misses=tuple(task_ids) not in memo.routes)
        return schedule(memo, task_ids=task_ids)

    monkeypatch.setattr(hqm.Evaluator, "reward", checked)
    monkeypatch.setattr(hqm, "evaluate_solution",
                        lambda *args: counts.update(evaluations=1) or evaluate(*args))
    monkeypatch.setattr(routing, "schedule_route", scheduled)
    monkeypatch.setattr(Agent, "accept", lambda *args: counts.update(accepts=1) or accept(*args))
    limit, cases = hqm.Evaluator._CACHE_LIMIT, []
    for spaces, locations, seed in ((5, 5, 0), (6, 10, 1)):
        inst = generate_instance(GeneratorConfig(num_spaces=spaces,
                                                 locations_per_space=locations, seed=seed))
        cases.append((limit, inst, build_tasks(inst, assign_customers(inst))))
    cases.append((8, *cases[-1][1:]))  # that pool again, its cache cleared every 8 misses
    rng = np.random.default_rng(29)
    while len(cases) < 6:
        inst, pool = random_hold_pool(rng)
        if pool.start_order is None:
            cases.append((limit, inst, pool))
    for limit, inst, pool in cases:
        monkeypatch.setattr(hqm.Evaluator, "_CACHE_LIMIT", limit)
        for solve in (run_hqm, run_ga):
            counts.clear()
            before = len(seen)
            _, _, history = solve(pool, inst, policy, BudgetProfile(agents=6, iterations=15), 1)
            assert len(seen) > before
            assert [getattr(history, name) for name in _COUNTS] == [counts[n] for n in _COUNTS]
            assert history.evaluator_calls == history.cache_hits + history.evaluations - 1
            assert 0 < history.route_misses <= history.routes_scheduled
    assert len({(s.x1, s.x2) for s in seen}) > 200


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


def test_run_hqm_evaluation_counts_are_pinned():
    """The 10x20 seed-0 desk HCPS solve's counts. HQM's are the benchmark's traced
    solve-mid counts, so a change to HQM's state cache or its draws fails here."""
    instance = generate_instance(GeneratorConfig(num_spaces=10, locations_per_space=20, seed=0))
    pool = build_tasks(instance, assign_customers(instance))
    best, _, history = run_hqm(pool, instance, AdjustmentPolicy.HCPS, BudgetProfile.desk(), 0)
    assert repr(best.reward) == "0.01182376318627171"
    assert [getattr(history, name) for name in _COUNTS] == [8020, 1539, 6482, 40889, 4565, 188]
    assert 2 * 20 * len(history.best_per_step) == 8000  # proposals: two per agent and step
    _, _, history = run_ga(pool, instance, AdjustmentPolicy.HCPS, BudgetProfile.desk(), 0)
    assert [getattr(history, name) for name in _COUNTS] == [3820, 1061, 2760, 21567, 877, 0]
