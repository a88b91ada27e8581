"""``Stream`` against ``Generator``: every draw the solvers make, bit for bit.

A stream reproduces numpy internals: PCG64's raw-to-double conversion, its
buffered 32-bit half, Lemire's bounded ints and Floyd's two-of-m choice. These
tests pin each against the ``Generator`` call it replaces.
"""

import numpy as np
import pytest

from mplq import ga
from mplq.ga import next_generation, run_ga
from mplq.hqm import run_hqm
from mplq.instance import GeneratorConfig, assign_customers, generate_instance
from mplq.routing import AdjustmentPolicy
from mplq.state import BLOCK, BudgetProfile, PickTable, SearchState, Stream, roulette_cdf
from mplq.taskgen import build_tasks
from helpers import assert_same_continuation, random_hold_pool, roulette_pick, stream_pair

# bounds for integers(k): small, around the 32-bit half, and up to 2**32
HIGHS = (1, 2, 3, 7, 10, 29, 100, 2 ** 16 + 1, 2 ** 31 - 1, 2 ** 31, 2 ** 31 + 1,
         3 * 2 ** 30, 2 ** 32 - 1, 2 ** 32)


def _twin(rng: np.random.Generator) -> np.random.Generator:
    """A second generator in ``rng``'s exact state, 32-bit half included."""
    twin = np.random.Generator(np.random.PCG64())
    twin.bit_generator.state = rng.bit_generator.state
    return twin


def _draw(maker, stream, ref):
    """One random call on both sides: (what the stream drew, what the generator drew)."""
    kind = int(maker.integers(5))
    if kind == 0:
        return stream.random(), ref.random()
    if kind == 1:
        k = HIGHS[int(maker.integers(len(HIGHS)))]
        return stream.integers(k), int(ref.integers(k))
    if kind == 2:
        return stream.uniform(-1.0, 1.0), float(ref.uniform(-1.0, 1.0))
    if kind == 3:
        args = _breed_args(maker)
        return stream.breed(*args), _reference_breed(ref, *args)
    m = int(maker.integers(2, 30))
    return stream.two_of(m), tuple(ref.choice(m, size=2, replace=False).tolist())


def _breed_args(maker, n=None):
    """Random arguments of one ``Stream.breed``: running sums (a zero total among them),
    parents' ``x1`` of ``n`` genes (random lengths 1 to 20 by default), the two rates,
    a bound and ``cut``."""
    size = int(maker.integers(1, 8))
    scores = maker.random(size) * (maker.random() < 0.85)
    n = int(maker.integers(1, 21)) if n is None else n
    high = HIGHS[int(maker.integers(len(HIGHS)))]
    x1s = [tuple(maker.integers(0, min(high, 50), size=n).tolist()) for _ in range(size)]
    return (roulette_cdf(scores.tolist()), x1s, float(maker.choice([0.0, 0.5, 1.0])),
            float(maker.choice([0.0, 0.05, 0.5, 1.0])), high, bool(maker.integers(2)))


def _reference_breed(ref, cdf, x1s, crossover_prob, rate, high, cut=False):
    """``Stream.breed`` call by call on a ``Generator``: two roulette picks, the
    crossover double, the mask and (with ``cut``, over one gene) the cut pair, then a
    double per gene, each below ``rate`` followed by its reassignment."""
    a, b = roulette_pick(cdf, ref), roulette_pick(cdf, ref)
    x1, n, pair = list(x1s[a]), len(x1s[a]), None
    if ref.random() < crossover_prob:
        mask = ref.integers(0, 2, size=n).tolist()
        x1 = [x if m else y for x, y, m in zip(x1s[a], x1s[b], mask)]
        if cut and n > 1:
            pair = tuple(ref.choice(n + 1, size=2, replace=False).tolist())
    for k in range(n):
        if ref.random() < rate:
            x1[k] = int(ref.integers(high))
    return a, b, pair, x1


def test_long_mixes_draw_what_generator_drew():
    for seed in range(300):
        maker = np.random.default_rng(seed + 5000)
        stream, ref = stream_pair(seed)
        for _ in range(400):
            got, expected = _draw(maker, stream, ref)
            assert got == expected, seed
            assert type(got) is type(expected)
        assert_same_continuation(stream, ref)


@pytest.mark.parametrize("setup", ["odd_words", "init_agents", "run_ga"])
def test_hand_over_after_set_up_draws(setup):
    for seed in range(50):
        rng = np.random.default_rng(seed)
        if setup == "odd_words":  # three 32-bit words: one half left in the buffer
            rng.integers(0, 5, size=3)
            assert rng.bit_generator.state["has_uint32"] == 1
        elif setup == "init_agents":
            rng.integers(0, 4, size=seed % 7 + 1)
            rng.permutation(seed % 7 + 1)
        else:
            for _ in range(3):
                rng.integers(0, 3, size=5)
                rng.permutation(5)
        ref = _twin(rng)
        stream = Stream(rng)
        maker = np.random.default_rng(seed)
        for _ in range(100):
            got, expected = _draw(maker, stream, ref)
            assert got == expected
        assert_same_continuation(stream, ref)


def test_bound_near_two_to_the_32_runs_lemire_rejection():
    class Counting(Stream):
        __slots__ = ("words",)

        def _uint32(self):
            self.words += 1
            return super()._uint32()

    for k in (2 ** 31 + 1, 3 * 2 ** 30, 2 ** 32 - 1, 2 ** 32):
        stream = Counting(np.random.default_rng(k))
        stream.words = 0
        ref = np.random.default_rng(k)
        assert [stream.integers(k) for _ in range(500)] == \
            [int(ref.integers(k)) for _ in range(500)]
        # (2**32 - k) % k is about k / 2 for 2**31 + 1: half the words are rejected
        assert stream.words > 600 if k == 2 ** 31 + 1 else stream.words >= 500
        assert_same_continuation(stream, ref)


def test_integers_of_one_draws_nothing():
    stream, ref = stream_pair(3)
    before = ref.bit_generator.state
    assert int(ref.integers(1)) == 0 and ref.bit_generator.state == before
    assert [stream.integers(1) for _ in range(100)] == [0] * 100
    assert_same_continuation(stream, ref)


def test_two_of_m_is_generator_choice_without_replacement():
    # Floyd's algorithm: a = integers(m - 1), b = integers(m), b = m - 1 when
    # b == a, then the pair reversed when integers(2) == 0
    for seed in range(100):
        stream, ref = stream_pair(seed)
        for m in range(2, 30):
            assert stream.two_of(m) == tuple(ref.choice(m, size=2, replace=False).tolist())
        assert_same_continuation(stream, ref)


def test_block_boundaries_keep_the_stream():
    stream, ref = stream_pair(11)
    for _ in range(3 * BLOCK + 5):
        assert stream.random() == ref.random()
        assert stream.integers(5) == int(ref.integers(5))
    assert_same_continuation(stream, ref)


@pytest.mark.parametrize("bitgen", [np.random.MT19937, np.random.PCG64DXSM,
                                    np.random.Philox, np.random.SFC64])
def test_refuses_a_bit_generator_other_than_pcg64(bitgen):
    with pytest.raises(TypeError, match="PCG64"):
        Stream(np.random.Generator(bitgen(0)))


@pytest.mark.parametrize("high", [0, -3, 2 ** 32 + 1, 2 ** 40])
def test_refuses_a_bound_outside_one_to_two_to_the_32(high):
    stream = Stream(np.random.default_rng(0))
    with pytest.raises(ValueError, match="high"):
        stream.integers(high)


def test_integers_takes_numpy_ints():
    stream, ref = stream_pair(4)
    for k in (np.int64(7), np.uint32(2 ** 31 + 1), np.int32(1)):
        got = stream.integers(k)
        assert type(got) is int and got == int(ref.integers(k))
    assert_same_continuation(stream, ref)


@pytest.mark.parametrize("odd_words", [False, True])
@pytest.mark.parametrize("n", [1, 2, 7, 8])
def test_breed_draws_what_generator_drew(odd_words, n):
    # every crossover and mutation rate at 0, 0.05 or 0.5 and 1, with and
    # without the cut pair, and a buffered half on entry or not; 3 * BLOCK
    # children of up to 8 genes put refills inside children
    for seed in range(12):
        stream, ref = stream_pair(seed)
        maker = np.random.default_rng(seed + 1100)
        for _ in range(3 * BLOCK):
            if odd_words:  # one 32-bit word: its output's high half stays buffered
                assert stream.integers(5) == int(ref.integers(5))
            args = _breed_args(maker, n)
            assert stream.breed(*args) == _reference_breed(ref, *args), (seed, n)
        assert_same_continuation(stream, ref)


def test_breed_reassignment_runs_lemire_rejection():
    # every gene mutated to integers(2**31 + 1), which rejects about half its
    # words; children of 2 * BLOCK + 3 genes refill inside the crossover mask
    # and inside the reassignment pass
    class Counting(Stream):
        __slots__ = ("words", "refills")

        def _uint32(self):
            self.words += 1
            return super()._uint32()

        def _refill(self):
            self.refills += 1
            return super()._refill()

    high, n = 2 ** 31 + 1, 2 * BLOCK + 3
    for seed in range(6):
        stream, ref = Counting(np.random.default_rng(seed)), np.random.default_rng(seed)
        stream.words = stream.refills = 0
        maker = np.random.default_rng(seed)
        x1s = [tuple(maker.integers(0, 9, size=n).tolist()) for _ in range(3)]
        cdf = roulette_cdf([0.2, 0.3, 0.5])
        for crossover_prob in (1.0, 0.0, 1.0):
            got = stream.breed(cdf, x1s, crossover_prob, 1.0, high)
            assert got == _reference_breed(ref, cdf, x1s, crossover_prob, 1.0, high)
        assert stream.words > 3 * n * 1.5 and stream.refills >= 9
        assert_same_continuation(stream, ref)


def test_breed_thresholds_are_exact_at_the_drawn_double():
    # the crossover and mutation decisions compare random() < rate on the raw
    # output: not <=, and exact for a rate between two multiples of 2**-53;
    # the first output of seeds 4769 and 4811 has its 11 low bits zero. One
    # gene, parents 0 (gene 0) and 1 (gene 1) picked at u = 0 and u near 1, a
    # mask word that takes the second parent's gene, and a reassignment to
    # integers(2**32), which returns the top half of the word it reads
    cdf = [1.0, 2.0]
    x1s = [(0,), (1,)]
    top = 2 ** 64 - 1
    for seed in [*range(200), 4769, 4811]:
        out = int(np.random.default_rng(seed).bit_generator.random_raw())
        d = (out >> 11) * 2 ** -53
        assert d == np.random.default_rng(seed).random()
        for rate, below in ((d, False), (float(np.nextafter(d, 1.0)), True),
                            (float(np.nextafter(d, 0.0)), False)):
            # the decision is the crossover's: crossed takes gene 1 by mask, no mutation
            stream = Stream(np.random.default_rng(0))
            stream._raw = [7, top, 0, out, top, 0]
            expected = (0, 1, None, [1]) if below else (0, 1, None, [0])
            assert stream.breed(cdf, x1s, rate, 0.0, 2) == expected
            assert stream._raw == ([7] if below else [7, top])
            # the decision is the gene's: a hit reassigns it to the next word's top half
            stream = Stream(np.random.default_rng(0))
            stream._raw = [7, 5 << 32 | 9, out, top, top, 0]
            expected = (0, 1, None, [9 if below else 0])
            assert stream.breed(cdf, x1s, 0.0, rate, 2 ** 32) == expected
            assert stream._raw == ([7] if below else [7, 5 << 32 | 9])
            assert stream._half == (5 if below else None)


@pytest.mark.parametrize("crossover_prob", [0.0, 1.0])
@pytest.mark.parametrize("rate", [0.0, 1.0])
def test_next_generation_reads_its_rates_at_call_time(monkeypatch, crossover_prob, rate):
    # each child of a generated pool's generation (x1 bred, x2 kept) against
    # its reference draws at the patched rates
    monkeypatch.setattr(ga, "CROSSOVER_PROB", crossover_prob)
    monkeypatch.setattr(ga, "MUTATION_RATE", rate)
    for seed in range(30):
        maker = np.random.default_rng(seed)
        size, n, lockers = int(maker.integers(2, 30)), int(maker.integers(1, 9)), 3
        pop = [SearchState(tuple(maker.integers(0, lockers, size=n).tolist()),
                           tuple(maker.permutation(n).tolist())) for _ in range(size)]
        for state in pop:
            state.reward = float(maker.uniform(0.1, 1.0))
        cdf = roulette_cdf([s.reward for s in pop])
        x1s = [s.x1 for s in pop]
        stream, ref = stream_pair(seed + 40)
        children = next_generation(pop, stream, lockers, breed_x2=False)
        for child in children[max(1, int(0.05 * size)):]:
            a, _, _, x1 = _reference_breed(ref, cdf, x1s, crossover_prob, rate, lockers)
            assert (child.x1, child.x2) == (tuple(x1), pop[a].x2), seed
        assert_same_continuation(stream, ref)


def test_greedy_is_the_random_calls_it_replaces():
    # one-pick chains: the threshold double, then random() < threshold, then
    # on the roulette branch one more double; other draws between decisions
    # move the position and the 32-bit half, and three blocks put refills
    # between and inside decisions
    table = PickTable([[0.25, 0.75]])
    outcomes = set()
    for seed in range(40):
        stream, ref = stream_pair(seed)
        maker = np.random.default_rng(seed + 700)
        for _ in range(3 * BLOCK):
            threshold = ref.random()
            greedy = ref.random() < threshold
            expected = 1 if greedy else roulette_pick(table.cdfs[0], ref)
            assert stream.chain(table, 0, 1) == [expected], seed
            outcomes.add(greedy)
            if maker.random() < 0.25:
                drawn, reference = _draw(maker, stream, ref)
                assert drawn == reference
        assert_same_continuation(stream, ref)
    assert outcomes == {False, True}


def test_greedy_compares_strictly_below_the_drawn_double():
    # crafted outputs, the threshold's first: equal top 53 bits are not greedy
    # whatever the 11 low bits hold, and a decision one unit lower is; the
    # greedy pick is the row's best id (1) and the roulette's, reading one
    # more output, its pick at u = 0 (0), with and without distinct
    tables = {distinct: PickTable([[0.4, 0.6]], distinct) for distinct in (False, True)}
    for top in (1, 2, 12345, 2 ** 52, 2 ** 53 - 1):
        for low, other in ((0, 0x7FF), (0x7FF, 0), (0x400, 0x400)):
            threshold = top << 11 | low
            for decision, expected in ((top << 11 | other, False),
                                       ((top - 1) << 11 | other, True),
                                       ((top - 1) << 11 | 0x7FF, True)):
                for distinct in (False, True):
                    stream = Stream(np.random.default_rng(0))
                    stream._raw = [7, 0, decision, threshold]
                    assert stream.chain(tables[distinct], 0, 1) == [1 if expected else 0]
                    assert stream._raw == ([7, 0] if expected else [7])


def _reference_picks(ref, argmax, cdfs, row, n):
    """``Stream.chain`` made pick by pick on a ``Generator``: threshold, decision, roulette."""
    out = []
    for _ in range(n):
        threshold = ref.random()
        row = argmax[row] if ref.random() < threshold else int(roulette_pick(cdfs[row], ref))
        out.append(row)
    return out


def test_chain_is_the_picks_it_replaces():
    # tables with all-zero rows (their roulette draws integers(width), which
    # reads a 32-bit half), other draws between chains to move the position
    # and the half, and chains long enough to refill inside a chain
    class Counting(Stream):
        __slots__ = ("bounded",)

        def integers(self, high):
            self.bounded += 1
            return super().integers(high)

    integer_draws = 0
    for seed in range(40):
        stream, ref = Counting(np.random.default_rng(seed)), np.random.default_rng(seed)
        maker = np.random.default_rng(seed + 900)
        width = int(maker.integers(1, 12))
        rows = maker.random((width + 1, width)) * (maker.random((width + 1, width)) < 0.7)
        rows[maker.random(width + 1) < 0.3] = 0.0
        rows = rows.tolist()
        argmax = [row.index(max(row)) for row in rows]
        cdfs = [roulette_cdf(row) for row in rows]
        table = PickTable(rows)
        for _ in range(6):
            n = int(maker.integers(0, 2 * BLOCK))
            expected = _reference_picks(ref, argmax, cdfs, width, n)
            stream.bounded = 0
            assert stream.chain(table, width, n) == expected, seed
            integer_draws += stream.bounded
            if maker.random() < 0.5:
                drawn, reference = _draw(maker, stream, ref)
                assert drawn == reference
        assert_same_continuation(stream, ref)
    assert integer_draws > 0


def _every_kind_of_draw(stream):
    """Every draw a solver makes, forty times over, each checked to keep the
    stream's block list: both kinds of chain (all-zero rows among them, whose
    roulette calls ``integers()``), ``breed`` with and without ``cut`` (a zero
    total, a cross and a reassignment among them), and the four plain draws."""
    rows = [[0.1, 0.5, 0.4], [0.0, 0.0, 0.0], [0.3, 0.3, 0.4], [0.2, 0.0, 0.6]]
    plain, distinct = PickTable(rows), PickTable(rows, distinct=True)
    cdfs = roulette_cdf([0.2, 0.0, 0.5, 0.3]), roulette_cdf([0.0] * 4)
    x1s = [tuple(range(k, k + 9)) for k in range(4)]
    calls = [lambda: stream.chain(plain, 3, 12), lambda: stream.chain(distinct, 3, 3),
             lambda: stream.chain(distinct, 1, 3), stream.random,
             lambda: stream.integers(2 ** 31 + 1), lambda: stream.uniform(-1.0, 1.0),
             lambda: stream.two_of(7)]
    calls += [lambda cdf=cdf, cut=cut: stream.breed(cdf, x1s, 0.5, 0.3, 5, cut)
              for cdf in cdfs for cut in (False, True)]
    out = []
    for _ in range(40):
        for call in calls:
            raw = stream._raw
            out.append(call())
            assert stream._raw is raw
    return out


@pytest.mark.parametrize("block", [1, 3])
def test_a_streams_block_is_one_list_for_its_life(monkeypatch, block):
    # a block of 1 refills before every output, also inside the integers() and
    # two_of() calls that chain and breed make; the draws must not move
    inst = generate_instance(GeneratorConfig(num_spaces=3, locations_per_space=5, seed=0))
    pool = build_tasks(inst, assign_customers(inst))
    hold_inst, hold_pool = random_hold_pool(np.random.default_rng(4))
    assert hold_pool.start_order is None  # the GA breeds x2 too: cut pairs and swaps

    def runs():
        budget = BudgetProfile(agents=4, iterations=6)
        solves = (run_hqm(pool, inst, AdjustmentPolicy.HCPS, budget, seed=1),
                  run_ga(hold_pool, hold_inst, AdjustmentPolicy.BTD, budget, seed=1))
        return [(s.x1, s.x2, s.reward, h.best_per_step) for s, _, h in solves]

    expected = _every_kind_of_draw(Stream(np.random.default_rng(8))), runs()
    monkeypatch.setattr("mplq.state.BLOCK", block)
    original = Stream._refill

    def refill_in_place(self):
        raw = self._raw
        assert original(self) is raw and self._raw is raw and len(raw) == block
        return raw

    monkeypatch.setattr(Stream, "_refill", refill_in_place)
    assert (_every_kind_of_draw(Stream(np.random.default_rng(8))), runs()) == expected
