"""``Stream`` against ``Generator``: every draw the solvers make, bit for bit.

A stream reproduces numpy internals: PCG64's raw-to-double conversion, its
buffered 32-bit half, Lemire's bounded ints and Floyd's two-of-m choice. These
tests pin each against the ``Generator`` call it replaces.
"""

import numpy as np
import pytest

from mplq.hqm import BLOCK, PickTable, Stream, roulette_cdf, roulette_pick
from helpers import assert_same_continuation, stream_pair

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
        n = int(maker.integers(0, 20))
        return stream.mask(n), ref.integers(0, 2, size=n).tolist()
    m = int(maker.integers(2, 30))
    return stream.two_of(m), tuple(ref.choice(m, size=2, replace=False).tolist())


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


@pytest.mark.parametrize("rate", [0.0, 0.05, 0.5, 1.0])
def test_hits_are_the_draws_below_rate(rate):
    # each hit draws integers(k) before the next double, as the GA's mutation
    # does; n runs past two blocks, so refills fall inside a call
    for seed in range(8):
        stream, ref = stream_pair(seed)
        maker = np.random.default_rng(seed + 300)
        for n in range(2 * BLOCK + 4):
            bound = int(maker.integers(1, 12))
            got = [(k, stream.integers(bound)) for k in stream.hits(n, rate)]
            expected = [(k, int(ref.integers(bound))) for k in range(n) if ref.random() < rate]
            assert got == expected, (seed, n)
        assert_same_continuation(stream, ref)


def test_hits_threshold_is_exact_at_the_drawn_double():
    # the raw-output comparison is random() < rate: not <=, and exact for a
    # rate between two multiples of 2**-53; the first output of seeds 4769
    # and 4811 has its 11 low bits zero, so it equals the threshold for rate d
    for seed in [*range(200), 4769, 4811]:
        d = np.random.default_rng(seed).random()
        for rate, expected in ((d, []), (np.nextafter(d, 1.0), [0]),
                               (np.nextafter(d, 0.0), [])):
            stream, ref = stream_pair(seed)
            assert list(stream.hits(1, float(rate))) == expected
            ref.random()
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
    table = PickTable([[0.4, 0.6]])
    for top in (1, 2, 12345, 2 ** 52, 2 ** 53 - 1):
        for low, other in ((0, 0x7FF), (0x7FF, 0), (0x400, 0x400)):
            threshold = top << 11 | low
            for decision, expected in ((top << 11 | other, False),
                                       ((top - 1) << 11 | other, True),
                                       ((top - 1) << 11 | 0x7FF, True)):
                for distinct in (False, True):
                    stream = Stream(np.random.default_rng(0))
                    stream._raw = [7, 0, decision, threshold]
                    assert stream.chain(table, 0, 1, distinct) == [1 if expected else 0]
                    assert stream._raw == ([7, 0] if expected else [7])


@pytest.mark.parametrize("odd_words", [False, True])
def test_bulk_mask_reads_whole_outputs(odd_words):
    for seed in range(20):
        stream, ref = stream_pair(seed)
        if odd_words:  # one 32-bit word: its output's high half stays buffered
            assert stream.integers(5) == int(ref.integers(5))
        # odd and even lengths, past a block, with doubles moving the position
        for n in (0, 1, 2, 3, 6, 7, 2 * BLOCK + 1, 2 * BLOCK + 2, 5, 4):
            assert stream.mask(n) == ref.integers(0, 2, size=n).tolist(), (seed, n)
            assert stream.random() == ref.random()
        assert_same_continuation(stream, ref)


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
