"""``Stream`` against ``Generator``: every draw the solvers make, bit for bit.

A stream reproduces numpy internals: PCG64's raw-to-double conversion, its
buffered 32-bit half, Lemire's bounded ints and Floyd's two-of-m choice. These
tests pin each against the ``Generator`` call it replaces.
"""

import numpy as np
import pytest

from mplq.hqm import BLOCK, Stream
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
