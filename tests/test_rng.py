import copy

import numpy as np
import pytest

from hardy_spectral.rng import BLOCK, Xorshift64Star, irwin_hall
from hardy_spectral.suite import _random_nonempty_subset


class ReferenceXorshift:
    """xorshift64* one step at a time on Python integers, the definition
    the blocked stream must reproduce."""

    def __init__(self, seed):
        self.state = seed % 2**64 or 0x9E3779B97F4A7C15

    def next_u64(self):
        s = self.state
        s ^= s >> 12
        s ^= (s << 25) % 2**64
        s ^= s >> 27
        self.state = s
        return s * 0x2545F4914F6CDD1D % 2**64

    def uniform(self):
        return (self.next_u64() >> 11) / 2**53

    def gaussian(self):
        total = 0.0
        for _ in range(12):
            total += self.uniform()
        return total - 6.0


def next_word(rng):
    """One output of the stream, as a Python int."""
    return int(rng.words(1)[0])


def gaussians(rng, count):
    """`count` gaussian-like values, each the Irwin-Hall value of the
    next 12 outputs, as the suites draw their potentials."""
    return irwin_hall(rng.words(12 * count).reshape(count, 12))


def gaussian_like(rng):
    """One gaussian-like value, from the next 12 outputs alone."""
    return float(irwin_hall(rng.words(12)))


# the first gaussian-like values of each stream, pinned as exact doubles:
# the verification suites' random potentials are these values, so any
# change to the stream or to `irwin_hall` changes every report
GAUSSIAN_LIKE = {
    0: ["0x1.5d48d5d7ec580p-5", "-0x1.04dcc98d5f200p+0", "-0x1.6c65a6f5771a0p-3",
        "-0x1.7cba6d5850a70p-2"],
    1: ["0x1.27ac2ae5a7fc0p-4", "-0x1.8efb52eb10680p-2", "-0x1.85c5c4279f0f0p-1",
        "-0x1.4bd104e65c720p-2"],
    2**63: ["0x1.03345e9ca4930p-2", "-0x1.4ad1396c87938p-1", "0x1.1f62d34d3fa34p+0",
            "0x1.4510770192d68p-1"],
}


def test_gaussian_like_stream_is_pinned():
    for seed, expected in GAUSSIAN_LIKE.items():
        rng = Xorshift64Star(seed)
        assert [gaussian_like(rng) for _ in expected] == [float.fromhex(h) for h in expected]


def test_gaussian_like_is_twelve_uniforms():
    fast, slow = Xorshift64Star(99), Xorshift64Star(99)
    for _ in range(1000):
        expected = 0.0
        for _ in range(12):
            expected += slow.uniform()
        assert gaussian_like(fast) == expected - 6.0
    assert next_word(fast) == next_word(slow)


def test_below_keeps_one_word_up_to_two_to_the_64():
    fast, slow = Xorshift64Star(7), Xorshift64Star(7)
    for n in (1, 2, 3, 100, 2**63 + 5, 2**64 - 1, 2**64):
        for _ in range(50):
            assert fast.below(n) == next_word(slow) % n
    assert next_word(fast) == next_word(slow)


def test_below_combines_words_most_significant_first():
    fast, slow = Xorshift64Star(8), Xorshift64Star(8)
    for n, words in ((2**64 + 1, 2), (2**100, 2), (2**128, 2), (2**128 + 1, 3)):
        x = 0
        for _ in range(words):
            x = (x << 64) | next_word(slow)
        assert fast.below(n) == x % n
    assert next_word(fast) == next_word(slow)


def test_below_needs_a_nonempty_range():
    rng = Xorshift64Star(3)
    with pytest.raises(ValueError, match="n >= 1"):
        rng.below(0)
    assert rng.words(1).tolist() == Xorshift64Star(3).words(1).tolist()


def test_below_reaches_past_two_to_the_64():
    # ressum's subset draw on a 100-member side: every member must be drawable
    rng = Xorshift64Star(11)
    side = np.ones(100, dtype=bool)
    seen = set()
    for _ in range(200):
        seen |= set(np.flatnonzero(_random_nonempty_subset(rng, side)).tolist())
    assert seen == set(range(100))


SEEDS = (0, 1, 2**63, 2**64 - 1)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("count", (1, BLOCK - 1, BLOCK, BLOCK + 1, 1000))
def test_stream_matches_reference_across_block_edges(seed, count):
    rng, ref = Xorshift64Star(seed), ReferenceXorshift(seed)
    # a first draw of `count` outputs, then single draws across the next edge
    assert rng.words(count).tolist() == [ref.next_u64() for _ in range(count)]
    assert [next_word(rng) for _ in range(BLOCK + 2)] == [ref.next_u64() for _ in range(BLOCK + 2)]
    assert gaussians(rng, count).tolist() == [ref.gaussian() for _ in range(count)]
    assert next_word(rng) == ref.next_u64()


SPLITS = (1, 2, BLOCK - 1, BLOCK, BLOCK + 1)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("first", SPLITS)
def test_fresh_stream_read_in_splits_matches_reference(seed, first):
    # a fresh stream's first block is only as long as a short first read;
    # the reads after it go on across full blocks
    rng, ref = Xorshift64Star(seed), ReferenceXorshift(seed)
    for count in (first, *SPLITS):
        assert rng.words(count).tolist() == [ref.next_u64() for _ in range(count)]


@pytest.mark.parametrize("seed", SEEDS)
def test_interleaved_draws_match_reference(seed):
    rng, ref = Xorshift64Star(seed), ReferenceXorshift(seed)
    for i in range(300):
        kind = i % 5
        if kind == 0:
            assert rng.uniform() == ref.uniform()
        elif kind == 1:
            count = (7 * i) % 40
            assert gaussians(rng, count).tolist() == [ref.gaussian() for _ in range(count)]
        elif kind == 2:
            assert gaussian_like(rng) == ref.gaussian()
        else:
            # one, two and three words, most significant first
            n = (2**63 + 3, 2**100 + 7, 2**150 - 1)[i % 3]
            x = 0
            for _ in range(-(-(n - 1).bit_length() // 64)):
                x = (x << 64) | ref.next_u64()
            assert rng.below(n) == x % n


def test_copy_is_an_independent_stream():
    rng = Xorshift64Star(5)
    gaussians(rng, 30)
    twin = copy.copy(rng)
    first = [next_word(rng) for _ in range(2 * BLOCK)]
    assert [next_word(twin) for _ in range(2 * BLOCK)] == first


@pytest.mark.parametrize("seed", SEEDS)
def test_words_reads_the_next_outputs(seed):
    rng, ref = Xorshift64Star(seed), ReferenceXorshift(seed)
    for count in (3, BLOCK, 1, 2 * BLOCK + 5, 0, 3 * BLOCK):
        assert rng.words(count).tolist() == [ref.next_u64() for _ in range(count)]
        assert next_word(rng) == ref.next_u64()
