"""The saturation curve's own draws against ``random.Random(seed).sample``.

``stride.sampling._draw`` reads the generator's 32-bit outputs from
``_word_stream`` and must draw what ``random.sample`` draws, output for
output.  Each case makes several draws in a row from one stream and then
checks the next output too, so a draw that read one output too many or
too few shows up in the draws after it.
"""

from __future__ import annotations

import bisect
import math
import random

import pytest

from stride.sampling import _draw, _word_stream

SEEDS = range(40)


def _setsize(k: int) -> int:
    # random.sample's threshold: a pool shuffle for n <= setsize, a set of positions above it.
    return 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)


def _first_pool_k(n: int) -> int:
    """The smallest k for which ``random.sample(range(n), k)`` shuffles a pool."""
    return bisect.bisect_left(range(1, n + 1), True, key=lambda k: n <= _setsize(k)) + 1


def _sizes(n: int) -> list[int]:
    """k in 1-7, either side of the switch to the pool shuffle, and n itself."""
    switch = _first_pool_k(n)
    return sorted({k for k in (1, 2, 3, 4, 5, 6, 7, switch - 1, switch, n) if 1 <= k <= n})


def _assert_draws_match(seed: int, n: int, sizes: list[int]) -> None:
    reference = random.Random(seed)
    words = _word_stream(random.Random(seed))
    items = list(range(n))
    for k in sizes:
        expected = reference.sample(items, k)
        drawn, picked = _draw(words, items, k)
        picked = sorted(picked)
        assert picked == sorted(expected if drawn else set(items).difference(expected)), (seed, n, k)
    assert next(words) == reference.getrandbits(32), (seed, n, sizes)


# Powers of two and their neighbours, the stdlib's set-size thresholds, and a large population.
SMALL_NS = sorted({1, 2, 3, 20, 21, 22, 100, 1000} | {m for e in range(2, 13) for m in (2**e - 1, 2**e, 2**e + 1)})
LARGE_NS = [2**14, 2**14 + 1, 2**16 - 1, 2**16, 2**16 + 1, 70000]


class TestWordStream:
    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_words_are_the_generators_outputs_in_order(self, seed):
        reference = random.Random(seed)
        words = _word_stream(random.Random(seed))
        # Several chunks, so the joins between them are crossed.
        assert [next(words) for _ in range(5000)] == [reference.getrandbits(32) for _ in range(5000)]

    def test_a_word_is_the_top_bits_of_a_narrower_draw(self):
        reference = random.Random(5)
        words = _word_stream(random.Random(5))
        for bits in [1, 2, 5, 8, 13, 16, 31, 32] * 20:
            assert next(words) >> (32 - bits) == reference.getrandbits(bits)


class TestDrawMatchesRandomSample:
    @pytest.mark.parametrize("n", SMALL_NS)
    def test_small_populations(self, n):
        for seed in SEEDS:
            sizes = _sizes(n)
            random.Random(seed).shuffle(sizes)
            _assert_draws_match(seed, n, sizes)

    @pytest.mark.parametrize("n", LARGE_NS)
    def test_large_populations(self, n):
        for seed in SEEDS[::8]:
            _assert_draws_match(seed, n, _sizes(n))

    def test_every_k_of_a_small_population(self):
        for n in range(1, 30):
            for seed in SEEDS[:5]:
                _assert_draws_match(seed, n, list(range(1, n + 1)))

    def test_k_either_side_of_the_pool_switch(self):
        for n in (22, 37, 85, 341, 1365, 5461, 21845):
            switch = _first_pool_k(n)
            assert n > _setsize(switch - 1) and n <= _setsize(switch)
            for seed in SEEDS[:10]:
                _assert_draws_match(seed, n, [switch - 2, switch - 1, switch, switch + 1])

    def test_the_draws_of_a_sequence_of_items(self):
        items = [f"item{i}" for i in range(300)]
        reference = random.Random(3)
        words = _word_stream(random.Random(3))
        for k in (4, 40, 150, 300):
            expected = reference.sample(items, k)
            drawn, picked = _draw(words, items, k)
            assert sorted(picked) == sorted(expected if drawn else set(items).difference(expected))
