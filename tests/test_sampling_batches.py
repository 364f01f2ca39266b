"""The saturation curve's batched word stream.

``stride.sampling._WordStream.take(count, shift)`` hands out the next
``count`` generator outputs, each shifted right by ``shift`` bits, cut
from one int that holds the unread outputs.  These tests cover what the
draw tests in ``test_sampling_draws`` reach only by chance: batches that
cross the join between two reads of the generator, batches longer than
one read, every shift, how far the stream reads ahead, and whole curves
whose sizes switch between the two draw methods.
"""

from __future__ import annotations

import random

import pytest

import sampling_oracle as oracle
from stride import sampling
from stride.sampling import _CHUNK_WORDS, PopulationRecord, _word_stream, saturation_curve

SEEDS = (0, 1, 2**40 + 3)


class _CountingRandom(random.Random):
    """A generator that counts the 32-bit outputs ``getrandbits`` hands out."""

    outputs = 0

    def getrandbits(self, k: int) -> int:
        self.outputs += (k + 31) // 32
        return super().getrandbits(k)


def _expected(reference: random.Random, count: int, shift: int) -> list[int]:
    return [reference.getrandbits(32) >> shift for _ in range(count)]


class TestBatches:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_batches_that_cross_a_chunk_join(self, seed):
        reference = random.Random(seed)
        words = _word_stream(random.Random(seed))
        # 1000 + 50 crosses the first join, and the batches of 7 and 1 walk over the second.
        counts = [1000, 50, *([7] * 140), 1, 1, _CHUNK_WORDS - 3, 5]
        assert sum(counts[:2]) > _CHUNK_WORDS and sum(counts[:-1]) > 2 * _CHUNK_WORDS
        for index, count in enumerate(counts):
            shift = index % 32
            assert list(words.take(count, shift)) == _expected(reference, count, shift), (seed, index)
        assert next(words) == reference.getrandbits(32)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("held", [0, 1, _CHUNK_WORDS - 1])
    def test_a_batch_longer_than_a_chunk(self, seed, held):
        reference = random.Random(seed)
        words = _word_stream(random.Random(seed))
        if held:  # leave `held` outputs unread in the stream before the long batch
            assert list(words.take(_CHUNK_WORDS - held, 0)) == _expected(reference, _CHUNK_WORDS - held, 0)
        for count, shift in ((3 * _CHUNK_WORDS + 17, 9), (_CHUNK_WORDS + 1, 0), (5000, 31)):
            assert list(words.take(count, shift)) == _expected(reference, count, shift), (seed, held, count)
        assert next(words) == reference.getrandbits(32)

    @pytest.mark.parametrize("shift", range(32))
    def test_each_shift_is_a_narrower_draw(self, shift):
        for seed in SEEDS:
            reference = random.Random(seed)
            words = _word_stream(random.Random(seed))
            for count in (1, 3, 300, 1500):
                batch = words.take(count, shift)
                assert list(batch) == [reference.getrandbits(32 - shift) for _ in range(count)], (seed, count)
                assert all(0 <= value < 2 ** (32 - shift) for value in batch)

    def test_batches_are_arrays_of_32_bit_items(self):
        batch = _word_stream(random.Random(4)).take(10, 0)
        assert batch.typecode == "I" and batch.itemsize == 4 and len(batch) == 10

    def test_the_stream_reads_at_most_one_chunk_ahead(self):
        rng = _CountingRandom(8)
        words = _word_stream(rng)
        taken = 0
        for count in (1, 5, _CHUNK_WORDS, 2, 3 * _CHUNK_WORDS, 700, 700, 1):
            words.take(count, count % 32)
            taken += count
            assert taken <= rng.outputs < taken + _CHUNK_WORDS, count


def _population(seed: int, n: int) -> list[PopulationRecord]:
    rng = random.Random(seed)
    return [
        PopulationRecord(
            f"r{index:05d}",
            {
                "kind": rng.choice(("a", "b", "b", "c", "d")),
                "size": round(rng.lognormvariate(1.0, 0.8), 3),
                "tags": tuple(rng.sample(("w", "x", "y"), rng.choice((1, 1, 2)))),
            },
        )
        for index in range(n)
    ]


class TestCurveWithBothBranches:
    """Curves whose sizes, in shuffled order, switch between drawing positions and shuffling a pool."""

    @pytest.fixture
    def draws(self, monkeypatch):
        calls = []
        real = sampling._draw

        def spy(words, items, k):
            drawn, picked = real(words, items, k)
            calls.append(drawn)
            return drawn, picked

        monkeypatch.setattr(sampling, "_draw", spy)
        return calls

    @pytest.mark.parametrize("n", [700, 2100])
    @pytest.mark.parametrize("criterion", ["kind", "size", "tags"])
    def test_shuffled_sizes_match_the_oracle(self, n, criterion, draws):
        population = _population(n, n)
        for seed in range(6):
            rng = random.Random(seed)
            sizes = [1, 2, 6, 21, 40, 90, n // 3, n // 2, n - 9, n - 1, 300, 5]
            rng.shuffle(sizes)
            draws.clear()
            points = saturation_curve(population, criterion, sizes, seed, bins=6)
            expected = oracle.saturation_curve(population, criterion, sizes, seed, bins=6)
            assert [(p.sample_size, repr(p.divergence)) for p in points] == [
                (p.sample_size, repr(p.divergence)) for p in expected
            ], (seed, sizes)
            assert True in draws and False in draws, sizes
