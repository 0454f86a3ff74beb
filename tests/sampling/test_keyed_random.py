"""The samplers' generator: a Mersenne Twister whose state is two ints.

:class:`~repro.core.keyed_random.KeyedRandom` promises that
``KeyedRandom(rng.key, rng.words)`` continues ``rng`` exactly, from any
position, in time that does not depend on the position; that streams of
different keys — and different blocks of one key — are unrelated; and
that re-seeding every 512 words does no visible harm to uniformity.
"""

from __future__ import annotations

import copy
import pickle
import random
import time
import tracemalloc

import pytest

from repro.core.errors import ParameterError
from repro.core.keyed_random import BLOCK_WORDS, KEY_BITS, KeyedRandom
from repro.core.protocol import dump_rng_state, load_rng_state


#: The call shapes the samplers use (and two wide ``getrandbits`` none of
#: them does): 2, 1, 2, 1, 1, 3, 5 words a cycle, so positions take every
#: residue as they cross a block.
SHAPES = (
    lambda rng: rng.random(),
    lambda rng: rng.randrange(10),
    lambda rng: rng.uniform(0.25, 4.0),
    lambda rng: rng.randrange(1 << 20),
    lambda rng: rng.getrandbits(32),
    lambda rng: rng.getrandbits(70),
    lambda rng: rng.getrandbits(160),
)


def draw(rng: random.Random, index: int):
    """The ``index``-th call of an endless cycle through :data:`SHAPES`."""
    return SHAPES[index % len(SHAPES)](rng)


class TestRestore:
    def test_every_position_of_a_mixed_sequence_continues_identically(self):
        calls = 600  # ~1,300 words: two block boundaries
        reference = KeyedRandom(11)
        positions, expected = [0], []
        for index in range(calls):
            expected.append(draw(reference, index))
            positions.append(reference.words)
        assert positions[-1] > 2 * BLOCK_WORDS
        steps = {b - a for a, b in zip(positions, positions[1:])}
        assert steps > {1, 2, 3, 5}  # some draw passed over a block's tail
        for done, words in enumerate(positions):
            restored = KeyedRandom(11, words)
            ahead = range(done, min(done + 9, calls))
            assert [draw(restored, index) for index in ahead] == expected[
                ahead.start:ahead.stop
            ], f"after {done} calls, at word {words}"
            assert restored.words == positions[ahead.stop]

    def test_a_draw_that_does_not_fit_the_block_starts_the_next(self):
        rng = KeyedRandom(5, BLOCK_WORDS - 1)
        wide = rng.getrandbits(70)  # three words, one left
        assert rng.words == BLOCK_WORDS + 3
        assert wide == KeyedRandom(5, BLOCK_WORDS).getrandbits(70)
        rng = KeyedRandom(5, BLOCK_WORDS - 1)
        assert rng.random() == KeyedRandom(5, BLOCK_WORDS).random()
        assert rng.words == BLOCK_WORDS + 2

    def test_a_draw_wider_than_a_block_is_refused(self):
        rng = KeyedRandom(8, 7)
        assert rng.getrandbits(32 * BLOCK_WORDS) >> (32 * BLOCK_WORDS - 64)
        assert rng.words == 2 * BLOCK_WORDS
        for call in (lambda: rng.getrandbits(32 * BLOCK_WORDS + 1),
                     lambda: rng.randbytes(4 * BLOCK_WORDS + 1)):
            with pytest.raises(ValueError, match="at most"):
                call()
        assert rng.words == 2 * BLOCK_WORDS

    def test_batch_draws_are_the_single_draws(self):
        for start, count in ((0, 0), (0, 1), (3, 255), (0, 256), (1, 1000), (510, 3)):
            one, many = KeyedRandom(21, start), KeyedRandom(21, start)
            assert many.randoms(count) == [one.random() for _ in range(count)]
            assert many.words == one.words

    def test_block_zero_is_the_plain_twister_seeded_with_the_key(self):
        plain = random.Random(12345)
        assert KeyedRandom(12345).randoms(256) == [plain.random() for _ in range(256)]

    def test_the_state_pair_round_trips_through_the_protocol_helpers(self):
        rng = KeyedRandom(99)
        for index in range(50):
            draw(rng, index)
        state = dump_rng_state(rng)
        assert state == [99, rng.words] and all(type(x) is int for x in state)
        assert load_rng_state(state).random() == rng.random()

    def test_copies_and_pickles_carry_the_pair(self):
        rng = KeyedRandom(77, 1_234)
        for clone in (copy.deepcopy(rng), pickle.loads(pickle.dumps(rng))):
            assert (clone.key, clone.words) == (77, 1_234)
            assert clone.randoms(300) == KeyedRandom(77, 1_234).randoms(300)
        assert rng.words == 1_234

    def test_position_costs_nothing(self):
        tracemalloc.start()
        started = time.perf_counter()
        try:
            far = KeyedRandom(3, (1 << 62) + 301)
            assert far.words == (1 << 62) + 301
            far.random()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - started < 0.05
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "key, words",
        [(-1, 0), (0, -1), (1.0, 0), (0, 2.0), (True, 0), ("1", 0), (None, 0),
         (1 << KEY_BITS, 0), (0, 1 << KEY_BITS), (1 << 70, 0), (0, 1 << 70)],
    )
    def test_a_state_outside_the_domain_is_refused(self, key, words):
        with pytest.raises(ParameterError, match="generator"):
            KeyedRandom(key, words)

    def test_the_twister_surface_is_closed(self):
        rng = KeyedRandom(1)
        for call in (rng.seed, rng.getstate, lambda: rng.setstate(())):
            with pytest.raises(NotImplementedError):
                call()
        with pytest.raises(ValueError):
            rng.getrandbits(-1)
        assert rng.getrandbits(0) == 0 and rng.words == 0


class TestKeying:
    def test_any_generator_keys_one_and_a_keyed_one_is_used_as_is(self):
        keyed = KeyedRandom(4)
        assert KeyedRandom.from_rng(keyed) is keyed
        source = random.Random(7)
        expected_key = random.Random(7).getrandbits(KEY_BITS)
        adopted = KeyedRandom.from_rng(source)
        assert (adopted.key, adopted.words) == (expected_key, 0)
        assert 0 <= KeyedRandom.from_rng(None).key < 1 << KEY_BITS

    def test_two_keys_and_two_blocks_of_one_key_differ(self):
        first = KeyedRandom(1).randoms(256)
        assert first != KeyedRandom(2).randoms(256)
        assert first != KeyedRandom(1, BLOCK_WORDS).randoms(256)
        # key + block would make these two the same stream
        assert KeyedRandom(1, BLOCK_WORDS).randoms(8) != KeyedRandom(2).randoms(8)
        assert len(set(first)) == 256

    def test_pinned_draws_of_key_one(self):
        # Literal, so a CPython whose seeding or float conversion differs
        # (3.10 - 3.12 do not) fails here and not in a sampler's sample.
        rng = KeyedRandom(1)
        assert rng.randoms(4) == [
            0.13436424411240122, 0.8474337369372327,
            0.763774618976614, 0.2550690257394217,
        ]
        assert [rng.randrange(1000), rng.getrandbits(40)] == [507, 497189547844]
        rng = KeyedRandom(1, BLOCK_WORDS)  # the first re-seeding
        assert [rng.random(), rng.uniform(1.0, 3.0)] == [
            0.7315756808931019, 1.2676912693985527,
        ]


class TestUniformity:
    DRAWS = 200_000  # 400,000 words: 781 re-seedings

    def test_chi_square_and_serial_correlation_across_reseeds(self):
        rng = KeyedRandom(2009)
        draws = rng.randoms(self.DRAWS)
        assert rng.words // BLOCK_WORDS >= 700
        buckets = [0] * 64
        for u in draws:
            buckets[int(u * 64)] += 1
        expected = self.DRAWS / 64
        chi = sum((seen - expected) ** 2 / expected for seen in buckets)
        assert chi < 110.0  # df = 63: the 99.98th percentile
        mean = sum(draws) / self.DRAWS
        var = sum((u - mean) ** 2 for u in draws) / self.DRAWS
        lag1 = sum(
            (a - mean) * (b - mean) for a, b in zip(draws, draws[1:])
        ) / ((self.DRAWS - 1) * var)
        assert abs(mean - 0.5) < 0.003 and abs(var - 1 / 12) < 0.001
        assert abs(lag1) < 0.01  # sd ~ 1 / sqrt(n) = 0.0022

    def test_first_draws_of_consecutive_keys_are_uniform(self):
        # One draw from each of 20,000 adjacent keys (what per-group
        # samplers of one query get): the seeding must mix them.
        firsts = [KeyedRandom(key).random() for key in range(20_000)]
        buckets = [0] * 16
        for u in firsts:
            buckets[int(u * 16)] += 1
        chi = sum((seen - 1250) ** 2 / 1250 for seen in buckets)
        assert chi < 45.0  # df = 15
