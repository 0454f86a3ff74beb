"""A random generator whose whole state is two integers: ``(key, words)``.

Under forward decay a sampler's state *is* its sample (Section V): ``k``
items whose weights were fixed at arrival.  Hosted as a per-group UDAF
(Section VIII, Fig. 3) that state is multiplied by the group count on
every carrier, and a Mersenne Twister's own state — 625 words, 2.5 kB —
outweighed a ``k = 100`` sample's share of it and dwarfed a ``k = 4``
one.  :class:`KeyedRandom` stays a C Mersenne Twister, but one that is
re-seeded from ``(key, block)`` every :data:`BLOCK_WORDS` output words, so
its position in the stream is the number of 32-bit words it has handed
out and restoring it is one seeding and one skip within a block — O(1),
never a replay.  Block 0 of key ``k`` is ``random.Random(k)``'s first 512
words.

A draw never straddles two blocks: one that does not fit in what is left
of the current block starts the next, and the words it passed over count
as drawn.  (So a single draw is at most a block: ``getrandbits`` of more
than 16,384 bits is refused.)
"""

from __future__ import annotations

import random
from itertools import repeat

from repro.core.errors import ParameterError

__all__ = ["KeyedRandom", "BLOCK_WORDS", "KEY_BITS"]

#: Output words between two re-seedings: 256 ``random()`` draws.
BLOCK_WORDS = 512
#: Keys and word counts are non-negative and below ``2**KEY_BITS``, so
#: :mod:`repro.core.tree` packs the pair as two ``i64``.
KEY_BITS = 63

_mt_seed = random.Random.seed
_mt_random = random.Random.random
_mt_getrandbits = random.Random.getrandbits


class KeyedRandom(random.Random):
    """``random.Random`` restorable from :attr:`key` and :attr:`words`.

    Every ``random.Random`` method draws through :meth:`random` or
    :meth:`getrandbits` (both are overridden, or ``randrange`` would take
    the float path and go uncounted), so any mix of calls leaves a state
    that ``KeyedRandom(rng.key, rng.words)`` continues identically —
    ``gauss`` excepted, which keeps half of each pair it draws to itself.
    """

    def __new__(cls, key: int = 0, words: int = 0):
        # Python 3.10 seeds in __new__ and refuses two arguments there.
        return super().__new__(cls)

    def __init__(self, key: int, words: int = 0):
        for name, value in (("key", key), ("words", words)):
            if type(value) is not int or not 0 <= value < 1 << KEY_BITS:
                raise ParameterError(
                    f"generator {name} must be an int in [0, 2**{KEY_BITS}), "
                    f"got {value!r}"
                )
        self.key = key
        block, offset = divmod(words, BLOCK_WORDS)
        self._enter(block)
        if offset:
            _mt_getrandbits(self, 32 * offset)
            self._left -= offset

    @classmethod
    def from_rng(cls, rng: random.Random | None) -> "KeyedRandom":
        """``rng`` itself when it is keyed; else a generator keyed by its
        next 63 bits (the module-level generator's when ``rng`` is None)."""
        if isinstance(rng, cls):
            return rng
        return cls((random if rng is None else rng).getrandbits(KEY_BITS))

    @property
    def words(self) -> int:
        """32-bit words drawn (or passed over at a block's end) so far."""
        return (self._block + 1) * BLOCK_WORDS - self._left

    def _enter(self, block: int) -> None:
        self._block = block
        self._left = BLOCK_WORDS
        _mt_seed(self, self.key | block << KEY_BITS)

    def random(self) -> float:
        left = self._left = self._left - 2
        if left < 0:
            self._enter(self._block + 1)
            self._left = BLOCK_WORDS - 2
        return _mt_random(self)

    def randoms(self, n: int) -> list[float]:
        """``n`` draws, exactly what ``n`` calls of :meth:`random` return,
        taken a block at a time at the C generator's speed."""
        draws: list[float] = []
        while n > 0:
            take = min(n, self._left >> 1)
            if take:
                draws += map(_mt_random, repeat(self, take))
                self._left -= 2 * take
                n -= take
            else:
                self._enter(self._block + 1)
        return draws

    def getrandbits(self, k: int) -> int:
        if k <= 0:  # no words drawn: 0, or the C method's ValueError
            return _mt_getrandbits(self, k)
        words = k + 31 >> 5
        if words > BLOCK_WORDS:
            raise ValueError(f"a draw is at most {32 * BLOCK_WORDS} bits, got {k}")
        left = self._left = self._left - words
        if left < 0:
            self._enter(self._block + 1)
            self._left = BLOCK_WORDS - words
        return _mt_getrandbits(self, k)

    def __reduce__(self):
        return type(self), (self.key, self.words)

    def _refuse(self, *args, **kwargs):
        """Not a twister's interface: the state is ``(key, words)``."""
        raise NotImplementedError(
            "a KeyedRandom's state is (key, words): build another from those"
        )

    seed = getstate = setstate = _refuse
