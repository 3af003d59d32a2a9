"""Deterministic, portable 64-bit random number generator.

Every piece of randomness in this library (random graphs, one-hot
adversaries, perturbation draws) flows through :class:`SeededRng`, a
SplitMix64 generator.  The constants are fixed and published here so that
a seed reproduces the exact same stream on any platform or language:

* state increment: ``0x9E3779B97F4A7C15``
* mix multipliers: ``0xBF58476D1CE4E5B9`` and ``0x94D049BB133111EB``
* mix shifts: ``30``, ``27``, ``31``

Floats in [0, 1) take the top 53 bits of one 64-bit output; bounded
integers use rejection sampling, so neither depends on platform float
quirks or modulo bias.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SeededRng:
    """SplitMix64 stream seeded with a 64-bit unsigned integer.

    Instances are cheap and single-threaded; fan out replicas by seeding
    one generator per replica (e.g. ``base_seed + replica_index``) rather
    than sharing a stream.
    """

    __slots__ = ("seed", "_state")

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        self.seed = seed & _MASK64
        self._state = self.seed

    def next_u64(self) -> int:
        """Advance the stream and return the next 64-bit output."""
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0**-53

    def random_array(self, k: int) -> np.ndarray:
        """The next k random() floats as one array, with the same values.

        Output i mixes state + (i+1)*GOLDEN, so the k outputs are computed
        at once in wrapping uint64 arithmetic; the state advances by k.
        """
        if k < 0:
            raise ValueError("random_array() requires k >= 0")
        z = np.uint64(self._state) + np.arange(1, k + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        self._state = (self._state + k * _GOLDEN) & _MASK64
        return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high)."""
        if high < low:
            raise ValueError("uniform() requires low <= high")
        return low + (high - low) * self.random()

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), via rejection sampling (no modulo bias)."""
        if n <= 0:
            raise ValueError("randrange() requires n >= 1")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n
