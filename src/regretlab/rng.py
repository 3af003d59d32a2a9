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

Output i is a fixed mix of seed + i*increment, so ``random_array(k)`` and
``uniform_array(low, high, k)`` draw a block of k floats at once: the
same floats as k scalar calls, leaving the stream where they would.
"""

from __future__ import annotations

import numpy as np

from .traces import checked_int, checked_real

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
        seed = checked_int(seed, "seed")
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
        k is an integer (traces.checked_int).
        """
        k = checked_int(k, "k")
        if k < 0:
            raise ValueError("random_array() requires k >= 0")
        z = np.uint64(self._state) + np.arange(1, k + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        self._state = (self._state + k * _GOLDEN) & _MASK64
        return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high), for finite reals low <= high
        (traces.checked_real)."""
        low, high = _checked_range(low, high)
        return low + (high - low) * self.random()

    def uniform_array(self, low: float, high: float, k: int) -> np.ndarray:
        """The next k uniform(low, high) floats as one array, with the same
        values: the same formula, elementwise on random_array(k)."""
        low, high = _checked_range(low, high)
        return low + (high - low) * self.random_array(k)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), via rejection sampling (no modulo bias);
        n is an integer (traces.checked_int)."""
        if type(n) is not int:  # a plain int, once per gap round, needs no more
            n = checked_int(n, "n")
        if n <= 0:
            raise ValueError("randrange() requires n >= 1")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n


def _checked_range(low, high) -> tuple[float, float]:
    """low <= high as floats, each checked by traces.checked_real first."""
    low, high = checked_real(low, "low"), checked_real(high, "high")
    if high < low:
        raise ValueError(f"need low <= high, got low={low!r}, high={high!r}")
    return low, high
