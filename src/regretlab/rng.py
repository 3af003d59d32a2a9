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
``uniform_array(low, high, k)`` draw a block of k floats at once, and
``randrange_array(n, k)`` a block of k bounded integers: the same values
as k scalar calls, leaving the stream where they would.
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
        """The next k random() floats as one array, with the same values;
        k is an integer (traces.checked_int)."""
        return (self._u64_array(k, "random_array") >> np.uint64(11)).astype(np.float64) * 2.0**-53

    def _u64_array(self, k, caller: str) -> np.ndarray:
        """The next k next_u64() outputs as one uint64 array. Output i
        mixes state + (i+1)*GOLDEN, so the k outputs are computed at once in
        wrapping uint64 arithmetic; the state advances by k."""
        k = checked_int(k, "k")
        if k < 0:
            raise ValueError(f"{caller}() requires k >= 0")
        z = np.uint64(self._state) + np.arange(1, k + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        self._state = (self._state + k * _GOLDEN) & _MASK64
        return z

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
        n is an integer in [1, 2**64] (traces.checked_int)."""
        n, limit = _checked_bound(n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n

    def randrange_array(self, n: int, k: int) -> list[int]:
        """The next k randrange(n) ints as one list, with the same values,
        leaving the stream where k scalar calls would.

        The k outputs are computed as one uint64 block, as in
        random_array, and reduced mod n. From the first draw at or above
        the rejection limit on (a chance of about k*n/2**64), the scalar
        loop takes over.
        """
        n, limit = _checked_bound(n)
        start = self._state
        z = self._u64_array(k, "randrange_array")
        if z.size and int(z.max()) >= limit:  # then limit < 2**64, and n too
            i = int(np.argmax(z >= np.uint64(limit)))  # the first rejected draw
            self._state = (start + i * _GOLDEN) & _MASK64
            return (z[:i] % np.uint64(n)).tolist() + [self.randrange(n) for _ in range(z.size - i)]
        return z.tolist() if n == 1 << 64 else (z % np.uint64(n)).tolist()


def _checked_bound(n) -> tuple[int, int]:
    """randrange's bound n as an int (traces.checked_int) in [1, 2**64],
    and its rejection limit: the least 64-bit output rejected, below which
    the outputs are uniform mod n. Above 2**64 the limit would be 0."""
    if type(n) is not int:  # a plain int needs no more
        n = checked_int(n, "n")
    if not 1 <= n <= 1 << 64:
        raise ValueError(f"randrange() requires 1 <= n <= 2**64, got {n}")
    return n, (1 << 64) - ((1 << 64) % n)


def _checked_range(low, high) -> tuple[float, float]:
    """low <= high as floats, each checked by traces.checked_real first."""
    low, high = checked_real(low, "low"), checked_real(high, "high")
    if high < low:
        raise ValueError(f"need low <= high, got low={low!r}, high={high!r}")
    return low, high
