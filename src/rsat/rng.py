"""Deterministic random number streams.

All randomness in the package flows through :class:`Stream`, a SplitMix64
generator.  Independent, individually replayable streams are derived with
:func:`stream_seed`, which mixes a master seed with a stream index through
the SplitMix64 avalanche function:

    mix64(x):  z  = x + 0x9E3779B97F4A7C15          (mod 2^64)
               z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9 (mod 2^64)
               z ^= z >> 27;  z *= 0x94D049BB133111EB (mod 2^64)
               return z ^ (z >> 31)

    stream_seed(master, i) = mix64(master + (i + 1) * 0x9E3779B97F4A7C15)

Two streams derived from the same master with different indices are
statistically independent for simulation purposes, and a stream is fully
determined by (master, index), so concurrent trials can be re-run in
isolation.
"""

from __future__ import annotations

from fractions import Fraction

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(x: int) -> int:
    """SplitMix64 finalizer: a 64-bit avalanche permutation."""
    z = (x + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def stream_seed(master: int, index: int) -> int:
    """Derive the seed of the ``index``-th child stream of ``master``."""
    return mix64((master + (index + 1) * _GOLDEN) & _MASK64)


class Stream:
    """SplitMix64 pseudo-random stream with exact-arithmetic helpers."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def bits(self, k: int) -> int:
        """Uniform integer in [0, 2^k) for 0 <= k <= 64."""
        if k == 0:
            return 0
        return self.next_u64() >> (64 - k)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by masked rejection; exact for any n >= 1."""
        if n <= 0:
            raise ValueError("below() requires n >= 1")
        k = (n - 1).bit_length()
        while True:
            r = self.bits(k)
            if r < n:
                return r

    def below_fn(self, n: int):
        """A no-argument function making the draws ``below(n)`` makes, with
        one call per draw fewer; for hot loops."""
        if n <= 0:
            raise ValueError("below() requires n >= 1")
        k = (n - 1).bit_length()
        if k == 0:
            return lambda: 0  # one value: no draw
        shift, nxt = 64 - k, self.next_u64

        def draw() -> int:
            r = nxt() >> shift
            while r >= n:
                r = nxt() >> shift
            return r

        return draw

    def coin(self) -> bool:
        return bool(self.next_u64() >> 63)

    def dyadic53(self) -> Fraction:
        """Uniform dyadic rational r/2^53 with r in [0, 2^53)."""
        return Fraction(self.bits(53), 1 << 53)
