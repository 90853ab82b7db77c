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

SplitMix64 is counter-based: with GOLDEN = 0x9E3779B97F4A7C15, output i
of ``Stream(seed)`` is ``mix64(seed + i * GOLDEN)``.  So a stream mixes its
outputs a block at a time, in one big-int pass, rather than one Python call
per output.  A block of n outputs after state s packs the n states
``s + (i+1) * GOLDEN`` into one int as 64-bit lanes spaced 128 bits apart,
lane i at bit 128*i, and runs the finalizer on every lane at once.  An AND
with a repeated lane mask reduces each lane mod 2^64, and the one before
each multiply also clears the bits a right shift pulled in from the next
lane.  Each lane is then below 2^64 and each constant below 2^64, so each
product stays below 2^128 and no carry crosses into the next lane.  Blocks
start at 16 outputs and double up to 1024, so a short stream mixes little
it does not read and a long one mixes large blocks; the lane constants of
each size are built on first use.

A stream cannot be copied or pickled (a ``TypeError``): its position lives
in an iterator that a copy would share, so two copies would split one
sequence of draws between them.  To replay a stream, build ``Stream(seed)``
again.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import chain

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_C1, _C2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_BLOCK_MIN, _BLOCK_MAX = 16, 1024
# The 64-bit words of a block's bytes in native order: lane i's value is
# word 2i on a little-endian machine; on a big-endian one the words come
# highest lane first, each lane as (high zero word, value).
_LANE_WORDS = slice(0, None, 2) if sys.byteorder == "little" else slice(None, None, -2)


def mix64(x: int) -> int:
    """SplitMix64 finalizer: a 64-bit avalanche permutation."""
    z = (x + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _C1) & _MASK64
    z = ((z ^ (z >> 27)) * _C2) & _MASK64
    return z ^ (z >> 31)


def stream_seed(master: int, index: int) -> int:
    """Derive the seed of the ``index``-th child stream of ``master``."""
    return mix64((master + (index + 1) * _GOLDEN) & _MASK64)


def _below_bits(n: int) -> int:
    """Bits of one below(n) draw.  A 64-bit draw covers n up to 2^64; any n
    outside 1..2^64 is a ValueError."""
    if not 1 <= n <= 1 << 64:
        raise ValueError("below() requires n >= 1 and n <= 2^64")
    return (n - 1).bit_length()


@lru_cache(maxsize=None)
def _lanes(n: int) -> tuple[int, int, int]:
    """(ones, ramp, mask) for n lanes: 1, (i+1) * GOLDEN and 2^64 - 1 in lane i."""
    ones = ((1 << 128 * n) - 1) // ((1 << 128) - 1)
    ramp = sum((i + 1) * _GOLDEN << 128 * i for i in range(n))
    return ones, ramp, ones * _MASK64


def _blocks(state: int):
    """The SplitMix64 outputs after ``state``, as blocks of 16, 32, ... 1024
    words, each mixed in one big-int pass (module docstring)."""
    n = _BLOCK_MIN
    while True:
        ones, ramp, mask = _lanes(n)
        z = (state * ones + ramp) & mask
        z = ((z ^ (z >> 30)) & mask) * _C1 & mask
        z = ((z ^ (z >> 27)) & mask) * _C2 & mask
        z = (z ^ (z >> 31)) & mask
        yield array("Q", z.to_bytes(16 * n, sys.byteorder))[_LANE_WORDS]
        state = (state + n * _GOLDEN) & _MASK64
        n = min(2 * n, _BLOCK_MAX)


class Stream:
    """SplitMix64 pseudo-random stream with exact-arithmetic helpers.

    ``next_u64()`` returns the next 64-bit output; it reads a block iterator
    at C level (module docstring).  A stream cannot be copied or pickled."""

    __slots__ = ("next_u64",)

    def __init__(self, seed: int):
        self.next_u64 = chain.from_iterable(_blocks(seed & _MASK64)).__next__

    def __reduce_ex__(self, protocol):
        # copy.copy, copy.deepcopy and pickle all come here
        raise TypeError("a Stream cannot be copied; build Stream(seed) again")

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by masked rejection; exact for 1 <= n <= 2^64."""
        k = _below_bits(n)
        if k == 0:
            return 0  # one value: no draw
        shift = 64 - k
        r = self.next_u64() >> shift
        while r >= n:
            r = self.next_u64() >> shift
        return r

    def below_fn(self, n: int):
        """A no-argument function drawing ``below(n)`` from this stream, so a
        hot loop over one n sets up the rejection draw once; it runs the same
        masked rejection as :meth:`below`."""
        k = _below_bits(n)
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
        return Fraction(self.next_u64() >> 11, 1 << 53)
