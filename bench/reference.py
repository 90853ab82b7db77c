"""A fixed pure-Python loop that measures how fast the machine runs right now.

Shared machines switch between speed states within seconds.  On a 2-CPU
Xeon VM this loop took about 22 ms in one state and 40 ms in the other,
and the same rsat inputs ran about 1.5 times slower in the second.  The
benchmark times the loop between its units and scales each unit's rate by
the mean of the loop times just before and after it.  The loop uses only
the standard library, never rsat, so no change to rsat can move it.  It
mixes what rsat's hot path does: Fraction construction, hashing and
comparison, dicts, sorting, lists of lists, and text formatting and
parsing.
"""

from __future__ import annotations

import random
from fractions import Fraction
from time import perf_counter

# the loop's time at reference speed; one reference second is 40 loops
NOMINAL_S = 0.025


def reference_loop() -> int:
    rng = random.Random(7)
    vals = [Fraction(rng.getrandbits(30), 1 << 30) for _ in range(2000)]
    index = {v: i for i, v in enumerate(vals)}
    vals.sort()
    succ: list[list[int]] = [[] for _ in vals]
    for a, b in zip(vals, vals[1:]):
        if a < b:
            succ[index[a]].append(index[b])
    text = " ".join(f"{v.numerator}/{v.denominator}" for v in vals)
    back = [Fraction(int(n), int(d)) for n, d in (t.split("/") for t in text.split())]
    return len(succ) + len(back)


def time_reference() -> float:
    t0 = perf_counter()
    reference_loop()
    return perf_counter() - t0
