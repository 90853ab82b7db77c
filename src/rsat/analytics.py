"""Closed-form bound evaluation, root finding and statistical helpers.

Everything here is pure and deterministic.  Expressions are evaluated in
double precision; they are short products/ratios of logs and powers, so
relative error stays well below 1e-12 over the parameter ranges used.
The factorial moment is exact (a Fraction).
"""

from __future__ import annotations

import math
from fractions import Fraction
from statistics import NormalDist
from typing import Sequence

from .errors import DomainError

ROOT_TOL = 1e-9


def thm1_value(k: int, c: float) -> float:
    """k * c * (1 - 2^-k)^(c-1): below 1 means almost-never satisfiable."""
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    if c <= 1:
        raise DomainError(f"c must be > 1, got {c}")
    return k * c * (1.0 - 2.0**-k) ** (c - 1.0)


def thm1_root(k: int) -> float:
    """Unique c > 1 with thm1_value(k, c) = 1 on the decreasing branch.

    The map c -> k c q^(c-1) with q = 1 - 2^-k rises to a single interior
    maximum at c* = -1/ln(q) and then decays to 0, so bisection on
    [c*, inf) is safe.  Absolute tolerance 1e-9 in c, or the spacing of
    doubles near the root where that is coarser (from k = 19 on).  For
    k >= 54, q rounds to 1 and the map has no root in double precision.
    """
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    q = 1.0 - 2.0**-k
    if q == 1.0:
        raise DomainError(f"1 - 2^-k rounds to 1 in double precision for k = {k}; need k <= 53")
    lo = -1.0 / math.log(q)
    hi = 2.0 * lo
    while thm1_value(k, hi) >= 1.0:
        hi *= 2.0
    while hi - lo > ROOT_TOL:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # no double lies strictly between lo and hi
            break
        if thm1_value(k, mid) >= 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bejar_bound(v: int) -> float:
    """log base 8/7 of v: the classical almost-never threshold for width 3."""
    if v < 2:
        raise DomainError(f"v must be >= 2, got {v}")
    return math.log(v) / math.log(8.0 / 7.0)


def snake_length(n: int, c: float) -> int:
    """2 * ceil(log n / log(c/2)): the snake length used at ratio c > 2."""
    if n < 2:
        raise DomainError(f"n must be >= 2, got {n}")
    if c <= 2:
        raise DomainError(f"c must be > 2, got {c}")
    return 2 * math.ceil(math.log(n) / math.log(c / 2.0))


def falling_factorial(x: int, d: int) -> int:
    out = 1
    for i in range(d):
        out *= x - i
    return out


def exact_factorial_moment(n: int, m: int, k: int, d: Sequence[int]) -> Fraction:
    """E prod_j (R_j)_{d_j} for the multinomial occurrence profile.

    Equals (km)_D / n^D with D = sum(d): placing D marked slots on
    prescribed variables, the per-slot hit probability is 1/n and the
    slots must be distinct.
    """
    if n < 1 or m < 0 or k < 1:
        raise DomainError(f"requires n >= 1, m >= 0 and k >= 1, got n={n}, m={m}, k={k}")
    if len(d) != n:
        raise ValueError(f"need one exponent per variable: {len(d)} != n = {n}")
    if any(dj < 0 for dj in d):
        raise ValueError("exponents must be nonnegative")
    big_d = sum(d)
    return Fraction(falling_factorial(k * m, big_d), n**big_d)


# ---------------------------------------------------------------------------
# Binomial confidence intervals


def wilson_interval(successes: int, trials: int, confidence: float) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    if not 0 <= successes <= trials:
        raise DomainError(f"successes {successes} outside 0..{trials}")
    if not 0.0 < confidence < 1.0:
        raise DomainError(f"confidence must be in (0, 1), got {confidence}")
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    p_hat = successes / trials
    z2 = z * z
    denom = 1.0 + z2 / trials
    center = (p_hat + z2 / (2.0 * trials)) / denom
    half = z * math.sqrt(p_hat * (1.0 - p_hat) / trials + z2 / (4.0 * trials * trials)) / denom
    # at p_hat = 0 (resp. 1) the score endpoint is exactly 0 (resp. 1)
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi
