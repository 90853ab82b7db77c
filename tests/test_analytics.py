import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsat import (
    DomainError,
    Stream,
    bejar_bound,
    exact_factorial_moment,
    snake_length,
    thm1_root,
    thm1_value,
    wilson_interval,
)
from rsat.analytics import falling_factorial


# ---------------------------------------------------------------------------
# the k c (1 - 2^-k)^(c-1) bound


def test_thm1_value_domain():
    with pytest.raises(DomainError):
        thm1_value(2, 1.0)
    with pytest.raises(DomainError):
        thm1_value(2, 0.5)
    with pytest.raises(DomainError):
        thm1_value(1, 3.0)
    # limit toward c = 1 is k
    assert abs(thm1_value(2, 1.0 + 1e-9) - 2.0) < 1e-6


def test_thm1_value_known_points():
    assert thm1_value(3, 36.1) < 1.0
    assert thm1_value(3, 36.0) > 1.0
    assert abs(thm1_value(2, 2.0) - 3.0) < 1e-12  # 2*2*(3/4)^1


def test_thm1_root_brackets():
    r3 = thm1_root(3)
    assert 36.0 < r3 <= 36.1
    r2 = thm1_root(2)
    assert 12.06 < r2 < 12.07
    # the bisection result is a genuine root
    for k, r in ((2, r2), (3, r3)):
        assert abs(thm1_value(k, r) - 1.0) < 1e-7


def test_thm1_root_monotone_in_k():
    roots = [thm1_root(k) for k in range(2, 11)]
    assert all(a < b for a, b in zip(roots, roots[1:]))


# thm1_root(k) for k = 2..18, bit for bit: there the 1e-9 tolerance ends the
# bisection before float resolution does
THM1_ROOTS_HEX = [
    "0x1.821ea13bfebf2p+3", "0x1.20a5308970c6cp+5", "0x1.729ccc4c7b92cp+6",
    "0x1.bbae4d26870d6p+7", "0x1.febe6ad031da6p+8", "0x1.1ed74307b6a38p+10",
    "0x1.3cdc161f8ef06p+11", "0x1.59d41fb376efep+12", "0x1.760312f540fb4p+13",
    "0x1.91968f4ed6b58p+14", "0x1.acae22a678bfap+15", "0x1.c76049e15f99ep+16",
    "0x1.e1bd8e10a2db7p+17", "0x1.fbd2773d6fedep+18", "0x1.0ad464321925cp+20",
    "0x1.17a425af5ce7dp+21", "0x1.245babcc254f4p+22",
]


def test_thm1_root_pinned_up_to_k18():
    assert [thm1_root(k).hex() for k in range(2, 19)] == THM1_ROOTS_HEX


def test_thm1_root_stops_at_float_resolution():
    # from k = 19 on, adjacent doubles near the root are more than 1e-9 apart
    for k in range(19, 54):
        assert abs(thm1_value(k, thm1_root(k)) - 1.0) < 1e-14


def test_thm1_root_rejects_k_where_q_rounds_to_one():
    with pytest.raises(DomainError):
        thm1_root(54)
    with pytest.raises(DomainError):
        thm1_root(100)


# ---------------------------------------------------------------------------
# width-3 bound and the crossover


def test_bejar_bound_values():
    b2 = bejar_bound(2)
    assert abs(b2 - 5.190893069684433) < 1e-9
    assert abs((8 / 7) ** b2 - 2.0) < 1e-9  # definition check, no logs
    with pytest.raises(DomainError):
        bejar_bound(1)


def test_bejar_bound_power_identity():
    # base-8/7 log: raising 8/7 to the bound recovers v exactly
    for v in (2, 5, 100, 4096):
        assert abs((8 / 7) ** bejar_bound(v) - v) < 1e-6 * v


def test_crossover_against_general_bound():
    # smallest v where the width-3 bound exceeds the k=3 root
    root = thm1_root(3)
    v = 2
    while bejar_bound(v) <= root:
        v += 1
    assert bejar_bound(v - 1) <= root < bejar_bound(v)
    assert v == 124


# ---------------------------------------------------------------------------
# snake length


def test_snake_length_examples():
    assert snake_length(100, 4.0) == 14
    assert snake_length(2, 4.0) == 2
    assert snake_length(200, 3.0) == 28
    with pytest.raises(DomainError):
        snake_length(100, 2.0)
    with pytest.raises(DomainError):
        snake_length(1, 3.0)


@given(
    st.integers(min_value=2, max_value=10_000),
    st.floats(min_value=2.05, max_value=30.0),
    st.floats(min_value=0.01, max_value=5.0),
)
@settings(max_examples=200)
def test_snake_length_nonincreasing_in_c(n, c, dc):
    a, b = snake_length(n, c), snake_length(n, c + dc)
    assert a % 2 == 0 and a >= 2
    assert b <= a


# ---------------------------------------------------------------------------
# factorial moments


def test_exact_factorial_moment_example():
    assert exact_factorial_moment(2, 2, 2, [2, 0]) == F(3)
    assert exact_factorial_moment(5, 3, 2, [0, 0, 0, 0, 0]) == F(1)


@pytest.mark.parametrize("n, m, k", [(0, 1, 2), (-1, 1, 2), (2, -3, 2), (2, 2, 0), (2, 2, -2)])
def test_exact_factorial_moment_rejects_impossible_sizes(n, m, k):
    with pytest.raises(DomainError, match=f"got n={n}, m={m}, k={k}$"):
        exact_factorial_moment(n, m, k, [1] * max(n, 0))


def test_exact_factorial_moment_by_enumeration():
    # n=2, k=2, m=2: enumerate all 2^4 slot assignments exactly
    n, km = 2, 4
    total = F(0)
    for assign in itertools.product(range(n), repeat=km):
        r1 = assign.count(0)
        total += falling_factorial(r1, 2)
    assert exact_factorial_moment(2, 2, 2, [2, 0]) == total / n**km


@given(st.data())
@settings(max_examples=150)
def test_factorial_moment_below_power_cap(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    m = data.draw(st.integers(min_value=1, max_value=8))
    k = data.draw(st.integers(min_value=2, max_value=3))
    d = data.draw(st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n))
    value = exact_factorial_moment(n, m, k, d)
    big_d = sum(d)
    assert value <= F(k * m, n) ** big_d
    if big_d <= 1:
        assert value == F(k * m, n) ** big_d


def test_factorial_moment_monte_carlo():
    n, m, k, d = 3, 4, 2, [2, 1, 0]
    exact = float(exact_factorial_moment(n, m, k, d))
    stream = Stream(321)
    km = k * m
    samples = 40_000
    total = total_sq = 0.0
    for _ in range(samples):
        counts = [0] * n
        for _ in range(km):
            counts[stream.below(n)] += 1
        prod = 1
        for j, dj in enumerate(d):
            prod *= falling_factorial(counts[j], dj)
        total += prod
        total_sq += prod * prod
    mean = total / samples
    sigma = math.sqrt(max(total_sq / samples - mean * mean, 0.0) / samples)
    assert abs(mean - exact) < 3 * sigma + 1e-9


# ---------------------------------------------------------------------------
# expected tight-interpretation bound


def test_expected_tight_bound():
    # (k c (1 - 2^-k)^(c-1))^n with c = m/n
    assert abs(thm1_value(2, 8 / 4) ** 4 - 81.0) < 1e-9
    with pytest.raises(DomainError):
        thm1_value(2, 4 / 4)
    # below the root the bound decays below 1
    assert thm1_value(2, 650 / 50) ** 50 < 1.0
    assert thm1_value(2, 13.0) < 1.0


# ---------------------------------------------------------------------------
# Wilson intervals


def test_wilson_edges():
    lo, hi = wilson_interval(0, 100, 0.95)
    assert lo == 0.0 and hi > 0.0
    lo, hi = wilson_interval(100, 100, 0.95)
    assert hi == 1.0 and lo < 1.0


def test_wilson_center_case():
    lo, hi = wilson_interval(50, 100, 0.95)
    assert abs((lo + hi) / 2 - 0.5) < 1e-12
    assert abs(lo - 0.4038315303659956) < 1e-9
    assert abs(hi - 0.5961684696340044) < 1e-9
    assert abs((hi - lo) - 0.1923369392680087) < 1e-9


def test_wilson_domain_errors():
    with pytest.raises(DomainError):
        wilson_interval(5, 0, 0.95)
    with pytest.raises(DomainError):
        wilson_interval(5, 4, 0.95)
    with pytest.raises(DomainError):
        wilson_interval(1, 4, 1.0)


@given(
    st.integers(min_value=1, max_value=10_000),
    st.data(),
)
@settings(max_examples=200)
def test_wilson_contains_estimate(trials, data):
    successes = data.draw(st.integers(min_value=0, max_value=trials))
    lo, hi = wilson_interval(successes, trials, 0.95)
    assert 0.0 <= lo <= successes / trials <= hi <= 1.0
