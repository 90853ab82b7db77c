import copy
import pickle
from fractions import Fraction

import pytest

from rsat import Stream, mix64, stream_seed


def test_mix64_reference_values():
    # frozen outputs pin the generator across platforms and versions
    assert mix64(0) == 16294208416658607535
    assert mix64(1) == 10451216379200822465
    assert mix64(2**64 - 1) == 16490336266968443936


GOLDEN = 0x9E3779B97F4A7C15


def test_stream_matches_the_published_splitmix64_vector():
    s = Stream(0)
    assert [s.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1, 0xDEADBEEFCAFEBABE, 2**64 + 0x1234567])
def test_output_i_is_mix64_of_seed_plus_i_golden(seed):
    # 5000 outputs cross every block size step, 16 up to 1024
    s = Stream(seed)
    assert [s.next_u64() for _ in range(5000)] == [
        mix64((seed + i * GOLDEN) % 2**64) for i in range(5000)]


class _OneStep:
    """SplitMix64 one output at a time, and the masked rejection draw."""

    def __init__(self, seed):
        self.i, self.seed = 0, seed

    def next_u64(self):
        self.i += 1
        return mix64((self.seed + (self.i - 1) * GOLDEN) % 2**64)

    def below(self, n):
        k = (n - 1).bit_length()
        if k == 0:
            return 0
        r = self.next_u64() >> (64 - k)
        while r >= n:
            r = self.next_u64() >> (64 - k)
        return r

    def bits(self, k):
        return self.next_u64() >> (64 - k) if k else 0


def test_helpers_interleaved_consume_the_one_step_draws():
    # the calls run past output 16 (blocks of 16 and 32) and 1008 (512 and 1024)
    s, ref = Stream(42), _OneStep(42)
    draw = s.below_fn(1000)
    calls = [
        (s.next_u64, ref.next_u64),
        (lambda: s.below(7), lambda: ref.below(7)),
        (draw, lambda: ref.below(1000)),
        (s.dyadic53, lambda: Fraction(ref.bits(53), 2**53)),
        (lambda: s.below(1 << 64), lambda: ref.below(1 << 64)),
        (lambda: s.below(1), lambda: ref.below(1)),
        (lambda: s.below(3), lambda: ref.below(3)),
    ]
    for i in range(1100):
        ours, theirs = calls[i % len(calls)]
        assert ours() == theirs(), i
    assert ref.i > 1008
    assert s.next_u64() == ref.next_u64()


@pytest.mark.parametrize("copier", [copy.copy, copy.deepcopy, pickle.dumps])
def test_a_stream_cannot_be_copied(copier):
    # a copy would share the block iterator and split one draw sequence
    with pytest.raises(TypeError, match=r"^a Stream cannot be copied; build Stream\(seed\) again$"):
        copier(Stream(5))


def test_stream_determinism():
    a = Stream(12345)
    b = Stream(12345)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_stream_seed_varies_with_index():
    seeds = {stream_seed(7, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert stream_seed(7, 3) != stream_seed(8, 3)


def test_below_range_and_rough_uniformity():
    s = Stream(99)
    counts = [0] * 7
    trials = 70_000
    for _ in range(trials):
        counts[s.below(7)] += 1
    expected = trials / 7
    for c in counts:
        assert abs(c - expected) < 5 * expected**0.5
    with pytest.raises(ValueError, match="requires n >= 1"):
        Stream(0).below(0)


def test_below_takes_n_up_to_2_to_the_64():
    # at n = 2^64 every 64-bit draw is in range, so the draw is next_u64 itself
    a, b, fresh = Stream(8), Stream(8), Stream(8)
    assert a.below(1 << 64) == b.below_fn(1 << 64)() == fresh.next_u64()
    assert a.next_u64() == b.next_u64() == fresh.next_u64()


@pytest.mark.parametrize("method", ["below", "below_fn"])
@pytest.mark.parametrize("n", [0, -3, (1 << 64) + 1, 1 << 65])
def test_below_rejects_n_outside_1_to_2_to_the_64_before_drawing(method, n):
    s, fresh = Stream(3), Stream(3)
    with pytest.raises(ValueError, match=r"^below\(\) requires n >= 1 and n <= 2\^64$"):
        getattr(s, method)(n)
    assert s.next_u64() == fresh.next_u64()


def test_dyadic53_is_exact_53_bit_rational():
    s = Stream(5)
    for _ in range(100):
        x = s.dyadic53()
        assert isinstance(x, Fraction)
        assert 0 <= x < 1
        assert (x * 2**53).denominator == 1


def test_below_fn_draws_like_below():
    for n in (1, 2, 3, 5, 2000, 1 << 53):
        a, b = Stream(77), Stream(77)
        draw = b.below_fn(n)
        assert [a.below(n) for _ in range(200)] == [draw() for _ in range(200)]
        assert a.next_u64() == b.next_u64()  # same number of draws consumed


@pytest.mark.parametrize("n", [1, 2, 3, 1000, 1 << 53, 1 << 64])
def test_below_and_below_fn_draw_one_sequence(n):
    # below draws through below_fn; pin the two to one sequence
    a, b = Stream(2024), Stream(2024)
    draw = b.below_fn(n)
    assert [a.below(n) for _ in range(300)] == [draw() for _ in range(300)]
    after = a.next_u64()
    assert after == b.next_u64()  # same number of draws consumed
    if n == 1:  # one value: no draw
        assert after == Stream(2024).next_u64()
