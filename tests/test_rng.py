from fractions import Fraction

from rsat import Stream, mix64, stream_seed


def test_mix64_reference_values():
    # frozen outputs pin the generator across platforms and versions
    assert mix64(0) == 16294208416658607535
    assert mix64(1) == 10451216379200822465
    assert mix64(2**64 - 1) == 16490336266968443936


def test_stream_determinism():
    a = Stream(12345)
    b = Stream(12345)
    assert [a.next_u64() for _ in range(50)] == [b.next_u64() for _ in range(50)]


def test_stream_seed_varies_with_index():
    seeds = {stream_seed(7, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert stream_seed(7, 3) != stream_seed(8, 3)


def test_bits_range():
    s = Stream(1)
    for k in (1, 8, 53, 64):
        for _ in range(200):
            assert 0 <= s.bits(k) < 2**k
    assert s.bits(0) == 0


def test_below_range_and_rough_uniformity():
    s = Stream(99)
    counts = [0] * 7
    trials = 70_000
    for _ in range(trials):
        counts[s.below(7)] += 1
    expected = trials / 7
    for c in counts:
        assert abs(c - expected) < 5 * expected**0.5


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
