"""Block draws of the splitmix64 stream against the scalar stream."""

import numpy as np
import pytest

from cokpairs import rng


@pytest.mark.parametrize("k", [0, 1, 2, 7, 780, 1000])
def test_u64_array_equals_scalar_draws(k):
    for seed in (0, 1, 2**64 - 1, 123456789):
        a, b = rng.stream(seed, 3), rng.stream(seed, 3)
        block = a.u64_array(k)
        assert block.dtype == np.uint64
        assert block.tolist() == [b.u64() for _ in range(k)]
        assert a.u64() == b.u64()  # same state afterwards


@pytest.mark.parametrize(
    "n",
    [1, 2, 7, 9, 2**32 + 15, 2**62 + 1, 3 * 2**61, 2**63, 2**63 + 1, 3 * 2**62, 2**64 - 1, 2**64],
)
def test_below_array_equals_scalar_below(n):
    """Large n reject often (2^63 + 1 about half the draws), so the scalar
    fallback runs from the first rejected draw on; n = 1 draws nothing."""
    for trial in range(8):
        a, b = rng.stream(5, trial), rng.stream(5, trial)
        block = a.below_array(n, 40)
        want = [b.below(n) for _ in range(40)]
        assert block.tolist() == want
        assert all(type(x) is int for x in block.tolist())
        assert block.dtype == (np.int64 if n <= 2**63 else object)
        assert a.u64() == b.u64()


def test_below_rejects_ranges_beyond_2_to_the_64():
    # 2^64 - 2^64 % n is 0 there, so rejection sampling used to loop forever
    for n in (2**64 + 1, 2**65, 10**30):
        with pytest.raises(ValueError, match="2\\^64"):
            rng.stream(1).below_array(n, 3)
        with pytest.raises(ValueError, match="2\\^64"):
            rng.stream(1).below(n)
    for n in (0, -4):
        with pytest.raises(ValueError):
            rng.stream(1).below_array(n, 3)
