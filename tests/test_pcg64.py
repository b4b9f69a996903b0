"""``pamper._pcg64`` against numpy's own ``Generator(PCG64(seed))``, bit for bit.

The library computes the split's stream without ``numpy.random``; the
tests import it as the ground truth.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pamper import _pcg64

SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 + 5, 3**100, 12345678901234567890123]
# Around the block edges, where the first block's doubling stops and the jumps begin.
COUNTS = [0, 1, 2, 3, 100, 2**14 - 1, 2**14, 2**14 + 1, 2**15 + 3, 100_001]


def _numpy_draws(seed: int, n: int) -> np.ndarray:
    return np.random.Generator(np.random.PCG64(seed)).random(n)


@pytest.mark.parametrize("seed", SEEDS)
def test_uniforms_are_numpys_draws(seed):
    for n in COUNTS:
        blocks = list(_pcg64.uniforms(seed, n))
        assert all(0 < len(block) <= _pcg64._BLOCK for block in blocks)
        got = np.concatenate([np.empty(0), *blocks])
        assert got.tobytes() == _numpy_draws(seed, n).tobytes(), (seed, n)


@pytest.mark.parametrize("fraction", [0.1, 0.5])
@pytest.mark.parametrize("seed", SEEDS)
def test_below_is_numpys_split(seed, fraction):
    for n in COUNTS:
        got = _pcg64.below(seed, n, fraction)
        assert got.dtype == np.bool_ and got.shape == (n,)
        assert np.array_equal(got, _numpy_draws(seed, n) < fraction), (seed, n)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=0, max_value=2**300), st.integers(min_value=0, max_value=300))
def test_any_nonnegative_seed_gives_numpys_stream(seed, n):
    got = np.concatenate([np.empty(0), *_pcg64.uniforms(seed, n)])
    assert got.tobytes() == _numpy_draws(seed, n).tobytes()
