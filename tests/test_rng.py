import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spo_bounds._rng import (_seed_halves, sign_block_heights, substream,
                             substream_sign_blocks)

from conftest import whole_signs


def seeds_ref(seed: int, count: int) -> np.ndarray:
    """PCG64's four seed words of each ``substream(seed, i)``, from one
    SeedSequence per index."""
    return np.array([np.random.SeedSequence((seed, i)).generate_state(4, np.uint64)
                     for i in range(count)], dtype=np.uint64).reshape(count, 4)


class TestSubstreams:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 200), count=st.integers(0, 64))
    @example(seed=0, count=0)
    @example(seed=2 ** 200, count=64)
    def test_matches_substream(self, seed, count):
        # the sign kernel seeds every stream at once from these words
        np.testing.assert_array_equal(_seed_halves(seed, count), seeds_ref(seed, count))

    @pytest.mark.parametrize("seed", [2 ** 32 - 1, 2 ** 32, 2 ** 96 - 1, 2 ** 96,
                                      2 ** 128 + 7])
    def test_word_boundaries(self, seed):
        # keys of 2 to 6 uint32 words cross the 4-word hash pool
        np.testing.assert_array_equal(_seed_halves(seed, 5), seeds_ref(seed, 5))

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="^seed must be an integer >= 0, got -1$"):
            substream(-1, 0)

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError, match=r"^count must be an integer in \[0, 4294967296\], "
                                             r"got -1$"):
            whole_signs(0, -1, 3)


@settings(max_examples=200, deadline=None)
@given(count=st.integers(0, 300), rows=st.integers(1, 60))
def test_sign_block_heights_are_the_blocks_drawn(count, rows):
    heights = list(sign_block_heights(count, rows))
    drawn = [len(signs) for _, signs in substream_sign_blocks(0, count, 1, rows)]
    assert heights == drawn
    assert sum(heights) == count
    assert heights == sorted(heights, reverse=True)
    assert heights[0] - heights[-1] <= 1
    assert count < rows or min(heights) >= rows
