import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spo_bounds._rng import substream, substreams


class TestSubstreams:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2 ** 200), count=st.integers(0, 64))
    @example(seed=0, count=0)
    @example(seed=2 ** 200, count=64)
    def test_matches_substream(self, seed, count):
        seen = 0
        for i, rng in enumerate(substreams(seed, count)):
            ref = substream(seed, i)
            assert rng.bit_generator.state == ref.bit_generator.state
            assert rng.random() == ref.random()
            assert rng.integers(0, 2, 7).tolist() == ref.integers(0, 2, 7).tolist()
            seen += 1
        assert seen == count

    @pytest.mark.parametrize("seed", [2 ** 32 - 1, 2 ** 32, 2 ** 96 - 1, 2 ** 96,
                                      2 ** 128 + 7])
    def test_word_boundaries(self, seed):
        # keys of 2 to 6 uint32 words cross the 4-word hash pool
        for i, rng in enumerate(substreams(seed, 5)):
            assert rng.bit_generator.state == substream(seed, i).bit_generator.state

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="non-negative"):
            substreams(-1, 3)
        with pytest.raises(ValueError, match="non-negative"):
            substream(-1, 0)

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError, match="count"):
            substreams(0, -1)
