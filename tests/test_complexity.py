import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spo_bounds import _rng, audits, complexity
from spo_bounds._rng import (ARRAY_BYTES_MAX, BLOCK_BYTES_MAX, substream,
                             substream_sign_blocks)
from spo_bounds.complexity import (SIGN_BLOCK_ROWS, FiniteHypothesisSet,
                                   count_restrictions,
                                   linear_class_rad_bound, massart_bound,
                                   natarajan_dim_bruteforce, oracle_label_table,
                                   rademacher_multivariate_mc,
                                   rademacher_spo_mc)
from spo_bounds.geometry import (CostDomain, DagPathPolytope, LqBall,
                                 UnitSimplex, VertexPolytope)
from spo_bounds.losses import LabeledSample, spo_loss_batch

from conftest import (count_restrictions_ref, natarajan_dim_ref,
                      oracle_label_table_ref, rademacher_exact,
                      rademacher_multivariate_mc_ref, rademacher_spo_mc_ref,
                      random_dags, sign_draws_ref, spo_loss_stack_ref,
                      square_region, traced_peak, whole_signs)


class TestSignDraws:
    """Both sign paths against one numpy generator per draw: exactly equal
    signs over one and many streams, the widest narrow rows, ragged last
    blocks, odd sizes, rows and stream counts on either side of the switches
    to numpy's PCG64 and seeds at the SeedSequence word boundaries.  A whole
    request is drawn as its single block (``whole_signs``)."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 70), m_draws=st.integers(1, 40),
           size=st.integers(1, 30))
    @example(seed=7, m_draws=2000, size=2001)
    @example(seed=2 ** 64 * 40, m_draws=1, size=5001)
    @example(seed=0, m_draws=5000, size=3)
    @example(seed=3, m_draws=17, size=3001)
    @example(seed=2 ** 64 - 1, m_draws=1, size=397)
    @example(seed=2 ** 64, m_draws=1, size=398)
    @example(seed=7, m_draws=2000, size=50)  # the bench rad-spo shape
    def test_matches_one_generator_per_draw(self, seed, m_draws, size):
        signs = whole_signs(seed, m_draws, size)
        assert signs.dtype == np.float64 and signs.flags.c_contiguous
        np.testing.assert_array_equal(signs, sign_draws_ref(seed, m_draws, size))

    @pytest.mark.parametrize("seed", [2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, 2 ** 64,
                                      2 ** 96 - 1, 2 ** 96, 2 ** 128 + 7])
    def test_word_boundaries(self, seed):
        # keys of 2 to 6 uint32 words cross the 4-word hash pool
        np.testing.assert_array_equal(whole_signs(seed, 9, 41),
                                      sign_draws_ref(seed, 9, 41))

    @pytest.mark.parametrize("count, rows, heights", [
        (1, 512, [1]), (511, 512, [511]), (1023, 512, [1023]), (1024, 512, [512, 512]),
        (1535, 512, [768, 767]), (2000, 512, [667, 667, 666]), (2000, 700, [1000, 1000])])
    def test_blocks_are_pinned_and_fold_the_tail(self, count, rows, heights):
        assert SIGN_BLOCK_ROWS == 128
        whole = whole_signs(5, count, 9)
        seen, buffers = [], set()
        for first, signs in substream_sign_blocks(5, count, 9, rows):
            assert first == sum(seen) and signs.flags.c_contiguous
            assert signs.tobytes() == whole[first:first + len(signs)].tobytes()
            seen.append(len(signs))
            buffers.add(signs.__array_interface__["data"][0])
        assert seen == heights and len(buffers) == 1

    @pytest.mark.parametrize("size", [397, 398, 399, 400, 401, 402])
    @pytest.mark.parametrize("rows", [1, 7, 512, 520])
    def test_rows_around_the_wide_switch(self, size, rows):
        # 2 * 199, 2 * 200 and 2 * 201 signs, odd and even, on either side
        # of the switch to numpy's PCG64, in blocks of each height
        assert _rng._WIDE_ROW_OUTPUTS == 200
        want = sign_draws_ref(11, 520, size)
        got = np.concatenate([signs.copy() for _, signs in
                              substream_sign_blocks(11, 520, size, rows)])
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 70), count=st.integers(1, 40),
           size=st.integers(1, 700))
    def test_both_paths_draw_the_same_rows(self, seed, count, size):
        drawn = []
        for switch in (1, 10 ** 9):  # every row wide, then none
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(_rng, "_WIDE_ROW_OUTPUTS", switch)
                patch.setattr(_rng, "_WIDE_STREAMS_PER_OUTPUT", 0)
                drawn.append(whole_signs(seed, count, size).tobytes())
        assert drawn[0] == drawn[1]

    @pytest.mark.parametrize("count, size, wide", [
        (1, 398, True), (2000, 50, False), (512, 2000, True),
        (512, 250, True),  # a verify-all Frobenius block
        (174, 50, True), (175, 50, False),  # either side of 7 streams per output
    ])
    def test_routing_reads_row_width_and_stream_count(self, count, size, wide,
                                                      monkeypatch):
        assert _rng._WIDE_STREAMS_PER_OUTPUT == 7
        calls = []
        fill_wide = _rng._fill_wide_signs
        monkeypatch.setattr(_rng, "_fill_wide_signs",
                            lambda *args: calls.append(fill_wide(*args)))
        signs = whole_signs(3, count, size)
        assert len(calls) == wide
        assert signs.tobytes() == sign_draws_ref(3, count, size).tobytes()

    def test_blocks_check_the_whole_request(self, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated for an over-budget request")

        monkeypatch.setattr(_rng, "_pool_states", no_allocation)
        monkeypatch.setattr(np, "zeros", no_allocation)
        # each block alone would fit the budget
        with pytest.raises(ValueError, match=r"1000000 x 1000 sign draws need \d+ bytes"):
            substream_sign_blocks(0, 10 ** 6, 1000, SIGN_BLOCK_ROWS)
        with pytest.raises(ValueError, match="^rows must be an integer >= 1, got 0$"):
            substream_sign_blocks(0, 4, 4, 0)

    def test_streams_are_numpy_pcg64(self):
        # the kernel reproduces PCG64 and numpy's bounded-integer path; if
        # either changes, the differential tests above must fail, not drift
        assert isinstance(substream(5, 0).bit_generator, np.random.PCG64)

    def test_empty_requests(self):
        assert whole_signs(1, 0, 5).shape == (0, 5)
        assert whole_signs(1, 4, 0).shape == (4, 0)

    def test_rejects_invalid_arguments(self):
        with pytest.raises(ValueError, match="^seed must be an integer >= 0, got -1$"):
            whole_signs(-1, 3, 3)
        with pytest.raises(ValueError, match="^size must be an integer >= 0, got -1$"):
            whole_signs(0, 3, -1)
        with pytest.raises(ValueError, match=r"^count must be an integer in \[0, 4294967296\], "
                                             r"got 4294967297$"):
            whole_signs(0, 2 ** 32 + 1, 1)

    def test_over_budget_request_fails_before_allocating(self, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated for an over-budget request")

        monkeypatch.setattr(_rng, "_pool_states", no_allocation)
        monkeypatch.setattr(np, "zeros", no_allocation)
        with pytest.raises(ValueError, match=r"1000000 x 1000000 sign draws need \d+ bytes"):
            whole_signs(0, 10 ** 6, 10 ** 6)
        # the budget counts the seeding scratch, so many short rows fail too
        with pytest.raises(ValueError, match="budget"):
            whole_signs(0, ARRAY_BYTES_MAX // 256, 1)


class TestRademacherSpoMC:
    def test_single_hypothesis_near_zero(self, rng):
        region = UnitSimplex(3)
        hyp = FiniteHypothesisSet([rng.standard_normal((3, 2))])
        sample = LabeledSample(xs=rng.standard_normal((20, 2)),
                               cs=rng.standard_normal((20, 3)))
        est, se = rademacher_spo_mc(region, hyp, sample, m_draws=2000, seed=0)
        assert abs(est) <= 3.0 * se + 1e-12

    def test_two_hypotheses_single_point_exact_half_gap(self):
        # losses {0, omega} at one point: exact complexity is omega / 2
        region = LqBall.interval(0.5)
        # outputs 0.5 and -0.5 at the point, as 1 x 1 matrices on x = e_1
        hyp = FiniteHypothesisSet([[[0.5]], [[-0.5]]])
        sample = LabeledSample(xs=[[1.0]], cs=[[1.0]])
        losses = np.stack([spo_loss_batch(region, P, sample.cs)
                           for P in hyp.predictions(sample.xs)])
        assert sorted(losses[:, 0]) == [0.0, 1.0]
        exact = rademacher_exact(losses)
        assert exact == 0.5
        est, se = rademacher_spo_mc(region, hyp, sample, m_draws=4000, seed=1)
        assert abs(est - exact) <= 3.0 * se

    def test_matches_exhaustive_enumeration(self, rng):
        region = UnitSimplex(2)
        hyp = FiniteHypothesisSet(rng.standard_normal((4, 2, 2)))
        sample = LabeledSample(xs=rng.standard_normal((6, 2)),
                               cs=rng.standard_normal((6, 2)))
        losses = np.stack([spo_loss_batch(region, P, sample.cs)
                           for P in hyp.predictions(sample.xs)])
        exact = rademacher_exact(losses)
        est, se = rademacher_spo_mc(region, hyp, sample, m_draws=6000, seed=2)
        assert abs(est - exact) <= 3.0 * se

    def test_deterministic_per_seed(self, rng):
        region = UnitSimplex(2)
        hyp = FiniteHypothesisSet(rng.standard_normal((3, 2, 2)))
        sample = LabeledSample(xs=rng.standard_normal((5, 2)),
                               cs=rng.standard_normal((5, 2)))
        assert rademacher_spo_mc(region, hyp, sample, seed=42) \
            == rademacher_spo_mc(region, hyp, sample, seed=42)

    def test_superset_never_decreases_estimate(self, rng):
        region = UnitSimplex(3)
        hyp = FiniteHypothesisSet(rng.standard_normal((8, 3, 2)))
        sample = LabeledSample(xs=rng.standard_normal((7, 2)),
                               cs=rng.standard_normal((7, 3)))
        full, _ = rademacher_spo_mc(region, hyp, sample, m_draws=400, seed=5)
        for k in (1, 3, 5):
            part, _ = rademacher_spo_mc(region, hyp.subset(range(k)), sample,
                                        m_draws=400, seed=5)
            assert part <= full + 1e-15

    @pytest.mark.parametrize("seed", [0, 9001])
    def test_blocked_signs_match_whole_array_at_bench_shape(self, seed, monkeypatch):
        # H = 100, n = 50, m = 2,000, as complexity-shortest-path's rad-spo
        rng = substream(12)
        region = UnitSimplex(5)
        hyp = FiniteHypothesisSet(rng.standard_normal((100, 5, 3)))
        sample = LabeledSample(xs=rng.standard_normal((50, 3)),
                               cs=rng.standard_normal((50, 5)))
        heights = []
        draw_blocks = complexity.substream_sign_blocks

        def recorded(*args):
            for first, signs in draw_blocks(*args):
                heights.append(len(signs))
                yield first, signs

        monkeypatch.setattr(complexity, "substream_sign_blocks", recorded)
        assert (rademacher_spo_mc(region, hyp, sample, 2000, seed)
                == rademacher_spo_mc_ref(region, hyp, sample, 2000, seed))
        assert heights == [2000]

    def test_massart_domination(self, rng):
        region = square_region()
        for case in range(5):
            hyp = FiniteHypothesisSet(rng.standard_normal((5, 2, 2)))
            xs = rng.standard_normal((4, 2))
            cs = rng.standard_normal((4, 2))
            sample = LabeledSample(xs=xs, cs=cs)
            domain = CostDomain.enumerated(region, cs)
            est, se = rademacher_spo_mc(region, hyp, sample, m_draws=1500,
                                        seed=case)
            cap = massart_bound(count_restrictions(region, hyp, xs),
                                sample.n, domain.omega)
            assert est <= cap + 3.0 * se


class TestRademacherMultivariateMC:
    def test_single_hypothesis_near_zero(self, rng):
        hyp = FiniteHypothesisSet([rng.standard_normal((3, 2))])
        est, se = rademacher_multivariate_mc(hyp, rng.standard_normal((15, 2)),
                                             m_draws=2000, seed=0)
        assert abs(est) <= 3.0 * se + 1e-12

    def test_d1_reduces_to_scalar_class(self, rng):
        # with d = 1 the definition collapses to the scalar complexity of
        # {x -> b @ x}; compare against direct enumeration over signs
        xs = rng.standard_normal((8, 2))
        mats = [rng.standard_normal((1, 2)) for _ in range(3)]
        hyp = FiniteHypothesisSet(mats)
        losses = np.stack([(xs @ B.T)[:, 0] for B in mats])
        exact = rademacher_exact(losses)
        est, se = rademacher_multivariate_mc(hyp, xs, m_draws=6000, seed=3)
        assert abs(est - exact) <= 3.0 * se

    def test_frobenius_bound_dominates(self, rng):
        beta, d, p, n = 1.0, 3, 2, 40
        mats = rng.standard_normal((30, d, p))
        mats *= (beta / np.linalg.norm(mats.reshape(30, -1), axis=1))[:, None, None]
        hyp = FiniteHypothesisSet(mats)
        xs = rng.standard_normal((n, p))
        xs /= np.linalg.norm(xs, axis=1)[:, None]
        est, se = rademacher_multivariate_mc(hyp, xs, m_draws=2000, seed=4)
        cap = linear_class_rad_bound("frobenius", beta, d, p, 1.0, n)
        assert est <= cap + 3.0 * se

    @pytest.mark.parametrize("d, p, n, H, m_draws", [
        # the Frobenius audit: n*d in {100, 800, 250, 2000}
        (2, 2, 50, 50, 2000), (2, 5, 400, 50, 2000), (5, 2, 50, 50, 2000),
        (5, 5, 400, 50, 2000),
        (40, 5, 50, 100, 2000),  # complexity-shortest-path
        (3, 2, 8, 6, 500),  # estimator determinism, one block
        (2, 2, 50, 50, 1300),  # one block: 1 MiB of signs is 1,310 rows
        (2, 2, 50, 50, 2700),  # two blocks of 1,350 rows
        (1, 2, 1, 3, 2000),  # n*d = 1
        (2, 2, 50, 2, 1300),  # within OpenBLAS's small-matrix bound whole
        (2, 2, 50, 10, 2500),  # one block, under twice 1,310 rows
        (2, 2, 50, 5, 4002),  # two blocks of 2,001 rows, just past that bound
        (40, 2, 50, 1, 1300),  # one hypothesis: numpy's gemv
    ])
    def test_streamed_signs_match_whole_array(self, d, p, n, H, m_draws):
        rng = substream(11, d, p, n)
        hyp = FiniteHypothesisSet(rng.standard_normal((H, d, p)))
        xs = rng.standard_normal((n, p))
        for seed in (0, 9001):
            assert (rademacher_multivariate_mc(hyp, xs, m_draws, seed)
                    == rademacher_multivariate_mc_ref(hyp, xs, m_draws, seed))

    def test_deterministic_and_monotone(self, rng):
        hyp = FiniteHypothesisSet(rng.standard_normal((6, 2, 2)))
        xs = rng.standard_normal((5, 2))
        a = rademacher_multivariate_mc(hyp, xs, m_draws=300, seed=9)
        b = rademacher_multivariate_mc(hyp, xs, m_draws=300, seed=9)
        assert a == b
        sub, _ = rademacher_multivariate_mc(hyp.subset([0, 1]), xs,
                                            m_draws=300, seed=9)
        assert sub <= a[0] + 1e-15


class TestCountRestrictions:
    def test_single_hypothesis(self, rng):
        region = UnitSimplex(3)
        hyp = FiniteHypothesisSet([rng.standard_normal((3, 2))])
        assert count_restrictions(region, hyp, rng.standard_normal((4, 2))) == 1

    def test_collapsed_hypotheses(self):
        region = UnitSimplex(3)
        # all map every x to the same argmin coordinate
        mats = [np.array([[-(k + 1.0), 0.0], [0.0, 0.0], [1.0, 1.0]])
                for k in range(4)]
        hyp = FiniteHypothesisSet(mats)
        xs = np.array([[1.0, 0.0], [2.0, 0.0]])
        assert count_restrictions(region, hyp, xs) == 1

    def test_matches_manual_enumeration(self, rng):
        region = UnitSimplex(2)
        hyp = FiniteHypothesisSet(rng.standard_normal((3, 2, 2)))
        xs = rng.standard_normal((2, 2))
        manual = {tuple(int(np.argmin(B @ x)) for x in xs)
                  for B in hyp.matrices}
        assert count_restrictions(region, hyp, xs) == len(manual)

    def test_upper_bounds(self, rng):
        region = UnitSimplex(3)
        hyp = FiniteHypothesisSet(rng.standard_normal((6, 3, 2)))
        xs = rng.standard_normal((2, 2))
        count = count_restrictions(region, hyp, xs)
        assert count <= min(len(hyp), region.extreme_point_count() ** 2)

    def test_rejects_ball_regions(self, rng):
        hyp = FiniteHypothesisSet([np.eye(2)])
        with pytest.raises(ValueError, match="extreme points"):
            count_restrictions(LqBall(2.0, 1.0, [0.0, 0.0]), hyp, np.eye(2))


@st.composite
def stacked_cases(draw, finite: bool):
    """A region (``finite``: only kinds with finitely many extreme points), a
    hypothesis set, points and true costs.  Half the sets are drawn as
    tables of outputs, one (n, d) table per hypothesis: matrices on the
    identity features x_i = e_i, with ``B_h[:, i] = table[h, i]``.
    Integer entries in {-2..2} force oracle ties; floats exercise inexact
    products."""
    kinds = ["simplex", "vertex", "dag"] + ([] if finite else ["ball", "ball_q1.5"])
    kind = draw(st.sampled_from(kinds))
    if kind == "dag":
        region = draw(random_dags())
    else:
        d = draw(st.integers(1, 5))
        if kind == "simplex":
            region = UnitSimplex(d)
        elif kind == "ball":
            region = LqBall(2.0, 1.5, np.linspace(-1.0, 1.0, d))
        elif kind == "ball_q1.5":
            region = LqBall(1.5, 2.0, np.zeros(d))
        else:
            k = draw(st.integers(1, 2 ** d))
            region = VertexPolytope([[(i >> j & 1) - 0.5 * j for j in range(d)]
                                     for i in range(k)])
    if draw(st.booleans()):
        entries = st.integers(-2, 2).map(float)
    else:
        entries = st.floats(-3.0, 3.0, allow_nan=False)
    H, n, d = draw(st.integers(1, 8)), draw(st.integers(1, 6)), region.dim
    if draw(st.booleans()):
        p = draw(st.integers(1, 3))
        hyp = FiniteHypothesisSet(draw(arrays(float, (H, d, p), elements=entries)))
        xs = draw(arrays(float, (n, p), elements=entries))
    else:
        table = draw(arrays(float, (H, n, d), elements=entries))
        hyp = FiniteHypothesisSet(table.transpose(0, 2, 1))
        xs = np.eye(n)
        # the products add exact zeros, so only the sign of a zero may move
        assert np.array_equal(hyp.predictions(xs), table)
    return region, hyp, xs, draw(arrays(float, (n, d), elements=entries))


def estimator_losses(region, hyp, sample) -> np.ndarray:
    """The (H, n) SPO loss stack ``rademacher_spo_mc`` correlates with its
    sign draws, recorded by standing in for the correlation."""
    seen = []

    def record(values, n, m_draws, blocks):
        seen.append(values.copy())
        return np.zeros(m_draws)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(complexity, "_sup_correlations", record)
        rademacher_spo_mc(region, hyp, sample, m_draws=1)
    return seen[0]


def block_cap(height, hyp, xs) -> int:
    """A ``BLOCK_BYTES_MAX`` that puts ``height`` of ``hyp``'s hypotheses in
    each block of predictions on ``xs`` (``None``: all of them in one)."""
    return 8 * len(xs) * hyp.d * (len(hyp) if height is None else height)


class TestStackedEstimators:
    """One oracle call per block of hypotheses, in blocks of 1, 7 or every
    hypothesis, against the earlier per-hypothesis loops kept in conftest:
    exactly equal losses, counts and label tables on every region kind,
    ties included."""

    @given(stacked_cases(finite=False), st.integers(0, 2 ** 40),
           st.sampled_from([1, 7, None]))
    @settings(max_examples=300, deadline=None)
    def test_spo_losses_and_estimate(self, case, seed, height):
        region, hyp, xs, cs = case
        sample = LabeledSample(xs=xs, cs=cs)
        want = spo_loss_stack_ref(region, hyp, sample)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(complexity, "BLOCK_BYTES_MAX", block_cap(height, hyp, xs))
            got = estimator_losses(region, hyp, sample)
            estimate = rademacher_spo_mc(region, hyp, sample, m_draws=40, seed=seed)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert estimate == rademacher_spo_mc_ref(region, hyp, sample, 40, seed)

    @given(stacked_cases(finite=True), st.sampled_from([1, 7, None]))
    @settings(max_examples=300, deadline=None)
    def test_restrictions_labels_and_dimension(self, case, height):
        region, hyp, xs, _ = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(complexity, "BLOCK_BYTES_MAX", block_cap(height, hyp, xs))
            count = count_restrictions(region, hyp, xs)
            table = oracle_label_table(region, hyp, xs)
        assert count == count_restrictions_ref(region, hyp, xs)
        want = oracle_label_table_ref(region, hyp, xs)
        assert table.dtype == want.dtype and np.array_equal(table, want)
        assert natarajan_dim_bruteforce(table) == natarajan_dim_ref(want)

    def test_predictions_match_per_matrix_products(self, rng):
        for H, d, p, n in [(1, 1, 1, 1), (3, 40, 5, 50), (7, 3, 2, 4), (2, 5, 9, 1)]:
            mats = rng.standard_normal((H, d, p))
            xs = rng.standard_normal((n, p))
            got = FiniteHypothesisSet(mats).predictions(xs)
            assert np.array_equal(got, np.stack([xs @ B.T for B in mats]))


def recorded_heights(monkeypatch) -> list[int]:
    """The list into which the estimators' sign blocks record their heights
    from now on."""
    seen = []
    draw_blocks = complexity.substream_sign_blocks

    def recorded(*args):
        for first, signs in draw_blocks(*args):
            seen.append(len(signs))
            yield first, signs

    monkeypatch.setattr(complexity, "substream_sign_blocks", recorded)
    return seen


#: prints whether rad-multi at 2,000 signs a row, in the default blocks,
#: equals the whole-array reference
WIDE_SIGN_BLOCKS = """
from spo_bounds._rng import substream
from spo_bounds.complexity import FiniteHypothesisSet, rademacher_multivariate_mc
from conftest import rademacher_multivariate_mc_ref
rng = substream(33, 100)
hyp = FiniteHypothesisSet(rng.standard_normal((100, 40, 5)))
xs = rng.standard_normal((50, 5))
print(rademacher_multivariate_mc(hyp, xs, 2000, 4)
      == rademacher_multivariate_mc_ref(hyp, xs, 2000, 4))
"""


class TestEstimatorMemory:
    """One memory budget per estimator call: blocks of predictions and of
    signs, and refusals of the arrays that span every hypothesis."""

    @pytest.mark.parametrize("rows, heights", [
        (512, [667, 667, 666]), (700, [1000, 1000]), (2000, [2000])])
    def test_sign_block_heights_keep_the_bits(self, rows, heights, monkeypatch):
        # H = 100, n = 50, m = 2,000, as complexity-shortest-path's rad-spo,
        # and rad-multi on the same points (n * d = 250 signs a row)
        rng = substream(12)
        region = UnitSimplex(5)
        hyp = FiniteHypothesisSet(rng.standard_normal((100, 5, 3)))
        sample = LabeledSample(xs=rng.standard_normal((50, 3)),
                               cs=rng.standard_normal((50, 5)))
        seen = recorded_heights(monkeypatch)
        for width, estimate, reference in (
                (50, lambda: rademacher_spo_mc(region, hyp, sample, 2000, 3),
                 lambda: rademacher_spo_mc_ref(region, hyp, sample, 2000, 3)),
                (250, lambda: rademacher_multivariate_mc(hyp, sample.xs, 2000, 3),
                 lambda: rademacher_multivariate_mc_ref(hyp, sample.xs, 2000, 3))):
            monkeypatch.setattr(complexity, "BLOCK_BYTES_MAX", 8 * max(width, 100) * rows)
            seen.clear()
            assert estimate() == reference()
            assert seen == heights

    @pytest.mark.parametrize("H", [50, 100])
    @pytest.mark.parametrize("rows, heights", [
        (128, [134] * 5 + [133] * 10), (512, [667, 667, 666]), (2000, [2000])])
    def test_wide_sign_blocks_keep_the_bits(self, H, rows, heights, monkeypatch):
        # rad-multi at 2,000 signs a row (n = 50, d = 40, as the bench's),
        # where the row floor sets the height: 128 rows (the floor), 512
        # (the earlier floor) and the whole request
        rng = substream(33, H)
        hyp = FiniteHypothesisSet(rng.standard_normal((H, 40, 5)))
        xs = rng.standard_normal((50, 5))
        seen = recorded_heights(monkeypatch)
        monkeypatch.setattr(complexity, "SIGN_BLOCK_ROWS", rows)
        assert rademacher_multivariate_mc(hyp, xs, 2000, 4) == \
            rademacher_multivariate_mc_ref(hyp, xs, 2000, 4)
        assert seen == heights

    def test_wide_sign_blocks_keep_the_bits_on_haswell(self):
        # OpenBLAS's Haswell kernel rounds blocked products apart from the
        # whole one in the last digit; the estimate, a mean of 2,000 sups,
        # still matches the whole-array reference in 15 blocks of 133-134
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(Path(complexity.__file__).parents[1]), str(Path(__file__).parent)]),
            OPENBLAS_CORETYPE="Haswell")
        proc = subprocess.run([sys.executable, "-c", WIDE_SIGN_BLOCKS], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "True\n"

    def test_wide_sign_rows_peak_under_5_mib(self):
        # 2,000 draws of 2,000 signs once held 512 rows or more: 12.3 MiB
        # for rad-multi at the bench shape, 11.3 MiB for the Frobenius audit
        rng = substream(33, 100)
        hyp = FiniteHypothesisSet(rng.standard_normal((100, 40, 5)))
        xs = rng.standard_normal((50, 5))
        for call in (lambda: rademacher_multivariate_mc(hyp, xs, 2000, 4),
                     lambda: audits.audit_frobenius_domination(0)):
            _, peak = traced_peak(call)
            assert peak < 5 * 2 ** 20

    def test_call_peaks_stay_within_the_budgeted_arrays(self):
        # 200 hypotheses on 400 points of the 5 x 5 grid DAG (d = 40): 24.4
        # MiB of predictions, which each call once held about four times
        rng = substream(26)
        dag = DagPathPolytope.grid(5, 5)
        hyp = FiniteHypothesisSet(rng.standard_normal((200, 40, 5)))
        sample = LabeledSample(xs=rng.standard_normal((400, 5)),
                               cs=rng.uniform(1.0, 5.0, (400, 40)))
        spanning = 8 * 200 * 400  # the (H, n) losses or labels
        for call in (lambda: rademacher_spo_mc(dag, hyp, sample, m_draws=200, seed=1),
                     lambda: count_restrictions(dag, hyp, sample.xs),
                     lambda: oracle_label_table(dag, hyp, sample.xs)):
            _, peak = traced_peak(call)
            assert peak < 4 * (spanning + BLOCK_BYTES_MAX)

    @pytest.mark.parametrize("estimator, what", [
        ("rad-spo", "SPO losses"), ("count", "labels"), ("table", "labels")])
    def test_hypothesis_stacks_refused_before_oracle_work(self, estimator, what,
                                                          monkeypatch):
        # 1,000 hypotheses x 140,000 points: 1.12e9 bytes of float64 losses
        # or int64 labels, while one block of predictions is small
        def no_oracle(*args):
            raise AssertionError("an oracle ran on an over-budget request")

        region = UnitSimplex(1)
        monkeypatch.setattr(region, "_linopt", no_oracle)
        monkeypatch.setattr(region, "_decision_cost", no_oracle)
        hyp = FiniteHypothesisSet(np.full((1000, 1, 1), 0.5))
        xs = np.ones((140000, 1))
        call = {"rad-spo": lambda: rademacher_spo_mc(region, hyp, LabeledSample(xs, xs)),
                "count": lambda: count_restrictions(region, hyp, xs),
                "table": lambda: oracle_label_table(region, hyp, xs)}[estimator]
        with pytest.raises(ValueError, match=f"1000 hypotheses x 140000 points need "
                                             f"1120000000 bytes of {what}, over"):
            call()

    def test_sign_request_refused_before_the_loss_pass(self, monkeypatch):
        # 3,000,000 draws of 50 signs need 1,968,000,000 bytes: refused
        # before one oracle row is solved
        rows = []
        region = UnitSimplex(5)
        real = region._decision_cost

        def counted(C_hat, C):
            rows.append(len(C_hat))
            return real(C_hat, C)

        monkeypatch.setattr(region, "_decision_cost", counted)
        rng = substream(27)
        hyp = FiniteHypothesisSet(rng.standard_normal((20, 5, 3)))
        sample = LabeledSample(xs=rng.standard_normal((50, 3)),
                               cs=rng.standard_normal((50, 5)))
        with pytest.raises(ValueError, match="3000000 x 50 sign draws need 1968000000 bytes"):
            rademacher_spo_mc(region, hyp, sample, m_draws=3_000_000)
        assert rows == []
        rademacher_spo_mc(region, hyp, sample, m_draws=10)
        assert rows == [50, 20 * 50]  # the optimal costs, then one block

    @pytest.mark.parametrize("estimator", ["rad-spo", "rad-multi"])
    def test_correlation_block_refused_before_any_draw(self, estimator, monkeypatch):
        # 1,000 hypotheses on 2 points: 2,000 draws in three blocks of at
        # most 667 rows (the small-matrix bound asks 501), whose correlations
        # need 8 * 667 * 1000 = 5,336,000 bytes; the budget is cut below
        # that, above the losses and predictions
        def no_work(*args):
            raise AssertionError("worked on an over-budget request")

        region = UnitSimplex(1)
        monkeypatch.setattr(region, "_decision_cost", no_work)
        monkeypatch.setattr(complexity, "substream_sign_blocks", no_work)
        monkeypatch.setattr(complexity, "ARRAY_BYTES_MAX", 5_335_999)
        hyp = FiniteHypothesisSet(np.full((1000, 1, 1), 0.5))
        xs = np.ones((2, 1))
        call = {"rad-spo": lambda: rademacher_spo_mc(region, hyp, LabeledSample(xs, xs)),
                "rad-multi": lambda: rademacher_multivariate_mc(hyp, xs)}[estimator]
        with pytest.raises(ValueError, match="667 sign draws x 1000 hypotheses need 5336000 "
                                             "bytes of correlations, over the 5335999-byte"):
            call()

    def test_one_hypothesis_over_the_budget_is_refused(self, monkeypatch):
        # a block holds one hypothesis at least, so its predictions are
        # refused as a whole stack's are
        monkeypatch.setattr(complexity, "ARRAY_BYTES_MAX", 8 * 4 * 3 - 1)
        hyp = FiniteHypothesisSet(np.ones((2, 3, 1)))
        with pytest.raises(ValueError, match="1 hypotheses x 4 points x 3 outputs need 96"):
            count_restrictions(UnitSimplex(3), hyp, np.ones((4, 1)))

    def test_decision_ids_tell_rows_apart_by_their_bytes(self):
        # zero weights give every row one key, and -0.0 and 0.0 are one
        # float key under any weights; row 2 was seen in an earlier block
        D = np.array([[0.0, 1.0], [-0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [-0.0, 1.0]])
        for weights in (np.zeros(2), np.ones(2)):
            ids = {D[2].tobytes(): 1}
            assert complexity._decision_ids(D, weights, ids).tolist() == [2, 3, 1, 2, 3]
            assert len(ids) == 3


class TestMassartBound:
    def test_singleton_class_zero(self):
        assert massart_bound(1, 10, 2.0) == 0.0

    def test_analytic_anchor(self):
        assert massart_bound(math.e ** 2, 2, 1.0) == pytest.approx(math.sqrt(2.0))

    def test_linear_in_omega(self):
        assert massart_bound(8, 50, 2.0) == 2.0 * massart_bound(8, 50, 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            massart_bound(0, 10, 1.0)
        with pytest.raises(ValueError):
            massart_bound(2, 0, 1.0)
        with pytest.raises(ValueError):
            massart_bound(2, 10, -1.0)


class TestNatarajanDim:
    def test_single_hypothesis_dimension_zero(self):
        assert natarajan_dim_bruteforce(np.ones((3, 1), dtype=int)) == 0

    def test_full_function_table_two_points(self):
        table = np.array([[1, 1, 2, 2], [1, 2, 1, 2]])
        assert natarajan_dim_bruteforce(table) == 2

    def test_missing_pattern_drops_dimension(self):
        # remove the (2, 1) column: the pair must realize all four mixtures
        table = np.array([[1, 1, 2], [1, 2, 2]])
        assert natarajan_dim_bruteforce(table) == 1

    def test_three_labels_shattering(self):
        # two everywhere-disagreeing witnesses plus both mixtures
        table = np.array([[1, 3, 1, 3], [2, 3, 3, 2]])
        assert natarajan_dim_bruteforce(table) == 2

    def test_linear_class_cap_simplex(self):
        grid = np.linspace(-1.0, 1.0, 5)
        hyp = FiniteHypothesisSet(
            [np.array([[a], [b]]) for a in grid for b in grid])
        xs = np.array([[-1.0], [-0.5], [0.5], [1.0]])
        table = oracle_label_table(UnitSimplex(2), hyp, xs)
        assert natarajan_dim_bruteforce(table) <= 2  # d * p

    def test_linear_class_cap_square(self, rng):
        small = np.linspace(-1.0, 1.0, 3)
        hyp = FiniteHypothesisSet(
            [np.array([[a, b], [c, e]]) for a in small for b in small
             for c in small for e in small])
        xs = rng.standard_normal((5, 2))
        table = oracle_label_table(square_region(), hyp, xs)
        assert natarajan_dim_bruteforce(table) <= 4  # d * p

    def test_budget_enforced(self):
        with pytest.raises(ValueError, match="budget"):
            natarajan_dim_bruteforce(np.ones((13, 2), dtype=int))

    def test_accepts_plain_arrays(self):
        assert natarajan_dim_bruteforce(np.array([[1, 2], [1, 2]])) == 1

    @pytest.mark.parametrize("table, message", [
        (np.array([[1.0, 2.0], [1.0, 2.0]]), "labels must be integers"),
        (np.array([[True, False], [False, True]]), "labels must be integers"),
        (np.array([1, 2, 3]), "non-empty 2-D"),
        (np.ones((0, 3), dtype=int), "non-empty 2-D"),
        (np.ones((3, 0), dtype=int), "non-empty 2-D"),
    ])
    def test_refuses_tables_that_are_not_integer_matrices(self, table, message):
        with pytest.raises(ValueError, match=message):
            natarajan_dim_bruteforce(table)

    def test_oracle_table_is_an_int64_array(self):
        hyp = FiniteHypothesisSet([np.array([[1.0], [0.0]]), np.array([[-1.0], [0.0]])])
        table = oracle_label_table(UnitSimplex(2), hyp, np.array([[1.0], [2.0], [-1.0]]))
        assert table.dtype == np.int64 and table.shape == (3, 2)
        assert table.tolist() == [[1, 2], [1, 2], [2, 1]]


@st.composite
def label_tables(draw):
    """A points x hypotheses label table over labels {1..4}: noise columns,
    plus (usually) every mixture of a pair of label tuples that disagree on
    2-4 planted points, with noise labels off those points."""
    m = draw(st.integers(1, 6))
    labels = st.integers(1, 4)
    columns = list(draw(arrays(np.int64, (draw(st.integers(1, 16)), m), elements=labels)))
    planted = 0
    if m >= 2 and draw(st.integers(0, 3)):
        planted = draw(st.integers(2, min(4, m)))
        points = draw(st.permutations(range(m)))[:planted]
        g1 = draw(arrays(np.int64, planted, elements=labels))
        g2 = (g1 + draw(arrays(np.int64, planted, elements=st.integers(1, 3))) - 1) % 4 + 1
        for mask in range(1 << planted):
            col = draw(arrays(np.int64, m, elements=labels))
            for bit, i in enumerate(points):
                col[i] = g1[bit] if mask >> bit & 1 else g2[bit]
            columns.append(col)
    columns = draw(st.permutations(columns))
    return np.array(columns).T, planted


class TestPrunedNatarajan:
    """The pruned search against the unpruned one kept in conftest."""

    @given(label_tables())
    @settings(max_examples=600, deadline=None)
    def test_matches_unpruned_search(self, case):
        values, planted = case
        dim = natarajan_dim_bruteforce(values)
        assert dim == natarajan_dim_ref(values)
        assert dim >= planted

    def test_dimension_of_a_full_cube_with_noise(self, rng):
        # every labelling of 4 points by {1, 2}, plus noise columns labelled 3..5
        cube = np.array([[1 + (mask >> i & 1) for i in range(4)] for mask in range(16)]).T
        noise = rng.integers(3, 6, (4, 20))
        values = np.hstack([noise[:, :7], cube, noise[:, 7:]])
        assert natarajan_dim_bruteforce(values) == natarajan_dim_ref(values) == 4


class TestLinearClassRadBound:
    def test_frobenius_anchor(self):
        assert linear_class_rad_bound("frobenius", 1.0, 4, 3, 1.0, 100) \
            == pytest.approx(math.sqrt(8.0) / 10.0)

    def test_l1_anchor(self):
        assert linear_class_rad_bound("l1_vec", 1.0, 10, 10, 1.0, 100) \
            == pytest.approx(math.sqrt(6.0 * math.log(100.0) / 100.0))

    def test_group_lasso_formula(self):
        assert linear_class_rad_bound("group_lasso", 2.0, 3, 8, 0.5, 200) \
            == pytest.approx(0.5 * 2.0 * math.sqrt(6.0 * 3.0 * math.log(8.0) / 200.0))

    def test_quadrupling_n_halves_bound(self):
        assert linear_class_rad_bound("frobenius", 1.0, 4, 3, 1.0, 400) \
            == pytest.approx(0.5 * linear_class_rad_bound("frobenius", 1.0, 4, 3, 1.0, 100))

    def test_log_domain_validation(self):
        with pytest.raises(ValueError, match="p \\* d"):
            linear_class_rad_bound("l1_vec", 1.0, 1, 1, 1.0, 10)
        with pytest.raises(ValueError, match="^p must be an integer >= 2, got 1$"):
            linear_class_rad_bound("group_lasso", 1.0, 2, 1, 1.0, 10)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="constraint"):
            linear_class_rad_bound("spectral", 1.0, 2, 2, 1.0, 10)

    @pytest.mark.parametrize("beta, d, p, name", [
        (0.0, 2, 2, "beta"), (math.inf, 2, 2, "beta"), (math.nan, 2, 2, "beta"),
        (1.0, 0, 2, "d"), (1.0, 2, 0, "p")])
    def test_class_parameters_checked(self, beta, d, p, name):
        message = {"beta": f"beta must be a finite number > 0, got {beta}",
                   "d": "d must be an integer >= 1, got 0",
                   "p": "p must be an integer >= 1, got 0"}[name]
        with pytest.raises(ValueError, match=f"^{message}$"):
            linear_class_rad_bound("frobenius", beta, d, p, 1.0, 10)


class TestFiniteHypothesisSet:
    def test_json_parsing(self):
        hyp = FiniteHypothesisSet.from_json("[[[1.0, 0.0]], [[0.0, 1.0]]]")
        assert len(hyp) == 2
        assert hyp.d == 1 and hyp.p == 2

    def test_shape_consistency(self):
        with pytest.raises(ValueError, match="inhomogeneous"):
            FiniteHypothesisSet([np.eye(2), np.eye(3)])

    @pytest.mark.parametrize("text, message", [
        ("{}", "JSON list"), ("[]", "non-empty"), ("[[1.0, 2.0]]", "nested 3 deep"),
        ("[[[1.0]], [[1.0, 2.0]]]", "share one shape"), ("[[[1.0, 2.0], [3.0]]]", "share one shape"),
        ("[[[NaN]]]", "finite"), ('[[["a"]]]', "JSON list of numbers")])
    def test_json_refusals(self, text, message):
        with pytest.raises(ValueError, match=message):
            FiniteHypothesisSet.from_json(text)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_features_refused(self, bad):
        # predictions is where features enter every estimator and table
        hyp = FiniteHypothesisSet([np.eye(2)])
        xs = np.array([[1.0, 0.0], [bad, 1.0]])
        for call in (lambda: hyp.predictions(xs),
                     lambda: rademacher_multivariate_mc(hyp, xs, m_draws=10),
                     lambda: count_restrictions(UnitSimplex(2), hyp, xs),
                     lambda: oracle_label_table(UnitSimplex(2), hyp, xs)):
            with pytest.raises(ValueError, match="xs must be finite"):
                call()
