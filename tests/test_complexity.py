import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spo_bounds import complexity
from spo_bounds.complexity import (FiniteHypothesisSet, LabelTable,
                                   LinearPredictorClass, _sign_draws,
                                   count_restrictions,
                                   linear_class_rad_bound, massart_bound,
                                   natarajan_dim_bruteforce, oracle_label_table,
                                   rademacher_multivariate_mc,
                                   rademacher_spo_mc)
from spo_bounds.geometry import (CostDomain, LqBall, UnitSimplex,
                                 VertexPolytope)
from spo_bounds.losses import LabeledSample, spo_loss_batch

from conftest import (count_restrictions_ref, natarajan_dim_ref,
                      oracle_label_table_ref, rademacher_exact,
                      rademacher_spo_mc_ref, random_dags, sign_draws_ref,
                      spo_loss_stack_ref, square_region)


class TestSignDraws:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2 ** 70), m_draws=st.integers(1, 40),
           size=st.integers(1, 30))
    def test_matches_one_generator_per_draw(self, seed, m_draws, size):
        signs = _sign_draws(seed, m_draws, size)
        assert signs.dtype == np.float64
        np.testing.assert_array_equal(signs, sign_draws_ref(seed, m_draws, size))


class TestRademacherSpoMC:
    def test_single_hypothesis_near_zero(self, rng):
        region = UnitSimplex(3)
        hyp = FiniteHypothesisSet.from_matrices([rng.standard_normal((3, 2))])
        sample = LabeledSample(xs=rng.standard_normal((20, 2)),
                               cs=rng.standard_normal((20, 3)))
        est, se = rademacher_spo_mc(region, hyp, sample, m_draws=2000, seed=0)
        assert abs(est) <= 3.0 * se + 1e-12

    def test_two_hypotheses_single_point_exact_half_gap(self):
        # losses {0, omega} at one point: exact complexity is omega / 2
        region = LqBall.interval(0.5)
        table = np.array([[[0.5]], [[-0.5]]])  # direct outputs at the point
        hyp = FiniteHypothesisSet.from_table(table)
        sample = LabeledSample(xs=[[1.0]], cs=[[1.0]])
        losses = np.stack([spo_loss_batch(region, P, sample.cs) for P in table])
        assert sorted(losses[:, 0]) == [0.0, 1.0]
        exact = rademacher_exact(losses)
        assert exact == 0.5
        est, se = rademacher_spo_mc(region, hyp, sample, m_draws=4000, seed=1)
        assert abs(est - exact) <= 3.0 * se

    def test_matches_exhaustive_enumeration(self, rng):
        region = UnitSimplex(2)
        hyp = FiniteHypothesisSet.from_matrices(rng.standard_normal((4, 2, 2)))
        sample = LabeledSample(xs=rng.standard_normal((6, 2)),
                               cs=rng.standard_normal((6, 2)))
        losses = np.stack([spo_loss_batch(region, P, sample.cs)
                           for P in hyp.predictions(sample.xs)])
        exact = rademacher_exact(losses)
        est, se = rademacher_spo_mc(region, hyp, sample, m_draws=6000, seed=2)
        assert abs(est - exact) <= 3.0 * se

    def test_deterministic_per_seed(self, rng):
        region = UnitSimplex(2)
        hyp = FiniteHypothesisSet.from_matrices(rng.standard_normal((3, 2, 2)))
        sample = LabeledSample(xs=rng.standard_normal((5, 2)),
                               cs=rng.standard_normal((5, 2)))
        assert rademacher_spo_mc(region, hyp, sample, seed=42) \
            == rademacher_spo_mc(region, hyp, sample, seed=42)

    def test_superset_never_decreases_estimate(self, rng):
        region = UnitSimplex(3)
        hyp = FiniteHypothesisSet.from_matrices(rng.standard_normal((8, 3, 2)))
        sample = LabeledSample(xs=rng.standard_normal((7, 2)),
                               cs=rng.standard_normal((7, 3)))
        full, _ = rademacher_spo_mc(region, hyp, sample, m_draws=400, seed=5)
        for k in (1, 3, 5):
            part, _ = rademacher_spo_mc(region, hyp.subset(range(k)), sample,
                                        m_draws=400, seed=5)
            assert part <= full + 1e-15

    def test_massart_domination(self, rng):
        region = square_region()
        for case in range(5):
            hyp = FiniteHypothesisSet.from_matrices(rng.standard_normal((5, 2, 2)))
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
        hyp = FiniteHypothesisSet.from_matrices([rng.standard_normal((3, 2))])
        est, se = rademacher_multivariate_mc(hyp, rng.standard_normal((15, 2)),
                                             m_draws=2000, seed=0)
        assert abs(est) <= 3.0 * se + 1e-12

    def test_d1_reduces_to_scalar_class(self, rng):
        # with d = 1 the definition collapses to the scalar complexity of
        # {x -> b @ x}; compare against direct enumeration over signs
        xs = rng.standard_normal((8, 2))
        mats = [rng.standard_normal((1, 2)) for _ in range(3)]
        hyp = FiniteHypothesisSet.from_matrices(mats)
        losses = np.stack([(xs @ B.T)[:, 0] for B in mats])
        exact = rademacher_exact(losses)
        est, se = rademacher_multivariate_mc(hyp, xs, m_draws=6000, seed=3)
        assert abs(est - exact) <= 3.0 * se

    def test_frobenius_bound_dominates(self, rng):
        beta, d, p, n = 1.0, 3, 2, 40
        mats = rng.standard_normal((30, d, p))
        mats *= (beta / np.linalg.norm(mats.reshape(30, -1), axis=1))[:, None, None]
        hyp = FiniteHypothesisSet.from_matrices(mats)
        xs = rng.standard_normal((n, p))
        xs /= np.linalg.norm(xs, axis=1)[:, None]
        est, se = rademacher_multivariate_mc(hyp, xs, m_draws=2000, seed=4)
        cap = linear_class_rad_bound(LinearPredictorClass("frobenius", beta, d, p),
                                     1.0, n)
        assert est <= cap + 3.0 * se

    def test_deterministic_and_monotone(self, rng):
        hyp = FiniteHypothesisSet.from_matrices(rng.standard_normal((6, 2, 2)))
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
        hyp = FiniteHypothesisSet.from_matrices([rng.standard_normal((3, 2))])
        assert count_restrictions(region, hyp, rng.standard_normal((4, 2))) == 1

    def test_collapsed_hypotheses(self):
        region = UnitSimplex(3)
        # all map every x to the same argmin coordinate
        mats = [np.array([[-(k + 1.0), 0.0], [0.0, 0.0], [1.0, 1.0]])
                for k in range(4)]
        hyp = FiniteHypothesisSet.from_matrices(mats)
        xs = np.array([[1.0, 0.0], [2.0, 0.0]])
        assert count_restrictions(region, hyp, xs) == 1

    def test_matches_manual_enumeration(self, rng):
        region = UnitSimplex(2)
        hyp = FiniteHypothesisSet.from_matrices(rng.standard_normal((3, 2, 2)))
        xs = rng.standard_normal((2, 2))
        manual = {tuple(int(np.argmin(B @ x)) for x in xs)
                  for B in hyp.matrices}
        assert count_restrictions(region, hyp, xs) == len(manual)

    def test_upper_bounds(self, rng):
        region = UnitSimplex(3)
        hyp = FiniteHypothesisSet.from_matrices(rng.standard_normal((6, 3, 2)))
        xs = rng.standard_normal((2, 2))
        count = count_restrictions(region, hyp, xs)
        assert count <= min(len(hyp), region.extreme_point_count() ** 2)

    def test_rejects_ball_regions(self, rng):
        hyp = FiniteHypothesisSet.from_matrices([np.eye(2)])
        with pytest.raises(ValueError, match="extreme points"):
            count_restrictions(LqBall(2.0, 1.0, [0.0, 0.0]), hyp, np.eye(2))


@st.composite
def stacked_cases(draw, finite: bool):
    """A region (``finite``: only kinds with finitely many extreme points), a
    hypothesis set backed by matrices or by a table, points and true costs.
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
        hyp = FiniteHypothesisSet.from_matrices(draw(arrays(float, (H, d, p), elements=entries)))
        xs = draw(arrays(float, (n, p), elements=entries))
    else:
        hyp = FiniteHypothesisSet.from_table(draw(arrays(float, (H, n, d), elements=entries)))
        xs = np.zeros((n, 1))
    return region, hyp, xs, draw(arrays(float, (n, d), elements=entries))


def estimator_losses(region, hyp, sample) -> np.ndarray:
    """The (H, n) SPO loss stack ``rademacher_spo_mc`` correlates with its
    sign draws, recorded by standing in for the draws."""
    seen = []

    class Recorder:
        def __matmul__(self, losses_t):
            seen.append(losses_t.T.copy())
            return np.zeros((1, losses_t.shape[1]))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(complexity, "_sign_draws", lambda seed, m, size: Recorder())
        rademacher_spo_mc(region, hyp, sample, m_draws=1)
    return seen[0]


class TestStackedEstimators:
    """One oracle call on the stacked hypotheses against the earlier
    per-hypothesis loops kept in conftest: exactly equal losses, counts and
    label tables on every region kind, ties included."""

    @given(stacked_cases(finite=False), st.integers(0, 2 ** 40))
    @settings(max_examples=300, deadline=None)
    def test_spo_losses_and_estimate(self, case, seed):
        region, hyp, xs, cs = case
        sample = LabeledSample(xs=xs, cs=cs)
        want = spo_loss_stack_ref(region, hyp, sample)
        got = estimator_losses(region, hyp, sample)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert rademacher_spo_mc(region, hyp, sample, m_draws=40, seed=seed) \
            == rademacher_spo_mc_ref(region, hyp, sample, 40, seed)

    @given(stacked_cases(finite=True))
    @settings(max_examples=300, deadline=None)
    def test_restrictions_labels_and_dimension(self, case):
        region, hyp, xs, _ = case
        assert count_restrictions(region, hyp, xs) \
            == count_restrictions_ref(region, hyp, xs)
        table = oracle_label_table(region, hyp, xs)
        want = oracle_label_table_ref(region, hyp, xs)
        assert table.values.dtype == want.dtype and np.array_equal(table.values, want)
        assert natarajan_dim_bruteforce(table) == natarajan_dim_ref(want)

    def test_predictions_match_per_matrix_products(self, rng):
        for H, d, p, n in [(1, 1, 1, 1), (3, 40, 5, 50), (7, 3, 2, 4), (2, 5, 9, 1)]:
            mats = rng.standard_normal((H, d, p))
            xs = rng.standard_normal((n, p))
            got = FiniteHypothesisSet.from_matrices(mats).predictions(xs)
            assert np.array_equal(got, np.stack([xs @ B.T for B in mats]))


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
        assert natarajan_dim_bruteforce(LabelTable(np.ones((3, 1), dtype=int))) == 0

    def test_full_function_table_two_points(self):
        table = LabelTable(np.array([[1, 1, 2, 2], [1, 2, 1, 2]]))
        assert natarajan_dim_bruteforce(table) == 2

    def test_missing_pattern_drops_dimension(self):
        # remove the (2, 1) column: the pair must realize all four mixtures
        table = LabelTable(np.array([[1, 1, 2], [1, 2, 2]]))
        assert natarajan_dim_bruteforce(table) == 1

    def test_three_labels_shattering(self):
        # two everywhere-disagreeing witnesses plus both mixtures
        table = LabelTable(np.array([[1, 3, 1, 3], [2, 3, 3, 2]]))
        assert natarajan_dim_bruteforce(table) == 2

    def test_linear_class_cap_simplex(self):
        grid = np.linspace(-1.0, 1.0, 5)
        hyp = FiniteHypothesisSet.from_matrices(
            [np.array([[a], [b]]) for a in grid for b in grid])
        xs = np.array([[-1.0], [-0.5], [0.5], [1.0]])
        table = oracle_label_table(UnitSimplex(2), hyp, xs)
        assert natarajan_dim_bruteforce(table) <= 2  # d * p

    def test_linear_class_cap_square(self, rng):
        small = np.linspace(-1.0, 1.0, 3)
        hyp = FiniteHypothesisSet.from_matrices(
            [np.array([[a, b], [c, e]]) for a in small for b in small
             for c in small for e in small])
        xs = rng.standard_normal((5, 2))
        table = oracle_label_table(square_region(), hyp, xs)
        assert natarajan_dim_bruteforce(table) <= 4  # d * p

    def test_budget_enforced(self):
        with pytest.raises(ValueError, match="budget"):
            natarajan_dim_bruteforce(LabelTable(np.ones((13, 2), dtype=int)))

    def test_accepts_plain_arrays(self):
        assert natarajan_dim_bruteforce(np.array([[1, 2], [1, 2]])) == 1


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
        dim = natarajan_dim_bruteforce(LabelTable(values))
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
        cls = LinearPredictorClass("frobenius", 1.0, 4, 3)
        assert linear_class_rad_bound(cls, 1.0, 100) \
            == pytest.approx(math.sqrt(8.0) / 10.0)

    def test_l1_anchor(self):
        cls = LinearPredictorClass("l1_vec", 1.0, 10, 10)
        assert linear_class_rad_bound(cls, 1.0, 100) \
            == pytest.approx(math.sqrt(6.0 * math.log(100.0) / 100.0))

    def test_group_lasso_formula(self):
        cls = LinearPredictorClass("group_lasso", 2.0, 3, 8)
        assert linear_class_rad_bound(cls, 0.5, 200) \
            == pytest.approx(0.5 * 2.0 * math.sqrt(6.0 * 3.0 * math.log(8.0) / 200.0))

    def test_quadrupling_n_halves_bound(self):
        cls = LinearPredictorClass("frobenius", 1.0, 4, 3)
        assert linear_class_rad_bound(cls, 1.0, 400) \
            == pytest.approx(0.5 * linear_class_rad_bound(cls, 1.0, 100))

    def test_log_domain_validation(self):
        with pytest.raises(ValueError, match="p \\* d"):
            linear_class_rad_bound(LinearPredictorClass("l1_vec", 1.0, 1, 1), 1.0, 10)
        with pytest.raises(ValueError, match="p > 1"):
            linear_class_rad_bound(LinearPredictorClass("group_lasso", 1.0, 2, 1),
                                   1.0, 10)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="constraint"):
            LinearPredictorClass("spectral", 1.0, 2, 2)


class TestFiniteHypothesisSet:
    def test_json_parsing(self):
        hyp = FiniteHypothesisSet.from_json("[[[1.0, 0.0]], [[0.0, 1.0]]]")
        assert len(hyp) == 2
        assert hyp.d == 1 and hyp.p == 2

    def test_shape_consistency(self):
        with pytest.raises(ValueError, match="share one shape"):
            FiniteHypothesisSet.from_matrices([np.eye(2), np.eye(3)])

    def test_table_point_count_checked(self, rng):
        hyp = FiniteHypothesisSet.from_table(rng.standard_normal((2, 4, 3)))
        with pytest.raises(ValueError, match="different number"):
            hyp.predictions(rng.standard_normal((5, 2)))
