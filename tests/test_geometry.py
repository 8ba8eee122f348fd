import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spo_bounds import audits, geometry
from spo_bounds._rng import substream
from spo_bounds.geometry import (CostDomain, DagPathPolytope, LqBall,
                                 UnitSimplex, VertexPolytope,
                                 dual_norm_rows, region_from_dict,
                                 region_from_json, vector_norm_rows,
                                 verify_optimality_condition,
                                 verify_strong_convexity)

from conftest import (dag_gap_ref, dag_linopt_ref, dag_path_costs_ref,
                      decision_cost_ref, enumerate_paths_brute, l2_decision_cost_ref,
                      lq_ball_sample_ref, norm_ref, path_vectors_brute,
                      pgd_lq_minimize, project_lq_ball,
                      random_dags, square_region, traced_peak,
                      verify_optimality_condition_ref,
                      verify_strong_convexity_ref)


# ---------------------------------------------------------------------------
# linopt oracle
# ---------------------------------------------------------------------------

class TestLinoptOracle:
    def test_l2_ball_closed_form(self):
        ball = LqBall(2.0, 1.0, [0.0, 0.0])
        np.testing.assert_allclose(ball.linopt([3.0, 4.0]), [-0.6, -0.8],
                                   atol=1e-15)

    def test_simplex_argmin_coordinate(self):
        simplex = UnitSimplex(3)
        np.testing.assert_array_equal(simplex.linopt([0.5, 0.2, 0.9]),
                                      [0.0, 1.0, 0.0])

    def test_square_vertex_enumeration(self):
        np.testing.assert_array_equal(square_region().linopt([1.0, 1.0]),
                                      [-1.0, -1.0])

    def test_grid_dag_unit_costs(self):
        # all 2x2-grid paths cost 2; the lexicographically first one wins
        grid = DagPathPolytope.grid(2, 2)
        brute = enumerate_paths_brute(4, grid.arcs, 0, 3)
        costs = [len(p) for p in brute]
        w = grid.linopt(np.ones(4))
        assert float(np.ones(4) @ w) == min(costs) == 2
        lex_first = sorted(brute)[0]
        np.testing.assert_array_equal(w, np.isin(np.arange(4), lex_first))

    def test_ball_zero_cost_returns_center(self):
        ball = LqBall(2.0, 2.0, [0.5, -1.0])
        np.testing.assert_array_equal(ball.linopt([0.0, 0.0]), [0.5, -1.0])

    def test_vertex_tie_breaks_to_lowest_index(self):
        poly = VertexPolytope([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
        np.testing.assert_array_equal(poly.linopt([1.0, 1.0]), [0.0, 1.0])

    def test_simplex_tie_breaks_to_lowest_index(self):
        np.testing.assert_array_equal(UnitSimplex(3).linopt([0.2, 0.2, 0.9]),
                                      [1.0, 0.0, 0.0])

    def test_dag_tie_breaks_lexicographically(self):
        # diamond with equal-cost paths [0, 2] and [1, 3]
        dag = DagPathPolytope(4, [(0, 1), (0, 2), (1, 3), (2, 3)], 0, 3)
        w = dag.linopt(np.array([1.0, 1.0, 1.0, 1.0]))
        np.testing.assert_array_equal(w, [1.0, 0.0, 1.0, 0.0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            UnitSimplex(3).linopt([1.0, 2.0])

    def test_non_finite_cost_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            UnitSimplex(2).linopt([np.nan, 0.0])

    def test_batch_matches_single(self, rng):
        regions = [LqBall(2.0, 1.5, [0.1, -0.2, 0.0]), UnitSimplex(3),
                   DagPathPolytope.grid(2, 3)]
        for region in regions:
            C = rng.standard_normal((40, region.dim))
            batch = region.linopt_batch(C)
            single = np.stack([region.linopt(c) for c in C])
            np.testing.assert_array_equal(batch, single)

    @given(st.integers(2, 5), st.integers(2, 6), st.integers(0, 10 ** 6))
    @settings(max_examples=50, deadline=None)
    def test_oracle_beats_all_vertices(self, d, k, seed):
        rng = np.random.default_rng(seed)
        vertices = rng.standard_normal((k, d))
        poly = VertexPolytope(vertices)
        c = rng.standard_normal(d)
        w = poly.linopt(c)
        assert float(c @ w) <= float((vertices @ c).min()) + 1e-12


def cost_batches(draw, m: int, d: int) -> np.ndarray:
    """An (m, d) cost batch.  Integer costs in {-2..2} force ties; float
    costs exercise inexact sums."""
    if draw(st.booleans()):
        entries = st.integers(-2, 2).map(float)
    else:
        entries = st.floats(-10.0, 10.0, allow_nan=False)
    return np.array(draw(st.lists(st.lists(entries, min_size=d, max_size=d),
                                  min_size=m, max_size=m)))


@st.composite
def dags_with_costs(draw):
    """A random DAG and a cost batch."""
    dag = draw(random_dags())
    return dag, cost_batches(draw, draw(st.integers(1, 12)), dag.dim)


class TestDagBatchOracle:
    """The batched DAG dynamic program against the one-cost-vector
    reference in conftest: bit-identical decisions and gaps, ties included."""

    @given(dags_with_costs())
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_reference(self, case):
        dag, C = case
        W = dag.linopt_batch(C)
        assert np.array_equal(W, np.stack([dag_linopt_ref(dag, c) for c in C]))
        assert np.array_equal(dag.gap_batch(C), [dag_gap_ref(dag, c) for c in C])
        assert np.array_equal(dag.linopt(C[0]), W[0])
        longest = dag_path_costs_ref(dag, np.ones(dag.dim), maximize=True)[dag.source]
        assert dag.radius(2.0) == float(longest ** 0.5)


    @given(random_dags(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_tie_heavy_costs(self, dag, data):
        m = data.draw(st.integers(1, 40))
        entries = st.sampled_from([-1.0, -0.0, 0.0, 1.0])
        C = np.array(data.draw(st.lists(st.lists(entries, min_size=dag.dim,
                                                 max_size=dag.dim),
                                        min_size=m, max_size=m)))
        assert np.array_equal(dag.linopt_batch(C),
                              np.stack([dag_linopt_ref(dag, c) for c in C]))
        assert np.array_equal(dag.gap_batch(C), [dag_gap_ref(dag, c) for c in C])

    def test_node_with_300_parallel_arcs(self, rng):
        # option slots past 255 need a two-byte slot type
        dag = DagPathPolytope(3, [(0, 1)] * 300 + [(1, 2)], 0, 2)
        assert dag._slot_type == np.uint16
        C = rng.standard_normal((64, dag.dim))
        C[0] = 1.0
        C[0, [150, 280]] = -1.0  # tied minima: the lower arc index wins
        C[1] = 1.0
        C[1, 299] = -2.0
        C[2:8] = rng.integers(-1, 2, (6, dag.dim))
        W = dag.linopt_batch(C)
        assert np.array_equal(W, np.stack([dag_linopt_ref(dag, c) for c in C]))
        assert np.flatnonzero(W[0]).tolist() == [150, 300]
        assert np.flatnonzero(W[1]).tolist() == [299, 300]
        assert np.array_equal(dag.gap_batch(C), [dag_gap_ref(dag, c) for c in C])

    @pytest.mark.parametrize("arcs", [[(0, 1)], [(1, 0), (2, 1), (2, 0)]])
    def test_source_is_sink(self, arcs, rng):
        # the one path is empty: every decision is zero, every gap 0
        dag = DagPathPolytope(3, arcs, 0, 0)
        assert dag.extreme_point_count() == 1
        C = rng.standard_normal((9, dag.dim))
        assert np.array_equal(dag.linopt_batch(C), np.zeros((9, dag.dim)))
        assert np.array_equal(dag.gap_batch(C), np.zeros(9))
        assert dag.radius(2.0) == 0.0
        assert dag.linopt_batch(C[:0]).shape == (0, dag.dim)


class TestDagDiameter:
    @given(random_dags())
    @settings(max_examples=200, deadline=None)
    def test_matches_pairwise_differences(self, dag):
        V = path_vectors_brute(dag)
        diff = V[:, None, :] - V[None, :, :]
        assert dag.diameter2() == float(np.sqrt((diff ** 2).sum(axis=2)).max())

    def test_grid_closed_form(self):
        # two k x k grid paths share no arc at best: 2(k - 1) arcs each;
        # from 9 x 9 on (12,870 paths) enumerating them is out of reach
        for k in range(2, 21):
            omega = CostDomain.ball(DagPathPolytope.grid(k, k), 1.0).omega
            assert omega == math.sqrt(4 * (k - 1))

    def test_eight_by_eight_grid_in_bounded_memory(self):
        # 3432 paths of 14 arcs over 112 arcs; two disjoint paths are 28 apart
        omega, peak = traced_peak(lambda: CostDomain.ball(DagPathPolytope.grid(8, 8), 1.0).omega)
        assert omega == math.sqrt(28)
        assert peak < 64 * 2 ** 20

    def test_nodes_off_every_path_take_no_table(self):
        # one source->sink arc, and a 16,385-node chain into the sink that
        # the source never reaches: a table over the sink-reaching nodes
        # would be over the 1 GiB budget
        nodes = 16387
        arcs = [(0, 1)] + [(v, v + 1) for v in range(2, nodes - 1)] + [(nodes - 1, 1)]
        assert DagPathPolytope(nodes, arcs, 0, 1).diameter2() == 0.0


@st.composite
def regions_with_cost_pairs(draw):
    """A region of any kind, a prediction batch with some zero rows, and a
    true-cost batch of the same shape."""
    kind = draw(st.sampled_from(["simplex", "ball", "ball_q1.5", "shifted_ball",
                                 "vertex", "dag"]))
    if kind == "dag":
        region = draw(random_dags())
    else:
        d = draw(st.integers(1, 6))
        if kind == "simplex":
            region = UnitSimplex(d)
        elif kind == "ball":
            region = LqBall(2.0, 1.0, np.zeros(d))
        elif kind == "ball_q1.5":
            region = LqBall(1.5, 2.0, np.zeros(d))
        elif kind == "shifted_ball":
            region = LqBall(2.0, 1.5, np.linspace(-1.0, 1.0, d))
        else:
            k = draw(st.integers(1, 2 ** d))
            vertices = np.array([[(i >> j & 1) - 0.5 * j for j in range(d)]
                                 for i in range(k)], dtype=float)
            region = VertexPolytope(vertices)
    m = draw(st.integers(1, 12))
    C_hat = cost_batches(draw, m, region.dim)
    C_hat[draw(st.lists(st.integers(0, m - 1), max_size=3))] = 0.0
    return region, C_hat, cost_batches(draw, m, region.dim)


class TestDecisionCost:
    """``decision_cost_batch`` against the decision-matrix formula it
    replaces, ``(linopt_batch(C_hat) * C).sum(1)``: exact on the simplex and
    DAGs (ties included), within 1e-12 on balls and vertex polytopes."""

    @given(regions_with_cost_pairs())
    @settings(max_examples=400, deadline=None)
    def test_matches_decision_matrix(self, case):
        region, C_hat, C = case
        got = region.decision_cost_batch(C_hat, C)
        want = (region.linopt_batch(C_hat) * C).sum(axis=1)
        if isinstance(region, (UnitSimplex, DagPathPolytope)):
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    def test_zero_prediction_costs_the_center(self):
        ball = LqBall(2.0, 2.0, [0.5, -1.0])
        C = np.array([[1.0, 2.0], [-3.0, 0.5]])
        np.testing.assert_array_equal(ball.decision_cost_batch(np.zeros((2, 2)), C),
                                      C @ ball.center)

    def test_simplex_ties_break_to_lowest_index(self):
        C = np.array([[5.0, 7.0, 9.0]])
        assert UnitSimplex(3).decision_cost_batch([[0.2, 0.2, 0.9]], C)[0] == 5.0

    @pytest.mark.parametrize("region", [UnitSimplex(2), LqBall(2.0, 1.0, [0.0, 0.0]),
                                        DagPathPolytope.grid(2, 2)])
    def test_rejects_mismatched_batches(self, region):
        d = region.dim
        with pytest.raises(ValueError, match="shape"):
            region.decision_cost_batch(np.ones((3, d)), np.ones((2, d)))
        with pytest.raises(ValueError, match="shape"):
            region.decision_cost_batch(np.ones((1, d)), np.ones((2, d)))
        with pytest.raises(ValueError, match="finite"):
            region.decision_cost_batch([[np.nan] * d], np.ones((1, d)))


class TestRowIndependence:
    """A row's decision, gap and decision cost are the same bits whatever
    other rows share its batch, so callers may stack batches."""

    @given(regions_with_cost_pairs(), st.integers(1, 12))
    @settings(max_examples=300, deadline=None)
    def test_slices_match_the_whole_batch(self, case, step):
        region, C_hat, C = case
        for op, args in (("linopt_batch", (C_hat,)), ("gap_batch", (C_hat,)),
                         ("decision_cost_batch", (C_hat, C))):
            whole = getattr(region, op)(*args)
            parts = [getattr(region, op)(*(a[i:i + step] for a in args))
                     for i in range(0, len(C_hat), step)]
            assert np.array_equal(whole, np.concatenate(parts)), op


def relayout(A: np.ndarray, layout: str) -> np.ndarray:
    """The same values as ``A`` stored row-major, column-major, or as a
    strided view into a larger buffer."""
    if layout == "C":
        return np.ascontiguousarray(A)
    if layout == "F":
        return np.asfortranarray(A)
    big = np.full((2 * A.shape[0], 2 * A.shape[1] + 1), np.nan)
    big[::2, 1::2] = A
    return big[::2, 1::2]


layouts = st.sampled_from(["C", "F", "strided"])


@st.composite
def sweep_batches(draw, m: int, d: int) -> np.ndarray:
    """An (m, d) batch of integers in {-2..2}, signed zeros or floats, some
    of whose rows hold one value throughout (signs of zero may differ)."""
    entries = draw(st.sampled_from([st.integers(-2, 2).map(float),
                                    st.sampled_from([0.0, -0.0]),
                                    st.floats(-10.0, 10.0, allow_nan=False)]))
    rows = np.array(draw(st.lists(st.lists(entries, min_size=d, max_size=d),
                                  min_size=m, max_size=m)))
    for i in draw(st.lists(st.integers(0, m - 1), max_size=3)):
        value = draw(st.sampled_from([1.5, -2.0, 0.0]))
        signs = draw(st.lists(st.booleans(), min_size=d, max_size=d))
        rows[i] = [-value if flip else value for flip in signs]
    return rows


@st.composite
def simplex_sweep_cases(draw):
    d, m = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    return (UnitSimplex(d), draw(sweep_batches(m, d)), draw(sweep_batches(m, d)),
            draw(layouts), draw(layouts))


@st.composite
def l2_sweep_cases(draw):
    d, m = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    center = np.zeros(d) if draw(st.booleans()) else np.linspace(-1.0, 0.5, d)
    C_hat = draw(sweep_batches(m, d))
    C_hat[draw(st.lists(st.integers(0, m - 1), max_size=2))] = 0.0
    return LqBall(2.0, 1.5, center), C_hat, draw(sweep_batches(m, d))


class TestColumnSweeps:
    """The closed forms sweep columns instead of reducing rows.  On the
    simplex they are differential-tested against numpy's row reductions,
    bit for bit, ties and signed zeros included; on the l2 ball their bits
    must not depend on the memory layout or on the rest of the batch."""

    @given(simplex_sweep_cases())
    @settings(max_examples=400, deadline=None)
    def test_simplex_matches_row_reductions(self, case):
        region, C_hat, C, layout_hat, layout = case
        A_hat, A = relayout(C_hat, layout_hat), relayout(C, layout)
        rows = np.arange(C.shape[0])
        assert (region.decision_cost_batch(A_hat, A).tobytes()
                == C[rows, np.argmin(C_hat, axis=1)].tobytes())
        W = np.zeros_like(C_hat)
        W[rows, np.argmin(C_hat, axis=1)] = 1.0
        assert region.linopt_batch(A_hat).tobytes() == W.tobytes()
        assert (region.gap_batch(A_hat).tobytes()
                == (C_hat.max(axis=1) - C_hat.min(axis=1)).tobytes())

    @pytest.mark.parametrize("d", [255, 256, 257, 300])
    def test_simplex_wide_index_types(self, d):
        # indices past 255 leave the one-byte sweep for a two-byte one
        rng = np.random.default_rng(d)
        region = UnitSimplex(d)
        C = rng.integers(-3, 4, (400, d)).astype(float)
        C[0, -1] = C[1, d // 2] = -10.0
        C[2] = 0.0
        rows = np.arange(C.shape[0])
        for A in (C, np.asfortranarray(C)):
            assert (region.decision_cost_batch(A, -A).tobytes()
                    == (-C)[rows, np.argmin(C, axis=1)].tobytes())
            assert (region.gap_batch(A).tobytes()
                    == (C.max(axis=1) - C.min(axis=1)).tobytes())

    @given(l2_sweep_cases(), layouts, layouts)
    @settings(max_examples=400, deadline=None)
    def test_l2_ball_bits_ignore_layout_and_batch(self, case, layout_hat, layout):
        ball, C_hat, C = case
        got = ball.decision_cost_batch(relayout(C_hat, layout_hat), relayout(C, layout))
        assert got.tobytes() == ball.decision_cost_batch(C_hat, C).tobytes()
        alone = [ball.decision_cost_batch(C_hat[i:i + 1], C[i:i + 1])
                 for i in range(C.shape[0])]
        assert got.tobytes() == np.concatenate(alone).tobytes()
        np.testing.assert_allclose(got, (ball.linopt_batch(C_hat) * C).sum(axis=1),
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(got, decision_cost_ref(ball, C_hat, C),
                                   rtol=0.0, atol=1e-12)

    @given(st.integers(1, 6), st.integers(1, 12), st.sampled_from([1.0, 1.5, 0.25]),
           st.booleans(), layouts, st.data())
    @settings(max_examples=300, deadline=None)
    def test_l2_ball_in_place_form_matches_previous_expression(self, d, m, radius,
                                                               shifted, layout, data):
        # the in-place closed form against the earlier allocating one, bit
        # for bit: zero rows, signed zeros and radius 1 (no scaling pass)
        center = np.linspace(-1.0, 0.5, d) if shifted else np.zeros(d)
        ball = LqBall(2.0, radius, center)
        C_hat, C = data.draw(sweep_batches(m, d)), data.draw(sweep_batches(m, d))
        C_hat[data.draw(st.lists(st.integers(0, m - 1), max_size=3))] = 0.0
        got = ball._decision_cost(relayout(C_hat, layout), relayout(C, layout))
        assert got.tobytes() == l2_decision_cost_ref(ball, C_hat, C).tobytes()

    @pytest.mark.parametrize("radius", [1.0, 1.5])
    @pytest.mark.parametrize("shifted", [False, True])
    def test_l2_ball_in_place_form_on_random_and_zero_rows(self, radius, shifted):
        rng = np.random.default_rng(11)
        center = np.linspace(0.5, -0.5, 5) if shifted else np.zeros(5)
        ball = LqBall(2.0, radius, center)
        C_hat, C = rng.standard_normal((2, 1000, 5))
        C_hat[::7] = 0.0
        C[::5] = 0.0
        C[1::5] = -0.0
        for A_hat, A in ((C_hat, C), (np.asfortranarray(C_hat), np.asfortranarray(C)),
                         (np.zeros_like(C), C)):
            got = ball._decision_cost(A_hat, A)
            assert got.tobytes() == l2_decision_cost_ref(ball, A_hat, A).tobytes()

    def test_l2_ball_transposed_view(self):
        rng = np.random.default_rng(3)
        ball = LqBall(2.0, 1.0, np.zeros(5))
        C_hat, C = rng.standard_normal((2, 5, 300))
        want = ball.decision_cost_batch(np.ascontiguousarray(C_hat.T),
                                        np.ascontiguousarray(C.T))
        assert ball.decision_cost_batch(C_hat.T, C.T).tobytes() == want.tobytes()

    @pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("layout", ["F", "strided"])
    def test_row_norms_ignore_layout(self, q, layout):
        # column-major predictions reach the margin norms
        C = np.random.default_rng(5).standard_normal((200, 12))
        assert (vector_norm_rows(relayout(C, layout), q).tobytes()
                == vector_norm_rows(C, q).tobytes())

    @pytest.mark.parametrize("layout", ["F", "strided"])
    def test_generic_path_ignores_layout_past_eight_columns(self, layout):
        # the q != 2 oracle reduces rows, which round by layout once d >= 8
        ball = LqBall(1.5, 1.0, np.zeros(9))
        C_hat, C = np.random.default_rng(8).standard_normal((2, 300, 9))
        got = ball.decision_cost_batch(relayout(C_hat, layout), relayout(C, layout))
        assert got.tobytes() == decision_cost_ref(ball, C_hat, C).tobytes()

    @pytest.mark.parametrize("q", [2.0, 1.5])
    @pytest.mark.parametrize("d", [8, 12, 40])
    @given(layout_hat=layouts, layout=layouts, seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_lq_balls_ignore_layout_past_eight_columns(self, q, d, layout_hat,
                                                       layout, seed):
        # every row norm is taken row-major, which row sums need once d >= 8
        rng = np.random.default_rng(seed)
        C_hat, C = rng.standard_normal((2, 500, d))
        C_hat[::9] = 0.0
        ball = LqBall(q, 1.5, np.linspace(-0.5, 0.5, d))
        domain = CostDomain.ball(ball, math.sqrt(d))
        A_hat, A = relayout(C_hat, layout_hat), relayout(C, layout)
        for got, want in ((ball.linopt_batch(A_hat), ball.linopt_batch(C_hat)),
                          (ball.gap_batch(A_hat), ball.gap_batch(C_hat)),
                          (ball.decision_cost_batch(A_hat, A),
                           ball.decision_cost_batch(C_hat, C)),
                          (domain.project(A), domain.project(C))):
            assert got.tobytes() == want.tobytes()

    @given(regions_with_cost_pairs(), layouts, layouts)
    @settings(max_examples=300, deadline=None)
    def test_every_region_ignores_layout(self, case, layout_hat, layout):
        # the generic path reduces rows, which round by layout once d >= 8
        region, C_hat, C = case
        got = region.decision_cost_batch(relayout(C_hat, layout_hat), relayout(C, layout))
        assert got.tobytes() == region.decision_cost_batch(C_hat, C).tobytes()
        if not (isinstance(region, LqBall) and region.q == 2.0):
            assert got.tobytes() == decision_cost_ref(region, C_hat, C).tobytes()


class TestLqBallGeneralQ:
    """Oracle for q in (1, 2), validated against projected-gradient
    refinement and the Hoelder support value."""

    @pytest.mark.parametrize("q", [1.3, 1.5, 1.9])
    def test_projected_gradient_cannot_refine(self, q, rng):
        # a projected-gradient step from the oracle's output must return the
        # same point (projection fixed-point characterization of optimality)
        center = np.array([0.2, -0.1, 0.4])
        ball = LqBall(q, 1.5, center)
        for _ in range(3):
            c = rng.standard_normal(3)
            u = ball.linopt(c) - center
            for eta in (1e-3, 0.1, 1.0):
                refined = project_lq_ball(u - eta * c, q, 1.5)
                assert float(np.linalg.norm(refined - u)) <= 1e-10

    @pytest.mark.parametrize("q", [1.3, 1.7])
    def test_at_least_as_good_as_pgd(self, q, rng):
        center = np.array([0.2, -0.1, 0.4])
        ball = LqBall(q, 1.5, center)
        for _ in range(2):
            c = rng.standard_normal(3)
            w = ball.linopt(c)
            w_pgd = pgd_lq_minimize(c, q, 1.5, center)
            assert float(c @ w) <= float(c @ w_pgd) + 1e-10

    @pytest.mark.parametrize("q", [1.2, 1.5, 2.0])
    def test_attains_hoelder_support_value(self, q, rng):
        ball = LqBall(q, 2.0, np.zeros(4))
        qp = q / (q - 1.0)
        for _ in range(50):
            c = rng.standard_normal(4)
            w = ball.linopt(c)
            assert np.linalg.norm(w, ord=q) <= 2.0 + 1e-9
            assert abs(float(c @ w) - (-2.0 * np.linalg.norm(c, ord=qp))) <= 1e-9


# ---------------------------------------------------------------------------
# gap / radius / extreme points
# ---------------------------------------------------------------------------

class TestGapRadiusCounts:
    def test_ball_gap_support_symmetry(self, rng):
        ball = LqBall(2.0, 3.0, [1.0, -2.0])
        for _ in range(20):
            c = rng.standard_normal(2)
            assert ball.gap(c) == pytest.approx(6.0 * np.linalg.norm(c),
                                                rel=1e-12)

    def test_square_gap(self):
        assert square_region().gap([1.0, 0.0]) == 2.0

    def test_zero_cost_gap(self):
        for region in (square_region(), UnitSimplex(4),
                       LqBall(2.0, 1.0, [0.0, 0.0]), DagPathPolytope.grid(2, 2)):
            assert region.gap(np.zeros(region.dim)) == 0.0

    def test_dag_gap_matches_enumeration(self, rng):
        dag = DagPathPolytope.grid(3, 2)
        vectors = path_vectors_brute(dag)
        for _ in range(20):
            c = rng.standard_normal(dag.dim)
            scores = vectors @ c
            assert dag.gap(c) == pytest.approx(scores.max() - scores.min(),
                                               abs=1e-12)

    def test_radius_anchors(self):
        assert UnitSimplex(5).radius(2.0) == 1.0
        assert LqBall(2.0, 2.5, [0.0, 0.0, 0.0]).radius(2.0) == 2.5
        assert square_region().radius(2.0) == pytest.approx(math.sqrt(2.0))

    def test_radius_vertex_polytope_is_max_over_vertices(self, rng):
        V = rng.standard_normal((6, 3))
        poly = VertexPolytope(V)
        for q in (1.0, 2.0, np.inf):
            assert poly.radius(q) == pytest.approx(
                max(np.linalg.norm(v, ord=q) for v in V))

    def test_radius_dag_longest_path(self):
        grid = DagPathPolytope.grid(3, 3)  # longest path has 4 arcs
        assert grid.radius(2.0) == pytest.approx(2.0)
        assert grid.radius(np.inf) == 1.0

    def test_radius_shifted_ball_same_norm(self):
        ball = LqBall(1.5, 2.0, [1.0, 0.0])
        assert ball.radius(1.5) == pytest.approx(3.0)
        with pytest.raises(ValueError, match="only exact"):
            ball.radius(2.0)

    def test_extreme_point_counts(self):
        assert UnitSimplex(5).extreme_point_count() == 5
        assert square_region().extreme_point_count() == 4
        grid = DagPathPolytope.grid(2, 2)
        assert grid.extreme_point_count() == len(
            enumerate_paths_brute(4, grid.arcs, 0, 3))

    @given(random_dags())
    @settings(max_examples=100, deadline=None)
    def test_dag_count_matches_enumeration(self, dag):
        brute = path_vectors_brute(dag)
        assert dag.extreme_point_count() == len(brute)
        # the audits' reference enumerator lists the same paths in the same order
        assert np.array_equal(audits._dag_path_vectors(dag), brute)

    def test_ball_has_no_finite_extreme_points(self):
        with pytest.raises(ValueError, match="infinitely many"):
            LqBall(2.0, 1.0, [0.0]).extreme_point_count()


# ---------------------------------------------------------------------------
# dual norm
# ---------------------------------------------------------------------------

class TestDualNormCovering:
    def test_dual_norm_anchors(self):
        assert dual_norm_rows([[3.0, 4.0]], 2.0)[0] == 5.0
        assert dual_norm_rows([[1.0, -2.0]], 1.0)[0] == 2.0
        assert dual_norm_rows([[0.0, 0.0]], 2.0)[0] == 0.0
        assert dual_norm_rows([[1.0, -2.0, 0.5]], np.inf)[0] == 3.5

    @given(st.integers(1, 6), st.integers(0, 10 ** 6),
           st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    @settings(max_examples=60, deadline=None)
    def test_dual_norm_is_support_value(self, d, seed, q):
        # ||c||_* == max over unit-lq-ball points of c @ w
        rng = np.random.default_rng(seed)
        c = rng.standard_normal(d)
        ball = LqBall(2.0, 1.0, np.zeros(d))  # sampler for directions
        best = max(abs(float(c @ w)) for w in
                   np.sign(rng.standard_normal((500, d)))
                   * rng.dirichlet(np.ones(d), 500) ** (1.0 / q))
        assert best <= dual_norm_rows(c[None], q)[0] + 1e-9


# ---------------------------------------------------------------------------
# construction validation
# ---------------------------------------------------------------------------

class TestValidation:
    def test_duplicate_vertices_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            VertexPolytope([[1.0, 0.0], [1.0, 0.0]])

    def test_empty_vertices_rejected(self):
        with pytest.raises(ValueError):
            VertexPolytope(np.zeros((0, 2)))

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            DagPathPolytope(3, [(0, 1), (1, 2), (2, 0)], 0, 2)

    def test_no_path_rejected(self):
        with pytest.raises(ValueError, match="no source->sink path"):
            DagPathPolytope(3, [(1, 0), (1, 2)], 0, 2)

    def test_ball_exponent_range(self):
        for q in (1.0, 2.5, 0.5):
            with pytest.raises(ValueError, match="exponent"):
                LqBall(q, 1.0, [0.0])

    def test_ball_radius_positive(self):
        with pytest.raises(ValueError, match="radius"):
            LqBall(2.0, 0.0, [0.0])

    def test_simplex_dim_positive(self):
        with pytest.raises(ValueError, match="dim"):
            UnitSimplex(0)

    @pytest.mark.parametrize("region", [UnitSimplex(3), LqBall(2.0, 1.0, [0.0, 0.0, 0.0])])
    @pytest.mark.parametrize("point", [[1.0], [0.5, 0.5], [[1.0, 0.0, 0.0]]])
    def test_membership_rejects_wrong_length(self, region, point):
        with pytest.raises(ValueError, match=r"expected \(3,\)"):
            region.contains(point)

    @pytest.mark.parametrize("region", [UnitSimplex(3), LqBall(2.0, 1.0, [0.0, 0.0, 0.0])])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_membership_rejects_non_finite_points(self, region, bad):
        with pytest.raises(ValueError, match="non-finite"):
            region.contains([bad, 0.0, 0.0])


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

class TestSerialization:
    @pytest.mark.parametrize("region", [
        LqBall(1.5, 2.0, [0.5, -1.0], mu=0.25),
        UnitSimplex(4),
        VertexPolytope([[1.0, 1.0], [0.0, -1.0]], mu=None),
        DagPathPolytope.grid(2, 3),
    ])
    def test_round_trip(self, region, rng):
        clone = region_from_json(region.to_json())
        assert clone.kind == region.kind
        assert clone.dim == region.dim
        c = rng.standard_normal(region.dim)
        np.testing.assert_array_equal(clone.linopt(c), region.linopt(c))

    def test_dag_schema_fields(self):
        data = json.loads(DagPathPolytope.grid(2, 2).to_json())
        assert set(data) == {"kind", "dim", "nodes", "arcs", "source", "sink"}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown region kind"):
            region_from_dict({"kind": "Cube"})


# ---------------------------------------------------------------------------
# cost domains
# ---------------------------------------------------------------------------

class TestCostDomain:
    def test_enumerated_omega_is_max_gap(self):
        region = UnitSimplex(3)
        members = [[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.5, 0.5, -0.5]]
        domain = CostDomain.enumerated(region, members)
        assert domain.omega == max(region.gap(np.asarray(m)) for m in members)
        assert domain.rho2 == pytest.approx(
            max(np.linalg.norm(m) for m in members))

    def test_ball_omega_uses_diameter(self):
        ball = LqBall(2.0, 0.5, [0.0, 0.0])
        domain = CostDomain.ball(ball, 2.0)
        assert domain.omega == pytest.approx(2.0 * 1.0)  # rho * diam(S)
        assert domain.rho2 == 2.0

    def test_ball_omega_dominates_sampled_gaps(self, rng):
        region = UnitSimplex(4)
        domain = CostDomain.ball(region, 1.5)
        C = rng.standard_normal((200, 4))
        C = domain.project(C * 3.0)
        assert float(region.gap_batch(C).max()) <= domain.omega + 1e-12

    def test_project_enumerated_snaps_to_nearest(self):
        region = UnitSimplex(2)
        domain = CostDomain.enumerated(region, [[-1.0, 0.0], [0.0, -1.0]])
        out = domain.project(np.array([[-0.9, 0.2], [0.3, -2.0]]))
        np.testing.assert_array_equal(out, [[-1.0, 0.0], [0.0, -1.0]])

    def test_project_ball_rescales(self):
        region = LqBall(2.0, 1.0, [0.0, 0.0])
        domain = CostDomain.ball(region, 1.0)
        out = domain.project(np.array([[3.0, 4.0], [0.1, 0.0]]))
        np.testing.assert_allclose(np.linalg.norm(out[0]), 1.0)
        np.testing.assert_array_equal(out[1], [0.1, 0.0])


class TestSquaredDistanceBlocks:
    """``VertexPolytope.diameter2`` and the enumerated ``CostDomain.project``
    read pairwise squared distances in row blocks of bounded size, with the
    bits of the whole (rows, k, d) difference array."""

    @given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 12),
           st.integers(1, 400), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_blocks_match_the_whole_array(self, m, k, d, cells, seed):
        rng = np.random.default_rng(seed)
        A, B = rng.standard_normal((m, d)), rng.standard_normal((k, d))
        whole = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(geometry, "_PAIR_BLOCK_CELLS", cells)
            blocks = list(geometry._sq_distance_blocks(A, B))
            region = VertexPolytope(B)
            diameter = region.diameter2()
            projected = CostDomain.enumerated(region, B).project(A)
        assert all(d2.size * d <= max(cells, k * d) for _, d2 in blocks)
        assert np.array_equal(np.concatenate([d2 for _, d2 in blocks]), whole)
        vertex_d2 = ((B[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
        assert diameter == float(np.sqrt(vertex_d2).max())
        assert np.array_equal(projected, B[np.argmin(whole, axis=1)])

    def test_vertex_diameter_in_bounded_memory(self):
        # the whole difference array of 2,000 vertices in d = 10 is 305 MiB
        V = np.random.default_rng(0).standard_normal((2000, 10))
        region = VertexPolytope(V)
        diameter, peak = traced_peak(region.diameter2)
        assert peak < 8 * 2 ** 20
        assert diameter == max(float(np.sqrt(((v - V) ** 2).sum(axis=1)).max()) for v in V)

    def test_enumerated_projection_in_bounded_memory(self):
        # 4,096 rows against 500 members in d = 12 were one 188 MiB block
        rng = np.random.default_rng(1)
        members = rng.standard_normal((500, 12))
        domain = CostDomain.enumerated(UnitSimplex(12), members)
        C = rng.standard_normal((5000, 12))
        projected, peak = traced_peak(lambda: domain.project(C))
        assert peak < 8 * 2 ** 20
        nearest = [np.argmin(((c - members) ** 2).sum(axis=1)) for c in C]
        assert np.array_equal(projected, members[nearest])


# ---------------------------------------------------------------------------
# sampled verification
# ---------------------------------------------------------------------------

class TestStrongConvexity:
    def test_interval_is_two_strongly_convex(self):
        report = verify_strong_convexity(LqBall.interval(0.5), 2.0, 2000, seed=3)
        assert report.ok
        assert report.max_violation <= 1e-9

    def test_unit_ball_mu_one(self):
        report = verify_strong_convexity(LqBall(2.0, 1.0, [0.0, 0.0]), 1.0,
                                         2000, seed=3)
        assert report.ok

    def test_overstated_mu_rejected_with_witness(self):
        region = LqBall(2.0, 1.0, [0.0, 0.0])
        report = verify_strong_convexity(region, 10.0, 2000, seed=3)
        assert not report.ok
        assert report.max_violation > 1e-9
        # the recorded witness reproduces its violation
        w = report.witness
        w1, w2 = np.asarray(w["w1"]), np.asarray(w["w2"])
        lam, u = w["lam"], np.asarray(w["u"])
        z = lam * w1 + (1 - lam) * w2 + 5.0 * lam * (1 - lam) \
            * np.linalg.norm(w1 - w2) ** 2 * u
        assert np.linalg.norm(z) - 1.0 == pytest.approx(report.max_violation)

    def test_lq_ball_declared_constant_passes(self):
        # q = 1.5 ball of radius 2: constant (q - 1) / r
        report = verify_strong_convexity(LqBall(1.5, 2.0, [0.0, 0.0, 0.0]),
                                         0.25, 2000, seed=5)
        assert report.ok

    def test_requires_ball_region(self):
        with pytest.raises(ValueError, match="LqBall"):
            verify_strong_convexity(UnitSimplex(2), 1.0, 10, seed=0)


class TestOptimalityCondition:
    def test_hand_equality_case(self):
        region = LqBall(2.0, 1.0, [0.0, 0.0], mu=1.0)
        c = np.array([1.0, 0.0])
        wbar = region.linopt(c)
        w = np.array([0.0, 1.0])
        lhs = float(c @ (w - wbar))
        rhs = 0.5 * 1.0 * dual_norm_rows(c[None], 2.0)[0] * np.linalg.norm(w - wbar) ** 2
        assert lhs == pytest.approx(1.0)
        assert rhs == pytest.approx(1.0)

    def test_zero_violations_on_ball(self):
        region = LqBall(2.0, 1.0, [0.0, 0.0], mu=1.0)
        report = verify_optimality_condition(region, [0.7, -0.2], 2000, seed=9)
        assert report.ok

    def test_w_equals_wbar_is_boundary_case(self):
        region = LqBall(2.0, 1.0, [0.0, 0.0], mu=1.0)
        c = np.array([1.0, 0.0])
        wbar = region.linopt(c)
        assert float(c @ (wbar - wbar)) == 0.0

    def test_requires_mu(self):
        with pytest.raises(ValueError, match="mu"):
            verify_optimality_condition(LqBall(2.0, 1.0, [0.0, 0.0]),
                                        [1.0, 0.0], 10, seed=0)

    def test_requires_nonzero_cost(self):
        region = LqBall(2.0, 1.0, [0.0, 0.0], mu=1.0)
        with pytest.raises(ValueError, match="nonzero"):
            verify_optimality_condition(region, [0.0, 0.0], 10, seed=0)


CONVEXITY_BALLS = [LqBall.interval(0.5), LqBall(2.0, 1.0, [0.0, 0.0]),
                   LqBall(1.5, 2.0, [0.0, 0.0, 0.0]),
                   LqBall(2.0, 2.0, [0.5, -0.25, 0.0]),
                   LqBall(1.5, 1.0, [0.3, -0.2])]
OPTIMALITY_REGIONS = [LqBall(2.0, 1.0, [0.0, 0.0], mu=1.0),
                      LqBall(1.5, 2.0, [0.0, 0.0, 0.0], mu=0.25),
                      LqBall(2.0, 2.0, [0.5, -0.25, 0.0], mu=0.5),
                      VertexPolytope([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0],
                                      [-1.0, -1.0]], mu=0.5)]


class TestBatchSeededVerifiers:
    """The verifiers form every sample from whole-array draws; their reports
    must equal field for field those of loops that build one sample per
    iteration from the same documented draws."""

    @settings(max_examples=120, deadline=None)
    @given(idx=st.integers(0, len(CONVEXITY_BALLS) - 1),
           mu=st.sampled_from([0.25, 1.0, 2.0, 10.0]),
           n=st.integers(1, 150), seed=st.integers(0, 2 ** 70))
    def test_strong_convexity_matches_reference(self, idx, mu, n, seed):
        region = CONVEXITY_BALLS[idx]
        assert (verify_strong_convexity(region, mu, n, seed)
                == verify_strong_convexity_ref(region, mu, n, seed))

    @settings(max_examples=120, deadline=None)
    @given(idx=st.integers(0, len(OPTIMALITY_REGIONS) - 1),
           c=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
           n=st.integers(1, 150), seed=st.integers(0, 2 ** 70))
    def test_optimality_condition_matches_reference(self, idx, c, n, seed):
        region = OPTIMALITY_REGIONS[idx]
        c = np.array(c[:region.dim], dtype=float)
        assume(np.any(c))
        assert (verify_optimality_condition(region, c, n, seed)
                == verify_optimality_condition_ref(region, c, n, seed))

    @pytest.mark.parametrize("seed", range(8))
    def test_audit_sizes_match_reference(self, seed):
        ball = LqBall(2.0, 1.0, [0.0, 0.0], mu=1.0)
        overstated = verify_strong_convexity(ball, 10.0, 2000, seed)
        assert overstated == verify_strong_convexity_ref(ball, 10.0, 2000, seed)
        assert overstated.violations > 0
        c = np.array([0.6, -0.8])
        assert (verify_optimality_condition(ball, c, 2000, seed)
                == verify_optimality_condition_ref(ball, c, 2000, seed))

    @pytest.mark.parametrize("q", [2.0, 1.5, 1.2, 3.0, 6.0])
    def test_row_norms_match_one_row_norms(self, q):
        # the one-vector references take each norm of a one-row batch
        D = np.random.default_rng(4).standard_normal((5_000, 3))
        D[:, :int(q)] *= 7.3
        norms = vector_norm_rows(D, q)
        np.testing.assert_array_equal(norms, [norm_ref(d, q) for d in D])

    def test_optimality_rejects_zero_samples(self):
        region = LqBall(2.0, 1.0, [0.0, 0.0], mu=1.0)
        with pytest.raises(ValueError, match="n_samples"):
            verify_optimality_condition(region, [1.0, 0.0], 0, seed=0)


class TestRowFormBallSampler:
    """A one-row ``sample`` must equal the earlier one-vector sampler bit
    for bit."""

    @settings(max_examples=200, deadline=None)
    @given(q=st.floats(1.0, 2.0, exclude_min=True), dim=st.integers(1, 9),
           radius=st.floats(0.01, 100.0), data=st.data(), seed=st.integers(0, 2 ** 70))
    def test_sample_matches_one_vector_reference(self, q, dim, radius, data, seed):
        center = data.draw(st.lists(st.floats(-10.0, 10.0), min_size=dim, max_size=dim))
        region = LqBall(q, radius, center)
        got, want = substream(seed, 0), substream(seed, 0)
        for _ in range(3):
            assert region.sample(got).tobytes() == lq_ball_sample_ref(region, want).tobytes()


#: prints one hash of l2-ball samples and verifier reports at d = 2, 5, 9, 24
L2_BALL_HASH = """
import hashlib, json
import numpy as np
from spo_bounds._rng import substream
from spo_bounds.geometry import LqBall, verify_optimality_condition, verify_strong_convexity
h = hashlib.sha256()
for d in (2, 5, 9, 24):
    ball = LqBall(2.0, 1.5, np.linspace(-0.5, 0.5, d), mu=1.0 / 1.5)
    h.update(ball.sample_batch(substream(d), 2000).tobytes())
    for report in (verify_strong_convexity(ball, 2.0 / 1.5, 2000, d),
                   verify_optimality_condition(ball, np.linspace(1.0, -2.0, d), 2000, d)):
        h.update(json.dumps(vars(report), sort_keys=True).encode())
print(h.hexdigest())
"""


def test_l2_ball_bits_ignore_the_openblas_kernel():
    # the sampler and the verifiers take no BLAS call, so OpenBLAS's choice
    # of kernel for this CPU cannot move their bits
    env = dict(os.environ, PYTHONPATH=str(Path(geometry.__file__).parents[1]))
    env.pop("OPENBLAS_CORETYPE", None)
    hashes = []
    for kernel in ({}, {"OPENBLAS_CORETYPE": "Haswell"}):
        proc = subprocess.run([sys.executable, "-c", L2_BALL_HASH], env={**env, **kernel},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        hashes.append(proc.stdout)
    assert hashes[0] == hashes[1]


SAMPLED_REGIONS = [LqBall(1.5, 2.0, [0.5, -0.5]), UnitSimplex(4), square_region(),
                   DagPathPolytope.grid(2, 3)]


class TestSampling:
    def test_samples_are_feasible(self, rng):
        ball = LqBall(1.5, 2.0, [0.5, -0.5])
        for w in ball.sample_batch(rng, 200):
            assert ball.contains(w)
        simplex = UnitSimplex(4)
        for w in simplex.sample_batch(rng, 100):
            assert simplex.contains(w)

    @pytest.mark.parametrize("dim", [1, 2, 4, 7])
    def test_simplex_batch_equals_one_row_draws(self, dim):
        simplex = UnitSimplex(dim)
        one_row = np.random.default_rng(5)
        want = np.stack([simplex.sample(one_row) for _ in range(300)])
        got = simplex.sample_batch(np.random.default_rng(5), 300)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("region", SAMPLED_REGIONS, ids=lambda r: r.kind)
    def test_sample_is_one_row_batch(self, region):
        got, want = np.random.default_rng(8), np.random.default_rng(8)
        for _ in range(3):
            assert region.sample(got).tobytes() == region.sample_batch(want, 1)[0].tobytes()

    @pytest.mark.parametrize("region", SAMPLED_REGIONS, ids=lambda r: r.kind)
    def test_sample_counts(self, region, rng):
        assert region.sample_batch(rng, 0).shape == (0, region.dim)
        with pytest.raises(ValueError, match="sample count must be >= 0, got -1"):
            region.sample_batch(rng, -1)

    def test_dag_samples_carry_unit_flow(self, rng):
        # paths of the skip DAG have 2 or 3 arcs, so the walks end at
        # different steps
        skip = audits._small_dags()[3]
        incidence = np.zeros((skip.nodes, skip.dim))
        for a, (t, h) in enumerate(skip.arcs):
            incidence[t, a], incidence[h, a] = -1.0, 1.0
        net = np.zeros(skip.nodes)
        net[skip.source], net[skip.sink] = -1.0, 1.0
        W = skip.sample_batch(rng, 500)
        assert W.min() >= 0.0
        np.testing.assert_allclose(W @ incidence.T, np.broadcast_to(net, (500, skip.nodes)),
                                   rtol=0, atol=1e-12)

    def test_dag_samples_are_path_mixtures(self, rng):
        dag = DagPathPolytope.grid(2, 2)
        W = dag.sample_batch(rng, 50)
        # every sample uses exactly 2 arcs' worth of flow
        np.testing.assert_allclose(W.sum(axis=1), 2.0)

    @pytest.mark.parametrize("region", [LqBall(2.0, 1.0, [0.0, 0.0]),
                                        LqBall(1.5, 2.0, [0.3, -0.2, 0.1])],
                             ids=["l2", "l1.5"])
    def test_witness_rebuilt_from_documented_draws(self, region):
        n = 300
        report = verify_strong_convexity(region, 10.0, n, seed=21)
        i = report.witness["sample_index"]
        rng = substream(21)
        W1, W2 = region.sample_batch(rng, n), region.sample_batch(rng, n)
        lam = rng.random(n)
        g = rng.standard_normal((n, region.dim))[i]
        assert report.witness == {"w1": W1[i].tolist(), "w2": W2[i].tolist(),
                                  "lam": float(lam[i]),
                                  "u": (g / np.linalg.norm(g, ord=region.q)).tolist(),
                                  "sample_index": i}

    def test_sampling_deterministic_per_seed(self):
        ball = LqBall(2.0, 1.0, [0.0, 0.0])
        a = verify_strong_convexity(ball, 1.0, 50, seed=11)
        b = verify_strong_convexity(ball, 1.0, 50, seed=11)
        assert a.max_violation == b.max_violation
        assert a.witness == b.witness
