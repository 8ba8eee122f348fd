import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spo_bounds import audits
from spo_bounds.complexity import FiniteHypothesisSet, rademacher_spo_mc
from spo_bounds.geometry import (DagPathPolytope, LqBall, UnitSimplex,
                                 dual_norm_rows)
from spo_bounds.losses import (LabeledSample, empirical_risk,
                               hard_margin_spo_loss, hard_margin_spo_loss_batch,
                               margin_spo_loss, margin_spo_loss_batch,
                               spo_loss, spo_loss_batch)

from conftest import decision_cost_ref, rademacher_spo_mc_ref, square_region


def interval():
    return LqBall.interval(0.5, mu=2.0)


class TestSpoLoss:
    def test_binary_zero_one_anchors(self):
        region = interval()
        assert spo_loss(region, [0.7], [1.0]) == 0.0
        assert spo_loss(region, [-0.3], [1.0]) == 1.0

    def test_multiclass_anchors(self):
        region = UnitSimplex(3)
        c_hat = [0.5, 0.2, 0.9]
        assert spo_loss(region, c_hat, [0.0, -1.0, 0.0]) == 0.0  # label e2 matched
        assert spo_loss(region, c_hat, [-1.0, 0.0, 0.0]) == 1.0  # label e1 missed

    def test_identical_costs_zero(self, rng):
        for region in (interval(), UnitSimplex(4), square_region()):
            c = rng.standard_normal(region.dim)
            assert spo_loss(region, c, c) == 0.0

    def test_square_region_by_vertex_enumeration(self):
        region = square_region()
        c_hat = np.array([1.0, 1.0])
        c = np.array([-1.0, 2.0])
        scores_hat = region.vertices @ c_hat
        scores_true = region.vertices @ c
        expected = float(c @ region.vertices[np.argmin(scores_hat)]
                         - c @ region.vertices[np.argmin(scores_true)])
        assert spo_loss(region, c_hat, c) == expected == 2.0

    def test_loss_within_gap(self, rng):
        region = UnitSimplex(5)
        for _ in range(100):
            c_hat = rng.standard_normal(5)
            c = rng.standard_normal(5)
            loss = spo_loss(region, c_hat, c)
            assert -1e-9 <= loss <= region.gap(c) + 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            spo_loss(UnitSimplex(3), [1.0, 2.0], [1.0, 2.0, 3.0])

    def test_batch_matches_pointwise(self, rng):
        region = square_region()
        C_hat = rng.standard_normal((30, 2))
        C = rng.standard_normal((30, 2))
        batch = spo_loss_batch(region, C_hat, C)
        single = [spo_loss(region, ch, c) for ch, c in zip(C_hat, C)]
        np.testing.assert_allclose(batch, single, atol=0)


class TestMarginLoss:
    def test_binary_interpolation_anchor(self):
        # prediction on the right side but inside the margin
        value = margin_spo_loss(interval(), [0.2], [1.0], 0.5)
        assert value == pytest.approx(0.6, abs=1e-15)
        assert value == pytest.approx(1.0 - 1.0 * 0.2 / 0.5, abs=1e-15)

    def test_zero_prediction_gives_gap(self, rng):
        region = square_region()
        c = rng.standard_normal(2)
        value = margin_spo_loss(region, [0.0, 0.0], c, 0.3)
        assert value == region.gap(c)

    def test_above_threshold_equals_base_loss(self):
        region = interval()
        gamma = 0.5
        c_hat, c = [1.0], [1.0]  # dual norm 1.0 = 2 * gamma
        assert margin_spo_loss(region, c_hat, c, gamma) == spo_loss(region, c_hat, c)

    def test_continuous_at_threshold(self):
        # dual norm exactly gamma: interpolation weight is one
        region = square_region()
        gamma = 0.5
        c_hat = np.array([0.5, 0.0])
        assert dual_norm_rows(c_hat[None], 2.0)[0] == gamma
        c = np.array([1.0, -2.0])
        assert margin_spo_loss(region, c_hat, c, gamma) == spo_loss(region, c_hat, c)

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError, match="^gamma must be a finite number > 0, got 0.0$"):
            margin_spo_loss(interval(), [0.1], [1.0], 0.0)

    @given(st.integers(0, 10 ** 6), st.floats(0.05, 3.0))
    @settings(max_examples=100, deadline=None)
    def test_ordering_chain(self, seed, gamma):
        rng = np.random.default_rng(seed)
        region = UnitSimplex(3)
        c_hat = rng.standard_normal(3) * rng.uniform(0.01, 2.0)
        c = rng.standard_normal(3)
        spo = spo_loss(region, c_hat, c)
        margin = margin_spo_loss(region, c_hat, c, gamma)
        hard = hard_margin_spo_loss(region, c_hat, c, gamma)
        gap = region.gap(c)
        assert spo <= margin + 1e-9
        assert margin <= hard + 1e-9
        assert hard <= gap + 1e-9

    def test_monotone_in_gamma(self, rng):
        region = square_region()
        gammas = np.linspace(0.05, 3.0, 12)
        for _ in range(50):
            c_hat = rng.standard_normal(2) * rng.uniform(0.01, 2.0)
            c = rng.standard_normal(2)
            values = [margin_spo_loss(region, c_hat, c, g)
                      for g in gammas]
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_batch_matches_pointwise(self, rng):
        region = UnitSimplex(3)
        gamma = 0.4
        C_hat = rng.standard_normal((25, 3)) * 0.3
        C = rng.standard_normal((25, 3))
        np.testing.assert_array_equal(
            margin_spo_loss_batch(region, C_hat, C, gamma),
            [margin_spo_loss(region, ch, c, gamma) for ch, c in zip(C_hat, C)])
        np.testing.assert_array_equal(
            hard_margin_spo_loss_batch(region, C_hat, C, gamma),
            [hard_margin_spo_loss(region, ch, c, gamma) for ch, c in zip(C_hat, C)])


class TestHardMarginLoss:
    def test_binary_anchor(self):
        assert hard_margin_spo_loss(interval(), [0.2], [1.0],
                                    0.5) == 1.0

    def test_above_threshold(self):
        region = interval()
        assert hard_margin_spo_loss(region, [0.7], [1.0],
                                    0.5) == 0.0

    def test_gamma_zero_equals_base_loss_off_origin(self, rng):
        region = square_region()
        gamma = 0.0
        for _ in range(20):
            c_hat = rng.standard_normal(2)
            c = rng.standard_normal(2)
            assert hard_margin_spo_loss(region, c_hat, c, gamma) \
                == spo_loss(region, c_hat, c)

    def test_gamma_zero_at_origin_gives_gap(self, rng):
        region = square_region()
        c = rng.standard_normal(2)
        assert hard_margin_spo_loss(region, [0.0, 0.0], c,
                                    0.0) == region.gap(c)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError, match="^gamma must be a finite number >= 0, got -0.1$"):
            hard_margin_spo_loss(interval(), [0.1], [1.0], -0.1)

    @pytest.mark.parametrize("loss", [margin_spo_loss, hard_margin_spo_loss])
    @pytest.mark.parametrize("gamma", [np.inf, np.nan])
    def test_non_finite_gamma_rejected(self, loss, gamma):
        low = ">= 0" if loss is hard_margin_spo_loss else "> 0"
        with pytest.raises(ValueError,
                           match=f"^gamma must be a finite number {low}, got {gamma}$"):
            loss(interval(), [0.1], [1.0], gamma)


class TestEmpiricalRisk:
    def test_perfect_predictor_zero_risk(self, rng):
        region = UnitSimplex(3)
        xs = rng.standard_normal((10, 3))
        sample = LabeledSample(xs=xs, cs=xs.copy())
        assert empirical_risk(region, np.eye(3), sample, "spo") == 0.0

    def test_binary_mean(self):
        region = interval()
        sample = LabeledSample(xs=[[1.0], [1.0]], cs=[[1.0], [-1.0]])
        B = np.array([[1.0]])  # predicts +1 for both: losses 0 and 1
        assert empirical_risk(region, B, sample, "spo") == 0.5

    def test_margin_risk_is_mean_of_pointwise(self, rng):
        region = square_region()
        gamma = 0.5
        xs = rng.standard_normal((12, 3))
        cs = rng.standard_normal((12, 2))
        B = rng.standard_normal((2, 3)) * 0.2
        sample = LabeledSample(xs=xs, cs=cs)
        expected = np.mean([margin_spo_loss(region, B @ x, c, gamma)
                            for x, c in zip(xs, cs)])
        assert empirical_risk(region, B, sample, "margin", gamma) \
            == pytest.approx(expected, abs=1e-15)

    def test_margin_kind_requires_params(self):
        sample = LabeledSample(xs=[[1.0]], cs=[[1.0]])
        with pytest.raises(ValueError, match="margin risk requires gamma"):
            empirical_risk(interval(), np.eye(1), sample, "margin")

    def test_unknown_kind(self):
        sample = LabeledSample(xs=[[1.0]], cs=[[1.0]])
        with pytest.raises(ValueError, match="unknown loss kind"):
            empirical_risk(interval(), np.eye(1), sample, "huber")

    def test_predictor_shapes_checked(self):
        sample = LabeledSample(xs=[[1.0, 2.0]], cs=[[1.0]])
        with pytest.raises(ValueError, match="predictor matrix"):
            empirical_risk(interval(), np.eye(3), sample, "spo")


def recorded_checks(region, monkeypatch) -> list:
    """Every batch ``region._check_cost_batch`` is given, in call order."""
    checked = []
    original = region._check_cost_batch
    monkeypatch.setattr(region, "_check_cost_batch",
                        lambda A, rows=None: checked.append(A) or original(A, rows))
    return checked


#: every public batch entry, as (call, number of cost batches it takes)
BATCH_ENTRIES = {
    "spo_loss_batch": (spo_loss_batch, 2),
    "margin_spo_loss_batch": (lambda r, A, B: margin_spo_loss_batch(r, A, B, 1.5), 2),
    "hard_margin_spo_loss_batch":
        (lambda r, A, B: hard_margin_spo_loss_batch(r, A, B, 1.5), 2),
    "decision_cost_batch": (lambda r, A, B: r.decision_cost_batch(A, B), 2),
    "linopt_batch": (lambda r, A: r.linopt_batch(A), 1),
    "gap_batch": (lambda r, A: r.gap_batch(A), 1),
}

#: the one-row forms, on one cost vector per batch
ROW_ENTRIES = {
    "spo_loss": (spo_loss, 2),
    "margin_spo_loss": (lambda r, a, b: margin_spo_loss(r, a, b, 1.5), 2),
    "hard_margin_spo_loss": (lambda r, a, b: hard_margin_spo_loss(r, a, b, 1.5), 2),
    "linopt": (lambda r, a: r.linopt(a), 1),
    "gap": (lambda r, a: r.gap(a), 1),
}

#: one region of each kind: the default decision cost (DAG, vertex polytope,
#: q = 1.5 ball) and the two closed forms (l2 ball, simplex)
REGIONS = {
    "dag": DagPathPolytope.grid(2, 3),
    "vertex": square_region(),
    "lq_ball": LqBall(1.5, 1.0, [0.5, -0.25, 0.0]),
    "l2_ball": LqBall(2.0, 2.0, [0.5, -0.25, 0.0, 1.0]),
    "simplex": UnitSimplex(4),
}


class TestValidateOnce:
    @pytest.mark.parametrize("region", [UnitSimplex(4), LqBall(2.0, 1.0, np.zeros(4)),
                                        LqBall(2.0, 2.0, [0.5, -0.25, 0.0, 1.0])])
    def test_spo_loss_checks_each_batch_once(self, region, rng, monkeypatch):
        C_hat, C = rng.integers(-2, 3, (2, 50, 4)).astype(float)
        checked = recorded_checks(region, monkeypatch)
        got = spo_loss_batch(region, C_hat, C)
        assert [a is b for a, b in zip(checked, (C_hat, C))] == [True, True]
        assert len(checked) == 2
        want = decision_cost_ref(region, C_hat, C) - decision_cost_ref(region, C, C)
        if isinstance(region, UnitSimplex):
            assert got.tobytes() == want.tobytes()
        else:
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("name", REGIONS)
    @pytest.mark.parametrize("entry", BATCH_ENTRIES)
    def test_each_batch_checked_once(self, entry, name, rng, monkeypatch):
        region = REGIONS[name]
        call, arity = BATCH_ENTRIES[entry]
        # the rows straddle the margin threshold, so both margin branches run
        batches = list(rng.standard_normal((arity, 40, region.dim))
                       * rng.choice([0.1, 3.0], (arity, 40, 1)))
        checked = recorded_checks(region, monkeypatch)
        call(region, *batches)
        assert len(checked) == arity
        assert all(a is b for a, b in zip(checked, batches))

    @pytest.mark.parametrize("name", REGIONS)
    def test_rad_spo_checks_each_distinct_batch_once(self, name, rng, monkeypatch):
        region = REGIONS[name]
        hyp = FiniteHypothesisSet(list(rng.standard_normal((6, region.dim, 3))))
        sample = LabeledSample(xs=rng.standard_normal((8, 3)),
                               cs=rng.standard_normal((8, region.dim)))
        checked = recorded_checks(region, monkeypatch)
        got = rademacher_spo_mc(region, hyp, sample, m_draws=50, seed=4)
        # the sample costs, then the stacked predictions of all 6 hypotheses
        assert [A.shape for A in checked] == [(8, region.dim), (48, region.dim)]
        assert checked[0] is sample.cs
        monkeypatch.undo()
        assert got == rademacher_spo_mc_ref(region, hyp, sample, 50, 4)

    @pytest.mark.parametrize("name", REGIONS)
    @pytest.mark.parametrize("entry", [*BATCH_ENTRIES, *ROW_ENTRIES])
    def test_bad_batches_rejected(self, entry, name):
        region = REGIONS[name]
        call, arity = {**BATCH_ENTRIES, **ROW_ENTRIES}[entry]
        row = entry in ROW_ENTRIES
        d = region.dim
        good = np.ones(d) if row else np.ones((3, d))
        wide = np.ones(d + 1) if row else np.ones((3, d + 1))
        nan = good.copy()
        nan[..., 0] = np.nan
        for i in range(arity):
            for bad, match in ((nan, "non-finite"), (wide, "shape")):
                args = [good] * arity
                args[i] = bad
                with pytest.raises(ValueError, match=match):
                    call(region, *args)
        if arity == 2 and not row:
            with pytest.raises(ValueError, match="shape"):
                call(region, good, np.ones((2, d)))


class TestLossOrderingAudit:
    """The audit mixes each gamma's losses from parts solved once, but must
    still check the public margin kernels against those parts."""

    def counting(self, monkeypatch, name, perturb=False):
        calls = []
        kernel = getattr(audits, name)

        def wrapped(*args):
            calls.append(args[-1])
            out = kernel(*args)
            return np.nextafter(out, np.inf) if perturb else out

        monkeypatch.setattr(audits, name, wrapped)
        return calls

    def test_calls_both_kernels_at_two_gammas_per_region(self, monkeypatch):
        soft = self.counting(monkeypatch, "margin_spo_loss_batch")
        hard = self.counting(monkeypatch, "hard_margin_spo_loss_batch")
        result = audits.audit_loss_ordering(7, scale=10)
        assert result.passed
        regions = len(audits._region_battery())
        assert soft == hard == [0.1, 2.0] * regions
        assert "differ" not in result.detail

    @pytest.mark.parametrize("name", ["margin_spo_loss_batch",
                                      "hard_margin_spo_loss_batch"])
    def test_fails_when_a_kernel_leaves_its_parts(self, name, monkeypatch):
        self.counting(monkeypatch, name, perturb=True)
        result = audits.audit_loss_ordering(7, scale=10)
        assert not result.passed
        assert result.detail.endswith("margin kernels differ from their mixed parts")


class TestLabeledSample:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            LabeledSample(xs=np.zeros((0, 2)), cs=np.zeros((0, 2)))
        with pytest.raises(ValueError, match="finite"):
            LabeledSample(xs=[[np.inf]], cs=[[1.0]])
        with pytest.raises(ValueError, match="same number"):
            LabeledSample(xs=[[1.0]], cs=[[1.0], [2.0]])

    def test_csv_round_trip(self, rng):
        sample = LabeledSample(xs=rng.standard_normal((5, 3)),
                               cs=rng.standard_normal((5, 2)))
        clone = LabeledSample.from_csv(sample.to_csv())
        np.testing.assert_array_equal(clone.xs, sample.xs)
        np.testing.assert_array_equal(clone.cs, sample.cs)

    def test_csv_layout(self):
        sample = LabeledSample(xs=[[1.0, 2.0]], cs=[[3.0]])
        lines = sample.to_csv().splitlines()
        assert lines[0] == "x0,x1,c0"
        assert lines[1] == "1.0,2.0,3.0"

    @pytest.mark.parametrize("header", ["c0,x0,c1", "x1,x0,c0", "x0,y0,c0", "x0,c1"])
    def test_csv_header_names_and_order_enforced(self, header):
        # read by counting x columns, "c0,x0,c1" would load x=[1], c=[2, 3]
        # and "x1,x0,c0" would swap the feature columns
        row = ",".join(["1.0"] * len(header.split(",")))
        with pytest.raises(ValueError, match=re.escape(
                f"csv header must be x0..x<p-1> then c0..c<d-1>, got {header}")):
            LabeledSample.from_csv(f"{header}\n{row}\n")

    @pytest.mark.parametrize("rows, line, cells", [("1.0,2.0", 2, 2),
                                                   ("1.0,2.0,3.0\n4.0,5.0,6.0,7.0", 3, 4)])
    def test_csv_rows_must_match_the_header(self, rows, line, cells):
        # a short row under x0,c0,c1 used to read as d = 1, with its columns
        # shifted against a 1-D region
        with pytest.raises(ValueError, match=f"csv line {line} has {cells} cells, the header 3"):
            LabeledSample.from_csv(f"x0,c0,c1\n{rows}\n")

    def test_json_round_trip(self, rng):
        sample = LabeledSample(xs=rng.standard_normal((4, 2)),
                               cs=rng.standard_normal((4, 3)))
        clone = LabeledSample.from_json(sample.to_json())
        np.testing.assert_array_equal(clone.xs, sample.xs)
        np.testing.assert_array_equal(clone.cs, sample.cs)
