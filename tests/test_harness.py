import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spo_bounds import audits, harness
from spo_bounds._rng import ARRAY_BYTES_MAX
from spo_bounds.complexity import linear_class_rad_bound
from spo_bounds.geometry import (CostDomain, DagPathPolytope, LqBall,
                                 UnitSimplex, VertexPolytope, dual_norm_rows)
from spo_bounds.harness import (ExperimentConfig, RiskEvaluator,
                                clip_frobenius, config_label, default_suite,
                                fit_least_squares, generate_sample,
                                run_suite)
from spo_bounds.losses import (LabeledSample, empirical_risk, margin_mix,
                               predict_batch, spo_loss_batch)

from conftest import lipschitz_audit_ref, true_risk_ref, true_risk_scan_ref


def ball_config(**overrides):
    region = LqBall(2.0, 1.0, [0.0, 0.0], mu=1.0)
    base = dict(region=region, cost_domain=CostDomain.ball(region, 1.0),
                b_star=np.array([[0.6, -0.2], [0.1, 0.7]]), noise=0.1,
                feature_dist="sphere", ns=[40], trials=2, delta=0.05,
                gamma_grid=[0.1, 0.5], m_fresh=2500, seed=21)
    base.update(overrides)
    return ExperimentConfig(**base)


def simplex_config(**overrides):
    region = UnitSimplex(3)
    base = dict(region=region, cost_domain=CostDomain.ball(region, 1.0),
                b_star=np.array([[0.4, 0.1], [-0.3, 0.2], [0.0, 0.5]]),
                noise=0.05, feature_dist="sphere", ns=[30, 60], trials=2,
                delta=0.05, gamma_grid=[], m_fresh=2000, seed=5)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestGenerateSample:
    def test_deterministic_bits(self):
        config = ball_config()
        a = generate_sample(config, 3)
        b = generate_sample(config, 3)
        assert a.xs.tobytes() == b.xs.tobytes()
        assert a.cs.tobytes() == b.cs.tobytes()

    def test_noiseless_costs_are_linear(self):
        config = ball_config(noise=0.0, cost_domain=CostDomain.ball(
            ball_config().region, 100.0))
        sample = generate_sample(config, 0, n=50)
        np.testing.assert_allclose(sample.cs, sample.xs @ config.b_star.T,
                                   atol=1e-12)

    def test_zero_model_zero_noise_gives_zero_costs(self):
        config = ball_config(b_star=np.zeros((2, 2)), noise=0.0)
        sample = generate_sample(config, 1, n=20)
        np.testing.assert_array_equal(sample.cs, np.zeros((20, 2)))

    def test_sphere_features_unit_norm(self):
        sample = generate_sample(ball_config(), 0, n=100)
        np.testing.assert_allclose(np.linalg.norm(sample.xs, axis=1), 1.0)

    def test_costs_stay_in_domain(self):
        config = ball_config(noise=3.0)
        sample = generate_sample(config, 2, n=200)
        assert np.linalg.norm(sample.cs, axis=1).max() <= 1.0 + 1e-12

    def test_enumerated_domain_snaps(self):
        region = UnitSimplex(2)
        config = simplex_config(
            region=region,
            cost_domain=CostDomain.enumerated(region, [[-1.0, 0.0], [0.0, -1.0]]),
            b_star=np.array([[0.5, 0.1], [0.2, -0.4]]), noise=1.0)
        sample = generate_sample(config, 0, n=50)
        for c in sample.cs:
            assert tuple(c) in {(-1.0, 0.0), (0.0, -1.0)}


class TestFitLeastSquares:
    def test_noiseless_recovery(self, rng):
        xs = rng.standard_normal((40, 3))
        b_star = rng.standard_normal((2, 3))
        sample = LabeledSample(xs=xs, cs=xs @ b_star.T)
        np.testing.assert_allclose(fit_least_squares(sample), b_star, atol=1e-6)

    def test_rank_deficient_matches_pseudo_inverse(self, rng):
        base = rng.standard_normal((30, 1))
        xs = np.hstack([base, 2.0 * base, -base])  # rank one
        cs = rng.standard_normal((30, 2))
        fitted = fit_least_squares(sample := LabeledSample(xs=xs, cs=cs))
        reference = (np.linalg.pinv(xs) @ cs).T
        assert np.all(np.isfinite(fitted))
        np.testing.assert_allclose(fitted, reference, atol=1e-4)
        # equal training residuals up to the tiny ridge
        np.testing.assert_allclose(
            np.linalg.norm(xs @ fitted.T - cs),
            np.linalg.norm(xs @ reference.T - cs), rtol=1e-8)

    def test_clip_frobenius(self, rng):
        B = rng.standard_normal((3, 3)) * 10.0
        clipped = clip_frobenius(B, 1.5)
        assert np.linalg.norm(clipped) <= 1.5 + 1e-12
        small = rng.standard_normal((2, 2)) * 0.01
        assert clip_frobenius(small, 1.5) is small


class TestTrueRiskMC:
    def test_perfect_predictor_zero_risk(self):
        config = ball_config(noise=0.0, cost_domain=CostDomain.ball(
            ball_config().region, 100.0), m_fresh=500)
        est, se = RiskEvaluator(config).true_risk(config.b_star)
        assert est == pytest.approx(0.0, abs=1e-9)

    def test_constant_zero_predictor_matches_direct_mean(self):
        config = ball_config(m_fresh=4000)
        zero = np.zeros((2, 2))
        est, se = RiskEvaluator(config).true_risk(zero)
        # with c_hat = 0 the oracle returns the center, so the loss is
        # c @ (center - w*(c)) = gap-to-optimum from the center
        from spo_bounds.losses import spo_loss_batch
        from spo_bounds.harness import _draw_pairs
        from spo_bounds._rng import substream
        rng = substream(config.seed, 2)
        X, C = _draw_pairs(config, rng, 4000)
        direct = float(spo_loss_batch(config.region,
                                      np.zeros_like(C), C).mean())
        assert est == pytest.approx(direct, abs=1e-12)

    @pytest.mark.parametrize("make", [ball_config, simplex_config])
    def test_matches_decision_matrix_formula(self, make, rng):
        # the m x d decision-matrix form the fused decision costs replace
        config = make()
        evaluator = RiskEvaluator(config)
        region, X, C = config.region, evaluator.X, evaluator.C
        for B in (rng.standard_normal(config.b_star.shape), np.zeros(config.b_star.shape)):
            losses = ((region.linopt_batch(X @ B.T) * C).sum(axis=1)
                      - (region.linopt_batch(C) * C).sum(axis=1))
            est, se = evaluator.true_risk(B)
            assert abs(est - losses.mean()) <= 1e-12
            assert abs(se - losses.std(ddof=1) / np.sqrt(losses.size)) <= 1e-12

    def test_estimate_within_loss_range(self):
        config = ball_config(noise=0.5, m_fresh=2000)
        est, se = RiskEvaluator(config).true_risk(np.zeros((2, 2)))
        assert 0.0 <= est <= config.cost_domain.omega + 1e-9

    def test_m_fresh_validated(self):
        with pytest.raises(ValueError, match="m_fresh"):
            ball_config(m_fresh=0)


@st.composite
def evaluator_configs(draw):
    """A small experiment config on any region kind, and a predictor: l2
    balls of radius 1 and not, shifted centers, q = 1.5, simplex ties
    (equal predictor rows), zero predictors and one- or two-point samples
    among them."""
    kind = draw(st.sampled_from(["simplex", "ball", "shifted_ball", "unit_shifted_ball",
                                 "ball_q1.5", "vertex", "dag"]))
    d = draw(st.integers(1, 6))
    if kind == "simplex":
        region = UnitSimplex(d)
    elif kind == "ball":
        region = LqBall(2.0, draw(st.sampled_from([1.0, 0.5, 2.5])), np.zeros(d), mu=1.0)
    elif kind == "shifted_ball":
        region = LqBall(2.0, 1.5, np.linspace(-1.0, 1.0, d), mu=1.0 / 1.5)
    elif kind == "unit_shifted_ball":
        region = LqBall(2.0, 1.0, np.linspace(0.6, -0.4, d), mu=1.0)
    elif kind == "ball_q1.5":
        region = LqBall(1.5, 1.0, np.zeros(d))
    elif kind == "vertex":
        region = VertexPolytope(np.eye(d) - 0.5 * np.arange(d)[:, None])
    else:
        region = DagPathPolytope.grid(2, draw(st.integers(2, 5)))
    p = draw(st.integers(1, 5))
    seed = draw(st.integers(0, 2 ** 16))
    b_star, B = np.random.default_rng(seed).standard_normal((2, region.dim, p))
    predictor = draw(st.sampled_from(["random", "zero", "tied"]))
    if predictor == "zero":
        B[:] = 0.0
    elif predictor == "tied":  # the coordinates of each prediction row tie
        B[:] = B[0]
    m = draw(st.one_of(st.sampled_from([1, 2]), st.integers(3, 400)))
    config = ExperimentConfig(region=region, cost_domain=CostDomain.ball(region, 1.0),
                              b_star=b_star, noise=0.1, ns=[10], m_fresh=m, seed=seed)
    return config, B


class TestColumnMajorEvaluator:
    """The evaluator stores its sample column-major, validates its costs
    once and sweeps columns; the differential reference is the row-major
    ``xs @ B.T`` and row-reducing decision costs it replaced."""

    @pytest.mark.parametrize("d", [2, 5])
    @pytest.mark.parametrize("p", [2, 5])
    @pytest.mark.parametrize("m", [50, 100, 400, 100_000])
    def test_predictions_match_row_major_product(self, d, p, m):
        rng = np.random.default_rng(d * 100 + p)
        xs, B = rng.standard_normal((m, p)), rng.standard_normal((d, p))
        for layout in (xs, np.asfortranarray(xs)):
            preds = predict_batch(B, layout)
            assert preds.tobytes(order="C") == (xs @ B.T).tobytes()
            assert preds.flags.f_contiguous

    @given(evaluator_configs())
    @settings(max_examples=200, deadline=None)
    def test_true_risk_matches_row_reductions(self, case):
        config, B = case
        evaluator = RiskEvaluator(config)
        assert evaluator.X.flags.f_contiguous and evaluator.C.flags.f_contiguous
        got = evaluator.true_risk(B)
        # the earlier scanning pass: the same bits, standard error included
        assert got == true_risk_scan_ref(evaluator, B)
        if config.m_fresh < 2:
            assert got[1] == 0.0
            return
        want = true_risk_ref(config.region, evaluator.X, evaluator.C, B)
        if isinstance(config.region, LqBall) and config.region.q == 2.0:
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        else:
            assert got == want

    @pytest.mark.parametrize("config", [c for c in default_suite(seed=0, trials=1, m_fresh=100_000)
                                        if c.d == 5])
    def test_default_grid_true_risk(self, config):
        evaluator = RiskEvaluator(config)
        for B in (config.b_star, np.zeros_like(config.b_star), -3.0 * config.b_star):
            got = evaluator.true_risk(B)
            assert got == true_risk_scan_ref(evaluator, B)
            want = true_risk_ref(config.region, evaluator.X, evaluator.C, B)
            if isinstance(config.region, UnitSimplex):
                assert got == want
            else:
                np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)

    def test_costs_validated_once(self, monkeypatch):
        # the costs are checked at init only; a bounded predictor proves its
        # predictions finite, and only the overflow fallback scans them
        config = simplex_config()
        evaluator = RiskEvaluator(config)
        checked = []
        original = config.region._check_cost_batch
        monkeypatch.setattr(config.region, "_check_cost_batch",
                            lambda C, rows=None: checked.append(C) or original(C, rows))
        evaluator.true_risk(config.b_star)
        assert checked == []
        huge = np.full(config.b_star.shape, 1e300)  # finite predictions
        got = evaluator.true_risk(huge)
        assert len(checked) == 1 and checked[0].shape == evaluator.C.shape
        assert not np.shares_memory(checked[0], evaluator.C)
        assert got == true_risk_scan_ref(evaluator, huge)

    def test_rejects_wrong_prediction_shape(self):
        evaluator = RiskEvaluator(simplex_config())
        with pytest.raises(ValueError, match="shape"):
            evaluator.true_risk(np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_predictor(self, bad):
        config = ball_config(m_fresh=50)
        B = config.b_star.copy()
        B[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            RiskEvaluator(config).true_risk(B)

    def test_overflowing_predictions_rejected(self):
        # finite entries whose products overflow: the bound fails, so the
        # predictions are scanned and the infinities found
        config = ball_config(m_fresh=200)
        evaluator = RiskEvaluator(config)
        B = np.full((2, 2), 1.7e308)
        assert np.all(np.isfinite(B))
        with np.errstate(over="ignore"):
            assert not np.all(np.isfinite(predict_batch(B, evaluator.X)))
            with pytest.raises(ValueError, match="non-finite"):
                evaluator.true_risk(B)

    @pytest.mark.parametrize("shape", [(3,), (3, 3), (2, 2, 1), (0, 2)])
    def test_rejects_other_wrong_shapes(self, shape):
        with pytest.raises(ValueError, match="shape"):
            RiskEvaluator(simplex_config(m_fresh=50)).true_risk(np.zeros(shape))


class TestBoundValidity:
    def test_ball_region_records_and_bounds(self):
        result = run_suite([ball_config()])[0]
        assert len(result.records) == 2
        rec = result.records[0]
        assert set(rec.bounds) == {"covering", "margin@0.1", "margin@0.5",
                                   "margin_uniform"}
        assert rec.gamma_star in (0.1, 0.5)
        for bound_id, value in rec.bounds.items():
            assert value >= 0.0
        assert not result.summary["any_violation"]
        for stats in result.summary["bounds"].values():
            assert stats["frequency"] == 0.0

    def test_simplex_region_records_and_bounds(self):
        result = run_suite([simplex_config()])[0]
        assert len(result.records) == 4  # two n levels x two trials
        assert set(result.records[0].bounds) == {"linear_polyhedral", "covering"}
        assert not result.summary["any_violation"]

    def test_empirical_risks_recomputed(self):
        config = ball_config()
        result = run_suite([config])[0]
        rec = result.records[0]
        sample = generate_sample(config, 0, n=40)
        predictor = clip_frobenius(fit_least_squares(sample), config.beta)
        assert rec.emp_spo == empirical_risk(config.region, predictor, sample,
                                             "spo")
        assert rec.emp_margin[0.5] == empirical_risk(
            config.region, predictor, sample, "margin", 0.5)

    def test_lq_ball_margin_risk_uses_dual_norm(self):
        region = LqBall(1.5, 1.0, [0.0, 0.0], mu=0.3)
        config = ball_config(region=region,
                             cost_domain=CostDomain.ball(region, 1.0),
                             b_star=0.5 * np.eye(2), seed=3, trials=1,
                             gamma_grid=[0.5], m_fresh=500)
        rec = run_suite([config])[0].records[0]
        sample = generate_sample(config, 0, n=40)
        predictor = clip_frobenius(fit_least_squares(sample), config.beta)
        # the margin risk by hand, predictions measured in the dual of l1.5
        preds = predict_batch(predictor, sample.xs)
        spo = spo_loss_batch(region, preds, sample.cs)
        gap = region.gap_batch(sample.cs)
        dual = float(margin_mix(spo, gap, dual_norm_rows(preds, 1.5), 0.5).mean())
        l2 = float(margin_mix(spo, gap, dual_norm_rows(preds, 2.0), 0.5).mean())
        assert rec.emp_margin[0.5] == dual
        assert empirical_risk(region, predictor, sample, "margin", 0.5) == dual
        assert dual != l2

    def test_trials_csv_deterministic_and_ordered(self):
        for make_config, bound_ids, risks in (
                (ball_config, ["covering", "margin@0.1", "margin@0.5", "margin_uniform"],
                 ["emp_margin@0.1", "emp_margin@0.5"]),
                (simplex_config, ["linear_polyhedral", "covering"], [])):
            csv_a = run_suite([make_config()])[0].trials_csv()
            csv_b = run_suite([make_config()])[0].trials_csv()
            assert csv_a == csv_b
            lines = csv_a.splitlines()
            header = lines[0].split(",")
            assert header == (["trial", "n", "gamma_star", "emp_spo", *risks,
                               "true_risk", "true_risk_stderr"]
                              + [f"bound@{b}" for b in bound_ids]
                              + [f"violation@{b}" for b in bound_ids])
            for line in lines[1:]:
                row = dict(zip(header, line.split(",")))
                below = float(row["true_risk"]) - 3.0 * float(row["true_risk_stderr"])
                for b in bound_ids:
                    slack = float(row[f"bound@{b}"]) - below
                    assert row[f"violation@{b}"] == str(int(slack < 0))

    def test_a_bound_added_in_run_trial_reaches_every_output(self, monkeypatch):
        # a column scored in run_trial alone, violated in trial 0 only,
        # shows in trials.csv, the summary and the plot frames
        real = harness.run_trial

        def with_fake(config, sample, fit, trial, evaluator):
            rec = real(config, sample, fit, trial, evaluator)
            below = rec.true_risk - 3.0 * rec.true_risk_stderr
            rec.bounds["fake"] = below - 0.5 if trial == 0 else 100.0
            return rec

        monkeypatch.setattr(harness, "run_trial", with_fake)
        result = run_suite([simplex_config()])[0]
        lines = result.trials_csv().splitlines()
        header = lines[0].split(",")
        assert header[-6:] == ["bound@linear_polyhedral", "bound@covering", "bound@fake",
                               "violation@linear_polyhedral", "violation@covering",
                               "violation@fake"]
        flags = [dict(zip(header, line.split(",")))["violation@fake"] for line in lines[1:]]
        assert flags == ["1", "0", "1", "0"]  # two n levels x trials 0 and 1
        stats = result.summary["bounds"]["fake"]
        assert (stats["violations"], stats["trials"]) == (2, 4)
        assert stats["min_slack"] < 0 and stats["min_slack_trial"] == 0
        assert result.summary["any_violation"]
        frames = result.plot_frames()
        assert list(frames) == ["linear_polyhedral", "covering", "fake"]
        assert [mean for _, mean, _ in frames["fake"]][0] < 100.0

    def test_summary_slack_and_vacuous_counts(self):
        # two trials per cell of the default grid: below n = 1e3 every bound
        # but the polyhedral one on simplex_d2_p2 is at or above omega
        for config in default_suite(seed=0, trials=2, m_fresh=20_000):
            result = run_suite([config])[0]
            omega = config.cost_domain.omega
            for bound_id, stats in result.summary["bounds"].items():
                assert "min_bound" not in stats and "max_true_risk" not in stats
                slacks = [r.bounds[bound_id] - (r.true_risk - 3.0 * r.true_risk_stderr)
                          for r in result.records]
                assert stats["min_slack"] == min(slacks)
                at = slacks.index(min(slacks))
                assert (stats["min_slack_n"], stats["min_slack_trial"]) == \
                    (result.records[at].n, result.records[at].trial)
                assert (stats["min_slack"] < 0) == (stats["violations"] > 0)
                assert stats["vacuous"] == sum(r.bounds[bound_id] >= omega
                                               for r in result.records)
                if (config_label(config), bound_id) == ("simplex_d2_p2", "linear_polyhedral"):
                    assert stats["vacuous"] == 4  # the n = 400 trials bite
                else:
                    assert stats["vacuous"] == stats["trials"] == 6
            assert not result.summary["any_violation"]

    def test_margin_needs_bounded_features(self):
        with pytest.raises(ValueError, match="unbounded"):
            run_suite([ball_config(feature_dist="gaussian")])

    def test_margin_needs_gamma_grid(self):
        with pytest.raises(ValueError, match="gamma grid"):
            run_suite([ball_config(gamma_grid=[])])

    def test_plot_frames_cover_all_bounds(self):
        result = run_suite([simplex_config()])[0]
        frames = result.plot_frames()
        assert set(frames) == {"linear_polyhedral", "covering"}
        for rows in frames.values():
            assert [r[0] for r in rows] == [30, 60]


def simplex_twin(config, **overrides):
    """``config``'s data source on the simplex of its dimension."""
    region = UnitSimplex(config.d)
    return ExperimentConfig(**{**vars(config), "region": region,
                               "cost_domain": CostDomain.ball(region, 1.0),
                               "gamma_grid": [], "beta": None, **overrides})


def outputs(result) -> tuple[str, str, str]:
    """Every byte a result writes: trials.csv, summary.json, plotdata."""
    return (result.trials_csv(), json.dumps(result.summary, indent=2, sort_keys=True),
            repr(result.plot_frames()))


def count_calls(monkeypatch, *names) -> dict[str, list[tuple]]:
    """Record the positional arguments of every call to the named harness
    functions."""
    calls: dict[str, list[tuple]] = {}
    for name in names:
        def counted(*args, real=getattr(harness, name), log=calls.setdefault(name, []),
                    **kwargs):
            log.append(args)
            return real(*args, **kwargs)
        monkeypatch.setattr(harness, name, counted)
    return calls


class TestSuite:
    """Configs that share a data source run as one group; each result must
    be the bits of the config run alone, a group of one."""

    def assert_alone_equal(self, configs):
        suite = run_suite(configs)
        assert [r.config for r in suite] == configs
        for config, result in zip(configs, suite):
            assert outputs(result) == outputs(run_suite([config])[0])

    @pytest.mark.parametrize("seed", [0, 7])
    def test_default_grid_grouped_equals_alone(self, seed):
        self.assert_alone_equal(default_suite(seed=seed, trials=2, m_fresh=20_000))

    def test_binding_clip_grouped_equals_alone(self):
        ball = ball_config(beta=0.05)
        fit = fit_least_squares(generate_sample(ball, 0, n=40))
        assert np.linalg.norm(fit) > ball.beta  # the clip rescales
        self.assert_alone_equal([ball, simplex_twin(ball), ball_config(beta=0.06)])

    @pytest.mark.parametrize("field, value", [("noise", 0.2), ("m_fresh", 2400)])
    def test_other_data_source_shares_nothing(self, field, value, monkeypatch):
        configs = [ball_config(), simplex_twin(ball_config(), **{field: value})]
        calls = count_calls(monkeypatch, "_draw_pairs")
        self.assert_alone_equal(configs)
        fresh_draws = [n for _, _, n in calls["_draw_pairs"] if n >= 2400]  # training n is 40
        # the suite, then each config alone: one fresh sample per config each time
        assert fresh_draws == [2500, configs[1].m_fresh] * 2

    @pytest.mark.parametrize("beta, fresh_predictions", [(None, 1), (0.05, 2)])
    def test_group_does_each_draw_once(self, beta, fresh_predictions, monkeypatch):
        ball = ball_config(ns=[30, 60], beta=beta)
        calls = count_calls(monkeypatch, "_draw_pairs", "generate_sample",
                            "fit_least_squares", "predict_batch")
        results = run_suite([ball, simplex_twin(ball)])
        trials = len(ball.ns) * ball.trials
        assert [n for _, _, n in calls["_draw_pairs"]].count(ball.m_fresh) == 1
        assert len(calls["generate_sample"]) == len(calls["fit_least_squares"]) == trials
        rows = [len(xs) for _, xs in calls["predict_batch"]]
        assert rows.count(ball.m_fresh) == fresh_predictions * trials
        # and each config's training predictions, one per trial
        assert len(rows) == (fresh_predictions + 2) * trials
        assert [len(r.records) for r in results] == [trials, trials]

    def test_evaluator_checks_its_group(self):
        ball = ball_config()
        simplex = simplex_twin(ball)
        with pytest.raises(ValueError, match="share one data source"):
            RiskEvaluator([ball, simplex_twin(ball, seed=22)])
        with pytest.raises(ValueError, match="share one data source"):
            RiskEvaluator([])
        evaluator = RiskEvaluator([ball, simplex, ball])
        assert evaluator.regions == [ball.region, simplex.region]
        with pytest.raises(ValueError, match="one of the evaluator's regions"):
            evaluator.true_risk(ball.b_star)
        with pytest.raises(ValueError, match="one of the evaluator's regions"):
            evaluator.true_risk(ball.b_star, UnitSimplex(2))
        for config in (ball, simplex):
            assert evaluator.true_risk(ball.b_star, config.region) == \
                RiskEvaluator(config).true_risk(ball.b_star)

    def test_kept_predictions_follow_the_entries(self):
        # the evaluator keeps the last predictions by object and entries: a
        # predictor changed in place is predicted afresh
        config = ball_config()
        evaluator = RiskEvaluator(config)
        B = config.b_star.copy()
        first = evaluator.true_risk(B)
        B *= -2.0
        assert evaluator.true_risk(B) == RiskEvaluator(config).true_risk(B) != first


class TestLipschitzAudit:
    def test_unit_ball_audit_passes(self):
        region = ball_config().region
        ratio_oracle, witness = audits._oracle_ratios(region, 21, 20_000)
        ratio_5, ratio_sharp = audits._margin_ratios(region, 0.5, 21, 20_000)
        assert ratio_oracle <= 1.0 + 1e-7
        assert witness == pytest.approx(1.0, abs=1e-9)
        assert ratio_5 <= 1.0 + 1e-7
        assert ratio_sharp <= 1.0 + 1e-7

    def test_oracle_ratio_approaches_one(self):
        # the bound is tight: sampled ratios should get close to 1
        ratio_oracle, _ = audits._oracle_ratios(ball_config().region, 21, 20_000)
        assert ratio_oracle >= 0.99

    def test_report_matches_one_pass_audit(self):
        region = ball_config().region
        ref = lipschitz_audit_ref(region, 0.5, 21, 5_000)
        assert audits._oracle_ratios(region, 21, 5_000) + \
            audits._margin_ratios(region, 0.5, 21, 5_000) == tuple(ref.values())


class TestLipschitzStages:
    """Each audit runs one of the two Lipschitz checks; the check must
    return exactly its fields of the earlier one-pass audit, on the audits'
    own regions at full and ``--fast`` size."""

    @pytest.mark.parametrize("scale", [1, 10])
    @pytest.mark.parametrize("seed", [0, 7, 9001])
    def test_stages_match_one_pass_audit(self, seed, scale):
        for dim in (2, 5):  # audit_oracle_lipschitz_like
            region, n_pairs = audits._ball(dim), 100_000 // scale
            ref = lipschitz_audit_ref(region, 0.5, seed, n_pairs)
            assert audits._oracle_ratios(region, seed, n_pairs) == (
                ref["max_ratio_oracle"], ref["witness_ratio"])
        for q, n_pairs in ((2.0, 100_000 // scale), (1.5, 20_000 // scale)):
            region = audits._ball(3, q=q)  # audit_margin_loss_lipschitz
            ref = lipschitz_audit_ref(region, 0.5, seed, n_pairs)
            assert audits._margin_ratios(region, 0.5, seed, n_pairs) == (
                ref["max_ratio_margin"], ref["max_ratio_margin_sharp"])

    def test_each_audit_draws_only_what_it_reads(self, monkeypatch):
        drawn, processed = [], []
        log_uniform, sample_costs = audits._log_uniform, audits._sample_costs
        monkeypatch.setattr(audits, "_log_uniform",
                            lambda rng, lo, hi, size: drawn.append(size)
                            or log_uniform(rng, lo, hi, size))
        monkeypatch.setattr(audits, "_sample_costs",
                            lambda rng, n, d, lo, hi: processed.append(d)
                            or sample_costs(rng, n, d, lo, hi))
        audits.audit_oracle_lipschitz_like(0, scale=10)
        # two batches per dimension, both processed
        assert drawn == [10_000] * 4 and processed == [2, 2, 5, 5]
        drawn.clear()
        processed.clear()
        audits.audit_margin_loss_lipschitz(0, scale=10)
        # five batches per ball, the last three processed
        assert drawn == [10_000] * 5 + [2_000] * 5 and processed == [3] * 6


class TestConfig:
    def test_round_trip(self):
        config = ball_config()
        clone = ExperimentConfig.from_dict(config.to_dict())
        assert clone.to_dict() == config.to_dict()

    def test_minimal_dict_takes_the_field_defaults(self):
        region = LqBall(2.0, 1.0, [0.0, 0.0], mu=1.0)
        domain = CostDomain.ball(region, 1.0)
        b_star = [[0.6, -0.2], [0.1, 0.7]]
        config = ExperimentConfig.from_dict({"region": region.to_dict(),
                                             "cost_domain": domain.to_dict(),
                                             "b_star": b_star})
        assert config.to_dict() == ExperimentConfig(region, domain, b_star).to_dict()

    def test_round_trip_keeps_every_key(self):
        config = ball_config(beta=3.5, delta=0.1, feature_dist="gaussian", ns=[40, 80])
        data = config.to_dict()
        assert set(data) == {"region", "cost_domain", "b_star", "noise", "feature_dist",
                             "n", "trials", "delta", "gamma_grid", "beta", "m_fresh",
                             "seed"}
        # every value differs from its default, so a dropped key would show
        defaults = ExperimentConfig(config.region, config.cost_domain,
                                    config.b_star).to_dict()
        assert all(data[key] != defaults[key] for key in data
                   if key not in ("region", "cost_domain", "b_star"))
        assert ExperimentConfig.from_dict(data).to_dict() == data

    @pytest.mark.parametrize("region", [UnitSimplex(2), LqBall(2.0, 1.0, [0.0, 0.0])])
    def test_gamma_grid_needs_a_region_with_mu(self, region):
        # only the margin bounds read the grid, and they need mu > 0
        with pytest.raises(ValueError, match="gamma grid is read only by the margin bounds"):
            ExperimentConfig(region, CostDomain.ball(region, 1.0), [[1.0], [0.0]],
                             gamma_grid=[0.5])

    def test_from_dict_rejects_unknown_keys(self):
        # a misspelt key must not silently fall back to its default
        data = {**ball_config().to_dict(), "trails": 50}
        with pytest.raises(ValueError, match="unknown key 'trails' in experiment config"):
            ExperimentConfig.from_dict(data)

    def test_validation(self):
        with pytest.raises(ValueError, match="ascending"):
            ball_config(gamma_grid=[0.5, 0.1])
        with pytest.raises(ValueError, match="positive"):
            ball_config(gamma_grid=[0.0, 0.5])
        with pytest.raises(ValueError, match="trials"):
            ball_config(trials=0)
        with pytest.raises(ValueError, match="b_star"):
            ball_config(b_star=np.zeros((3, 2)))
        # NaN fails no range check by itself, so non-finite values are refused
        for bad in (math.nan, math.inf, -math.inf):
            for key, value in (("noise", bad), ("beta", bad), ("delta", bad),
                               ("gamma_grid", [0.1, bad])):
                with pytest.raises(ValueError, match=rf"^{key} must be finite, got"):
                    ball_config(**{key: value})

    def test_sample_size_budget(self):
        # 8 * rows * (p + d) bytes of samples must fit the array budget; the
        # config refuses before anything is drawn (p + d = 4 here)
        rows = ARRAY_BYTES_MAX // 32
        assert ball_config(m_fresh=rows, ns=[rows]).m_fresh == rows
        with pytest.raises(ValueError, match=rf"m_fresh = {rows + 1} needs "
                                             rf"{ARRAY_BYTES_MAX + 32} bytes of samples, "
                                             rf"over the {ARRAY_BYTES_MAX}-byte budget"):
            ball_config(m_fresh=rows + 1)
        with pytest.raises(ValueError, match=rf"n = {10 ** 9} needs"):
            ball_config(ns=[40, 10 ** 9])

    def test_bound_inputs_rad_is_the_frobenius_class_bound(self):
        config = ball_config(beta=3.5)
        for n in (1, 40, 12345):
            assert harness._bound_inputs(config, n).rad == linear_class_rad_bound(
                "frobenius", 3.5, config.d, config.p, config.x_radius, n)

    def test_binary_case_anchors(self):
        # interval region with costs {-1, +1}: omega = rho2 = 1, mu = 2
        region = LqBall.interval(0.5, mu=2.0)
        domain = CostDomain.enumerated(region, [[-1.0], [1.0]])
        assert domain.omega == 1.0
        assert domain.rho2 == 1.0
        assert region.mu == 2.0

    def test_default_suite_shape(self):
        configs = default_suite(seed=0, trials=2, m_fresh=100)
        assert len(configs) == 8
        labels = {config_label(c) for c in configs}
        assert labels == {f"{kind}_d{d}_p{p}" for kind in ("l2_ball", "simplex")
                          for d in (2, 5) for p in (2, 5)}
        for config in configs:
            assert config.ns == [50, 100, 400]
