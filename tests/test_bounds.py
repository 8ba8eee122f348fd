import dataclasses
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spo_bounds import audits, bounds
from spo_bounds.bounds import (TERMS, THEOREMS, VARIANTS, BoundInputs, BoundReport,
                               bound_covering, bound_linear_polyhedral,
                               bound_margin, bound_margin_uniform,
                               bound_natarajan, bound_rademacher, evaluate,
                               evaluate_all, MissingInputError,
                               margin_rad_bound)


def inputs(**kwargs):
    base = dict(n=100, delta=0.05)
    base.update(kwargs)
    return BoundInputs(**base)


#: every input present, so every theorem evaluates
FULL = BoundInputs(n=200, delta=0.05, empirical_risk=0.1, omega=1.5, rho2_C=1.0,
                   rho2_S=1.0, mu=1.0, gamma=0.5, gamma_bar=1.0, d_N=2, card_S=4,
                   d=2, p=3, rad=0.1)


class TestRademacherBound:
    def test_all_zero(self):
        report = bound_rademacher(inputs(n=50, delta=0.5, omega=0.0, rad=0.0),
                                  "expected")
        assert report.value == 0.0

    def test_delta_one_limit(self):
        # deviation term vanishes as delta -> 1 (expected variant)
        report = bound_rademacher(inputs(delta=1.0 - 1e-12, omega=1.0, rad=0.0),
                                  "expected")
        assert report.terms["deviation"] == pytest.approx(0.0, abs=1e-6)

    def test_expected_variant_anchor(self):
        report = bound_rademacher(inputs(empirical_risk=0.2, omega=1.0, rad=0.1),
                                  "expected")
        direct = 0.2 + 0.2 + math.sqrt(math.log(20.0) / 200.0)
        assert report.value == pytest.approx(direct, abs=1e-15)
        assert report.value == pytest.approx(0.5224, abs=5e-4)

    def test_empirical_variant_constants(self):
        report = bound_rademacher(inputs(empirical_risk=0.0, omega=2.0, rad=0.0),
                                  "empirical")
        assert report.terms["deviation"] == pytest.approx(
            3.0 * 2.0 * math.sqrt(math.log(40.0) / 200.0), abs=1e-15)

    def test_missing_rad_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            bound_rademacher(inputs(omega=1.0))

    def test_bad_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            bound_rademacher(inputs(omega=1.0, rad=0.1), "both")


class TestNatarajanBound:
    def test_anchor_value(self):
        report = bound_natarajan(inputs(omega=1.0, d_N=2, card_S=3))
        direct = (2.0 * math.sqrt(4.0 * math.log(900.0) / 100.0)
                  + math.sqrt(math.log(20.0) / 200.0))
        assert report.value == pytest.approx(direct, abs=1e-15)
        assert report.value == pytest.approx(1.1656, abs=5e-4)

    def test_zero_dimension_leaves_deviation_only(self):
        report = bound_natarajan(inputs(empirical_risk=0.3, omega=1.0, d_N=0,
                                        card_S=3))
        assert report.terms["complexity"] == 0.0
        assert report.value == pytest.approx(
            0.3 + math.sqrt(math.log(20.0) / 200.0))

    def test_zero_omega_is_empirical_risk(self):
        report = bound_natarajan(inputs(empirical_risk=0.25, omega=0.0, d_N=2,
                                        card_S=3))
        assert report.value == 0.25

    def test_log_argument_validated(self):
        with pytest.raises(ValueError, match="card_S"):
            bound_natarajan(BoundInputs(n=1, delta=0.5, omega=1.0, d_N=1, card_S=1))


class TestLinearPolyhedralBound:
    def test_equals_natarajan_with_dp(self):
        a = bound_linear_polyhedral(inputs(omega=1.0, card_S=4, d=2, p=3))
        b = bound_natarajan(inputs(omega=1.0, card_S=4, d_N=6))
        assert a.value == b.value
        assert a.terms == b.terms

    def test_doubling_p_scales_complexity_by_sqrt2(self):
        a = bound_linear_polyhedral(inputs(omega=1.0, card_S=4, d=2, p=3))
        b = bound_linear_polyhedral(inputs(omega=1.0, card_S=4, d=2, p=6))
        assert b.terms["complexity"] == pytest.approx(
            math.sqrt(2.0) * a.terms["complexity"])

    def test_direct_arithmetic(self):
        report = bound_linear_polyhedral(
            BoundInputs(n=100, delta=0.1, omega=1.0, card_S=4, d=2, p=2))
        direct = (2.0 * math.sqrt(2.0 * 4.0 * math.log(1600.0) / 100.0)
                  + math.sqrt(math.log(10.0) / 200.0))
        assert report.value == pytest.approx(direct, abs=1e-15)


class TestCoveringBound:
    def test_zero_cost_radius_kills_remainder(self):
        report = bound_covering(inputs(n=1000, omega=2.0, rho2_C=0.0, rho2_S=1.0,
                                       d=2, p=3))
        assert report.terms["remainder"] == 0.0

    def test_direct_arithmetic(self):
        report = bound_covering(inputs(n=1000, omega=2.0, rho2_C=1.0, rho2_S=1.0,
                                       d=2, p=3))
        root = math.sqrt(2.0 * 3.0 * math.log(2.0 * 1000.0 * 1.0 * 2.0) / 1000.0)
        direct = (4.0 * 2.0 * 2.0 * root
                  + 3.0 * 2.0 * math.sqrt(math.log(40.0) / 2000.0)
                  + 2.0 * (2.0 / 1000.0) * (1.0 + 4.0 * root))
        assert report.value == pytest.approx(direct, abs=1e-15)
        assert report.terms["remainder"] < report.terms["complexity"]

    def test_large_n_scaling(self):
        small = bound_covering(inputs(n=1000, empirical_risk=0.0, omega=2.0,
                                      rho2_C=1.0, rho2_S=1.0, d=2, p=3))
        big = bound_covering(inputs(n=100_000, empirical_risk=0.0, omega=2.0,
                                    rho2_C=1.0, rho2_S=1.0, d=2, p=3))
        ratio = (big.terms["complexity"] / small.terms["complexity"])
        expected = math.sqrt(math.log(400_000.0) / math.log(4000.0)) / 10.0
        assert ratio == pytest.approx(expected, rel=1e-12)

    def test_log_argument_validated(self):
        with pytest.raises(ValueError, match="exceed 1"):
            bound_covering(BoundInputs(n=1, delta=0.5, omega=1.0, rho2_C=1.0,
                                       rho2_S=0.25, d=2, p=1))


class TestMarginBound:
    def test_zero_rad_leaves_deviation_only(self):
        report = bound_margin(inputs(empirical_risk=0.1, omega=1.0, rho2_C=1.0,
                                     mu=2.0, gamma=0.5, rad=0.0), "expected")
        assert report.value == pytest.approx(
            0.1 + math.sqrt(math.log(20.0) / 200.0))

    def test_doubling_gamma_halves_complexity(self):
        a = bound_margin(inputs(omega=1.0, rho2_C=1.0, mu=2.0, gamma=0.5,
                                rad=0.05))
        b = bound_margin(inputs(omega=1.0, rho2_C=1.0, mu=2.0, gamma=1.0,
                                rad=0.05))
        assert a.terms["complexity"] == pytest.approx(2.0 * b.terms["complexity"])

    def test_binary_case_direct_arithmetic(self):
        report = bound_margin(BoundInputs(n=400, delta=0.05, omega=1.0,
                                          rho2_C=1.0, mu=2.0, gamma=0.5,
                                          rad=0.05), "expected")
        direct = (10.0 * math.sqrt(2.0) * 1.0 * 0.05 / (0.5 * 2.0)
                  + math.sqrt(math.log(20.0) / 800.0))
        assert report.value == pytest.approx(direct, abs=1e-15)

    def test_sub_operation_factor(self):
        assert margin_rad_bound(1.0, 0.05, 0.5, 2.0) == pytest.approx(
            5.0 * math.sqrt(2.0) * 0.05)
        report = bound_margin(inputs(omega=1.0, rho2_C=1.0, mu=2.0, gamma=0.5,
                                     rad=0.05))
        assert report.terms["complexity"] == pytest.approx(
            2.0 * margin_rad_bound(1.0, 0.05, 0.5, 2.0))

    def test_underflowing_gamma_mu_refused_and_a_subnormal_product_kept(self):
        with pytest.raises(ValueError, match="gamma \\* mu must be > 0"):
            margin_rad_bound(1.0, 0.1, 1e-200, 1e-200)
        # 1e-160 * 1e-160 is subnormal, not 0: the quotient overflows as before
        assert margin_rad_bound(1.0, 0.1, 1e-160, 1e-160) == math.inf

    def test_requires_positive_gamma_mu(self):
        with pytest.raises(ValueError, match="gamma"):
            inputs(omega=1.0, rho2_C=1.0, mu=2.0, gamma=0.0, rad=0.05)
        with pytest.raises(ValueError, match="missing"):
            bound_margin(inputs(omega=1.0, rho2_C=1.0, gamma=0.5, rad=0.05))


class TestMarginUniformBound:
    def test_gamma_equal_gamma_bar_kills_uniformity(self):
        report = bound_margin_uniform(inputs(omega=1.0, rho2_C=1.0, mu=2.0,
                                             gamma=0.5, gamma_bar=0.5, rad=0.05))
        assert report.terms["uniformity"] == 0.0

    def test_uniform_dominates_fixed(self):
        kwargs = dict(omega=1.0, rho2_C=1.0, mu=2.0, gamma=0.25, rad=0.05)
        for variant in ("expected", "empirical"):
            uni = bound_margin_uniform(inputs(gamma_bar=1.0, **kwargs), variant)
            fix = bound_margin(inputs(**kwargs), variant)
            assert uni.value >= fix.value

    def test_half_gamma_bar_uniformity_value(self):
        report = bound_margin_uniform(BoundInputs(n=400, delta=0.05, omega=1.0,
                                                  rho2_C=1.0, mu=2.0, gamma=0.5,
                                                  gamma_bar=1.0, rad=0.05))
        assert report.terms["uniformity"] == pytest.approx(
            math.sqrt(math.log(2.0) / 400.0))

    def test_empirical_deviation_constant(self):
        report = bound_margin_uniform(inputs(omega=2.0, rho2_C=1.0, mu=2.0,
                                             gamma=0.5, gamma_bar=1.0, rad=0.0),
                                      "empirical")
        assert report.terms["deviation"] == pytest.approx(
            3.0 * 2.0 * math.sqrt(math.log(80.0) / 200.0))

    def test_gamma_above_gamma_bar_rejected(self):
        with pytest.raises(ValueError, match="gamma_bar"):
            bound_margin_uniform(inputs(omega=1.0, rho2_C=1.0, mu=2.0, gamma=1.0,
                                        gamma_bar=0.5, rad=0.05))


class TestReports:
    def test_inputs_echoed(self):
        report = bound_margin(inputs(omega=1.0, rho2_C=1.0, mu=2.0, gamma=0.5,
                                     rad=0.05), "expected")
        assert report.inputs["variant"] == "expected"
        assert report.inputs["gamma"] == 0.5

    def test_evaluate_dispatch(self):
        report = evaluate("covering", inputs(omega=1.0, rho2_C=1.0, rho2_S=1.0,
                                             d=2, p=2))
        assert report.theorem_id == "covering"
        with pytest.raises(ValueError, match="unknown theorem"):
            evaluate("chernoff", inputs(omega=1.0))

    def test_evaluate_all_skips_missing(self):
        reports = evaluate_all(inputs(omega=1.0, rad=0.1))
        ids = {r.theorem_id for r in reports}
        assert ids == {"rademacher"}
        full = evaluate_all(inputs(omega=1.0, rad=0.1, rho2_C=1.0, rho2_S=1.0,
                                   d=2, p=2, card_S=3, d_N=2, mu=1.0, gamma=0.5,
                                   gamma_bar=1.0))
        assert {r.theorem_id for r in full} == {
            "rademacher", "natarajan", "linear_polyhedral", "covering",
            "margin", "margin_uniform"}

    def test_evaluate_all_raises_on_invalid_inputs(self):
        # n * card_S**2 = 1 is present but invalid; skipping it would drop
        # natarajan and linear_polyhedral from the table without a word
        bad = inputs(n=1, card_S=1, d_N=1, d=1, p=1, omega=1.0, rho2_C=1.0, rho2_S=1.0)
        with pytest.raises(ValueError, match="n \\* card_S\\*\\*2 must exceed 1"):
            evaluate_all(bad)

    def test_evaluate_is_the_calculator_bit_for_bit(self):
        full = FULL
        calls = {
            ("rademacher", "expected"): lambda: bound_rademacher(full, "expected"),
            ("rademacher", "empirical"): lambda: bound_rademacher(full, "empirical"),
            ("rademacher", None): lambda: bound_rademacher(full),
            ("natarajan", None): lambda: bound_natarajan(full),
            ("linear_polyhedral", None): lambda: bound_linear_polyhedral(full),
            ("covering", None): lambda: bound_covering(full),
            ("margin", "expected"): lambda: bound_margin(full, "expected"),
            ("margin", "empirical"): lambda: bound_margin(full, "empirical"),
            ("margin", None): lambda: bound_margin(full),
            ("margin_uniform", "expected"): lambda: bound_margin_uniform(full, "expected"),
            ("margin_uniform", "empirical"): lambda: bound_margin_uniform(full, "empirical"),
            ("margin_uniform", None): lambda: bound_margin_uniform(full),
        }
        assert {tid for tid, _ in calls} == set(THEOREMS)
        for (tid, variant), call in calls.items():
            assert evaluate(tid, full, variant).to_dict() == call().to_dict()

    def test_evaluate_all_is_every_theorem_and_variant_in_table_order(self):
        got = [(r.theorem_id, r.inputs.get("variant")) for r in evaluate_all(FULL)]
        assert got == [(tid, v) for tid, (_, takes) in THEOREMS.items()
                       for v in (VARIANTS if takes else (None,))]

    @pytest.mark.parametrize("theorem_id", ["natarajan", "linear_polyhedral", "covering"])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_variant_refused_where_there_is_none(self, theorem_id, variant):
        assert not THEOREMS[theorem_id][1]
        with pytest.raises(ValueError, match=f"^{theorem_id} takes no variant"):
            evaluate(theorem_id, FULL, variant)

    def test_terms_name_every_report_term(self):
        assert TERMS == ("empirical_risk", "complexity", "deviation", "uniformity",
                         "remainder")
        assert set().union(*(r.terms for r in evaluate_all(FULL))) == set(TERMS)

    def test_missing_inputs_raise_a_value_error_subclass(self):
        with pytest.raises(MissingInputError, match="missing bound inputs"):
            evaluate("natarajan", inputs(omega=1.0))
        assert issubclass(MissingInputError, ValueError)


def covering_deviation_ref(omega, delta, n):
    """The covering bound's deviation as it was written inline."""
    return 3.0 * omega * math.sqrt(math.log(2.0 / delta) / (2.0 * n))


def uniform_deviation_ref(omega, delta, n, variant):
    """The uniform margin bound's deviation as it was written inline."""
    if variant == "expected":
        return omega * math.sqrt(math.log(2.0 / delta) / (2.0 * n))
    return 3.0 * omega * math.sqrt(math.log(4.0 / delta) / (2.0 * n))


class TestSharedDeviation:
    """The covering and uniform margin bounds take their deviation from
    ``_deviation``; the references are the expressions it replaced."""

    @pytest.mark.parametrize("delta", [0.5, 0.05, 1e-3, 1e-12, 1e-300, 5e-324,
                                       1.0 - 1e-16])
    def test_same_bits_as_the_inline_forms(self, delta):
        for n, omega in itertools.product([1, 7, 200, 10 ** 9],
                                          [0.0, 1.0, math.sqrt(2.0), 1e300]):
            inputs = BoundInputs(n=n, delta=delta, omega=omega, rho2_C=1.0, rho2_S=1.0,
                                 d=2, p=1, mu=1.0, gamma=0.5, gamma_bar=1.0, rad=0.1)
            pairs = [(bound_covering(inputs), covering_deviation_ref(omega, delta, n))]
            pairs += [(bound_margin_uniform(inputs, v),
                       uniform_deviation_ref(omega, delta, n, v)) for v in VARIANTS]
            for report, want in pairs:
                # omega = 0 gives a zero term at every delta, where the
                # inline forms gave 0 * inf = NaN at delta = 5e-324; repr
                # compares infinities as well as finite bits
                want = 0.0 if omega == 0 else want
                assert repr(report.terms["deviation"]) == repr(want)

    def test_subnormal_delta_gives_an_infinite_term(self):
        base = BoundInputs(n=10, delta=5e-324, omega=1.0, rho2_C=1.0, rho2_S=1.0, d=2,
                           p=1, mu=1.0, gamma=0.5, gamma_bar=1.0, rad=0.1)
        assert bound_covering(base).terms["deviation"] == math.inf
        for variant in VARIANTS:
            assert bound_margin_uniform(base, variant).terms["deviation"] == math.inf


    def test_zero_omega_gives_a_zero_term_at_a_subnormal_delta(self):
        base = BoundInputs(n=2, delta=5e-324, omega=0.0, rho2_C=1.0, rho2_S=1.0, d=2,
                           p=2, d_N=1, card_S=4, mu=1.0, gamma=0.5, gamma_bar=1.0,
                           rad=0.1)
        reports = evaluate_all(base)
        assert len(reports) == 9
        for report in reports:
            assert report.terms["deviation"] == 0.0
            assert report.value == math.fsum(report.terms.values())

    def test_nan_term_refused(self):
        # omega = 0 times the infinite log of an overflowing gamma ratio
        base = BoundInputs(n=2, delta=0.05, omega=0.0, rho2_C=1.0, mu=1.0,
                           gamma=1e-300, gamma_bar=1e300, rad=0.1)
        with pytest.raises(ValueError, match="'uniformity' is negative or NaN: nan"):
            bound_margin_uniform(base)


class TestInputValidation:
    def test_ranges(self):
        with pytest.raises(ValueError, match="delta"):
            BoundInputs(n=10, delta=0.0)
        with pytest.raises(ValueError, match="n must"):
            BoundInputs(n=0, delta=0.5)
        with pytest.raises(ValueError, match="omega"):
            BoundInputs(n=10, delta=0.5, omega=-1.0)
        with pytest.raises(ValueError, match="mu"):
            BoundInputs(n=10, delta=0.5, mu=0.0)

    @pytest.mark.parametrize("key, value", [("n", "100"), ("delta", None),
                                            ("n", True), ("card_S", [3]),
                                            ("rad", False)])
    def test_non_numbers_rejected_by_name(self, key, value):
        with pytest.raises(ValueError, match=f"^{key} must be a number"):
            BoundInputs(**{"n": 10, "delta": 0.5, key: value})

    @pytest.mark.parametrize("key", ["n", "d_N", "card_S", "d", "p"])
    @pytest.mark.parametrize("value, shown", [(math.nan, "nan"), (math.inf, "inf"),
                                              (100.5, "100.5"), (3.0, "3.0")])
    def test_counts_must_be_integers(self, key, value, shown):
        with pytest.raises(ValueError, match=f"^{key} must be an integer, got {shown}$"):
            BoundInputs(**{"n": 10, "delta": 0.5, key: value})

    def test_non_count_fields_take_ints_and_floats(self):
        a = BoundInputs(n=10, delta=0.5, omega=2, rho2_C=1, rad=0)
        b = BoundInputs(n=10, delta=0.5, omega=2.0, rho2_C=1.0, rad=0.0)
        assert evaluate("rademacher", a).value == evaluate("rademacher", b).value

    def test_round_trip(self):
        original = inputs(omega=1.0, rho2_C=0.5, mu=2.0, gamma=0.1, rad=0.2)
        clone = BoundInputs.from_dict(original.to_dict())
        assert clone == original

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown key 'slack' in bound inputs"):
            BoundInputs.from_dict({"n": 10, "delta": 0.5, "slack": 1.0})


#: bound inputs with every field set and every theorem defined
CONTRACT_INPUTS = st.builds(
    BoundInputs, n=st.integers(1, 10 ** 6), delta=st.floats(1e-300, 0.98),
    empirical_risk=st.floats(0.0, 10.0), omega=st.just(0.0) | st.floats(1e-3, 1e2),
    rho2_C=st.floats(0.0, 1e2), rho2_S=st.floats(1e-3, 1e2), mu=st.floats(1e-3, 1e3),
    gamma=st.floats(1e-3, 1.0), gamma_bar=st.floats(1.0, 1e3), d_N=st.integers(0, 100),
    card_S=st.integers(1, 10 ** 4), d=st.integers(1, 100), p=st.integers(1, 100),
    rad=st.floats(0.0, 1e2),
).filter(lambda i: i.n * i.card_S ** 2 > 1 and 2.0 * i.n * i.rho2_S * i.d > 1.0)


class TestContract:
    """The contract the ``bound_monotonicity`` and ``bound_term_consistency``
    audits hold every theorem and variant of ``THEOREMS`` to."""

    def test_every_input_field_has_a_direction(self):
        assert set(audits.DIRECTIONS) == {f.name for f in dataclasses.fields(BoundInputs)}

    @settings(max_examples=300, deadline=None)
    @given(CONTRACT_INPUTS)
    def test_holds_on_random_valid_inputs(self, inputs):
        assert audits._bound_breaches(inputs) == []

    def test_audits_pass_on_the_table(self):
        assert audits.audit_bound_monotonicity(0) == audits.AuditResult(
            "bound_monotonicity", True, "bounds monotone on all tested grids")
        assert audits.audit_bound_term_consistency(0) == audits.AuditResult(
            "bound_term_consistency", True, "max |value - sum(terms)| 0")

    @pytest.mark.parametrize("theorem_id, complexity, offset, failing, detail", [
        ("grows_in_n", lambda i: 1e-3 * i.n, 0.0, "bound_monotonicity",
         "monotonicity breach: grows_in_n n"),
        ("off_the_sum", lambda i: 0.5, 1e-3, "bound_term_consistency",
         "max |value - sum(terms)| 0.001, sum breach: off_the_sum")],
        ids=["grows_in_n", "off_the_sum"])
    def test_a_broken_theorem_fails_its_audit(self, theorem_id, complexity, offset,
                                              failing, detail, monkeypatch):
        def broken(inputs):
            terms = {"empirical_risk": inputs.empirical_risk,
                     "complexity": complexity(inputs)}
            return BoundReport(theorem_id, math.fsum(terms.values()) + offset, terms, {})

        monkeypatch.setattr(bounds, "THEOREMS", {**THEOREMS, theorem_id: (broken, False)})
        results = {r.name: r for r in (audits.audit_bound_monotonicity(0),
                                       audits.audit_bound_term_consistency(0))}
        assert results.pop(failing) == audits.AuditResult(failing, False, detail)
        assert results.popitem()[1].passed
