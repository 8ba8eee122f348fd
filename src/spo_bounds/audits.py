"""Property-audit battery: every sampled invariant the library certifies,
runnable as one deterministic suite (``spo-bounds verify all``).

Each audit returns a pass/fail result with a deterministic detail string,
so two runs with the same seed produce byte-identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import substream
from .bounds import (BoundInputs, bound_covering, bound_linear_polyhedral,
                     bound_margin, bound_margin_uniform, bound_natarajan,
                     bound_rademacher)
from .complexity import (FiniteHypothesisSet, LabelTable,
                         count_restrictions, linear_class_rad_bound,
                         LinearPredictorClass, massart_bound,
                         natarajan_dim_bruteforce, oracle_label_table,
                         rademacher_multivariate_mc, rademacher_spo_mc)
from .geometry import (CostDomain, DagPathPolytope, LqBall, UnitSimplex,
                       VertexPolytope, dual_norm, dual_norm_rows,
                       verify_optimality_condition, verify_strong_convexity)
from .harness import ExperimentConfig, run_lipschitz_audit
from .losses import (LabeledSample, MarginParams, hard_margin_spo_loss_batch,
                     margin_spo_loss_batch, spo_loss_batch)

TOL = 1e-9
RATIO_TOL = 1e-7


@dataclass
class AuditResult:
    name: str
    passed: bool
    detail: str


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _square() -> VertexPolytope:
    return VertexPolytope([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])


def _region_battery() -> list:
    return [
        LqBall(2.0, 1.0, [0.0, 0.0], mu=1.0),
        LqBall(2.0, 2.0, [0.5, -0.25, 0.0], mu=0.5),
        LqBall(1.5, 1.0, [0.0, 0.0, 0.0]),
        UnitSimplex(4),
        _square(),
        DagPathPolytope.grid(2, 3),
        LqBall.interval(0.5, mu=2.0),
    ]


def _ball_config(dim: int, seed: int, gamma: float = 0.5,
                 q: float = 2.0) -> ExperimentConfig:
    if q == 2.0:
        region = LqBall(2.0, 1.0, np.zeros(dim), mu=1.0)
    else:
        # (q - 1) / radius, certified by the strong-convexity sampler
        region = LqBall(q, 2.0, np.zeros(dim), mu=(q - 1.0) / 2.0)
    return ExperimentConfig(region=region,
                            cost_domain=CostDomain.ball(region, 1.0),
                            b_star=np.zeros((dim, 2)), gamma_grid=[gamma],
                            seed=seed)


# ---------------------------------------------------------------------------
# geometry audits
# ---------------------------------------------------------------------------

def audit_oracle_optimality(seed: int, scale: int = 1) -> AuditResult:
    """c @ w*(c) <= c @ w for sampled costs and feasible points."""
    n_costs = 10_000 // scale
    n_points = 1_000 // scale
    worst = -math.inf
    for r_idx, region in enumerate(_region_battery()):
        rng = substream(seed, 10, r_idx)
        C = rng.standard_normal((n_costs, region.dim)) * 3.0
        if isinstance(region, VertexPolytope):
            W = region.vertices
        elif isinstance(region, UnitSimplex):
            W = np.vstack([region.vertices, region.sample_batch(rng, n_points)])
        elif isinstance(region, DagPathPolytope):
            W = np.vstack([region.path_vectors(), region.sample_batch(rng, n_points)])
        else:
            W = region.sample_batch(rng, n_points)
        opt = (region.linopt_batch(C) * C).sum(axis=1)
        for start in range(0, n_costs, 2048):
            block = slice(start, start + 2048)
            best_feasible = (C[block] @ W.T).min(axis=1)
            worst = max(worst, float((opt[block] - best_feasible).max()))
    return AuditResult("oracle_optimality", worst <= TOL,
                       f"max excess of oracle over sampled feasible points {_fmt(worst)}")


def audit_oracle_lipschitz_like(seed: int, scale: int = 1) -> AuditResult:
    """Oracle moves at most ||c1 - c2||* / (mu * min ||ci||*) in d = 2 and 5;
    the witness attains 1."""
    reports = [run_lipschitz_audit(_ball_config(dim, seed), n_pairs=100_000 // scale)
               for dim in (2, 5)]
    worst = max(report.max_ratio_oracle for report in reports)
    witness = reports[0].witness_ratio
    passed = worst <= 1.0 + RATIO_TOL and abs(witness - 1.0) <= 1e-9
    return AuditResult("oracle_lipschitz_like", passed,
                       f"max ratio {_fmt(worst)} over d=2 and d=5, "
                       f"witness ratio {_fmt(witness)}")


def audit_margin_loss_lipschitz(seed: int, scale: int = 1) -> AuditResult:
    """Margin loss is Lipschitz with constant 5||c||*/(gamma mu), and with the
    sharper constant (||c||*/mu + 2 omega_S(c))/gamma.  On l2 balls the two
    constants coincide; the q = 1.5 ball separates them."""
    l2 = run_lipschitz_audit(_ball_config(3, seed), n_pairs=100_000 // scale)
    lq = run_lipschitz_audit(_ball_config(3, seed, q=1.5),
                             n_pairs=20_000 // scale)
    worst_5 = max(l2.max_ratio_margin, lq.max_ratio_margin)
    worst_sharp = max(l2.max_ratio_margin_sharp, lq.max_ratio_margin_sharp)
    passed = worst_5 <= 1.0 + RATIO_TOL and worst_sharp <= 1.0 + RATIO_TOL
    return AuditResult("margin_loss_lipschitz", passed,
                       f"max ratio {_fmt(worst_5)} (5-constant), "
                       f"{_fmt(worst_sharp)} (sharp constant) over l2 and "
                       f"l1.5 balls")


def audit_gap_bound(seed: int, scale: int = 1) -> AuditResult:
    """omega_S(c) <= 2 ||c||* / mu on strongly convex regions, with equality
    on centered l2 balls."""
    rng = substream(seed, 11)
    worst_excess = -math.inf
    worst_equality = 0.0
    for radius, dim in ((1.0, 2), (0.5, 1), (2.0, 4)):
        region = LqBall(2.0, radius, np.zeros(dim), mu=1.0 / radius)
        C = rng.standard_normal((2_000 // scale + 2, dim))
        gaps = region.gap_batch(C)
        cap = 2.0 * dual_norm_rows(C, 2.0) / region.mu
        worst_excess = max(worst_excess, float((gaps - cap).max()))
        worst_equality = max(worst_equality, float(np.abs(gaps - cap).max()))
    passed = worst_excess <= TOL and worst_equality <= TOL
    return AuditResult("gap_bound", passed,
                       f"max excess over 2||c||*/mu {_fmt(worst_excess)}, "
                       f"max equality error on centered balls {_fmt(worst_equality)}")


def audit_strong_convexity(seed: int, scale: int = 1) -> AuditResult:
    n = 10_000 // scale
    interval = verify_strong_convexity(LqBall.interval(0.5), 2.0, n, seed)
    unit = verify_strong_convexity(LqBall(2.0, 1.0, [0.0, 0.0]), 1.0, n, seed)
    overstated = verify_strong_convexity(LqBall(2.0, 1.0, [0.0, 0.0]), 10.0, n, seed)
    # recompute the witness's breach from its recorded chord and direction
    w1, w2, lam, u = (np.asarray(overstated.witness[k])
                      for k in ("w1", "w2", "lam", "u"))
    z = (lam * w1 + (1 - lam) * w2
         + 5.0 * lam * (1 - lam) * np.linalg.norm(w1 - w2) ** 2 * u)
    breach = float(np.linalg.norm(z)) - 1.0
    passed = (interval.ok and unit.ok and not overstated.ok
              and abs(breach - overstated.max_violation) <= TOL)
    return AuditResult(
        "strong_convexity", passed,
        f"interval mu=2 violations {interval.violations}, unit ball mu=1 "
        f"violations {unit.violations}, overstated mu=10 violations "
        f"{overstated.violations} (witness breach {_fmt(breach)} recomputed)")


def audit_optimality_condition(seed: int, scale: int = 1) -> AuditResult:
    n = 10_000 // scale
    region = LqBall(2.0, 1.0, [0.0, 0.0], mu=1.0)
    reports = [verify_optimality_condition(region, c, n, seed)
               for c in ([1.0, 0.0], [0.6, -0.8])]
    # hand equality case: w = (0, 1) makes both sides equal 1
    c = np.array([1.0, 0.0])
    wbar = region.linopt(c)
    w = np.array([0.0, 1.0])
    lhs = float(c @ (w - wbar))
    rhs = 0.5 * region.mu * dual_norm(c, 2.0) * float(np.sum((w - wbar) ** 2))
    passed = (all(r.ok for r in reports) and abs(lhs - rhs) <= TOL
              and abs(lhs - 1.0) <= TOL)
    return AuditResult("optimality_condition", passed,
                       f"violations {sum(r.violations for r in reports)} over "
                       f"costs (1, 0) and (0.6, -0.8), hand equality case "
                       f"lhs {_fmt(lhs)} rhs {_fmt(rhs)}")


# ---------------------------------------------------------------------------
# loss audits
# ---------------------------------------------------------------------------

def _random_cost_pairs(rng: np.random.Generator, dim: int, n: int):
    scale = np.exp(rng.uniform(math.log(0.05), math.log(3.0), (n, 1)))
    C_hat = rng.standard_normal((n, dim)) * scale
    C = rng.standard_normal((n, dim))
    return C_hat, C


def audit_loss_ordering(seed: int, scale: int = 1) -> AuditResult:
    """spo <= margin <= hard <= omega_S(c), and margin non-decreasing in gamma."""
    n = 10_000 // scale
    gammas = np.linspace(0.1, 2.0, 10)
    worst = -math.inf
    worst_mono = -math.inf
    for r_idx, region in enumerate(_region_battery()):
        rng = substream(seed, 12, r_idx)
        C_hat, C = _random_cost_pairs(rng, region.dim, n)
        spo = spo_loss_batch(region, C_hat, C)
        gap = region.gap_batch(C)
        prev = None
        for gamma in gammas:
            params = MarginParams(gamma=float(gamma))
            margin = margin_spo_loss_batch(region, C_hat, C, params)
            hard = hard_margin_spo_loss_batch(region, C_hat, C, params)
            worst = max(worst, float((spo - margin).max()),
                        float((margin - hard).max()), float((hard - gap).max()))
            if prev is not None:
                worst_mono = max(worst_mono, float((prev - margin).max()))
            prev = margin
    passed = worst <= TOL and worst_mono <= TOL
    return AuditResult("loss_ordering", passed,
                       f"max chain breach {_fmt(worst)}, max gamma-monotonicity "
                       f"breach {_fmt(worst_mono)}")


def audit_binary_equivalence(seed: int, scale: int = 1) -> AuditResult:
    """On the interval with costs +-1 the base loss is the 0-1 loss and the
    margin loss is the ramp loss, exactly."""
    n = 10_000 // scale
    rng = substream(seed, 13)
    region = LqBall.interval(0.5, mu=2.0)
    domain = CostDomain.enumerated(region, [[-1.0], [1.0]])
    gamma = 0.5
    c_hat = rng.uniform(-2.0, 2.0, (n, 1))
    c_hat = c_hat[np.abs(c_hat[:, 0]) > 1e-12]
    c = rng.choice([-1.0, 1.0], size=(c_hat.shape[0], 1))
    spo = spo_loss_batch(region, c_hat, c)
    zero_one = (c[:, 0] * c_hat[:, 0] < 0).astype(float)
    margin = margin_spo_loss_batch(region, c_hat, c, MarginParams(gamma=gamma))
    ramp = np.clip(1.0 - c[:, 0] * c_hat[:, 0] / gamma, 0.0, 1.0)
    err_01 = float(np.abs(spo - zero_one).max())
    err_ramp = float(np.abs(margin - ramp).max())
    anchors = (domain.omega == 1.0 and domain.rho2 == 1.0 and region.mu == 2.0)
    passed = err_01 <= 1e-12 and err_ramp <= 1e-12 and anchors
    return AuditResult("binary_equivalence", passed,
                       f"max |spo - zero_one| {_fmt(err_01)}, max |margin - ramp| "
                       f"{_fmt(err_ramp)}, omega={_fmt(domain.omega)} "
                       f"rho2={_fmt(domain.rho2)} mu={_fmt(region.mu)}")


def audit_multiclass_equivalence(seed: int, scale: int = 1) -> AuditResult:
    """On the simplex with costs {-e_i} the base loss is the argmax-mismatch
    indicator (ties broken toward the lowest index)."""
    n = 10_000 // scale
    rng = substream(seed, 14)
    d = 4
    region = UnitSimplex(d)
    c_hat = rng.standard_normal((n, d))
    labels = rng.integers(0, d, n)
    C = -np.eye(d)[labels]
    spo = spo_loss_batch(region, c_hat, C)
    predicted = np.argmin(c_hat, axis=1)
    indicator = (predicted != labels).astype(float)
    err = float(np.abs(spo - indicator).max())
    in_01 = bool(np.all((spo == 0.0) | (spo == 1.0)))
    return AuditResult("multiclass_equivalence", err <= 1e-12 and in_01,
                       f"max |spo - mismatch indicator| {_fmt(err)}")


# ---------------------------------------------------------------------------
# DAG audits
# ---------------------------------------------------------------------------

def _small_dags() -> list[DagPathPolytope]:
    diamond = DagPathPolytope(4, [(0, 1), (0, 2), (1, 3), (2, 3)], 0, 3)
    skip = DagPathPolytope(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4), (1, 4)], 0, 4)
    return [DagPathPolytope.grid(2, 2), DagPathPolytope.grid(2, 3), diamond, skip]


def audit_dag_enumeration(seed: int, scale: int = 1) -> AuditResult:
    """DAG oracle and extreme-point count agree with exhaustive enumeration."""
    rng = substream(seed, 15)
    worst = -math.inf
    counts_ok = True
    for dag in _small_dags():
        paths = dag.enumerate_paths()
        counts_ok = counts_ok and len(paths) == dag.extreme_point_count()
        C = rng.standard_normal((200 // scale + 1, dag.dim))
        oracle = (dag.linopt_batch(C) * C).sum(axis=1)
        brute = (C @ dag.path_vectors().T).min(axis=1)
        worst = max(worst, float(np.abs(oracle - brute).max()))
    passed = worst <= 1e-12 and counts_ok
    return AuditResult("dag_enumeration", passed,
                       f"max |oracle - brute force| {_fmt(worst)}, path counts "
                       f"match: {counts_ok}")


# ---------------------------------------------------------------------------
# complexity audits
# ---------------------------------------------------------------------------

def audit_massart_domination(seed: int, scale: int = 1) -> AuditResult:
    """MC Rademacher estimate of the loss class is at most the finite-class
    bound through the restriction count, up to 3 standard errors."""
    worst_excess = -math.inf
    for case in range(20):
        rng = substream(seed, 16, case)
        region = [UnitSimplex(2), UnitSimplex(3), _square()][case % 3]
        d = region.dim
        n = int(rng.integers(2, 6))
        p = int(rng.integers(1, 3))
        H = int(rng.integers(2, 7))
        hyp = FiniteHypothesisSet.from_matrices(rng.standard_normal((H, d, p)))
        xs = rng.standard_normal((n, p))
        cs = rng.standard_normal((n, d))
        sample = LabeledSample(xs=xs, cs=cs)
        domain = CostDomain.enumerated(region, cs)
        est, se = rademacher_spo_mc(region, hyp, sample,
                                    m_draws=2000 // scale, seed=seed + case)
        cap = massart_bound(count_restrictions(region, hyp, xs), n, domain.omega)
        worst_excess = max(worst_excess, est - (cap + 3.0 * se))
    return AuditResult("massart_domination", worst_excess <= 0.0,
                       f"max estimate minus (bound + 3se) {_fmt(worst_excess)}")


def audit_frobenius_domination(seed: int, scale: int = 1) -> AuditResult:
    """MC multivariate Rademacher estimate over Frobenius-bounded linear
    hypotheses is at most the closed-form bound, up to 3 standard errors."""
    worst_excess = -math.inf
    beta = 1.5
    for d in (2, 5):
        for p in (2, 5):
            for n in (50, 400):
                rng = substream(seed, 18, d, p, n)
                mats = rng.standard_normal((50, d, p))
                norms = np.linalg.norm(mats.reshape(50, -1), axis=1)
                mats *= (beta * rng.random(50) ** 0.5 / norms)[:, None, None]
                hyp = FiniteHypothesisSet.from_matrices(mats)
                xs = rng.standard_normal((n, p))
                xs /= np.linalg.norm(xs, axis=1)[:, None]
                est, se = rademacher_multivariate_mc(hyp, xs,
                                                     m_draws=2000 // scale,
                                                     seed=seed + d + p + n)
                cap = linear_class_rad_bound(
                    LinearPredictorClass("frobenius", beta, d, p), 1.0, n)
                worst_excess = max(worst_excess, est - (cap + 3.0 * se))
    return AuditResult("frobenius_domination", worst_excess <= 0.0,
                       f"max estimate minus (bound + 3se) {_fmt(worst_excess)}")


def audit_natarajan_linear_cap(seed: int, scale: int = 1) -> AuditResult:
    """Brute-force Natarajan dimension of oracle-composed linear classes is
    at most d*p; the full table on two points has dimension exactly 2."""
    results = []
    grid = np.linspace(-1.0, 1.0, 5)
    # p = 1, d = 2 on the simplex
    hyp = FiniteHypothesisSet.from_matrices(
        [np.array([[a], [b]]) for a in grid for b in grid])
    xs = np.array([[-1.0], [-0.5], [0.5], [1.0]])
    dim = natarajan_dim_bruteforce(oracle_label_table(UnitSimplex(2), hyp, xs))
    results.append(("simplex_d2_p1", dim, 2))
    # p = 2, d = 2 on the square
    small = np.linspace(-1.0, 1.0, 3)
    hyp2 = FiniteHypothesisSet.from_matrices(
        [np.array([[a, b], [c, e]]) for a in small for b in small
         for c in small for e in small])
    rng = substream(seed, 19)
    xs2 = rng.standard_normal((5, 2))
    dim2 = natarajan_dim_bruteforce(oracle_label_table(_square(), hyp2, xs2))
    results.append(("square_d2_p2", dim2, 4))
    # p = 2, d = 2 on the simplex
    xs3 = rng.standard_normal((5, 2))
    dim3 = natarajan_dim_bruteforce(oracle_label_table(UnitSimplex(2), hyp2, xs3))
    results.append(("simplex_d2_p2", dim3, 4))
    full = natarajan_dim_bruteforce(LabelTable(np.array([[1, 1, 2, 2],
                                                         [1, 2, 1, 2]])))
    passed = all(dim <= cap for _, dim, cap in results) and full == 2
    detail = ", ".join(f"{name} dim {dim} <= {cap}" for name, dim, cap in results)
    return AuditResult("natarajan_linear_cap", passed,
                       f"{detail}, full two-point table dim {full}")


def audit_estimator_determinism(seed: int, scale: int = 1) -> AuditResult:
    """Same seed gives identical estimates; adding hypotheses never lowers
    either estimate at a fixed seed."""
    rng = substream(seed, 20)
    region = UnitSimplex(3)
    hyp = FiniteHypothesisSet.from_matrices(rng.standard_normal((6, 3, 2)))
    sample = LabeledSample(xs=rng.standard_normal((8, 2)),
                           cs=rng.standard_normal((8, 3)))
    a1 = rademacher_spo_mc(region, hyp, sample, m_draws=500, seed=seed)
    a2 = rademacher_spo_mc(region, hyp, sample, m_draws=500, seed=seed)
    b1 = rademacher_multivariate_mc(hyp, sample.xs, m_draws=500, seed=seed)
    b2 = rademacher_multivariate_mc(hyp, sample.xs, m_draws=500, seed=seed)
    sub = hyp.subset(range(3))
    a_sub = rademacher_spo_mc(region, sub, sample, m_draws=500, seed=seed)
    b_sub = rademacher_multivariate_mc(sub, sample.xs, m_draws=500, seed=seed)
    passed = (a1 == a2 and b1 == b2 and a_sub[0] <= a1[0] + 1e-15
              and b_sub[0] <= b1[0] + 1e-15)
    return AuditResult("estimator_determinism", passed,
                       f"rad-spo {_fmt(a1[0])} reproducible, rad-multi "
                       f"{_fmt(b1[0])} reproducible, subset estimates not larger")


# ---------------------------------------------------------------------------
# bound audits
# ---------------------------------------------------------------------------

def audit_bound_anchors(seed: int, scale: int = 1) -> AuditResult:
    anchor = bound_natarajan(BoundInputs(n=100, delta=0.05, omega=1.0,
                                         d_N=2, card_S=3)).value
    expected = (2.0 * math.sqrt(4.0 * math.log(900.0) / 100.0)
                + math.sqrt(math.log(20.0) / 200.0))
    cross = bound_linear_polyhedral(
        BoundInputs(n=100, delta=0.05, omega=1.0, card_S=3, d=2, p=3))
    cross_ref = bound_natarajan(
        BoundInputs(n=100, delta=0.05, omega=1.0, card_S=3, d_N=6))
    same = cross.value == cross_ref.value and cross.terms == cross_ref.terms
    uni = bound_margin_uniform(BoundInputs(n=400, delta=0.05, omega=1.0,
                                           rho2_C=1.0, mu=2.0, gamma=0.5,
                                           gamma_bar=0.5, rad=0.05))
    fixed = bound_margin(BoundInputs(n=400, delta=0.05, omega=1.0, rho2_C=1.0,
                                     mu=2.0, gamma=0.5, rad=0.05))
    passed = (abs(anchor - expected) <= 1e-14 and abs(anchor - 1.1656) <= 5e-4
              and same and uni.terms["uniformity"] == 0.0
              and uni.value >= fixed.value)
    return AuditResult("bound_anchors", passed,
                       f"natarajan anchor {_fmt(anchor)} (expected {_fmt(expected)}), "
                       f"linear_polyhedral equals natarajan(d_N=dp): {same}, "
                       f"uniformity term at gamma=gamma_bar {_fmt(uni.terms['uniformity'])}")


def audit_bound_monotonicity(seed: int, scale: int = 1) -> AuditResult:
    """Bounds shrink with n and grow with omega, 1/delta, d_N, |S| and 1/gamma."""
    base = dict(delta=0.05, omega=1.0, d_N=3, card_S=4)
    ok = True
    ns = [50, 100, 200, 400, 800, 1600]
    vals = [bound_natarajan(BoundInputs(n=n, **base)).value for n in ns]
    ok &= all(a >= b for a, b in zip(vals, vals[1:]))
    for name, grid in (("omega", [0.5, 1.0, 2.0, 4.0]),
                       ("d_N", [0, 1, 2, 4, 8]),
                       ("card_S", [2, 3, 5, 9])):
        vals = [bound_natarajan(BoundInputs(n=200, **{**base, name: v})).value
                for v in grid]
        ok &= all(a <= b for a, b in zip(vals, vals[1:]))
    vals = [bound_natarajan(BoundInputs(n=200, **{**base, "delta": v})).value
            for v in [0.2, 0.1, 0.05, 0.01]]
    ok &= all(a <= b for a, b in zip(vals, vals[1:]))
    margin_base = dict(n=200, delta=0.05, omega=1.0, rho2_C=1.0, mu=1.0, rad=0.1)
    vals = [bound_margin(BoundInputs(gamma=g, **margin_base)).value
            for g in [1.0, 0.5, 0.25, 0.1]]
    ok &= all(a <= b for a, b in zip(vals, vals[1:]))
    cov_base = dict(delta=0.05, omega=1.0, rho2_C=1.0, rho2_S=1.0, d=2, p=3)
    vals = [bound_covering(BoundInputs(n=n, **cov_base)).value for n in ns]
    ok &= all(a >= b for a, b in zip(vals, vals[1:]))
    return AuditResult("bound_monotonicity", bool(ok),
                       "bounds monotone on all tested grids" if ok
                       else "monotonicity breach on a tested grid")


def audit_bound_term_consistency(seed: int, scale: int = 1) -> AuditResult:
    """Every report's terms are non-negative, sum to its value to 1e-12, and
    its value is at least the empirical-risk term."""
    reports = [
        bound_rademacher(BoundInputs(n=100, delta=0.05, empirical_risk=0.2,
                                     omega=1.0, rad=0.1), "expected"),
        bound_rademacher(BoundInputs(n=100, delta=0.05, empirical_risk=0.2,
                                     omega=1.0, rad=0.1), "empirical"),
        bound_natarajan(BoundInputs(n=100, delta=0.05, empirical_risk=0.1,
                                    omega=2.0, d_N=4, card_S=6)),
        bound_covering(BoundInputs(n=1000, delta=0.05, empirical_risk=0.3,
                                   omega=2.0, rho2_C=1.0, rho2_S=1.0, d=2, p=3)),
        bound_margin(BoundInputs(n=400, delta=0.05, empirical_risk=0.15,
                                 omega=1.0, rho2_C=1.0, mu=2.0, gamma=0.5,
                                 rad=0.05), "empirical"),
        bound_margin_uniform(BoundInputs(n=400, delta=0.1, empirical_risk=0.15,
                                         omega=1.0, rho2_C=1.0, mu=2.0,
                                         gamma=0.25, gamma_bar=1.0, rad=0.05),
                             "empirical"),
    ]
    worst = max(abs(r.value - math.fsum(r.terms.values())) for r in reports)
    non_negative = all(v >= 0.0 for r in reports for v in r.terms.values())
    dominates = all(r.value >= r.terms["empirical_risk"] for r in reports)
    passed = worst <= 1e-12 and non_negative and dominates
    return AuditResult("bound_term_consistency", passed,
                       f"max |value - sum(terms)| {_fmt(worst)}")


AUDITS = (
    audit_oracle_optimality,
    audit_oracle_lipschitz_like,
    audit_margin_loss_lipschitz,
    audit_gap_bound,
    audit_strong_convexity,
    audit_optimality_condition,
    audit_loss_ordering,
    audit_binary_equivalence,
    audit_multiclass_equivalence,
    audit_dag_enumeration,
    audit_massart_domination,
    audit_frobenius_domination,
    audit_natarajan_linear_cap,
    audit_estimator_determinism,
    audit_bound_anchors,
    audit_bound_monotonicity,
    audit_bound_term_consistency,
)


def run_all_audits(seed: int, fast: bool = False) -> list[AuditResult]:
    scale = 10 if fast else 1
    return [audit(seed, scale) for audit in AUDITS]


def render_report(results: list[AuditResult], seed: int) -> str:
    lines = [f"property audit suite (seed {seed})"]
    for res in results:
        lines.append(f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail}")
    failures = sum(not r.passed for r in results)
    lines.append(f"{len(results) - failures}/{len(results)} audits passed")
    return "\n".join(lines) + "\n"
