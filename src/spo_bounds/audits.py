"""Property-audit battery: every sampled invariant the library certifies,
runnable as one deterministic suite (``spo-bounds verify all``).

Each audit returns a pass/fail result with a deterministic detail string,
so two runs with the same seed produce byte-identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import bounds
from ._rng import substream
from .bounds import (_COUNTS, BoundInputs, bound_covering,
                     bound_linear_polyhedral, bound_margin, bound_margin_uniform,
                     bound_natarajan, bound_rademacher)
from .complexity import (FiniteHypothesisSet, count_restrictions,
                         linear_class_rad_bound, massart_bound,
                         natarajan_dim_bruteforce, oracle_label_table,
                         rademacher_multivariate_mc, rademacher_spo_mc)
from .geometry import (CostDomain, DagPathPolytope, FeasibleRegion, LqBall,
                       UnitSimplex, VertexPolytope, dual_norm_rows,
                       vector_norm_rows,
                       verify_optimality_condition, verify_strong_convexity)
from .losses import (LabeledSample, hard_margin_spo_loss_batch, margin_mix,
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


def _ball(dim: int, q: float = 2.0) -> LqBall:
    if q == 2.0:
        return LqBall(2.0, 1.0, np.zeros(dim), mu=1.0)
    # (q - 1) / radius, certified by the strong-convexity sampler
    return LqBall(q, 2.0, np.zeros(dim), mu=(q - 1.0) / 2.0)


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
            W = np.vstack([_dag_path_vectors(region), region.sample_batch(rng, n_points)])
        else:
            W = region.sample_batch(rng, n_points)
        opt = (region.linopt_batch(C) * C).sum(axis=1)
        for start in range(0, n_costs, 2048):
            block = slice(start, start + 2048)
            best_feasible = (C[block] @ W.T).min(axis=1)
            worst = max(worst, float((opt[block] - best_feasible).max()))
    return AuditResult("oracle_optimality", worst <= TOL,
                       f"max excess of oracle over sampled feasible points {_fmt(worst)}")


def _log_uniform(rng: np.random.Generator, lo: float, hi: float, size: int) -> np.ndarray:
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def _sample_costs(rng: np.random.Generator, n_pairs: int, d: int,
                  lo: float, hi: float) -> np.ndarray:
    """Cost rows with uniform directions and log-uniform l2 norms in [lo, hi]."""
    G = rng.standard_normal((n_pairs, d))
    norms = vector_norm_rows(G, 2.0)
    norms[norms == 0] = 1.0
    return G / norms[:, None] * _log_uniform(rng, lo, hi, n_pairs)[:, None]


def _oracle_ratios(region: FeasibleRegion, seed: int,
                   n_pairs: int) -> tuple[float, float | None]:
    """Worst sampled ratio of ``||w*(c1) - w*(c2)|| * mu * min ||ci||*`` to
    ``||c1 - c2||*`` (at most 1 on a mu-strongly convex region), and the
    ratio at ``c1 = e1, c2 = e2``, which attains 1 on l2 balls (None
    elsewhere).  The two cost batches are the first draws of stream
    ``(seed, 3)``; pairs with no difference are skipped."""
    mu, q, d = region.mu, region.norm_exponent, region.dim
    rng = substream(seed, 3)
    C1 = _sample_costs(rng, n_pairs, d, 0.01, 10.0)
    C2 = _sample_costs(rng, n_pairs, d, 0.01, 10.0)
    diff_star = dual_norm_rows(C1 - C2, q)
    keep = diff_star > 1e-12
    w_dist = vector_norm_rows(region.linopt_batch(C1) - region.linopt_batch(C2), q)
    min_star = np.minimum(dual_norm_rows(C1, q), dual_norm_rows(C2, q))
    ratio = (w_dist[keep] * mu * min_star[keep]) / diff_star[keep]

    witness = None
    if d >= 2 and q == 2.0:
        e1, e2 = np.zeros(d), np.zeros(d)
        e1[0] = 1.0
        e2[1] = 1.0
        lhs = vector_norm_rows((region.linopt(e1) - region.linopt(e2))[None, :], q)[0]
        witness = float(lhs * mu * 1.0 / dual_norm_rows((e1 - e2)[None, :], q)[0])
    return float(ratio.max()), witness


def _margin_ratios(region: FeasibleRegion, gamma: float, seed: int,
                   n_pairs: int) -> tuple[float, float]:
    """Worst sampled ratios of ``|l(c_hat1, c) - l(c_hat2, c)|`` for the
    margin loss to ``L * ||c_hat1 - c_hat2||*``, with L the 5-constant
    ``5||c||*/(gamma mu)`` and the sharp ``(||c||*/mu + 2 omega_S(c))/gamma``.
    Its cost batches follow ``_oracle_ratios``'s two on stream ``(seed, 3)``,
    so the stream is advanced past those by the same generator calls, left
    unnormalized."""
    mu, q, d = region.mu, region.norm_exponent, region.dim
    rng = substream(seed, 3)
    for _ in range(2):
        rng.standard_normal((n_pairs, d))
        _log_uniform(rng, 0.01, 10.0, n_pairs)
    CH1 = _sample_costs(rng, n_pairs, d, 0.01 * gamma, 3.0 * gamma)
    CH2 = _sample_costs(rng, n_pairs, d, 0.01 * gamma, 3.0 * gamma)
    C = _sample_costs(rng, n_pairs, d, 0.1, 3.0)
    lhs = np.abs(margin_spo_loss_batch(region, CH1, C, gamma)
                 - margin_spo_loss_batch(region, CH2, C, gamma))
    step = dual_norm_rows(CH1 - CH2, q)
    keep = step > 1e-12
    c_star = dual_norm_rows(C, q)
    lipschitz_5 = 5.0 * c_star / (gamma * mu)
    lipschitz_sharp = (c_star / mu + 2.0 * region.gap_batch(C)) / gamma
    return (float((lhs[keep] / (lipschitz_5[keep] * step[keep])).max()),
            float((lhs[keep] / (lipschitz_sharp[keep] * step[keep])).max()))


def audit_oracle_lipschitz_like(seed: int, scale: int = 1) -> AuditResult:
    """Oracle moves at most ||c1 - c2||* / (mu * min ||ci||*) in d = 2 and 5;
    the witness attains 1."""
    worst_2, witness = _oracle_ratios(_ball(2), seed, 100_000 // scale)
    worst_5, _ = _oracle_ratios(_ball(5), seed, 100_000 // scale)
    worst = max(worst_2, worst_5)
    passed = worst <= 1.0 + RATIO_TOL and abs(witness - 1.0) <= 1e-9
    return AuditResult("oracle_lipschitz_like", passed,
                       f"max ratio {_fmt(worst)} over d=2 and d=5, "
                       f"witness ratio {_fmt(witness)}")


def audit_margin_loss_lipschitz(seed: int, scale: int = 1) -> AuditResult:
    """Margin loss is Lipschitz with constant 5||c||*/(gamma mu), and with the
    sharper constant (||c||*/mu + 2 omega_S(c))/gamma, at gamma = 0.5.  On
    l2 balls the two constants coincide; the q = 1.5 ball separates them."""
    l2_5, l2_sharp = _margin_ratios(_ball(3), 0.5, seed, 100_000 // scale)
    lq_5, lq_sharp = _margin_ratios(_ball(3, q=1.5), 0.5, seed, 20_000 // scale)
    worst_5, worst_sharp = max(l2_5, lq_5), max(l2_sharp, lq_sharp)
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
    c_star = float(dual_norm_rows(c[None], 2.0)[0])
    rhs = 0.5 * region.mu * c_star * float(np.sum((w - wbar) ** 2))
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
    """spo <= margin <= hard <= omega_S(c), and margin non-decreasing in gamma.

    The losses at every gamma are mixed from parts solved once per region;
    at the first and last gamma the public margin kernels must reproduce
    the mixed losses bit for bit."""
    n = 10_000 // scale
    worst = -math.inf
    worst_mono = -math.inf
    kernels_match = True
    gammas = [float(gamma) for gamma in np.linspace(0.1, 2.0, 10)]
    for r_idx, region in enumerate(_region_battery()):
        rng = substream(seed, 12, r_idx)
        C_hat, C = _random_cost_pairs(rng, region.dim, n)
        spo = spo_loss_batch(region, C_hat, C)
        gap = region.gap_batch(C)
        norms = dual_norm_rows(C_hat, region.norm_exponent)
        prev = None
        for k, gamma in enumerate(gammas):
            margin = margin_mix(spo, gap, norms, gamma)
            hard = np.where(norms > gamma, spo, gap)
            if k in (0, len(gammas) - 1):
                kernels_match = (
                    kernels_match
                    and np.array_equal(margin_spo_loss_batch(region, C_hat, C, gamma), margin)
                    and np.array_equal(hard_margin_spo_loss_batch(region, C_hat, C, gamma), hard))
            worst = max(worst, float((spo - margin).max()),
                        float((margin - hard).max()), float((hard - gap).max()))
            if prev is not None:
                worst_mono = max(worst_mono, float((prev - margin).max()))
            prev = margin
    passed = worst <= TOL and worst_mono <= TOL and kernels_match
    detail = (f"max chain breach {_fmt(worst)}, max gamma-monotonicity "
              f"breach {_fmt(worst_mono)}")
    if not kernels_match:
        detail += ", margin kernels differ from their mixed parts"
    return AuditResult("loss_ordering", passed, detail)


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
    margin = margin_spo_loss_batch(region, c_hat, c, gamma)
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

def _dag_path_vectors(dag: DagPathPolytope) -> np.ndarray:
    """The arc-incidence vectors of every source->sink path, one row per
    path in lexicographic arc-index order: the brute-force reference of the
    DAG audits, for DAGs of few paths."""
    paths: list[list[int]] = []

    def extend(v: int, prefix: list[int]) -> None:
        if v == dag.sink:
            paths.append(list(prefix))
            return
        for idx, h in dag._out[v]:
            prefix.append(idx)
            extend(h, prefix)
            prefix.pop()

    extend(dag.source, [])
    V = np.zeros((len(paths), dag.dim))
    for row, path in zip(V, paths):
        row[path] = 1.0
    return V


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
        paths = _dag_path_vectors(dag)
        counts_ok = counts_ok and len(paths) == dag.extreme_point_count()
        C = rng.standard_normal((200 // scale + 1, dag.dim))
        oracle = (dag.linopt_batch(C) * C).sum(axis=1)
        brute = (C @ paths.T).min(axis=1)
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
        hyp = FiniteHypothesisSet(rng.standard_normal((H, d, p)))
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
                norms = vector_norm_rows(mats.reshape(50, -1), 2.0)
                mats *= (beta * rng.random(50) ** 0.5 / norms)[:, None, None]
                hyp = FiniteHypothesisSet(mats)
                xs = rng.standard_normal((n, p))
                xs /= vector_norm_rows(xs, 2.0)[:, None]
                est, se = rademacher_multivariate_mc(hyp, xs,
                                                     m_draws=2000 // scale,
                                                     seed=seed + d + p + n)
                cap = linear_class_rad_bound("frobenius", beta, d, p, 1.0, n)
                worst_excess = max(worst_excess, est - (cap + 3.0 * se))
    return AuditResult("frobenius_domination", worst_excess <= 0.0,
                       f"max estimate minus (bound + 3se) {_fmt(worst_excess)}")


def audit_natarajan_linear_cap(seed: int, scale: int = 1) -> AuditResult:
    """Brute-force Natarajan dimension of oracle-composed linear classes is
    at most d*p; the full table on two points has dimension exactly 2."""
    results = []
    grid = np.linspace(-1.0, 1.0, 5)
    # p = 1, d = 2 on the simplex
    hyp = FiniteHypothesisSet(
        [np.array([[a], [b]]) for a in grid for b in grid])
    xs = np.array([[-1.0], [-0.5], [0.5], [1.0]])
    dim = natarajan_dim_bruteforce(oracle_label_table(UnitSimplex(2), hyp, xs))
    results.append(("simplex_d2_p1", dim, 2))
    # p = 2, d = 2 on the square
    small = np.linspace(-1.0, 1.0, 3)
    hyp2 = FiniteHypothesisSet(
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
    full = natarajan_dim_bruteforce(np.array([[1, 1, 2, 2], [1, 2, 1, 2]]))
    passed = all(dim <= cap for _, dim, cap in results) and full == 2
    detail = ", ".join(f"{name} dim {dim} <= {cap}" for name, dim, cap in results)
    return AuditResult("natarajan_linear_cap", passed,
                       f"{detail}, full two-point table dim {full}")


def audit_estimator_determinism(seed: int, scale: int = 1) -> AuditResult:
    """Same seed gives identical estimates; adding hypotheses never lowers
    either estimate at a fixed seed."""
    rng = substream(seed, 20)
    region = UnitSimplex(3)
    hyp = FiniteHypothesisSet(rng.standard_normal((6, 3, 2)))
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
    # each theorem's value against its formula, written out by hand
    root = math.sqrt(6.0 * math.log(400.0) / 100.0)
    exact = {
        "covering": (bound_covering(BoundInputs(n=100, delta=0.05, omega=1.0, rho2_C=1.0,
                                                rho2_S=1.0, d=2, p=3)).value,
                     8.0 * root + 3.0 * math.sqrt(math.log(40.0) / 200.0)
                     + 0.04 * (1.0 + 4.0 * root)),
        "margin": (fixed.value,
                   0.5 * math.sqrt(2.0) + 3.0 * math.sqrt(math.log(40.0) / 800.0)),
        "margin_uniform": (bound_margin_uniform(BoundInputs(
            n=400, delta=0.05, omega=1.0, rho2_C=1.0, mu=2.0, gamma=0.25,
            gamma_bar=1.0, rad=0.05)).value,
            2.0 * math.sqrt(2.0) + math.sqrt(math.log(3.0) / 400.0)
            + 3.0 * math.sqrt(math.log(80.0) / 800.0)),
        "rademacher": (bound_rademacher(BoundInputs(n=100, delta=0.05, empirical_risk=0.2,
                                                    omega=1.0, rad=0.1)).value,
                       0.4 + 3.0 * math.sqrt(math.log(40.0) / 200.0)),
    }
    off = [name for name, (got, want) in exact.items()
           if not math.isclose(got, want, rel_tol=1e-14)]
    passed = (abs(anchor - expected) <= 1e-14 and abs(anchor - 1.1656) <= 5e-4
              and same and uni.terms["uniformity"] == 0.0
              and uni.value >= fixed.value and not off)
    return AuditResult("bound_anchors", passed,
                       f"natarajan anchor {_fmt(anchor)} (expected {_fmt(expected)}), "
                       f"linear_polyhedral equals natarajan(d_N=dp): {same}, "
                       f"uniformity term at gamma=gamma_bar {_fmt(uni.terms['uniformity'])}, "
                       f"covering/margin/margin_uniform/rademacher anchors off: "
                       f"{', '.join(off) or 'none'}")


#: +1 where a larger input must not lower a bound, -1 where a smaller one
#: must not (n only while n * card_S**2 and 2 * n * rho2_S * d stay >= e)
DIRECTIONS = {"n": -1, "delta": -1, "empirical_risk": 1, "omega": 1, "rho2_C": 1,
              "rho2_S": 1, "mu": -1, "gamma": -1, "gamma_bar": 1, "d_N": 1,
              "card_S": 1, "d": 1, "p": 1, "rad": 1}
_CONTRACT_INPUTS = BoundInputs(n=200, delta=0.05, empirical_risk=0.1, omega=1.5,
                               rho2_C=1.0, rho2_S=1.0, mu=1.0, gamma=0.5,
                               gamma_bar=1.0, d_N=2, card_S=4, d=2, p=3, rad=0.1)


def _bound_breaches(inputs: BoundInputs) -> list[tuple[str, str, float]]:
    """The (check, where, size) breaches at ``inputs`` (every field set) of the
    contract of each ``bounds.evaluate_all`` report: value == fsum(terms)
    ("sum") >= R_hat ("risk"), no term < 0 or NaN ("term"), and no one-field
    step along DIRECTIONS (a count +-1, else x2 or /2) lowers it ("monotone")."""
    base = bounds.evaluate_all(inputs)
    names = [f"{r.theorem_id} {r.inputs.get('variant', '')}".rstrip() for r in base]
    breaches = []
    for where, report in zip(names, base):
        gap = abs(report.value - math.fsum(report.terms.values()))
        if not gap == 0:
            breaches.append(("sum", where, gap))
        if not report.value >= inputs.empirical_risk:
            breaches.append(("risk", where, inputs.empirical_risk - report.value))
        breaches += [("term", f"{where} {term}", val)
                     for term, val in report.terms.items() if not val >= 0]
    for name, sign in DIRECTIONS.items():
        val = getattr(inputs, name)
        val = val + sign if name in _COUNTS else val * 2.0 ** sign
        if name == "n" and min(val * inputs.card_S ** 2,
                               2.0 * val * inputs.rho2_S * inputs.d) < math.e:
            continue
        moved = bounds.evaluate_all(replace(inputs, **{name: val}))
        breaches += [("monotone", f"{where} {name}", a.value - b.value)
                     for where, a, b in zip(names, base, moved, strict=True)
                     if not b.value >= a.value]
    return breaches


def audit_bound_monotonicity(seed: int, scale: int = 1) -> AuditResult:
    """No bound falls when one input moves a step in its DIRECTIONS entry."""
    breaches = [w for c, w, _ in _bound_breaches(_CONTRACT_INPUTS) if c == "monotone"]
    return AuditResult("bound_monotonicity", not breaches,
                       "bounds monotone on all tested grids" if not breaches
                       else f"monotonicity breach: {', '.join(breaches)}")


def audit_bound_term_consistency(seed: int, scale: int = 1) -> AuditResult:
    """Every value is the exact sum of non-negative terms and at least R_hat."""
    breaches = [b for b in _bound_breaches(_CONTRACT_INPUTS) if b[0] != "monotone"]
    worst = max((size for check, _, size in breaches if check == "sum"), default=0.0)
    return AuditResult("bound_term_consistency", not breaches,
                       f"max |value - sum(terms)| {_fmt(worst)}"
                       + "".join(f", {c} breach: {w}" for c, w, _ in breaches))


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
    """Every audit's result in ``AUDITS`` order.  A negative seed is refused
    before any audit runs; an audit that raises a ValueError or
    ArithmeticError fails with the exception as its detail, and the others
    still run."""
    if seed < 0:
        raise ValueError("seed must be non-negative")
    scale = 10 if fast else 1
    results = []
    for audit in AUDITS:
        try:
            results.append(audit(seed, scale))
        except (ValueError, ArithmeticError) as exc:
            results.append(AuditResult(audit.__name__.removeprefix("audit_"), False,
                                       f"raised {type(exc).__name__}: {exc}"))
    return results


def render_report(results: list[AuditResult], seed: int) -> str:
    lines = [f"property audit suite (seed {seed})"]
    for res in results:
        lines.append(f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.detail}")
    failures = sum(not r.passed for r in results)
    lines.append(f"{len(results) - failures}/{len(results)} audits passed")
    return "\n".join(lines) + "\n"
