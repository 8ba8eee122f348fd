"""Shared fixtures and independent reference oracles for the test suite.

The reference implementations here deliberately take different routes from
the library (bisection-based projections, exhaustive enumeration, direct
arithmetic) so the tests certify values rather than echo them.  The DAG
reference is the library's earlier one-cost-vector dynamic program, and the
complexity references are its earlier one-oracle-call-per-hypothesis
estimators and unpruned Natarajan search, kept unchanged as the
differential references for the batched and pruned ones.  The decision-cost
and true-risk references are the library's earlier row-reducing kernels
(``np.argmin`` on the simplex, ``einsum`` on l2 balls, row-major
``xs @ B.T`` predictions), the differential references for its column
sweeps; the earlier allocating l2 closed form and the earlier true-risk
pass, which scanned every prediction and called numpy's ``mean`` and
``std``, are the exact references for the in-place ones.  The
ball-sampler reference is the earlier one-vector ``LqBall.sample``, which
the verifier references use in place of the library's row-form sampler.
The multivariate Rademacher reference is the earlier whole-array
estimator, against the library's blocked signs, and the Lipschitz-audit
reference is the earlier one-pass audit with numpy's row norms, against
the audits' two Lipschitz checks.
"""

from __future__ import annotations

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st

from spo_bounds._rng import substream, substream_sign_blocks
from spo_bounds.complexity import _mc_summary
from spo_bounds.geometry import (MEMBERSHIP_TOL, DagPathPolytope, LqBall,
                                 UnitSimplex, VertexPolytope, ViolationReport,
                                 dual_exponent)
from spo_bounds.losses import margin_spo_loss_batch, predict_batch


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def square_region() -> VertexPolytope:
    return VertexPolytope([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])


def traced_peak(fn):
    """``(fn(), peak)``: the call's result and the most bytes that
    tracemalloc saw allocated at once during it."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# lq-ball reference oracle: projected gradient with bisection projections
# ---------------------------------------------------------------------------

def project_lq_ball(y: np.ndarray, q: float, r: float) -> np.ndarray:
    """Euclidean projection of y onto {z : ||z||_q <= r} via nested bisection
    on the KKT system z + lam * q * z**(q-1) = |y| (coordinates >= 0)."""
    y = np.asarray(y, dtype=float)
    if np.linalg.norm(y, ord=q) <= r:
        return y.copy()
    ay = np.abs(y)

    def z_of(lam: float) -> np.ndarray:
        lo = np.zeros_like(ay)
        hi = ay.copy()
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            too_big = mid + lam * q * mid ** (q - 1.0) > ay
            hi = np.where(too_big, mid, hi)
            lo = np.where(too_big, lo, mid)
        return 0.5 * (lo + hi)

    lam_lo, lam_hi = 0.0, 1.0
    while np.linalg.norm(z_of(lam_hi), ord=q) > r:
        lam_hi *= 2.0
    for _ in range(60):
        lam = 0.5 * (lam_lo + lam_hi)
        if np.linalg.norm(z_of(lam), ord=q) > r:
            lam_lo = lam
        else:
            lam_hi = lam
    return np.sign(y) * z_of(0.5 * (lam_lo + lam_hi))


def pgd_lq_minimize(c: np.ndarray, q: float, r: float, center: np.ndarray,
                    iters: int = 60) -> np.ndarray:
    """Minimize c @ w over the lq ball by projected gradient with Polyak
    steps (the optimal value c @ center - r * ||c||_{q'} is known).  Any
    iterate upper-bounds the optimum, so it is a one-sided reference."""
    c = np.asarray(c, dtype=float)
    qp = q / (q - 1.0)
    f_star = -r * float(np.linalg.norm(c, ord=qp))
    u = np.zeros_like(c)
    grad_sq = float(c @ c)
    for _ in range(iters):
        gap = float(c @ u) - f_star
        if gap <= 0:
            break
        u = project_lq_ball(u - (gap / grad_sq) * c, q, r)
    return center + u


# ---------------------------------------------------------------------------
# exhaustive enumeration oracles
# ---------------------------------------------------------------------------

def enumerate_paths_brute(nodes: int, arcs, source: int, sink: int) -> list[list[int]]:
    """All source->sink arc-index paths by plain DFS (independent of the
    library's enumerator)."""
    out: list[list[int]] = []

    def walk(v, prefix, visited):
        if v == sink:
            out.append(list(prefix))
            return
        for idx, (t, h) in enumerate(arcs):
            if t == v and h not in visited:
                walk(h, prefix + [idx], visited | {h})

    walk(source, [], {source})
    return out


def path_vectors_brute(dag) -> np.ndarray:
    """The arc-incidence vectors of ``enumerate_paths_brute``'s paths, one row
    per path, in its order (lexicographic in the arc indices)."""
    paths = enumerate_paths_brute(dag.nodes, dag.arcs, dag.source, dag.sink)
    V = np.zeros((len(paths), dag.dim))
    for row, path in zip(V, paths):
        row[path] = 1.0
    return V


def rademacher_exact(losses: np.ndarray) -> float:
    """Exact E_sigma[max_h (1/n) sum_i sigma_i * losses[h, i]] by enumerating
    all sign vectors (n <= 16)."""
    H, n = losses.shape
    total = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=n):
        total += max(float(np.dot(signs, losses[h])) for h in range(H)) / n
    return total / 2 ** n


# ---------------------------------------------------------------------------
# DAG reference oracle: the one-cost-vector dynamic program
# ---------------------------------------------------------------------------

@st.composite
def random_dags(draw):
    """A random DAG.  Nodes are relabeled and arcs shuffled; parallel arcs
    and nodes that cannot reach the sink are common."""
    nodes = draw(st.integers(2, 8))
    sink = draw(st.integers(1, nodes - 1))  # positions after it are dead ends
    forward = st.tuples(st.integers(0, nodes - 1), st.integers(0, nodes - 1)) \
        .filter(lambda a: a[0] < a[1])
    inner = draw(st.lists(st.integers(1, sink - 1), unique=True)) if sink > 1 else []
    chain = [0] + sorted(inner) + [sink]
    arcs = list(zip(chain, chain[1:])) + draw(st.lists(forward, max_size=14))
    arcs += draw(st.lists(st.sampled_from(arcs), max_size=3))  # parallel arcs
    arcs = draw(st.permutations(arcs))
    label = draw(st.permutations(range(nodes)))
    return DagPathPolytope(nodes, [(label[t], label[h]) for t, h in arcs],
                           label[0], label[sink])




def dag_path_costs_ref(dag, c: np.ndarray, maximize: bool) -> np.ndarray:
    """Best source->sink cost continuing from each node (inf/-inf if none)."""
    worst = -math.inf if maximize else math.inf
    dist = np.full(dag.nodes, worst)
    dist[dag.sink] = 0.0
    for v in reversed(dag._topo):
        if v == dag.sink:
            continue
        best = worst
        for idx, h in dag._adj[v]:
            if not dag._reaches_sink[h] and h != dag.sink:
                continue
            if not math.isfinite(dist[h]):
                continue
            val = c[idx] + dist[h]
            if (val > best) if maximize else (val < best):
                best = val
        dist[v] = best
    return dist


def dag_linopt_ref(dag, c) -> np.ndarray:
    c = np.asarray(c, dtype=float)
    dist = dag_path_costs_ref(dag, c, maximize=False)
    w = np.zeros(dag.dim)
    v = dag.source
    while v != dag.sink:
        # dist[v] is an exact minimum of these candidate values, so at
        # least one arc matches exactly; the first match (lowest arc
        # index) yields the lexicographically smallest arc sequence.
        for idx, h in dag._adj[v]:
            if math.isfinite(dist[h]) and c[idx] + dist[h] == dist[v]:
                w[idx] = 1.0
                v = h
                break
        else:  # pragma: no cover - unreachable by construction
            raise RuntimeError("optimal-path backtrack failed")
    return w


def dag_gap_ref(dag, c) -> float:
    c = np.asarray(c, dtype=float)
    lo = dag_path_costs_ref(dag, c, maximize=False)[dag.source]
    hi = dag_path_costs_ref(dag, c, maximize=True)[dag.source]
    return float(hi - lo)


# ---------------------------------------------------------------------------
# substream references: one generator built per sign draw, the earlier
# one-vector ball sampler, and the sampled verifiers as one-sample loops
# over their documented draws
# ---------------------------------------------------------------------------

def sign_draws_ref(seed: int, m_draws: int, size: int) -> np.ndarray:
    rows = [substream(seed, k).integers(0, 2, size=size) * 2.0 - 1.0
            for k in range(m_draws)]
    return np.stack(rows)


def norm_ref(v: np.ndarray, q: float) -> float:
    """The lq norm of one vector, taken as a one-row batch."""
    return np.linalg.norm(v[None], ord=q, axis=1)[0]


def dot_ref(a: np.ndarray, b: np.ndarray) -> float:
    """``a @ b`` summed entry by entry from entry 0."""
    total = a[0] * b[0]
    for j in range(1, len(a)):
        total += a[j] * b[j]
    return total


def lq_ball_point_ref(region: LqBall, g: np.ndarray, t: float) -> np.ndarray:
    """The one-vector ball point of normals ``g`` and a uniform ``t``."""
    u = g / norm_ref(g, region.q)
    return region.center + region.ball_radius * t ** (1.0 / region.dim) * u


def lq_ball_sample_ref(region: LqBall, rng: np.random.Generator) -> np.ndarray:
    """The library's earlier one-vector ``LqBall.sample`` body."""
    g = rng.standard_normal(region.dim)
    return lq_ball_point_ref(region, g, rng.random())


def sample_draws_ref(region, rng: np.random.Generator, n: int):
    """The documented draws of ``region.sample_batch(rng, n)`` on an lq ball
    (normals, then uniforms) or a vertex polytope (Dirichlet weights), and
    the one-vector formula that builds point ``i`` from them."""
    if isinstance(region, LqBall):
        G = rng.standard_normal((n, region.dim))
        T = rng.random(n)
        return lambda i: lq_ball_point_ref(region, G[i], float(T[i]))
    weights = rng.dirichlet(np.ones(len(region.vertices)), n)
    return lambda i: sum(wt * v for wt, v in zip(weights[i], region.vertices))


def verify_strong_convexity_ref(region: LqBall, mu: float, n_samples: int,
                                seed: int) -> ViolationReport:
    q = region.norm_exponent
    rng = substream(seed)
    point1 = sample_draws_ref(region, rng, n_samples)
    point2 = sample_draws_ref(region, rng, n_samples)
    lams = rng.random(n_samples)
    G = rng.standard_normal((n_samples, region.dim))
    violations = 0
    max_violation = -math.inf
    witness = None
    for i in range(n_samples):
        w1, w2, lam = point1(i), point2(i), float(lams[i])
        u = G[i] / norm_ref(G[i], q)
        ball_r = 0.5 * mu * lam * (1.0 - lam) * np.square(norm_ref(w1 - w2, q))
        z = lam * w1 + (1.0 - lam) * w2 + ball_r * u
        breach = float(norm_ref(z - region.center, q)) - region.ball_radius
        if breach > max_violation:
            max_violation = breach
            witness = {"w1": w1.tolist(), "w2": w2.tolist(), "lam": lam,
                       "u": u.tolist(), "sample_index": i}
        if breach > MEMBERSHIP_TOL:
            violations += 1
    return ViolationReport(n_samples, violations, max_violation, witness)


def verify_optimality_condition_ref(region, c, n_samples: int,
                                    seed: int) -> ViolationReport:
    c = np.asarray(c, dtype=float)
    q = region.norm_exponent
    c_star = float(norm_ref(c, dual_exponent(q)))
    wbar = region.linopt(c)
    point = sample_draws_ref(region, substream(seed), n_samples)
    violations = 0
    max_violation = -math.inf
    witness = None
    for i in range(n_samples):
        w = point(i)
        lhs = dot_ref(w - wbar, c)
        rhs = 0.5 * region.mu * c_star * np.square(norm_ref(w - wbar, q))
        breach = float(rhs - lhs)
        if breach > max_violation:
            max_violation = breach
            witness = {"w": w.tolist(), "sample_index": i}
        if breach > MEMBERSHIP_TOL:
            violations += 1
    return ViolationReport(n_samples, violations, max_violation, witness)


# ---------------------------------------------------------------------------
# decision-cost references: the row-reducing kernels the sweeps replaced
# ---------------------------------------------------------------------------

def decision_cost_ref(region, C_hat: np.ndarray, C: np.ndarray) -> np.ndarray:
    if isinstance(region, UnitSimplex):
        return C[np.arange(C.shape[0]), np.argmin(C_hat, axis=1)]
    if isinstance(region, LqBall) and region.q == 2.0:
        norms = np.sqrt(np.einsum("ij,ij->i", C_hat, C_hat))
        dots = np.einsum("ij,ij->i", C, C_hat)
        offsets = np.einsum("ij,j->i", C, region.center) if region.center.any() else 0.0
        return offsets - region.ball_radius * dots / np.where(norms > 0, norms, 1.0)
    return (region.linopt_batch(C_hat) * C).sum(axis=1)


def true_risk_ref(region, X: np.ndarray, C: np.ndarray, B: np.ndarray) -> tuple[float, float]:
    X, C = np.ascontiguousarray(X), np.ascontiguousarray(C)
    losses = decision_cost_ref(region, X @ B.T, C) - decision_cost_ref(region, C, C)
    return float(losses.mean()), float(losses.std(ddof=1) / math.sqrt(losses.size))


def column_dots_ref(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The earlier allocating column sweep."""
    B = np.broadcast_to(B, A.shape)
    out = A[:, 0] * B[:, 0]
    term = np.empty_like(out)
    for j in range(1, A.shape[1]):
        np.multiply(A[:, j], B[:, j], out=term)
        out += term
    return out


def l2_decision_cost_ref(ball: LqBall, C_hat: np.ndarray, C: np.ndarray) -> np.ndarray:
    """The earlier out-of-place l2 closed form, expression for expression."""
    norms = np.sqrt(column_dots_ref(C_hat, C_hat))
    dots = column_dots_ref(C, C_hat)
    offsets = column_dots_ref(C, ball.center) if ball.center.any() else 0.0
    return offsets - ball.ball_radius * dots / np.where(norms > 0, norms, 1.0)


def true_risk_scan_ref(evaluator, predictor) -> tuple[float, float]:
    """The earlier ``RiskEvaluator.true_risk``: every prediction scanned,
    the losses formed out of place, then numpy's ``mean`` and ``std``."""
    (region,), C = evaluator.regions, evaluator.C
    cost = (l2_decision_cost_ref if isinstance(region, LqBall) and region.q == 2.0
            else type(region)._decision_cost)
    preds = region._check_cost_batch(predict_batch(predictor, evaluator.X),
                                     rows=C.shape[0])
    losses = cost(region, preds, C) - cost(region, C, C)
    m = losses.size
    est = float(losses.mean())
    se = 0.0 if m < 2 else float(losses.std(ddof=1) / math.sqrt(m))
    return est, se


# ---------------------------------------------------------------------------
# complexity references: one oracle call per hypothesis, unpruned search
# ---------------------------------------------------------------------------

def predictions_ref(hypotheses, xs) -> np.ndarray:
    return np.stack([xs @ B.T for B in hypotheses.matrices])


def spo_loss_stack_ref(region, hypotheses, sample) -> np.ndarray:
    preds = predictions_ref(hypotheses, sample.xs)
    opt = region.decision_cost_batch(sample.cs, sample.cs)
    return np.stack([region.decision_cost_batch(P, sample.cs) - opt for P in preds])


def whole_signs(seed: int, count: int, size: int) -> np.ndarray:
    """Every row of a sign request at once: its single block."""
    [(_, signs)] = substream_sign_blocks(seed, count, size, max(count, 1))
    return signs


def rademacher_spo_mc_ref(region, hypotheses, sample, m_draws: int,
                          seed: int) -> tuple[float, float]:
    """The earlier whole-array estimator: all m x n signs in one product."""
    losses = spo_loss_stack_ref(region, hypotheses, sample)
    corr = whole_signs(seed, m_draws, sample.n) @ losses.T / sample.n  # (m, H)
    return _mc_summary(corr.max(axis=1))


def rademacher_multivariate_mc_ref(hypotheses, xs, m_draws: int,
                                   seed: int) -> tuple[float, float]:
    """The earlier whole-array estimator: all m x n*d signs in one product."""
    preds = hypotheses.predictions(np.asarray(xs, dtype=float))
    H, n, d = preds.shape
    flat = preds.reshape(H, n * d)
    corr = whole_signs(seed, m_draws, n * d) @ flat.T / n  # (m, H)
    return _mc_summary(corr.max(axis=1))


def lipschitz_audit_ref(region, gamma: float, seed: int, n_pairs: int) -> dict:
    """The earlier one-pass Lipschitz audit: all five cost batches drawn
    from stream ``(seed, 3)`` and normalized with numpy's row norms, both
    inequalities checked; returns the report's four ratio fields."""
    mu, q, d = region.mu, region.norm_exponent, region.dim
    rng = substream(seed, 3)

    def dual_norm_rows(C: np.ndarray, q: float) -> np.ndarray:
        return np.linalg.norm(C, ord=dual_exponent(q), axis=1)

    def sample_costs(lo: float, hi: float) -> np.ndarray:
        G = rng.standard_normal((n_pairs, d))
        norms = np.linalg.norm(G, axis=1)
        norms[norms == 0] = 1.0
        scale = np.exp(rng.uniform(math.log(lo), math.log(hi), n_pairs))
        return G / norms[:, None] * scale[:, None]

    C1 = sample_costs(0.01, 10.0)
    C2 = sample_costs(0.01, 10.0)
    diff_star = dual_norm_rows(C1 - C2, q)
    keep = diff_star > 1e-12
    w_dist = np.linalg.norm(region.linopt_batch(C1) - region.linopt_batch(C2),
                            ord=q, axis=1)
    min_star = np.minimum(dual_norm_rows(C1, q), dual_norm_rows(C2, q))
    ratio_oracle = (w_dist[keep] * mu * min_star[keep]) / diff_star[keep]
    witness_ratio = None
    if d >= 2 and q == 2.0:
        e1, e2 = np.eye(d)[0], np.eye(d)[1]
        lhs = np.linalg.norm((region.linopt(e1) - region.linopt(e2))[None, :], ord=q, axis=1)[0]
        witness_ratio = float(lhs * mu * 1.0 / dual_norm_rows((e1 - e2)[None, :], q)[0])
    CH1 = sample_costs(0.01 * gamma, 3.0 * gamma)
    CH2 = sample_costs(0.01 * gamma, 3.0 * gamma)
    C = sample_costs(0.1, 3.0)
    lhs = np.abs(margin_spo_loss_batch(region, CH1, C, gamma)
                 - margin_spo_loss_batch(region, CH2, C, gamma))
    step = dual_norm_rows(CH1 - CH2, q)
    keep = step > 1e-12
    c_star = dual_norm_rows(C, q)
    lipschitz_5 = 5.0 * c_star / (gamma * mu)
    lipschitz_sharp = (c_star / mu + 2.0 * region.gap_batch(C)) / gamma
    return {"max_ratio_oracle": float(ratio_oracle.max()), "witness_ratio": witness_ratio,
            "max_ratio_margin": float((lhs[keep] / (lipschitz_5[keep] * step[keep])).max()),
            "max_ratio_margin_sharp":
                float((lhs[keep] / (lipschitz_sharp[keep] * step[keep])).max())}


def count_restrictions_ref(region, hypotheses, xs) -> int:
    region.extreme_point_count()
    preds = predictions_ref(hypotheses, np.asarray(xs, dtype=float))
    seen = set()
    for P in preds:
        decisions = region.linopt_batch(P)
        seen.add(decisions.tobytes())
    return len(seen)


def oracle_label_table_ref(region, hypotheses, xs) -> np.ndarray:
    region.extreme_point_count()
    xs = np.asarray(xs, dtype=float)
    preds = predictions_ref(hypotheses, xs)
    ids: dict[bytes, int] = {}
    table = np.zeros((xs.shape[0], len(hypotheses)), dtype=np.int64)
    for j, P in enumerate(preds):
        decisions = region.linopt_batch(P)
        for i, w in enumerate(decisions):
            key = w.tobytes()
            table[i, j] = ids.setdefault(key, len(ids) + 1)
    return table


def is_n_shattered_ref(tuples: list[tuple], size: int) -> bool:
    pool = set(tuples)
    for i, g1 in enumerate(tuples):
        for g2 in tuples[i + 1:]:
            if any(a == b for a, b in zip(g1, g2)):
                continue
            if all(tuple(g1[k] if mask >> k & 1 else g2[k] for k in range(size)) in pool
                   for mask in range(1 << size)):
                return True
    return False


def natarajan_dim_ref(values: np.ndarray) -> int:
    m = values.shape[0]
    columns = sorted({tuple(col) for col in values.T})
    dim = 0
    for size in range(1, m + 1):
        shattered = False
        for subset in itertools.combinations(range(m), size):
            restricted = sorted({tuple(col[i] for i in subset) for col in columns})
            if len(restricted) < 2:
                continue
            if is_n_shattered_ref(restricted, size):
                shattered = True
                break
        if not shattered:
            break
        dim = size
    return dim
