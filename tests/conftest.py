"""Shared fixtures and independent reference oracles for the test suite.

The reference implementations here deliberately take different routes from
the library (bisection-based projections, exhaustive enumeration, direct
arithmetic) so the tests certify values rather than echo them.  The DAG
reference is the library's earlier one-cost-vector dynamic program, and the
complexity references are its earlier one-oracle-call-per-hypothesis
estimators and unpruned Natarajan search, kept unchanged as the
differential references for the batched and pruned ones.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from hypothesis import strategies as st

from spo_bounds._rng import substream
from spo_bounds.complexity import _mc_summary, _sign_draws
from spo_bounds.geometry import (MEMBERSHIP_TOL, DagPathPolytope, LqBall,
                                 VertexPolytope, ViolationReport, dual_norm,
                                 vector_norm)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def square_region() -> VertexPolytope:
    return VertexPolytope([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])


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
    c = dag._check_cost(c)
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
    c = dag._check_cost(c)
    lo = dag_path_costs_ref(dag, c, maximize=False)[dag.source]
    hi = dag_path_costs_ref(dag, c, maximize=True)[dag.source]
    return float(hi - lo)


# ---------------------------------------------------------------------------
# substream references: one generator built per sample or draw index
# ---------------------------------------------------------------------------

def sign_draws_ref(seed: int, m_draws: int, size: int) -> np.ndarray:
    rows = [substream(seed, k).integers(0, 2, size=size) * 2.0 - 1.0
            for k in range(m_draws)]
    return np.stack(rows)


def verify_strong_convexity_ref(region: LqBall, mu: float, n_samples: int,
                                seed: int) -> ViolationReport:
    q = region.norm_exponent
    violations = 0
    max_violation = -math.inf
    witness = None
    for i in range(n_samples):
        rng = substream(seed, i)
        w1 = region.sample(rng)
        w2 = region.sample(rng)
        lam = rng.random()
        g = rng.standard_normal(region.dim)
        u = g / np.linalg.norm(g, ord=q)
        ball_r = 0.5 * mu * lam * (1.0 - lam) * vector_norm(w1 - w2, q) ** 2
        z = lam * w1 + (1.0 - lam) * w2 + ball_r * u
        breach = vector_norm(z - region.center, q) - region.ball_radius
        if breach > max_violation:
            max_violation = breach
            witness = {"w1": w1.tolist(), "w2": w2.tolist(), "lam": lam,
                       "u": u.tolist(), "sample_index": i}
        if breach > MEMBERSHIP_TOL:
            violations += 1
    return ViolationReport(n_samples, violations, max_violation, witness)


def verify_optimality_condition_ref(region, c, n_samples: int,
                                    seed: int) -> ViolationReport:
    c = region._check_cost(c)
    q = region.norm_exponent
    c_star = dual_norm(c, q)
    wbar = region.linopt(c)
    violations = 0
    max_violation = -math.inf
    witness = None
    for i in range(n_samples):
        rng = substream(seed, i)
        w = region.sample(rng)
        lhs = float(c @ (w - wbar))
        rhs = 0.5 * region.mu * c_star * vector_norm(w - wbar, q) ** 2
        breach = rhs - lhs
        if breach > max_violation:
            max_violation = breach
            witness = {"w": w.tolist(), "sample_index": i}
        if breach > MEMBERSHIP_TOL:
            violations += 1
    return ViolationReport(n_samples, violations, max_violation, witness)


# ---------------------------------------------------------------------------
# complexity references: one oracle call per hypothesis, unpruned search
# ---------------------------------------------------------------------------

def predictions_ref(hypotheses, xs) -> np.ndarray:
    if hypotheses.matrices is not None:
        return np.stack([xs @ B.T for B in hypotheses.matrices])
    return hypotheses.table


def spo_loss_stack_ref(region, hypotheses, sample) -> np.ndarray:
    preds = predictions_ref(hypotheses, sample.xs)
    opt = region.decision_cost_batch(sample.cs, sample.cs)
    return np.stack([region.decision_cost_batch(P, sample.cs) - opt for P in preds])


def rademacher_spo_mc_ref(region, hypotheses, sample, m_draws: int,
                          seed: int) -> tuple[float, float]:
    losses = spo_loss_stack_ref(region, hypotheses, sample)
    signs = _sign_draws(seed, m_draws, sample.n)
    corr = signs @ losses.T / sample.n  # (m, H)
    return _mc_summary(corr.max(axis=1))


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
