"""Feasible regions with exact linear-optimization oracles and geometric checks.

Four region kinds are supported: an explicit vertex polytope, the unit
simplex, the path polytope of a DAG (decision vector indexed by arcs), and
lq balls for q in (1, 2].  Every region exposes the same operations:

* ``linopt_batch(C)``  -- deterministic minimizer of ``c @ w`` over the region,
  one row per cost row
* ``gap_batch(C)``     -- max minus min of ``c @ w`` over the region, per row
* ``decision_cost_batch(C_hat, C)`` -- realized cost ``C[i] @ w*(C_hat[i])``
  of acting on each prediction row; the SPO loss, the margin losses and
  the fresh-sample true risk all go through it
* ``radius(q)``        -- sup of the lq norm over the region
* ``extreme_point_count()``
* ``sample(rng)``      -- a feasible point

The batch oracles are the only implementations; ``linopt(c)`` and ``gap(c)``
validate one cost vector and return row 0 of the one-row batch.

``decision_cost_batch`` defaults to ``(linopt_batch(C_hat) * C).sum(axis=1)``
(DAG regions, lq balls with q != 2, vertex polytopes) and has two closed
forms that build no m x d decision matrix: the simplex gathers
``C[i, argmin(C_hat[i])]`` and the l2 ball uses the Hoelder direction,
``C @ center - radius * (C_hat[i] @ C[i]) / ||C_hat[i]||_2``.  Both keep the
oracle's tie-breaking: the gather uses the same ``argmin`` (lowest index),
and a zero prediction row maps to the center.

Tie-breaking is fixed so the oracle is a deterministic mapping: vertex
regions pick the lowest vertex index, the DAG oracle picks the
lexicographically smallest arc-index sequence among optimal paths, and
balls map ``c = 0`` to the center.  Rows are independent: a row's decision
and cost are the same bits whatever other rows share its batch, so callers
may stack batches (the complexity estimators stack all hypotheses).  That
is why the vertex scores and the ball-center offsets use ``einsum``: BLAS
matrix products round a row differently depending on the batch size.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._rng import substreams

#: absolute tolerance for all geometric membership checks
MEMBERSHIP_TOL = 1e-9


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def dual_exponent(q: float) -> float:
    """Exponent q' with 1/q + 1/q' = 1 (q = 1 and q = inf are dual)."""
    if q < 1:
        raise ValueError(f"norm exponent must be >= 1, got {q}")
    if q == 1:
        return math.inf
    if math.isinf(q):
        return 1.0
    return q / (q - 1.0)


def vector_norm(c: np.ndarray, q: float) -> float:
    """lq norm of a vector, q in [1, inf]."""
    if q < 1:
        raise ValueError(f"norm exponent must be >= 1, got {q}")
    return float(np.linalg.norm(np.asarray(c, dtype=float), ord=q))


def vector_norm_rows(C: np.ndarray, q: float) -> np.ndarray:
    """Row-wise lq norms of a 2-D array."""
    if q < 1:
        raise ValueError(f"norm exponent must be >= 1, got {q}")
    return np.linalg.norm(np.asarray(C, dtype=float), ord=q, axis=1)


def dual_norm(c: np.ndarray, q: float = 2.0) -> float:
    """Dual norm of ``c`` w.r.t. the lq norm, i.e. the l_{q'} norm."""
    return vector_norm(c, dual_exponent(q))


def dual_norm_rows(C: np.ndarray, q: float = 2.0) -> np.ndarray:
    """Row-wise dual norms w.r.t. the lq norm."""
    return vector_norm_rows(C, dual_exponent(q))


def covering_count_log(rho2_S: float, d: int, eps: float) -> float:
    """log of the euclidean-ball covering count ``(2 * rho2_S * sqrt(d) / eps) ** d``.

    Returned in log form so large dimensions do not overflow.
    """
    if rho2_S <= 0:
        raise ValueError("rho2_S must be positive")
    if d < 1:
        raise ValueError("d must be >= 1")
    if eps <= 0:
        raise ValueError("eps must be positive")
    return d * (math.log(2.0 * rho2_S) + 0.5 * math.log(d) - math.log(eps))


def covering_count(rho2_S: float, d: int, eps: float) -> float:
    """Euclidean-ball covering count; ``inf`` if it overflows a double."""
    log_count = covering_count_log(rho2_S, d, eps)
    try:
        return math.exp(log_count)
    except OverflowError:
        return math.inf


# ---------------------------------------------------------------------------
# violation reports for sampling-based verification
# ---------------------------------------------------------------------------

@dataclass
class ViolationReport:
    """Outcome of a sampled geometric check.

    ``max_violation`` is the largest constraint breach observed (negative
    values mean the constraint held with slack everywhere); ``witness``
    records the sample achieving it.
    """

    checked: int
    violations: int
    max_violation: float
    witness: dict | None
    tol: float = MEMBERSHIP_TOL

    @property
    def ok(self) -> bool:
        return self.violations == 0


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------

class FeasibleRegion:
    """Common base for compact convex decision sets."""

    kind = "abstract"

    def __init__(self, dim: int, mu: float | None = None):
        dim = int(dim)
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if mu is not None and (not math.isfinite(mu) or mu < 0):
            raise ValueError("mu must be a finite value >= 0")
        self.dim = dim
        self.mu = None if mu is None else float(mu)

    # -- norm the region's geometry (mu, dual norms) refers to
    @property
    def norm_exponent(self) -> float:
        return 2.0

    def _check_cost(self, c) -> np.ndarray:
        c = np.asarray(c, dtype=float)
        if c.shape != (self.dim,):
            raise ValueError(f"cost vector has shape {c.shape}, expected ({self.dim},)")
        if not np.all(np.isfinite(c)):
            raise ValueError("cost vector has non-finite entries")
        return c

    def _check_cost_batch(self, C, rows: int | None = None) -> np.ndarray:
        C = np.asarray(C, dtype=float)
        if C.ndim != 2 or C.shape[1] != self.dim or (rows is not None and C.shape[0] != rows):
            expected = "m" if rows is None else rows
            raise ValueError(f"cost batch has shape {C.shape}, expected ({expected}, {self.dim})")
        if not np.all(np.isfinite(C)):
            raise ValueError("cost batch has non-finite entries")
        return C

    # -- the oracle: subclasses implement the batch forms; a single cost
    # vector is a one-row batch
    def linopt(self, c) -> np.ndarray:
        return self.linopt_batch(self._check_cost(c)[None, :])[0]

    def gap(self, c) -> float:
        return float(self.gap_batch(self._check_cost(c)[None, :])[0])

    # -- operations implemented by subclasses
    def linopt_batch(self, C) -> np.ndarray:
        raise NotImplementedError

    def gap_batch(self, C) -> np.ndarray:
        raise NotImplementedError

    def decision_cost_batch(self, C_hat, C) -> np.ndarray:
        """Row-wise realized cost ``C[i] @ w*(C_hat[i])``."""
        W = self.linopt_batch(C_hat)
        return (W * self._check_cost_batch(C, rows=W.shape[0])).sum(axis=1)

    def radius(self, q: float = 2.0) -> float:
        raise NotImplementedError

    def extreme_point_count(self) -> int:
        raise NotImplementedError

    def diameter2(self) -> float:
        """sup of the l2 distance between two points of the region."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError

    def sample_batch(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return np.stack([self.sample(rng) for _ in range(m)])

    def contains(self, w, tol: float = MEMBERSHIP_TOL) -> bool:
        raise NotImplementedError(
            f"membership test not available for {self.kind}"
        )

    # -- serialization
    def to_dict(self) -> dict:
        raise NotImplementedError

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


class VertexPolytope(FeasibleRegion):
    """Convex hull of an explicit finite set of extreme points.

    The caller promises the listed vectors are exactly the extreme points;
    duplicates are rejected.  General membership testing would need an LP
    and is intentionally not provided.
    """

    kind = "VertexPolytope"

    def __init__(self, vertices, mu: float | None = None):
        V = np.asarray(vertices, dtype=float)
        if V.ndim != 2 or V.shape[0] < 1:
            raise ValueError("vertices must be a non-empty list of equal-length vectors")
        if not np.all(np.isfinite(V)):
            raise ValueError("vertices must be finite")
        if len({row.tobytes() for row in V}) < V.shape[0]:
            raise ValueError("duplicate vertices are not allowed")
        super().__init__(V.shape[1], mu)
        self.vertices = V

    def _scores(self, C) -> np.ndarray:
        return np.einsum("ij,kj->ik", self._check_cost_batch(C), self.vertices)

    def linopt_batch(self, C) -> np.ndarray:
        # argmin takes the lowest vertex index on ties
        return self.vertices[np.argmin(self._scores(C), axis=1)].copy()

    def gap_batch(self, C) -> np.ndarray:
        scores = self._scores(C)
        return scores.max(axis=1) - scores.min(axis=1)

    def radius(self, q: float = 2.0) -> float:
        return float(vector_norm_rows(self.vertices, q).max())

    def extreme_point_count(self) -> int:
        return self.vertices.shape[0]

    def diameter2(self) -> float:
        diff = self.vertices[:, None, :] - self.vertices[None, :, :]
        return float(np.sqrt((diff ** 2).sum(axis=2)).max())

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        weights = rng.dirichlet(np.ones(self.vertices.shape[0]))
        return weights @ self.vertices

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "dim": self.dim,
            "vertices": self.vertices.tolist(),
            "mu": self.mu,
        }


class UnitSimplex(FeasibleRegion):
    """Probability simplex; its extreme points are the coordinate vectors."""

    kind = "UnitSimplex"

    def __init__(self, dim: int):
        super().__init__(dim, None)

    def linopt_batch(self, C) -> np.ndarray:
        C = self._check_cost_batch(C)
        W = np.zeros_like(C)
        W[np.arange(C.shape[0]), np.argmin(C, axis=1)] = 1.0
        return W

    def gap_batch(self, C) -> np.ndarray:
        C = self._check_cost_batch(C)
        return C.max(axis=1) - C.min(axis=1)

    def decision_cost_batch(self, C_hat, C) -> np.ndarray:
        C_hat = self._check_cost_batch(C_hat)
        C = self._check_cost_batch(C, rows=C_hat.shape[0])
        return C[np.arange(C.shape[0]), np.argmin(C_hat, axis=1)]

    def radius(self, q: float = 2.0) -> float:
        if q < 1:
            raise ValueError(f"norm exponent must be >= 1, got {q}")
        return 1.0

    def extreme_point_count(self) -> int:
        return self.dim

    def diameter2(self) -> float:
        return math.sqrt(2.0) if self.dim >= 2 else 0.0

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return rng.dirichlet(np.ones(self.dim))

    def contains(self, w, tol: float = MEMBERSHIP_TOL) -> bool:
        w = np.asarray(w, dtype=float)
        return bool(w.min() >= -tol and abs(w.sum() - 1.0) <= tol)

    @property
    def vertices(self) -> np.ndarray:
        return np.eye(self.dim)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "dim": self.dim}


class DagPathPolytope(FeasibleRegion):
    """Convex hull of the arc-incidence vectors of source->sink paths.

    Arcs are given as ``(tail, head)`` pairs; the position in the list is
    the arc index and the decision coordinate.  The graph must be acyclic
    and at least one source->sink path must exist.
    """

    kind = "DagPathPolytope"

    def __init__(self, nodes: int, arcs: Sequence[tuple[int, int]], source: int, sink: int):
        nodes = int(nodes)
        if nodes < 1:
            raise ValueError("node count must be >= 1")
        arcs = [(int(t), int(h)) for t, h in arcs]
        if not arcs:
            raise ValueError("arc list must be non-empty")
        for t, h in arcs:
            if not (0 <= t < nodes and 0 <= h < nodes):
                raise ValueError(f"arc ({t}, {h}) out of node range")
        if not (0 <= source < nodes and 0 <= sink < nodes):
            raise ValueError("source/sink out of node range")
        super().__init__(len(arcs), None)
        self.nodes = nodes
        self.arcs = arcs
        self.source = int(source)
        self.sink = int(sink)
        # adjacency by tail, ascending arc index
        self._adj: list[list[tuple[int, int]]] = [[] for _ in range(nodes)]
        for idx, (t, h) in enumerate(arcs):
            self._adj[t].append((idx, h))
        self._topo = self._topological_order()
        paths_to_sink = self._count_paths()
        self._reaches_sink = [count > 0 for count in paths_to_sink]
        if not self._reaches_sink[self.source]:
            raise ValueError("no source->sink path exists")
        self._path_count = paths_to_sink[self.source]
        # per node, (arc indices, heads) of its arcs into sink-reaching nodes
        self._out = [np.array([a for a in adj if self._reaches_sink[a[1]]],
                              dtype=np.intp).reshape(-1, 2).T for adj in self._adj]

    def _topological_order(self) -> list[int]:
        indeg = [0] * self.nodes
        for _, h in self.arcs:
            indeg[h] += 1
        queue = [v for v in range(self.nodes) if indeg[v] == 0]
        order: list[int] = []
        while queue:
            v = queue.pop()
            order.append(v)
            for _, h in self._adj[v]:
                indeg[h] -= 1
                if indeg[h] == 0:
                    queue.append(h)
        if len(order) != self.nodes:
            raise ValueError("graph has a cycle")
        return order

    def _count_paths(self) -> list[int]:
        """Number of paths from each node to the sink."""
        count = [0] * self.nodes
        count[self.sink] = 1
        for v in reversed(self._topo):
            if v != self.sink:
                count[v] = sum(count[h] for _, h in self._adj[v])
        return count

    def _path_costs(self, C: np.ndarray, maximize: bool) -> np.ndarray:
        """Best cost from each node to the sink, one row per cost row
        (inf/-inf where no path continues)."""
        best = np.max if maximize else np.min
        dist = np.full((C.shape[0], self.nodes), -math.inf if maximize else math.inf)
        dist[:, self.sink] = 0.0
        for v in reversed(self._topo):
            idx, heads = self._out[v]
            if v != self.sink and idx.size:
                dist[:, v] = best(C[:, idx] + dist[:, heads], axis=1)
        return dist

    def linopt_batch(self, C) -> np.ndarray:
        C = self._check_cost_batch(C)
        dist = self._path_costs(C, maximize=False)
        W = np.zeros_like(C)
        at = np.full(C.shape[0], self.source)
        # forward topological order: every row reaches a node before it
        # leaves it
        for v in self._topo:
            if v == self.sink:
                continue
            rows = np.flatnonzero(at == v)
            # dist[v] is an exact minimum of these candidate values, so each
            # row matches at least one arc; the first match (lowest arc
            # index) yields the lexicographically smallest arc sequence.
            for idx, h in zip(*self._out[v]):
                if not rows.size:
                    break
                hit = C[rows, idx] + dist[rows, h] == dist[rows, v]
                W[rows[hit], idx] = 1.0
                at[rows[hit]] = h
                rows = rows[~hit]
            if rows.size:  # pragma: no cover - unreachable by construction
                raise RuntimeError("optimal-path backtrack failed")
        return W

    def gap_batch(self, C) -> np.ndarray:
        C = self._check_cost_batch(C)
        hi = self._path_costs(C, maximize=True)[:, self.source]
        return hi - self._path_costs(C, maximize=False)[:, self.source]

    def radius(self, q: float = 2.0) -> float:
        longest = self._path_costs(np.ones((1, self.dim)), maximize=True)[0, self.source]
        if q < 1:
            raise ValueError(f"norm exponent must be >= 1, got {q}")
        if math.isinf(q):
            return 1.0 if longest >= 1 else 0.0
        return float(longest ** (1.0 / q))

    def extreme_point_count(self) -> int:
        return self._path_count

    def enumerate_paths(self, limit: int = 1_000_000) -> list[list[int]]:
        """All source->sink paths as arc-index lists, lexicographic order."""
        if self._path_count > limit:
            raise ValueError(f"path count {self._path_count} exceeds limit {limit}")
        paths: list[list[int]] = []

        def extend(v: int, prefix: list[int]) -> None:
            if v == self.sink:
                paths.append(list(prefix))
                return
            for idx, h in self._out[v].T.tolist():
                prefix.append(idx)
                extend(h, prefix)
                prefix.pop()

        extend(self.source, [])
        return paths

    def path_vector(self, path: Sequence[int]) -> np.ndarray:
        w = np.zeros(self.dim)
        w[list(path)] = 1.0
        return w

    def path_vectors(self, limit: int = 1_000_000) -> np.ndarray:
        return np.stack([self.path_vector(p) for p in self.enumerate_paths(limit)])

    def diameter2(self, limit: int = 4096) -> float:
        # paths are 0/1 vectors: ||v_i - v_j||^2 = len_i + len_j - 2 v_i @ v_j,
        # exact in floats; blocks of 256 rows keep memory at O(256 * paths)
        V = self.path_vectors(limit)
        lengths = V.sum(axis=1)
        widest = 0.0
        for start in range(0, V.shape[0], 256):
            rows = slice(start, start + 256)
            d2 = lengths[rows, None] + lengths[None, :] - 2.0 * (V[rows] @ V.T)
            widest = max(widest, float(d2.max()))
        return math.sqrt(widest)

    def random_path(self, rng: np.random.Generator) -> list[int]:
        path: list[int] = []
        v = self.source
        while v != self.sink:
            options = self._out[v].T.tolist()
            idx, v = options[int(rng.integers(len(options)))]
            path.append(idx)
        return path

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        paths = [self.random_path(rng) for _ in range(3)]
        weights = rng.dirichlet(np.ones(len(paths)))
        return sum(wt * self.path_vector(p) for wt, p in zip(weights, paths))

    @classmethod
    def grid(cls, rows: int, cols: int) -> "DagPathPolytope":
        """Grid DAG on ``rows x cols`` nodes with right/down arcs,
        source top-left, sink bottom-right."""
        if rows < 1 or cols < 1 or rows * cols < 2:
            raise ValueError("grid needs at least two nodes")
        node = lambda i, j: i * cols + j
        arcs: list[tuple[int, int]] = []
        for i in range(rows):
            for j in range(cols):
                if j + 1 < cols:
                    arcs.append((node(i, j), node(i, j + 1)))
                if i + 1 < rows:
                    arcs.append((node(i, j), node(i + 1, j)))
        return cls(rows * cols, arcs, node(0, 0), node(rows - 1, cols - 1))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "dim": self.dim,
            "nodes": self.nodes,
            "arcs": [list(a) for a in self.arcs],
            "source": self.source,
            "sink": self.sink,
        }


class LqBall(FeasibleRegion):
    """lq ball ``{w : ||w - center||_q <= radius}`` for q in (1, 2].

    A declared strong-convexity constant ``mu`` is certified by
    :func:`verify_strong_convexity` rather than trusted from a formula
    (for an l2 ball the certified value is ``1 / radius``).
    """

    kind = "LqBall"

    def __init__(self, q: float, radius: float, center, mu: float | None = None):
        if not (1.0 < q <= 2.0):
            raise ValueError(f"ball exponent must lie in (1, 2], got {q}")
        if not (radius > 0 and math.isfinite(radius)):
            raise ValueError("radius must be positive and finite")
        center = np.asarray(center, dtype=float)
        if center.ndim != 1 or not np.all(np.isfinite(center)):
            raise ValueError("center must be a finite vector")
        super().__init__(center.shape[0], mu)
        self.q = float(q)
        self.ball_radius = float(radius)
        self.center = center

    @property
    def norm_exponent(self) -> float:
        return self.q

    @classmethod
    def interval(cls, half_width: float = 0.5, mu: float | None = None) -> "LqBall":
        """The 1-D region [-half_width, +half_width]."""
        return cls(q=2.0, radius=half_width, center=[0.0], mu=mu)

    def linopt_batch(self, C) -> np.ndarray:
        # Hoelder equality direction: the minimizer sits on the boundary
        # opposite the unit-q-norm maximizer of c @ u
        C = self._check_cost_batch(C)
        if self.q == 2.0:
            norms = np.linalg.norm(C, axis=1)
            U = C / np.where(norms > 0, norms, 1.0)[:, None]
            return self.center - self.ball_radius * U
        A = np.abs(C)
        m = A.max(axis=1)
        safe = np.where(m > 0, m, 1.0)
        U = np.sign(C) * (A / safe[:, None]) ** (dual_exponent(self.q) - 1.0)
        norms = np.linalg.norm(U, ord=self.q, axis=1)
        norms = np.where(norms > 0, norms, 1.0)
        U /= norms[:, None]
        U[m == 0] = 0.0
        return self.center - self.ball_radius * U

    def gap_batch(self, C) -> np.ndarray:
        C = self._check_cost_batch(C)
        return 2.0 * self.ball_radius * dual_norm_rows(C, self.q)

    def decision_cost_batch(self, C_hat, C) -> np.ndarray:
        if self.q != 2.0:
            return super().decision_cost_batch(C_hat, C)
        C_hat = self._check_cost_batch(C_hat)
        C = self._check_cost_batch(C, rows=C_hat.shape[0])
        norms = np.sqrt(np.einsum("ij,ij->i", C_hat, C_hat))
        dots = np.einsum("ij,ij->i", C, C_hat)
        # a zero center adds nothing; skipping its product saves an einsum
        # pass over every row of the large true-risk batches
        offsets = np.einsum("ij,j->i", C, self.center) if self.center.any() else 0.0
        return offsets - self.ball_radius * dots / np.where(norms > 0, norms, 1.0)

    def radius(self, q: float = 2.0) -> float:
        if q < 1:
            raise ValueError(f"norm exponent must be >= 1, got {q}")
        centered = bool(np.all(self.center == 0.0))
        if centered:
            if q >= self.q:
                factor = 1.0
            else:
                factor = self.dim ** (1.0 / q - 1.0 / self.q)
            return self.ball_radius * factor
        if q == self.q:
            return vector_norm(self.center, q) + self.ball_radius
        raise ValueError(
            f"radius in l{q} norm is only exact for centered balls or q == {self.q}"
        )

    def extreme_point_count(self) -> int:
        raise ValueError("an lq ball has infinitely many extreme points")

    def diameter2(self) -> float:
        # q <= 2, so the unit-q ball sits inside the unit-l2 ball; the l2
        # diameter is attained along a coordinate axis.
        return 2.0 * self.ball_radius

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        g = rng.standard_normal(self.dim)
        u = g / np.linalg.norm(g, ord=self.q)
        t = rng.random() ** (1.0 / self.dim)
        return self.center + self.ball_radius * t * u

    def sample_batch(self, rng: np.random.Generator, m: int) -> np.ndarray:
        G = rng.standard_normal((m, self.dim))
        U = G / np.linalg.norm(G, ord=self.q, axis=1)[:, None]
        T = rng.random(m) ** (1.0 / self.dim)
        return self.center + self.ball_radius * T[:, None] * U

    def contains(self, w, tol: float = MEMBERSHIP_TOL) -> bool:
        w = np.asarray(w, dtype=float)
        return bool(vector_norm(w - self.center, self.q) <= self.ball_radius + tol)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "dim": self.dim,
            "q": self.q,
            "radius": self.ball_radius,
            "center": self.center.tolist(),
            "mu": self.mu,
        }


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def region_from_dict(data: dict) -> FeasibleRegion:
    if not isinstance(data, dict):
        raise ValueError("a region must be a JSON object")
    kind = data.get("kind")
    try:
        if kind == "VertexPolytope":
            return VertexPolytope(data["vertices"], mu=data.get("mu"))
        if kind == "UnitSimplex":
            return UnitSimplex(data["dim"])
        if kind == "DagPathPolytope":
            return DagPathPolytope(data["nodes"], [tuple(a) for a in data["arcs"]],
                                   data["source"], data["sink"])
        if kind == "LqBall":
            return LqBall(data["q"], data["radius"], data["center"], mu=data.get("mu"))
    except KeyError as exc:
        raise ValueError(f"{kind} region is missing key {exc}") from None
    raise ValueError(f"unknown region kind: {kind!r}")


def region_from_json(text: str) -> FeasibleRegion:
    return region_from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# cost domains
# ---------------------------------------------------------------------------

class CostDomain:
    """The set of realized cost vectors, with its key scalars precomputed.

    Either an enumerated set of vectors or a centered l2 ball of a given
    radius.  ``omega`` is the worst-case linear-optimization gap of the
    region over the domain, ``rho2`` the l2 radius of the domain and
    ``rho_star`` its radius in the dual of the region's norm.
    """

    def __init__(self, region: FeasibleRegion, members=None, radius: float | None = None):
        if (members is None) == (radius is None):
            raise ValueError("specify exactly one of members / radius")
        qd = dual_exponent(region.norm_exponent)
        if members is not None:
            M = np.asarray(members, dtype=float)
            if M.ndim != 2 or M.shape[1] != region.dim or M.shape[0] < 1:
                raise ValueError("members must be a non-empty (k, dim) array")
            if not np.all(np.isfinite(M)):
                raise ValueError("members must be finite")
            self.kind = "enumerated"
            self.members = M
            self.ball_radius = None
            self.rho2 = float(vector_norm_rows(M, 2.0).max())
            self.rho_star = float(vector_norm_rows(M, qd).max())
            self.omega = float(region.gap_batch(M).max())
        else:
            if not (radius >= 0 and math.isfinite(radius)):
                raise ValueError("radius must be finite and >= 0")
            self.kind = "ball"
            self.members = None
            self.ball_radius = float(radius)
            self.rho2 = float(radius)
            # sup of the dual norm over the l2 ball of this radius
            if qd >= 2.0:
                factor = 1.0
            else:
                factor = region.dim ** (1.0 / qd - 0.5)
            self.rho_star = float(radius) * factor
            self.omega = float(radius) * region.diameter2()

    @classmethod
    def enumerated(cls, region: FeasibleRegion, members) -> "CostDomain":
        return cls(region, members=members)

    @classmethod
    def ball(cls, region: FeasibleRegion, radius: float) -> "CostDomain":
        return cls(region, radius=radius)

    def project(self, C: np.ndarray) -> np.ndarray:
        """Map raw cost rows into the domain (snap to nearest member, or
        rescale rows outside the ball)."""
        C = np.asarray(C, dtype=float)
        if self.kind == "enumerated":
            nearest = np.empty(C.shape[0], dtype=np.int64)
            for start in range(0, C.shape[0], 4096):
                block = slice(start, start + 4096)
                d2 = ((C[block, None, :] - self.members[None, :, :]) ** 2).sum(axis=2)
                nearest[block] = np.argmin(d2, axis=1)
            return self.members[nearest].copy()
        norms = np.linalg.norm(C, axis=1)
        scale = np.where(norms > self.ball_radius,
                         self.ball_radius / np.where(norms > 0, norms, 1.0), 1.0)
        return C * scale[:, None]

    def to_dict(self) -> dict:
        if self.kind == "enumerated":
            return {"kind": "enumerated", "members": self.members.tolist()}
        return {"kind": "ball", "radius": self.ball_radius}

    @classmethod
    def from_dict(cls, region: FeasibleRegion, data: dict) -> "CostDomain":
        if data.get("kind") == "enumerated":
            return cls.enumerated(region, data["members"])
        if data.get("kind") == "ball":
            return cls.ball(region, data["radius"])
        raise ValueError(f"unknown cost-domain kind: {data.get('kind')!r}")


# ---------------------------------------------------------------------------
# sampling-based verification
# ---------------------------------------------------------------------------

def _scalar_pow(values: np.ndarray, exponent: float) -> np.ndarray:
    """Elementwise ``v ** exponent`` with Python's float power (libm
    ``pow``), which numpy's array power does not match in the last ulp."""
    return np.array([v ** exponent for v in values.tolist()])


def _exact_norm_rows(D: np.ndarray, q: float) -> np.ndarray:
    """``vector_norm(D[i], q)`` for every row, bit for bit.

    The one-vector norm takes a BLAS dot for q = 2 (``np.vecdot`` calls the
    same one) and a scalar power for the root otherwise; the row-wise
    ``vector_norm_rows`` does neither, so it can differ in the last ulp.
    """
    if q == 2:
        return np.sqrt(np.vecdot(D, D))
    return _scalar_pow(np.add.reduce(np.abs(D) ** q, axis=1), 1.0 / q)


def verify_strong_convexity(region: FeasibleRegion, mu: float,
                            n_samples: int, seed: int) -> ViolationReport:
    """Check the chord-ball inclusion defining mu-strong convexity.

    For sampled ``(w1, w2, lam, u)`` the point
    ``lam*w1 + (1-lam)*w2 + (mu/2)*lam*(1-lam)*||w1-w2||**2 * u`` with
    ``||u|| = 1`` must stay inside the region (norms in the region's norm).
    Sample ``i`` draws ``w1``, ``w2``, ``lam`` and then the direction from
    ``substream(seed, i)``; the witness is the first sample of largest breach.
    """
    if not isinstance(region, LqBall):
        raise ValueError("strong-convexity check only supports LqBall regions")
    if mu <= 0:
        raise ValueError("mu must be positive")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    q = region.norm_exponent
    W1, W2, G = (np.empty((n_samples, region.dim)) for _ in range(3))
    lam = np.empty(n_samples)
    for i, rng in enumerate(substreams(seed, n_samples)):
        W1[i] = region.sample(rng)
        W2[i] = region.sample(rng)
        lam[i] = rng.random()
        G[i] = rng.standard_normal(region.dim)
    U = G / _exact_norm_rows(G, q)[:, None]
    chord2 = _scalar_pow(_exact_norm_rows(W1 - W2, q), 2)
    ball_r = 0.5 * mu * lam * (1.0 - lam) * chord2
    Z = lam[:, None] * W1 + (1.0 - lam)[:, None] * W2 + ball_r[:, None] * U
    breach = _exact_norm_rows(Z - region.center, q) - region.ball_radius
    i = int(np.argmax(breach))
    witness = {"w1": W1[i].tolist(), "w2": W2[i].tolist(), "lam": float(lam[i]),
               "u": U[i].tolist(), "sample_index": i}
    return ViolationReport(n_samples, int((breach > MEMBERSHIP_TOL).sum()),
                           float(breach[i]), witness)


def verify_optimality_condition(region: FeasibleRegion, c,
                                n_samples: int, seed: int) -> ViolationReport:
    """Check the strengthened first-order optimality condition at the oracle
    solution of a linear objective over a strongly convex region:
    ``c @ (w - wbar) >= (mu/2) * ||c||_* * ||w - wbar||**2`` for sampled w.
    Sample ``i`` is ``region.sample(substream(seed, i))``; the witness is the
    first sample of largest breach.
    """
    if region.mu is None or region.mu <= 0:
        raise ValueError("region must declare mu > 0")
    c = region._check_cost(c)
    if not np.any(c):
        raise ValueError("c must be nonzero")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    q = region.norm_exponent
    c_star = dual_norm(c, q)
    wbar = region.linopt(c)
    W = np.empty((n_samples, region.dim))
    for i, rng in enumerate(substreams(seed, n_samples)):
        W[i] = region.sample(rng)
    D = W - wbar
    rhs = 0.5 * region.mu * c_star * _scalar_pow(_exact_norm_rows(D, q), 2)
    breach = rhs - np.vecdot(D, c)
    i = int(np.argmax(breach))
    witness = {"w": W[i].tolist(), "sample_index": i}
    return ViolationReport(n_samples, int((breach > MEMBERSHIP_TOL).sum()),
                           float(breach[i]), witness)
