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
* ``diameter2()``      -- sup of the l2 distance between two points of the
  region; on a DAG an exact dynamic program over node pairs that lists no
  paths (see ``DagPathPolytope.diameter2``)
* ``extreme_point_count()``
* ``sample_batch(rng, m)`` -- m feasible points drawn from one generator,
  one per row; ``sample(rng)`` is its one-row call

``FeasibleRegion`` defines these operations once: each validates every
cost batch (or sample count) once and delegates to an unchecked kernel,
``_linopt``, ``_gap``, ``_decision_cost`` or ``_sample_batch``, the only
code of them a region implements.  Callers holding validated batches call
the kernels directly; ``linopt(c)``, ``gap(c)`` and ``sample(rng)`` return
row 0 of a one-row batch.

``_decision_cost`` defaults to the ``_row_sums`` of ``_linopt(C_hat) * C``,
formed in the decision array (DAG regions, lq balls with q != 2, vertex
polytopes), and has two closed forms that build no m x d decision matrix
and sweep the d columns, one full-length vector operation per column,
instead of reducing each row: the
simplex finds the lowest-index argmin of ``C_hat[i]`` (the oracle's
tie-breaking) and gathers ``C[i, argmin]`` by one flat ``take`` in C's
memory order, and the l2 ball uses the Hoelder direction,
``C @ center - radius * (C_hat[i] @ C[i]) / ||C_hat[i]||_2``, with every
sum accumulated column by column from column 0 and a zero prediction row
mapped to the center; it runs in place in three reused row buffers and
skips the scaling pass of a unit radius.  The simplex also takes its
``_linopt`` from the same sweep, and its ``_gap`` from a max and a min
column fold that track no index.  A sweep only selects, or
adds in a fixed order, so its bits depend on neither the batch nor the
memory layout; callers may store large batches column-major, where each
column is contiguous.

Tie-breaking is fixed so the oracle is a deterministic mapping: vertex
regions pick the lowest vertex index, the DAG oracle picks the
lexicographically smallest arc-index sequence among optimal paths, and
balls map ``c = 0`` to the center.  Rows are independent: a row's decision
and cost are the same bits whatever other rows share its batch, so callers
may stack batches (the complexity estimators stack blocks of hypotheses).  That
is why the vertex scores and the vertex-polytope samples use ``einsum`` and
the l2 ball's center offsets ``_column_dots``: BLAS matrix products round a
row differently depending on the batch size.  Row sums go through
``_row_sums`` and row norms through ``vector_norm_rows``: column sweeps
that keep numpy's pairwise order of a C-contiguous row, form no (m, d)
array and call no BLAS, so the l2 ball's oracles, sampler and membership
test and the sampled verifiers give the same bits on every OpenBLAS kernel
and in every memory layout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._inputs import _read_json, _read_kind, _require_number
from ._rng import ARRAY_BYTES_MAX, substream

#: absolute tolerance for all geometric membership checks
MEMBERSHIP_TOL = 1e-9
#: arc of the sink's option in a DAG walk: past every flat position of
#: a decision batch, so a clipping ``put`` sends it to the spare entry
_SPARE_ARC = 1 << 62
#: most cells of the differences of one ``_sq_distance_blocks`` block
_PAIR_BLOCK_CELLS = 1 << 18


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def dual_exponent(q: float) -> float:
    """Exponent q' with 1/q + 1/q' = 1 (q = 1 and q = inf are dual)."""
    _require_number("q", q, at_least=1, at_most=math.inf)
    if q == 1:
        return math.inf
    if math.isinf(q):
        return 1.0
    return q / (q - 1.0)


def _row_sums(A: np.ndarray, term=None) -> np.ndarray:
    """Row sums of the 2-D array ``A`` (of ``term(A)``, for an elementwise
    ufunc ``term`` applied to each column as it is read), with the bits of
    ``np.add.reduce(A, axis=1)`` on a C-contiguous copy of A, taken by
    sweeps over the columns: one full-length vector operation per column,
    so neither the memory layout nor the rest of the batch moves a row's
    bits, no (m, d) array is formed and no per-row reduction is paid.  It
    follows numpy's pairwise summation of a row of n entries: fewer than 8
    add in order; 8 to 128 feed eight accumulators, entry j of every whole
    block of 8 into accumulator j mod 8, combine them as
    ``((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))`` and add the rest
    in order; wider rows split at ``n//2 - (n//2) % 8`` and add the sums of
    the two halves.  numpy adds each row's sum to +0.0, so a sum of -0.0
    entries is +0.0."""
    out = _pairwise_sums(A, term)
    out += 0.0
    return out


def _pairwise_sums(A: np.ndarray, term) -> np.ndarray:
    """``_row_sums`` without the final +0.0.  The sign of a zero partial sum
    changes no nonzero total, so the short rows start from their first
    entry, not from +0.0."""
    n = A.shape[1]
    if n > 128:
        half = n // 2 - (n // 2) % 8
        out = _pairwise_sums(A[:, :half], term)
        out += _pairwise_sums(A[:, half:], term)
        return out
    width = 8 if n >= 8 else 1
    whole = n - n % width
    acc = A[:, :width].copy() if term is None else term(A[:, :width])
    buf = np.empty_like(acc)  # a block's terms

    def read(cols: np.ndarray, into: np.ndarray) -> np.ndarray:
        return cols if term is None else term(cols, out=into)

    for j in range(width, whole, width):
        acc += read(A[:, j:j + width], buf)
    if width == 8:
        acc = acc[:, 0::2] + acc[:, 1::2]
        acc = acc[:, 0::2] + acc[:, 1::2]
        out = acc[:, 0] + acc[:, 1]
    else:
        out = acc[:, 0]
    for j in range(whole, n):
        out += read(A[:, j], buf[:, 0])
    return out


def vector_norm_rows(C: np.ndarray, q: float) -> np.ndarray:
    """Row-wise lq norms of a 2-D array, with the bits of
    ``np.linalg.norm(C, ord=q, axis=1)`` on a C-contiguous copy of C, taken
    by column sweeps (see ``_row_sums``) with no BLAS call, so a row's bits
    depend on neither the memory layout nor the rest of the batch.  q = 1
    and q = 2 read |C| and C**2 column by column and form no (m, d) array;
    q = inf folds |C| with ``_column_fold``; any other q raises the whole of
    |C| to the power q with numpy's array power, whose bits follow numpy's
    CPU dispatch.  Every row norm of the package goes through it.  ``q`` is
    in [1, inf]: NaN is refused."""
    _require_number("q", q, at_least=1, at_most=math.inf)
    C = np.asarray(C, dtype=float)
    if q == 2:
        out = _row_sums(C, np.square)
        return np.sqrt(out, out=out)
    if q == 1:
        return _row_sums(C, np.abs)
    A = np.abs(C)
    if math.isinf(q):
        return _column_fold(A, np.maximum)
    A **= q
    out = _row_sums(A)
    out **= 1.0 / q
    return out


def dual_norm_rows(C: np.ndarray, q: float = 2.0) -> np.ndarray:
    """Row-wise dual norms w.r.t. the lq norm."""
    return vector_norm_rows(C, dual_exponent(q))


def _scalar_pow(values: np.ndarray, exponent: float) -> np.ndarray:
    """Elementwise ``v ** exponent`` with Python's float power (libm
    ``pow``), whose bits, unlike those of numpy's array power, do not
    follow numpy's CPU dispatch."""
    return np.array([v ** exponent for v in values.tolist()])


def _column_fold(C: np.ndarray, keep, step=None) -> np.ndarray:
    """Each row's extreme entry, ``keep`` (``np.minimum`` or ``np.maximum``)
    folded over the columns in one buffer from column 0: one vector pass per
    column instead of a reduction along each row, where numpy pays per-row
    overhead on a short axis.  ``step(j, col, best)``, if given, sees each
    column before it is folded in.  The fold only selects entries, so it
    equals ``C.min(axis=1)`` (``C.max(axis=1)``); a zero extreme takes its
    sign as ``keep`` picks it, and numpy's row reductions pick the same one
    up to d = 8."""
    best = C[:, 0].copy()
    for j in range(1, C.shape[1]):
        col = C[:, j]
        if step is not None:
            step(j, col, best)
        keep(best, col, out=best)
    return best


def _column_argmin(C: np.ndarray) -> np.ndarray:
    """Lowest index of each row's minimum entry, ``np.argmin`` ties
    included, recorded along the minimum's ``_column_fold``."""
    m, d = C.shape
    # the indices sweep in the narrowest integer type that holds d - 1 (one
    # byte up to d = 256) and in reused buffers, and are widened once
    narrow = np.min_scalar_type(d - 1)
    idx = np.zeros(m, dtype=narrow)
    won, term = np.empty(m, dtype=bool), np.empty(m, dtype=narrow)

    def record(j: int, col: np.ndarray, best: np.ndarray) -> None:
        np.less(col, best, out=won)
        # j exceeds every index recorded so far, so the max records it
        # exactly where column j strictly wins
        np.multiply(won, narrow.type(j), out=term)
        np.maximum(idx, term, out=idx)

    _column_fold(C, np.minimum, record)
    return idx.astype(np.intp)


def _row_positions(A: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A's entries as one flat array in its memory order (a view unless A
    is neither C- nor F-contiguous), and the positions of ``A[i, idx[i]]``
    in it, written over ``idx``: a flat ``take``/``put`` needs no row-index
    gather."""
    m, d = A.shape
    if A.flags.f_contiguous:
        idx *= m
        idx += np.arange(m)
        return A.ravel(order="F"), idx
    idx += np.arange(0, m * d, d)
    return np.ascontiguousarray(A).ravel(), idx


def _column_dots(A: np.ndarray, B: np.ndarray, out: np.ndarray | None = None,
                 term: np.ndarray | None = None) -> np.ndarray:
    """Row-wise ``A[i] @ B[i]`` (``B`` may be one vector), summed column by
    column from column 0, so each row's bits depend on neither the batch
    nor the memory layout.  ``out`` receives the sums and ``term`` holds
    each column's products; both are allocated when not given."""
    B = np.broadcast_to(B, A.shape)
    out = np.multiply(A[:, 0], B[:, 0], out=out)
    if term is None:
        term = np.empty_like(out)
    for j in range(1, A.shape[1]):
        np.multiply(A[:, j], B[:, j], out=term)
        out += term
    return out


def _sq_distance_blocks(A: np.ndarray, B: np.ndarray):
    """``(rows, ((A[rows, None] - B) ** 2).sum(axis=2))`` for consecutive row
    blocks of A, each of whose (rows, len(B), dim) differences holds at most
    ``_PAIR_BLOCK_CELLS`` cells (one row when a row alone holds more).  An
    entry is the same expression whatever the block, so it has the same bits."""
    step = max(1, _PAIR_BLOCK_CELLS // max(1, B.size))
    for start in range(0, A.shape[0], step):
        rows = slice(start, start + step)
        yield rows, ((A[rows, None] - B) ** 2).sum(axis=2)


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

    @property
    def ok(self) -> bool:
        return self.violations == 0


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------

class FeasibleRegion:
    """Common base for compact convex decision sets."""

    kind = "abstract"

    def __init__(self, dim: int):
        self.dim = int(_require_number("dim", dim, True, at_least=1))

    # -- norm the region's geometry (mu, dual norms) refers to
    @property
    def norm_exponent(self) -> float:
        return 2.0

    def _check_cost_batch(self, C, rows: int | None = None) -> np.ndarray:
        C = np.asarray(C, dtype=float)
        if C.ndim != 2 or C.shape[1] != self.dim or (rows is not None and C.shape[0] != rows):
            expected = "m" if rows is None else rows
            raise ValueError(f"cost batch has shape {C.shape}, expected ({expected}, {self.dim})")
        if not np.all(np.isfinite(C)):
            raise ValueError("cost batch has non-finite entries")
        return C

    # -- the public oracles check each cost batch once, then call the
    # unchecked kernel; a single cost vector is a one-row batch
    def linopt(self, c) -> np.ndarray:
        return self.linopt_batch(np.asarray(c, dtype=float)[None])[0]

    def gap(self, c) -> float:
        return float(self.gap_batch(np.asarray(c, dtype=float)[None])[0])

    def linopt_batch(self, C) -> np.ndarray:
        return self._linopt(self._check_cost_batch(C))

    def gap_batch(self, C) -> np.ndarray:
        return self._gap(self._check_cost_batch(C))

    def decision_cost_batch(self, C_hat, C) -> np.ndarray:
        """Row-wise realized cost ``C[i] @ w*(C_hat[i])``."""
        C_hat = self._check_cost_batch(C_hat)
        return self._decision_cost(C_hat, self._check_cost_batch(C, rows=C_hat.shape[0]))

    # -- kernels implemented by subclasses, on validated batches;
    # _decision_cost returns a new array, which the caller may overwrite
    def _linopt(self, C: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _gap(self, C: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _decision_cost(self, C_hat: np.ndarray, C: np.ndarray) -> np.ndarray:
        # the products overwrite the fresh decisions, and _row_sums adds
        # them by column sweeps: the same bits whatever the caller stores
        W = self._linopt(C_hat)
        return _row_sums(np.multiply(W, C, out=W))

    def radius(self, q: float = 2.0) -> float:
        raise NotImplementedError

    def extreme_point_count(self) -> int:
        raise NotImplementedError

    def diameter2(self) -> float:
        """sup of the l2 distance between two points of the region."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self.sample_batch(rng, 1)[0]

    def sample_batch(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """``m`` feasible points as the rows of an (m, dim) array.  Each draw
        kind is taken from ``rng`` as one array for all m points, so row i
        depends on ``m``."""
        return self._sample_batch(rng, int(_require_number("sample count", m, True, at_least=0)))

    def _sample_batch(self, rng: np.random.Generator, m: int) -> np.ndarray:
        raise NotImplementedError

    def contains(self, w, tol: float = MEMBERSHIP_TOL) -> bool:
        """Whether the point ``w`` lies in the region, up to ``tol``."""
        w = np.asarray(w, dtype=float)
        if w.shape != (self.dim,):
            raise ValueError(f"point has shape {w.shape}, expected ({self.dim},)")
        if not np.all(np.isfinite(w)):
            raise ValueError("point has non-finite entries")
        return self._contains(w, tol)

    def _contains(self, w: np.ndarray, tol: float) -> bool:
        raise NotImplementedError(f"membership test not available for {self.kind}")

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

    def __init__(self, vertices):
        V = np.asarray(vertices, dtype=float)
        if V.ndim != 2 or V.shape[0] < 1:
            raise ValueError("vertices must be a non-empty list of equal-length vectors")
        if not np.all(np.isfinite(V)):
            raise ValueError("vertices must be finite")
        if len({row.tobytes() for row in V}) < V.shape[0]:
            raise ValueError("duplicate vertices are not allowed")
        super().__init__(V.shape[1])
        self.vertices = V

    def _scores(self, C: np.ndarray) -> np.ndarray:
        # einsum's summation order follows C's memory layout
        return np.einsum("ij,kj->ik", np.ascontiguousarray(C), self.vertices)

    def _linopt(self, C: np.ndarray) -> np.ndarray:
        # argmin takes the lowest vertex index on ties
        return self.vertices[np.argmin(self._scores(C), axis=1)].copy()

    def _gap(self, C: np.ndarray) -> np.ndarray:
        scores = self._scores(C)
        return scores.max(axis=1) - scores.min(axis=1)

    def radius(self, q: float = 2.0) -> float:
        return float(vector_norm_rows(self.vertices, q).max())

    def extreme_point_count(self) -> int:
        return self.vertices.shape[0]

    def diameter2(self) -> float:
        V = self.vertices
        return float(max(np.sqrt(d2).max() for _, d2 in _sq_distance_blocks(V, V)))

    def _sample_batch(self, rng: np.random.Generator, m: int) -> np.ndarray:
        weights = rng.dirichlet(np.ones(self.vertices.shape[0]), m)
        return np.einsum("ik,kj->ij", weights, self.vertices)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "dim": self.dim,
            "vertices": self.vertices.tolist(),
        }


class UnitSimplex(FeasibleRegion):
    """Probability simplex; its extreme points are the coordinate vectors."""

    kind = "UnitSimplex"

    def __init__(self, dim: int):
        super().__init__(dim)

    def _linopt(self, C: np.ndarray) -> np.ndarray:
        W = np.zeros(C.shape)
        flat, pos = _row_positions(W, _column_argmin(C))
        flat[pos] = 1.0
        return W

    def _gap(self, C: np.ndarray) -> np.ndarray:
        gap = _column_fold(C, np.maximum)
        gap -= _column_fold(C, np.minimum)
        return gap

    def _decision_cost(self, C_hat: np.ndarray, C: np.ndarray) -> np.ndarray:
        flat, pos = _row_positions(C, _column_argmin(C_hat))
        return flat.take(pos)

    def radius(self, q: float = 2.0) -> float:
        """1 for every lq norm, q in [1, inf]; NaN is refused."""
        _require_number("q", q, at_least=1, at_most=math.inf)
        return 1.0

    def extreme_point_count(self) -> int:
        return self.dim

    def diameter2(self) -> float:
        return math.sqrt(2.0) if self.dim >= 2 else 0.0

    def _sample_batch(self, rng: np.random.Generator, m: int) -> np.ndarray:
        return rng.dirichlet(np.ones(self.dim), m)

    def _contains(self, w: np.ndarray, tol: float) -> bool:
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
    and at least one source->sink path must exist (source == sink is the
    one empty path).

    The oracles share one node-major dynamic program on a transposed
    (d, m) copy of the costs: each node's contiguous row of best costs is
    folded over its arcs in arc order, and ``_linopt``'s min fold records
    the slot of the first arc attaining each minimum (the lowest-index tie
    rule, which yields the lexicographically smallest optimal path).  All
    rows then walk from the source in lockstep through the recorded slots
    by flat ``take``s; a row at the sink writes to one spare entry.
    """

    kind = "DagPathPolytope"

    def __init__(self, nodes: int, arcs: Sequence[tuple[int, int]], source: int, sink: int):
        nodes = int(_require_number("nodes", nodes, True, at_least=1))
        pairs = np.asarray(arcs)
        if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.dtype.kind not in "iu":
            raise ValueError("arcs must be a non-empty list of (tail, head) integer pairs")
        arcs = [tuple(a) for a in pairs.tolist()]
        for t, h in arcs:
            if not (0 <= t < nodes and 0 <= h < nodes):
                raise ValueError(f"arc ({t}, {h}) out of node range")
        super().__init__(len(arcs))
        self.nodes = nodes
        self.arcs = arcs
        self.source = _require_number("source", source, True, at_least=0, below=nodes)
        self.sink = _require_number("sink", sink, True, at_least=0, below=nodes)
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
        # per node, the (arc, head) pairs of its arcs into sink-reaching
        # nodes, ascending arc index (none at the sink: the graph is acyclic)
        self._out = [[(a, h) for a, h in adj if self._reaches_sink[h]] for adj in self._adj]
        # the same arcs as one padded (2, nodes, widest) option table, for
        # the walks of _sample_batch and _linopt; the sink's first option is
        # _linopt's spare arc, a step that stays at the sink
        self._degree = np.array([len(out) for out in self._out])
        self._options = np.zeros((2, nodes, max(1, self._degree.max())), dtype=np.intp)
        for v, out in enumerate(self._out):
            self._options[:, v, :len(out)] = np.reshape(out, (-1, 2)).T
        self._options[:, self.sink, 0] = _SPARE_ARC, self.sink
        # option slots in the narrowest integer type that holds them
        self._slot_type = np.min_scalar_type(self._options.shape[2] - 1)
        self._longest = self._path_costs(np.ones((self.dim, 1)), np.maximum)[self.source, 0]

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

    def _path_costs(self, CT: np.ndarray, keep, slots: np.ndarray | None = None) -> np.ndarray:
        """Best cost from each node to the sink, (nodes, m), of the (d, m)
        costs ``CT`` (inf/-inf where no path continues), folded by ``keep``
        (``np.minimum`` or ``np.maximum``).  ``slots`` gets each strict
        improvement's option slot, which leaves the first minimizing arc's."""
        m = CT.shape[1]
        dist = np.full((self.nodes, m), -math.inf if keep is np.maximum else math.inf)
        dist[self.sink] = 0.0
        cand, won = np.empty(m), np.empty(m, dtype=bool)
        for v in reversed(self._topo):
            for j, (a, h) in enumerate(self._out[v]):
                np.add(CT[a], dist[h], out=cand)
                if slots is not None:
                    np.less(cand, dist[v], out=won)
                    np.copyto(slots[v], j, where=won)
                keep(dist[v], cand, out=dist[v])
        return dist

    def _linopt(self, C: np.ndarray) -> np.ndarray:
        m, d = C.shape
        slots = np.zeros((self.nodes, m), dtype=self._slot_type)
        self._path_costs(np.ascontiguousarray(C.T), np.minimum, slots)
        # every row walks from the source in lockstep, one arc per step; a
        # row at the sink takes the spare arc, which put clips to W's one
        # spare entry past the m x d decisions
        W = np.zeros(m * d + 1)
        at = np.full(m, self.source)
        rows, offsets = np.arange(m), np.arange(0, m * d, d)
        arcs, heads = (table.ravel() for table in self._options)
        for _ in range(int(self._longest)):
            option = at * self._options.shape[2] + slots.ravel().take(at * m + rows)
            at = heads.take(option)
            W.put(offsets + arcs.take(option), 1.0, mode="clip")
        return W[:-1].reshape(m, d)

    def _gap(self, C: np.ndarray) -> np.ndarray:
        CT = np.ascontiguousarray(C.T)
        hi = self._path_costs(CT, np.maximum)[self.source]
        return hi - self._path_costs(CT, np.minimum)[self.source]

    def radius(self, q: float = 2.0) -> float:
        _require_number("q", q, at_least=1, at_most=math.inf)
        if math.isinf(q):
            return 1.0 if self._longest >= 1 else 0.0
        return float(self._longest ** (1.0 / q))

    def extreme_point_count(self) -> int:
        return self._path_count

    def _path_nodes(self) -> list[int]:
        """The nodes on some source->sink path, in topological order: the
        source first, the sink last."""
        reached = [False] * self.nodes
        reached[self.source] = True
        for v in self._topo:
            if reached[v]:
                for _, h in self._out[v]:  # heads that reach the sink
                    reached[h] = True
        return [v for v in self._topo if reached[v]]

    def diameter2(self) -> float:
        """Exact, by a dynamic program over pairs of the N nodes on some
        source->sink path, without listing paths.  Path vectors are 0/1, so
        the squared diameter is the most arcs in exactly one of two
        source->sink paths.  ``F[i, j]`` is that count over paths to the sink
        from the i-th and j-th nodes in topological order.  For i < j the
        path from node j never meets node i, so the walker at i steps alone
        (+1); at i = j both take an arc, +2 unless it is the same one.
        Refuses an (N, N) int32 table over ``ARRAY_BYTES_MAX`` bytes before
        allocating it."""
        order = self._path_nodes()
        n = len(order)
        need = 4 * n * n
        if need > ARRAY_BYTES_MAX:
            raise ValueError(f"the diameter of a DAG with {n} nodes on source-sink paths "
                             f"needs {need} bytes, over the {ARRAY_BYTES_MAX}-byte budget")
        index = {v: i for i, v in enumerate(order)}
        F = np.zeros((n, n), dtype=np.int32)
        for i in range(n - 2, -1, -1):
            heads = [index[h] for _, h in self._out[order[i]]]
            F[i, i + 1:] = F[heads, i + 1:].max(axis=0) + 1
            F[i + 1:, i] = F[i, i + 1:]
            # arc pairs: 2 for every pair of distinct arcs, parallel ones too
            pairs = F[np.ix_(heads, heads)] + 2
            pairs[np.diag_indices(len(heads))] -= 2
            F[i, i] = pairs.max()
        return math.sqrt(F[0, 0])

    def _sample_batch(self, rng: np.random.Generator, m: int) -> np.ndarray:
        """A Dirichlet mix of three uniform random walks per point.  The
        3m walks (walk k of point i at k * m + i) advance together, one arc
        per step, and each step draws every live walk's next arc in one
        ``integers`` call; then the weights are drawn."""
        at = np.full(3 * m, self.source)
        flow = np.zeros((3 * m, self.dim))
        live = np.flatnonzero(at != self.sink)
        while live.size:
            nodes = at[live]
            arcs, heads = self._options[:, nodes, rng.integers(0, self._degree[nodes])]
            flow[live, arcs] = 1.0
            at[live] = heads
            live = live[heads != self.sink]
        weights = rng.dirichlet(np.ones(3), m)
        flow = flow.reshape(3, m, self.dim)
        return sum(weights[:, k, None] * flow[k] for k in range(3))

    @classmethod
    def grid(cls, rows: int, cols: int) -> "DagPathPolytope":
        """Grid DAG on ``rows x cols`` nodes with right/down arcs,
        source top-left, sink bottom-right."""
        _require_number("rows", rows, True, at_least=1)
        _require_number("cols", cols, True, at_least=1)
        if rows * cols < 2:
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

    A declared strong-convexity constant ``mu`` (no other kind declares one)
    is certified by :func:`verify_strong_convexity` rather than trusted from
    a formula (for an l2 ball the certified value is ``1 / radius``).

    ``sample_batch(rng, m)`` draws an (m, dim) array of normals ``G`` and
    then m uniforms ``T``, and row i is
    ``center + radius * T[i] ** (1 / dim) * G[i] / ||G[i]||_q``, the same
    bits as that formula on row i alone: the norm is ``vector_norm_rows``
    and the root Python's float power.
    """

    kind = "LqBall"

    def __init__(self, q: float, radius: float, center, mu: float | None = None):
        self.q = float(_require_number("q", q, above=1, at_most=2))
        self.ball_radius = float(_require_number("radius", radius, above=0))
        center = np.asarray(center, dtype=float)
        if center.ndim != 1 or not np.all(np.isfinite(center)):
            raise ValueError("center must be a finite vector")
        super().__init__(center.shape[0])
        self.mu = None if mu is None else float(_require_number("mu", mu, at_least=0))
        self.center = center

    @property
    def norm_exponent(self) -> float:
        return self.q

    @classmethod
    def interval(cls, half_width: float = 0.5, mu: float | None = None) -> "LqBall":
        """The 1-D region [-half_width, +half_width]."""
        return cls(q=2.0, radius=half_width, center=[0.0], mu=mu)

    def _linopt(self, C: np.ndarray) -> np.ndarray:
        # Hoelder equality direction: the minimizer sits on the boundary
        # opposite the unit-q-norm maximizer of c @ u
        if self.q == 2.0:
            # center - radius * C / ||C||_2, with a zero row divided by 1.0,
            # formed in the one (m, d) buffer it returns
            norms = vector_norm_rows(C, 2.0)
            norms[norms == 0.0] = 1.0
            U = np.divide(C, norms[:, None])
        else:
            A = np.abs(C)
            m = _column_fold(A, np.maximum)
            safe = np.where(m > 0, m, 1.0)
            U = np.sign(C) * (A / safe[:, None]) ** (dual_exponent(self.q) - 1.0)
            norms = vector_norm_rows(U, self.q)
            U /= np.where(norms > 0, norms, 1.0)[:, None]
            U[m == 0] = 0.0
        if self.ball_radius != 1.0:  # 1.0 * x is x: skip the exact no-op pass
            U *= self.ball_radius
        return np.subtract(self.center, U, out=U)

    def _gap(self, C: np.ndarray) -> np.ndarray:
        return 2.0 * self.ball_radius * dual_norm_rows(C, self.q)

    def _decision_cost(self, C_hat: np.ndarray, C: np.ndarray) -> np.ndarray:
        if self.q != 2.0:
            return super()._decision_cost(C_hat, C)
        # offsets - (radius * dots) / norms, with a zero-norm row divided by
        # 1.0, evaluated in place in three row buffers
        m = C_hat.shape[0]
        norms, dots, term = np.empty(m), np.empty(m), np.empty(m)
        np.sqrt(_column_dots(C_hat, C_hat, norms, term), out=norms)
        norms[norms == 0.0] = 1.0
        _column_dots(C, C_hat, dots, term)
        if self.ball_radius != 1.0:  # 1.0 * x is x: skip the exact no-op pass
            dots *= self.ball_radius
        dots /= norms
        # a zero center adds nothing; skipping its product saves a sweep
        # over every row of the large true-risk batches.  0.0 - x (not -x)
        # keeps the sign of a zero cost.
        offsets = _column_dots(C, self.center, norms, term) if self.center.any() else 0.0
        return np.subtract(offsets, dots, out=dots)

    def radius(self, q: float = 2.0) -> float:
        _require_number("q", q, at_least=1, at_most=math.inf)
        if not self.center.any():
            factor = 1.0 if q >= self.q else self.dim ** (1.0 / q - 1.0 / self.q)
            return self.ball_radius * factor
        if q == self.q:
            return float(vector_norm_rows(self.center[None], q)[0]) + self.ball_radius
        raise ValueError(f"radius in l{q} norm is only exact for centered balls or q == {self.q}")

    def extreme_point_count(self) -> int:
        raise ValueError("an lq ball has infinitely many extreme points")

    def diameter2(self) -> float:
        # q <= 2, so the unit-q ball sits inside the unit-l2 ball; the l2
        # diameter is attained along a coordinate axis.
        return 2.0 * self.ball_radius

    def _sample_batch(self, rng: np.random.Generator, m: int) -> np.ndarray:
        G = rng.standard_normal((m, self.dim))
        T = rng.random(m)
        U = G / vector_norm_rows(G, self.q)[:, None]
        # the radial root takes libm's power (see ``_scalar_pow``)
        return self.center + (self.ball_radius * _scalar_pow(T, 1.0 / self.dim))[:, None] * U

    def _contains(self, w: np.ndarray, tol: float) -> bool:
        return bool(vector_norm_rows((w - self.center)[None], self.q)[0] <= self.ball_radius + tol)

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

#: each region kind's keys with their JSON types, and the keys it requires;
#: every kind takes the ``dim`` that ``to_dict`` writes, and refuses one that
#: differs from the region's
_REGION_KINDS = {
    "VertexPolytope": ({"dim": int, "vertices": 2, "mu": None}, ("vertices",)),
    "UnitSimplex": ({"dim": int}, ("dim",)),
    "DagPathPolytope": ({"dim": int, "nodes": int, "arcs": 2, "source": int, "sink": int},
                        ("nodes", "arcs", "source", "sink")),
    "LqBall": ({"dim": int, "q": float, "radius": float, "center": 1, "mu": float},
               ("q", "radius", "center")),
}


def region_from_dict(data: dict) -> FeasibleRegion:
    """The region a JSON object describes; a ``dim`` key must equal the
    dimension its vertices, arcs or center give."""
    kind, data = _read_kind(data, "region", _REGION_KINDS)
    if kind == "VertexPolytope":
        region = VertexPolytope(data["vertices"])
    elif kind == "UnitSimplex":
        region = UnitSimplex(data["dim"])
    elif kind == "DagPathPolytope":
        region = DagPathPolytope(data["nodes"], data["arcs"], data["source"], data["sink"])
    else:
        region = LqBall(data["q"], data["radius"], data["center"], mu=data.get("mu"))
    if data.get("dim") not in (None, region.dim):
        raise ValueError(f"{kind} region dim must be {region.dim}, the dimension it "
                         f"describes, got {data['dim']}")
    return region


def region_from_json(text: str) -> FeasibleRegion:
    return region_from_dict(_read_json(text, "region"))


# ---------------------------------------------------------------------------
# cost domains
# ---------------------------------------------------------------------------

class CostDomain:
    """The set of realized cost vectors, with its key scalars precomputed.

    Either an enumerated set of vectors or a centered l2 ball of a given
    radius.  ``omega`` is the worst-case linear-optimization gap of the
    region over the domain and ``rho2`` the l2 radius of the domain.
    """

    def __init__(self, region: FeasibleRegion, members=None, radius: float | None = None):
        if (members is None) == (radius is None):
            raise ValueError("specify exactly one of members / radius")
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
            self.omega = float(region._gap(M).max())
        else:
            _require_number("radius", radius, at_least=0)
            self.kind = "ball"
            self.members = None
            self.ball_radius = float(radius)
            self.rho2 = float(radius)
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
            for rows, d2 in _sq_distance_blocks(C, self.members):
                nearest[rows] = np.argmin(d2, axis=1)
            return self.members[nearest].copy()
        norms = vector_norm_rows(C, 2.0)
        scale = np.where(norms > self.ball_radius,
                         self.ball_radius / np.where(norms > 0, norms, 1.0), 1.0)
        return C * scale[:, None]

    def to_dict(self) -> dict:
        if self.kind == "enumerated":
            return {"kind": "enumerated", "members": self.members.tolist()}
        return {"kind": "ball", "radius": self.ball_radius}

    @classmethod
    def from_dict(cls, region: FeasibleRegion, data: dict) -> "CostDomain":
        _, data = _read_kind(data, "cost domain", {"enumerated": ({"members": 2}, ("members",)),
                                                   "ball": ({"radius": float}, ("radius",))})
        return cls(region, members=data.get("members"), radius=data.get("radius"))


# ---------------------------------------------------------------------------
# sampling-based verification
# ---------------------------------------------------------------------------

def verify_strong_convexity(region: FeasibleRegion, mu: float,
                            n_samples: int, seed: int) -> ViolationReport:
    """Check the chord-ball inclusion defining mu-strong convexity.

    For sampled ``(w1, w2, lam, u)`` the point
    ``lam*w1 + (1-lam)*w2 + (mu/2)*lam*(1-lam)*||w1-w2||**2 * u`` with
    ``||u|| = 1`` must stay inside the region (norms in the region's norm).
    One generator, ``rng = substream(seed)``, draws in this order
    ``W1 = region.sample_batch(rng, n_samples)``, ``W2`` likewise,
    ``lam = rng.random(n_samples)`` and the directions
    ``G = rng.standard_normal((n_samples, dim))``, ``u = G[i] / ||G[i]||_q``.
    Sample ``i`` is row ``i`` of each, so drawing these arrays again
    rebuilds any sample from ``(seed, n_samples, i)``; the witness is the
    first sample of largest breach.  Refuses a mu that is not a finite
    number > 0 (NaN included) and an n_samples that is not an integer >= 1.
    """
    if not isinstance(region, LqBall):
        raise ValueError("strong-convexity check only supports LqBall regions")
    _require_number("mu", mu, above=0)
    _require_number("n_samples", n_samples, True, at_least=1)
    q = region.norm_exponent
    rng = substream(seed)
    W1 = region.sample_batch(rng, n_samples)
    W2 = region.sample_batch(rng, n_samples)
    lam = rng.random(n_samples)
    G = rng.standard_normal((n_samples, region.dim))
    U = G / vector_norm_rows(G, q)[:, None]
    chord2 = np.square(vector_norm_rows(W1 - W2, q))
    ball_r = 0.5 * mu * lam * (1.0 - lam) * chord2
    Z = lam[:, None] * W1 + (1.0 - lam)[:, None] * W2 + ball_r[:, None] * U
    breach = vector_norm_rows(Z - region.center, q) - region.ball_radius
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
    The samples are ``region.sample_batch(substream(seed), n_samples)``,
    so on an lq ball sample ``i`` is the point ``w1`` of sample ``i`` of
    ``verify_strong_convexity`` with the same seed and size.  The witness
    is the first sample of largest breach.
    """
    if not isinstance(region, LqBall) or region.mu is None or region.mu <= 0:
        raise ValueError("region must be an lq ball that declares mu > 0")
    c = np.asarray(c, dtype=float)
    wbar = region.linopt(c)  # validates c
    if not np.any(c):
        raise ValueError("c must be nonzero")
    _require_number("n_samples", n_samples, True, at_least=1)
    q = region.norm_exponent
    c_star = float(dual_norm_rows(c[None], q)[0])
    W = region.sample_batch(substream(seed), n_samples)
    D = W - wbar
    rhs = 0.5 * region.mu * c_star * np.square(vector_norm_rows(D, q))
    breach = rhs - _column_dots(D, c)
    i = int(np.argmax(breach))
    witness = {"w": W[i].tolist(), "sample_index": i}
    return ViolationReport(n_samples, int((breach > MEMBERSHIP_TOL).sum()),
                           float(breach[i]), witness)
