"""Capacity estimators: Monte-Carlo Rademacher complexities, finite-class
counting bounds, brute-force Natarajan dimension, and closed-form
complexity bounds for norm-constrained linear predictor classes.

The Monte-Carlo estimators take the sup over a caller-supplied *finite*
hypothesis set exactly (this lower-bounds the complexity of any larger
class containing it).  Sign draw ``k`` comes from ``substream(seed, k)``,
the definition in ``_rng``, so estimates are deterministic per seed and
monotone under adding hypotheses.  Both estimators hand an (H, K) stack of
values to ``_sup_correlations``: ``rademacher_spo_mc`` its SPO losses
(K = n) and ``rademacher_multivariate_mc`` its flattened predictions
(K = n*d).  It is the one place where signs meet values: it correlates the
blocks of ``_rng.substream_sign_blocks`` with the stack and keeps each
draw's sup, so no estimator holds the whole m x K sign array.

A blocked estimate equals the whole-array product's bits only where BLAS
rounds each row of a block's product as in the whole-array product, which
BLAS does not promise.  OpenBLAS's SkylakeX dgemm takes a small-matrix
kernel when M * N * K <= 1e6, and that kernel rounds a row by its place in
the batch (blocks of 1, 7 or 64 rows were seen to move the last digit).
So a block has at least ``SIGN_BLOCK_ROWS`` (512) rows, pinned, and enough
more to lie past that bound, and a product within it is one block.  It
also has as many rows as ``BLOCK_BYTES_MAX`` (1 MiB) holds of signs, or of
correlations when there are more hypotheses than signs in a row, when that
is more: the narrow sign kernel pays its array passes once per block, so
narrow rows are drawn in few blocks.  ``_rng.substream_sign_blocks``
splits the request evenly into blocks of at least that height.  A single
hypothesis makes the product a gemv, which also rounds a row by its place
(and its threads split the rows), so its signs are drawn whole.  Equality
was checked on OpenBLAS 0.3.31 (SkylakeX kernels) on the shapes of the
tests; another BLAS build may move the last digit, and any one build gives
the same estimate per seed.

The hypothesis axis is a batch axis.  A hypothesis set stores its
matrices as one (H, d, p) array and predicts a block of them at once:
``FiniteHypothesisSet.prediction_blocks`` yields as many hypotheses'
(h, n, d) predictions as fit in ``BLOCK_BYTES_MAX`` bytes, one at least.
``rademacher_spo_mc``, ``count_restrictions`` and ``oracle_label_table``
make one oracle call per block, so of their arrays only the (H, n) SPO
losses or int64 labels span every hypothesis, and each call refuses those
over ``ARRAY_BYTES_MAX`` before any oracle work.  So does each Monte-Carlo
estimator with its sign request and with its longest sign block's (rows, H)
correlations, the one array of ``_sup_correlations`` that spans every
hypothesis.  Stacked ``matmul`` computes each hypothesis apart and the
oracles work row by row, so each row's prediction, decision and cost is the
one a per-hypothesis call would give, ties included, whatever the block
height.  Oracle decisions get label ids by their bytes, in order of first
appearance; a block groups its rows by a float key and checks every row
against its group's first row, so only a block's distinct decisions meet
the id table.

``natarajan_dim_bruteforce`` prunes its search with two exact rules.  A
set of s points is N-shattered when some pair of label tuples that differ
at every point generates a cube of 2**s mixtures, all realized.
1. The mixtures are 2**s distinct tuples, so a set whose restricted labels
   hold fewer distinct tuples is skipped.
2. Swapping the two labels of a cube member at one point gives another
   cube member, which differs from it at that point only.  So repeatedly
   dropping any tuple that, at some point, has no other remaining tuple
   differing from it there only never drops a cube member.  The pair
   search runs on what remains (the flip-closed core) and finds a cube
   there exactly when the full set of restricted tuples holds one.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from itertools import combinations
from typing import Iterator

import numpy as np

from ._rng import (ARRAY_BYTES_MAX, BLOCK_BYTES_MAX, sign_block_heights,
                   substream_sign_blocks)
from .geometry import FeasibleRegion
from .losses import LabeledSample

#: exhaustive-search budget for the Natarajan dimension
NATARAJAN_MAX_POINTS = 12
NATARAJAN_MAX_HYPOTHESES = 1 << 16
#: least rows per sign block of ``_sup_correlations``; see the module
#: docstring for why it is pinned
SIGN_BLOCK_ROWS = 512
#: M * N * K up to which OpenBLAS's SkylakeX dgemm takes its small-matrix
#: kernel; see the module docstring
_SMALL_GEMM_MNK = 10 ** 6


class FiniteHypothesisSet:
    """A finite set of linear cost-vector predictors ``x -> B @ x``, stored
    as one (H, d, p) stack of matrices."""

    def __init__(self, matrices):
        try:
            stacked = np.array(matrices, dtype=float)
        except ValueError as exc:
            # ragged nesting; an entry that is not a number keeps numpy's message
            if "inhomogeneous" not in str(exc):
                raise
            raise ValueError("all hypothesis matrices must share one shape") from None
        if stacked.ndim > 0 and len(stacked) == 0:
            raise ValueError("hypothesis set must be non-empty")
        if stacked.ndim != 3:
            raise ValueError("each hypothesis must be a 2-D matrix")
        if not np.all(np.isfinite(stacked)):
            raise ValueError("hypothesis matrices must be finite")
        self.matrices = stacked
        self.d, self.p = stacked.shape[1:]

    @classmethod
    def from_json(cls, text: str) -> "FiniteHypothesisSet":
        """Parse a JSON list of matrices (each a list of rows)."""
        data = json.loads(text)
        if not isinstance(data, list):
            raise ValueError("hypotheses must be a JSON list of matrices")
        return cls(data)

    def __len__(self) -> int:
        return len(self.matrices)

    def subset(self, indices) -> "FiniteHypothesisSet":
        return FiniteHypothesisSet(self.matrices[list(indices)])

    def _points(self, xs, hypotheses: int) -> np.ndarray:
        """``xs`` as a checked (n, p) float array; refuses predictions of
        ``hypotheses`` hypotheses on it over ``ARRAY_BYTES_MAX`` bytes."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.p:
            raise ValueError(f"xs must have shape (n, {self.p})")
        if not np.all(np.isfinite(xs)):
            raise ValueError("xs must be finite")
        _check_budget("predictions", hypotheses, xs.shape[0], self.d)
        return xs

    def predictions(self, xs) -> np.ndarray:
        """Outputs of every hypothesis on the given points, shape (H, n, d);
        refused before it is formed when over ``ARRAY_BYTES_MAX`` bytes."""
        return self._points(xs, len(self)) @ self.matrices.transpose(0, 2, 1)

    def prediction_blocks(self, xs) -> Iterator[tuple[int, np.ndarray]]:
        """``predictions(xs)`` in order as ``(first, block)`` pairs: the
        (h, n, d) outputs of hypotheses ``first`` to ``first + h``, as many as
        fit in ``BLOCK_BYTES_MAX`` bytes, one at least.  Checks ``xs``, and
        refuses one hypothesis's outputs over ``ARRAY_BYTES_MAX``, before it
        returns."""
        xs = self._points(xs, 1)
        step = max(1, BLOCK_BYTES_MAX // max(1, 8 * xs.shape[0] * self.d))
        mats = self.matrices.transpose(0, 2, 1)
        return ((first, xs @ mats[first:first + step])
                for first in range(0, len(self), step))


def _check_budget(what: str, hypotheses: int, n: int, d: int | None = None) -> None:
    """Refuse an array of 8-byte ``what`` per hypothesis and point (and
    output, given ``d``) over ``ARRAY_BYTES_MAX`` bytes."""
    need = 8 * hypotheses * n * (1 if d is None else d)
    if need > ARRAY_BYTES_MAX:
        outputs = "" if d is None else f" x {d} outputs"
        raise ValueError(f"{hypotheses} hypotheses x {n} points{outputs} need {need} "
                         f"bytes of {what}, over the {ARRAY_BYTES_MAX}-byte budget")


# ---------------------------------------------------------------------------
# Monte-Carlo Rademacher estimators
# ---------------------------------------------------------------------------

def _correlation_signs(H: int, k: int, m_draws: int,
                       seed: int) -> Iterator[tuple[int, np.ndarray]]:
    """The sign blocks ``_sup_correlations`` correlates with an (H, k)
    stack, sized as the module docstring says.  Refuses, before any draw, a
    sign request or a longest block's (rows, H) correlations over
    ``ARRAY_BYTES_MAX`` bytes."""
    rows = m_draws if H == 1 else max(SIGN_BLOCK_ROWS,
                                      _SMALL_GEMM_MNK // max(1, H * k) + 1,
                                      BLOCK_BYTES_MAX // (8 * max(k, H)))
    height = next(sign_block_heights(m_draws, rows))
    need = 8 * height * H
    if need > ARRAY_BYTES_MAX:
        raise ValueError(f"{height} sign draws x {H} hypotheses need {need} bytes of "
                         f"correlations, over the {ARRAY_BYTES_MAX}-byte budget")
    return substream_sign_blocks(seed, m_draws, k, rows)


def _sup_correlations(values: np.ndarray, n: int, m_draws: int,
                      blocks: Iterator[tuple[int, np.ndarray]]) -> np.ndarray:
    """``sup_h (signs_k @ values[h]) / n`` for every sign draw ``k <
    m_draws``, from the sign rows of ``blocks`` (see ``_correlation_signs``)."""
    values_t = values.T
    sup = np.empty(m_draws)
    for first, signs in blocks:
        (signs @ values_t).max(axis=1, out=sup[first:first + len(signs)])
    # rounding is monotone, so the sup divided is the sup of the quotients
    sup /= n
    return sup


def _mc_summary(values: np.ndarray) -> tuple[float, float]:
    est = float(values.mean())
    if values.size < 2:
        return est, 0.0
    return est, float(values.std(ddof=1) / math.sqrt(values.size))


def rademacher_spo_mc(region: FeasibleRegion, hypotheses: FiniteHypothesisSet,
                      sample: LabeledSample, m_draws: int = 2000,
                      seed: int = 0) -> tuple[float, float]:
    """Monte-Carlo estimate of the empirical Rademacher complexity of the
    decision-loss class ``{(x, c) -> loss(f(x), c) : f in hypotheses}``.

    Returns ``(estimate, std_error)``.
    """
    if m_draws < 1:
        raise ValueError("m_draws must be >= 1")
    blocks = hypotheses.prediction_blocks(sample.xs)
    H, n, d = len(hypotheses), sample.n, hypotheses.d
    _check_budget("SPO losses", H, n)
    signs = _correlation_signs(H, n, m_draws, seed)
    # SPO losses, (H, n), from one oracle call per block of hypotheses;
    # the optimal costs c @ w*(c) are solved once for every hypothesis.
    # Each distinct batch is validated once; the tiled costs need no check.
    cs = region._check_cost_batch(sample.cs)
    opt = region._decision_cost(cs, cs)
    losses = np.empty((H, n))
    tiled = None
    for first, preds in blocks:
        h = len(preds)
        if tiled is None:  # the first block is the tallest
            tiled = np.tile(cs, (h, 1))
        stacked = region._check_cost_batch(preds.reshape(h * n, d))
        realized = region._decision_cost(stacked, tiled[:h * n])
        np.subtract(realized.reshape(h, n), opt, out=losses[first:first + h])
    return _mc_summary(_sup_correlations(losses, n, m_draws, signs))


def rademacher_multivariate_mc(hypotheses: FiniteHypothesisSet, xs,
                               m_draws: int = 2000,
                               seed: int = 0) -> tuple[float, float]:
    """Monte-Carlo estimate of the multivariate empirical Rademacher
    complexity ``E_sigma sup_f (1/n) sum_i sigma_i @ f(x_i)`` with one
    sign per output coordinate.
    """
    if m_draws < 1:
        raise ValueError("m_draws must be >= 1")
    H, d = len(hypotheses), hypotheses.d
    # the predictions' refusals, then the signs', before any array is formed
    xs = hypotheses._points(xs, H)
    n = len(xs)
    signs = _correlation_signs(H, n * d, m_draws, seed)
    preds = hypotheses.predictions(xs)  # (H, n, d)
    return _mc_summary(_sup_correlations(preds.reshape(H, n * d), n, m_draws, signs))


def _decision_ids(decisions: np.ndarray, weights: np.ndarray,
                  ids: dict[bytes, int]) -> np.ndarray:
    """Ids of the rows of ``decisions`` by their bytes: ``ids`` gives those
    seen before, and a new row takes the next id in order of first
    appearance, which ``ids`` records.  Rows are grouped by their float key
    ``decisions @ weights``; any weights give exact ids, since every row is
    checked against its group's first row."""
    decisions = np.ascontiguousarray(decisions)
    words = decisions.view(np.uint64)
    _, first, inverse = np.unique(decisions @ weights, return_index=True,
                                  return_inverse=True)
    if not np.array_equal(words, words[first[inverse]]):
        # equal keys on unequal rows: one group per row
        first = inverse = np.arange(len(decisions))
    group_ids = np.empty(len(first), dtype=np.int64)
    for group in np.argsort(first):
        group_ids[group] = ids.setdefault(decisions[first[group]].tobytes(), len(ids) + 1)
    return group_ids[inverse]


def _oracle_labels(region: FeasibleRegion, hypotheses: FiniteHypothesisSet,
                   xs) -> np.ndarray:
    """The (H, n) int64 ids of ``oracle_label_table``, hypothesis by
    hypothesis, from one oracle call per block of hypotheses."""
    region.extreme_point_count()  # rejects regions without finite extreme points
    xs = np.asarray(xs, dtype=float)
    blocks = hypotheses.prediction_blocks(xs)
    H, n = len(hypotheses), xs.shape[0]
    _check_budget("labels", H, n)
    labels = np.empty((H, n), dtype=np.int64)
    ids: dict[bytes, int] = {}
    weights = np.random.default_rng(0).uniform(1.0, 2.0, region.dim)
    for first, preds in blocks:
        h = len(preds)
        decisions = region.linopt_batch(preds.reshape(h * n, hypotheses.d))
        labels[first:first + h] = _decision_ids(decisions, weights, ids).reshape(h, n)
    return labels


def count_restrictions(region: FeasibleRegion, hypotheses: FiniteHypothesisSet,
                       xs) -> int:
    """Number of distinct decision-vector tuples ``(w*(f(x_1)), ..., w*(f(x_n)))``
    over the hypothesis set: the distinct columns of ``oracle_label_table``."""
    return len({row.tobytes() for row in _oracle_labels(region, hypotheses, xs)})


def oracle_label_table(region: FeasibleRegion, hypotheses: FiniteHypothesisSet,
                       xs) -> np.ndarray:
    """Label table of oracle decisions, an (n, H) int64 array: entry (i, j)
    is an integer id of the extreme point chosen by hypothesis j at point i.
    Ids are numbered in order of first appearance, hypothesis by hypothesis."""
    return _oracle_labels(region, hypotheses, xs).T


def massart_bound(card: float, n: int, omega: float) -> float:
    """Finite-class Rademacher bound ``omega * sqrt(2 * ln(card) / n)``.

    ``card`` is the cardinality of the restricted class (any real >= 1 is
    accepted so analytic cardinalities can be plugged in directly).
    """
    if card < 1:
        raise ValueError("card must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    if omega < 0:
        raise ValueError("omega must be >= 0")
    return omega * math.sqrt(2.0 * math.log(card) / n)


# ---------------------------------------------------------------------------
# Natarajan dimension by exhaustive search
# ---------------------------------------------------------------------------

def check_natarajan_budget(points: int, hypotheses: int) -> None:
    """Refuse a search that exceeds the budget; check before any oracle work."""
    if points > NATARAJAN_MAX_POINTS or hypotheses > NATARAJAN_MAX_HYPOTHESES:
        raise ValueError(f"{points} points x {hypotheses} hypotheses exceeds the "
                         f"exhaustive search budget ({NATARAJAN_MAX_POINTS} x "
                         f"{NATARAJAN_MAX_HYPOTHESES})")


def _is_n_shattered(tuples: list[tuple], size: int) -> bool:
    pool = set(tuples)
    for i, g1 in enumerate(tuples):
        for g2 in tuples[i + 1:]:
            if any(a == b for a, b in zip(g1, g2)):
                continue
            if all(tuple(g1[k] if mask >> k & 1 else g2[k] for k in range(size)) in pool
                   for mask in range(1 << size)):
                return True
    return False


def _flip_closed_core(pool: set[tuple], size: int) -> set[tuple]:
    """Largest subset of ``pool`` in which every tuple has, at every
    coordinate, another member that differs from it only there."""
    core = pool
    while True:
        kept = core
        for k in range(size):
            partners = Counter(t[:k] + t[k + 1:] for t in kept)
            kept = {t for t in kept if partners[t[:k] + t[k + 1:]] > 1}
        if len(kept) == len(core):
            return core
        core = kept


def natarajan_dim_bruteforce(table) -> int:
    """Largest point set witnessed as N-shattered by the label table, a
    non-empty points x hypotheses array of integer labels.

    A set is N-shattered when two hypotheses disagree on every point of it
    and every way of mixing their labels across the set is realized by
    some hypothesis.  The search enumerates candidate sets by increasing
    size and stops at the first size with no shattered set (the dimension
    is monotone), returning 0 when no pair of hypotheses disagrees.  A set
    is searched only if its restricted labels could hold a shattered cube
    (see the module docstring for why both prunes are exact).
    """
    table = np.asarray(table)
    if table.ndim != 2 or table.shape[0] < 1 or table.shape[1] < 1:
        raise ValueError("label table must be a non-empty 2-D array")
    if not np.issubdtype(table.dtype, np.integer):
        raise ValueError("labels must be integers")
    m, H = table.shape
    check_natarajan_budget(m, H)
    columns = {tuple(col) for col in table.T.tolist()}
    dim = 0
    for size in range(1, m + 1):
        cube = 1 << size
        shattered = False
        for subset in combinations(range(m), size):
            restricted = {tuple(col[i] for i in subset) for col in columns}
            if len(restricted) < cube:
                continue
            core = _flip_closed_core(restricted, size)
            if len(core) >= cube and _is_n_shattered(sorted(core), size):
                shattered = True
                break
        if not shattered:
            break
        dim = size
    return dim


# ---------------------------------------------------------------------------
# closed-form multivariate Rademacher bounds for constrained linear classes
# ---------------------------------------------------------------------------

def linear_class_rad_bound(kind: str, beta: float, d: int, p: int,
                           x_radius: float, n: int) -> float:
    """Closed-form upper bound on the multivariate Rademacher complexity of
    the linear class ``{x -> B x}`` with B (d x p) in a norm ball of radius
    ``beta``, on features of norm at most ``x_radius``.

    * frobenius   : ``rho2(X) * beta * sqrt(2 d / n)``
    * l1_vec      : ``rho_inf(X) * beta * sqrt(6 ln(p d) / n)``
    * group_lasso : ``rho_inf(X) * beta * sqrt(6 d ln(p) / n)``
    """
    if kind not in ("frobenius", "l1_vec", "group_lasso"):
        raise ValueError(f"unknown constraint kind: {kind!r}")
    if not (beta > 0 and math.isfinite(beta)):
        raise ValueError("beta must be positive and finite")
    if d < 1 or p < 1:
        raise ValueError("d and p must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    if x_radius < 0:
        raise ValueError("x_radius must be >= 0")
    if kind == "frobenius":
        return x_radius * beta * math.sqrt(2.0 * d / n)
    if kind == "l1_vec":
        if p * d <= 1:
            raise ValueError("l1_vec bound requires p * d > 1")
        return x_radius * beta * math.sqrt(6.0 * math.log(p * d) / n)
    if p <= 1:
        raise ValueError("group_lasso bound requires p > 1")
    return x_radius * beta * math.sqrt(6.0 * d * math.log(p) / n)
