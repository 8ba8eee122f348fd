"""Capacity estimators: Monte-Carlo Rademacher complexities, finite-class
counting bounds, brute-force Natarajan dimension, and closed-form
complexity bounds for norm-constrained linear predictor classes.

The Monte-Carlo estimators take the sup over a caller-supplied *finite*
hypothesis set exactly (this lower-bounds the complexity of any larger
class containing it).  Sign draw ``k`` comes from ``substream(seed, k)``,
the definition in ``_rng``; ``_rng.substreams`` seeds all draws in one
batch with the same streams.  So estimates are deterministic per seed and
monotone under adding hypotheses.

The hypothesis axis is a batch axis.  A matrix-backed set stores its
matrices as one (H, d, p) array and predicts all of them at once, and
``rademacher_spo_mc``, ``count_restrictions`` and ``oracle_label_table``
each make one oracle call on the stacked (H * n, d) predictions.  The
oracles work row by row, so each row's decision and cost is the one a
per-hypothesis call would give, ties included.

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
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from ._rng import substreams
from .geometry import FeasibleRegion
from .losses import LabeledSample

#: exhaustive-search budget for the Natarajan dimension
NATARAJAN_MAX_POINTS = 12
NATARAJAN_MAX_HYPOTHESES = 1 << 16


class FiniteHypothesisSet:
    """A finite set of cost-vector predictors.

    Backed either by an (H, d, p) stack of matrices (evaluated as
    ``x -> B @ x``) or by an explicit table of outputs per evaluation point.
    """

    def __init__(self, matrices: list[np.ndarray] | None = None,
                 table: np.ndarray | None = None):
        if (matrices is None) == (table is None):
            raise ValueError("specify exactly one of matrices / table")
        if matrices is not None:
            mats = [np.asarray(B, dtype=float) for B in matrices]
            if not mats:
                raise ValueError("hypothesis set must be non-empty")
            shape = mats[0].shape
            if len(shape) != 2:
                raise ValueError("each hypothesis must be a 2-D matrix")
            if any(B.shape != shape for B in mats):
                raise ValueError("all hypothesis matrices must share one shape")
            stacked = np.stack(mats)
            if not np.all(np.isfinite(stacked)):
                raise ValueError("hypothesis matrices must be finite")
            self.matrices: np.ndarray | None = stacked
            self.table: np.ndarray | None = None
            self.d, self.p = shape
        else:
            T = np.asarray(table, dtype=float)
            if T.ndim != 3 or T.shape[0] < 1:
                raise ValueError("table must have shape (hypotheses, points, d)")
            if not np.all(np.isfinite(T)):
                raise ValueError("table entries must be finite")
            self.matrices = None
            self.table = T
            self.d = T.shape[2]
            self.p = None

    @classmethod
    def from_matrices(cls, matrices) -> "FiniteHypothesisSet":
        return cls(matrices=list(matrices))

    @classmethod
    def from_table(cls, table) -> "FiniteHypothesisSet":
        return cls(table=table)

    @classmethod
    def from_json(cls, text: str) -> "FiniteHypothesisSet":
        """Parse a JSON list of matrices (each a list of rows)."""
        return cls.from_matrices([np.asarray(B, dtype=float) for B in json.loads(text)])

    def __len__(self) -> int:
        return len(self.matrices) if self.matrices is not None else self.table.shape[0]

    def subset(self, indices) -> "FiniteHypothesisSet":
        if self.matrices is not None:
            return FiniteHypothesisSet(matrices=self.matrices[list(indices)])
        return FiniteHypothesisSet(table=self.table[list(indices)])

    def predictions(self, xs: np.ndarray) -> np.ndarray:
        """Outputs of every hypothesis on the given points, shape (H, n, d)."""
        xs = np.asarray(xs, dtype=float)
        if self.matrices is not None:
            if xs.ndim != 2 or xs.shape[1] != self.p:
                raise ValueError(f"xs must have shape (n, {self.p})")
            return xs @ self.matrices.transpose(0, 2, 1)
        if self.table.shape[1] != xs.shape[0]:
            raise ValueError("table was built for a different number of points")
        return self.table


@dataclass(frozen=True)
class LinearPredictorClass:
    """Norm-ball-constrained linear predictor family ``{x -> B x}``."""

    constraint_kind: str  # frobenius | l1_vec | group_lasso
    beta: float
    d: int
    p: int

    def __post_init__(self):
        if self.constraint_kind not in ("frobenius", "l1_vec", "group_lasso"):
            raise ValueError(f"unknown constraint kind: {self.constraint_kind!r}")
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValueError("beta must be positive and finite")
        if self.d < 1 or self.p < 1:
            raise ValueError("d and p must be >= 1")


@dataclass(eq=False)
class LabelTable:
    """points x hypotheses table of integer labels."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values)
        if self.values.ndim != 2 or self.values.shape[0] < 1 or self.values.shape[1] < 1:
            raise ValueError("label table must be a non-empty 2-D array")
        if not np.issubdtype(self.values.dtype, np.integer):
            raise ValueError("labels must be integers")

    @property
    def n_points(self) -> int:
        return self.values.shape[0]

    @property
    def n_hypotheses(self) -> int:
        return self.values.shape[1]


# ---------------------------------------------------------------------------
# Monte-Carlo Rademacher estimators
# ---------------------------------------------------------------------------

def _sign_draws(seed: int, m_draws: int, size: int) -> np.ndarray:
    """(m_draws, size) array of +-1 signs; row k is
    ``substream(seed, k).integers(0, 2, size) * 2.0 - 1.0``."""
    signs = np.empty((m_draws, size))
    for row, rng in zip(signs, substreams(seed, m_draws)):
        row[:] = rng.integers(0, 2, size=size)
    # in place: a scaled copy would double the peak memory of large draws
    signs *= 2.0
    signs -= 1.0
    return signs


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
    preds = hypotheses.predictions(sample.xs)
    H, n, d = preds.shape
    # SPO losses, (H, n), from one oracle call on the stacked predictions;
    # the optimal costs c @ w*(c) are solved once for every hypothesis
    opt = region.decision_cost_batch(sample.cs, sample.cs)
    realized = region.decision_cost_batch(preds.reshape(H * n, d),
                                          np.tile(sample.cs, (H, 1)))
    losses = realized.reshape(H, n) - opt
    signs = _sign_draws(seed, m_draws, sample.n)
    corr = signs @ losses.T / sample.n  # (m, H)
    return _mc_summary(corr.max(axis=1))


def rademacher_multivariate_mc(hypotheses: FiniteHypothesisSet, xs,
                               m_draws: int = 2000,
                               seed: int = 0) -> tuple[float, float]:
    """Monte-Carlo estimate of the multivariate empirical Rademacher
    complexity ``E_sigma sup_f (1/n) sum_i sigma_i @ f(x_i)`` with one
    sign per output coordinate.
    """
    if m_draws < 1:
        raise ValueError("m_draws must be >= 1")
    xs = np.asarray(xs, dtype=float)
    preds = hypotheses.predictions(xs)  # (H, n, d)
    H, n, d = preds.shape
    flat = preds.reshape(H, n * d)
    signs = _sign_draws(seed, m_draws, n * d)
    corr = signs @ flat.T / n  # (m, H)
    return _mc_summary(corr.max(axis=1))


def _stacked_decisions(region: FeasibleRegion, hypotheses: FiniteHypothesisSet,
                       xs) -> np.ndarray:
    """Oracle decisions ``w*(f(x_i))`` of every hypothesis at every point,
    shape (H, n, d), from one oracle call on the stacked predictions."""
    preds = hypotheses.predictions(np.asarray(xs, dtype=float))
    return region.linopt_batch(preds.reshape(-1, preds.shape[2])).reshape(preds.shape)


def count_restrictions(region: FeasibleRegion, hypotheses: FiniteHypothesisSet,
                       xs) -> int:
    """Number of distinct decision-vector tuples ``(w*(f(x_1)), ..., w*(f(x_n)))``
    over the hypothesis set."""
    region.extreme_point_count()  # rejects regions without finite extreme points
    decisions = _stacked_decisions(region, hypotheses, xs)
    return len({row.tobytes() for row in decisions.reshape(len(decisions), -1)})


def oracle_label_table(region: FeasibleRegion, hypotheses: FiniteHypothesisSet,
                       xs) -> LabelTable:
    """Label table of oracle decisions: entry (i, j) is an integer id of the
    extreme point chosen by hypothesis j at point i.  Ids are numbered in
    order of first appearance, hypothesis by hypothesis."""
    region.extreme_point_count()
    decisions = _stacked_decisions(region, hypotheses, xs)
    H, n, d = decisions.shape
    ids: dict[bytes, int] = {}
    labels = [ids.setdefault(w.tobytes(), len(ids) + 1)
              for w in decisions.reshape(H * n, d)]
    return LabelTable(np.array(labels, dtype=np.int64).reshape(H, n).T)


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


def natarajan_dim_bruteforce(table: LabelTable | np.ndarray) -> int:
    """Largest point set witnessed as N-shattered by the label table.

    A set is N-shattered when two hypotheses disagree on every point of it
    and every way of mixing their labels across the set is realized by
    some hypothesis.  The search enumerates candidate sets by increasing
    size and stops at the first size with no shattered set (the dimension
    is monotone), returning 0 when no pair of hypotheses disagrees.  A set
    is searched only if its restricted labels could hold a shattered cube
    (see the module docstring for why both prunes are exact).
    """
    if not isinstance(table, LabelTable):
        table = LabelTable(np.asarray(table))
    m, H = table.n_points, table.n_hypotheses
    check_natarajan_budget(m, H)
    columns = {tuple(col) for col in table.values.T.tolist()}
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

def linear_class_rad_bound(predictor_class: LinearPredictorClass,
                           x_radius: float, n: int) -> float:
    """Closed-form upper bound on the multivariate Rademacher complexity of
    a norm-constrained linear class.

    * frobenius   : ``rho2(X) * beta * sqrt(2 d / n)``
    * l1_vec      : ``rho_inf(X) * beta * sqrt(6 ln(p d) / n)``
    * group_lasso : ``rho_inf(X) * beta * sqrt(6 d ln(p) / n)``
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if x_radius < 0:
        raise ValueError("x_radius must be >= 0")
    kind = predictor_class.constraint_kind
    beta, d, p = predictor_class.beta, predictor_class.d, predictor_class.p
    if kind == "frobenius":
        return x_radius * beta * math.sqrt(2.0 * d / n)
    if kind == "l1_vec":
        if p * d <= 1:
            raise ValueError("l1_vec bound requires p * d > 1")
        return x_radius * beta * math.sqrt(6.0 * math.log(p * d) / n)
    if p <= 1:
        raise ValueError("group_lasso bound requires p > 1")
    return x_radius * beta * math.sqrt(6.0 * d * math.log(p) / n)
