"""Decision-error losses for predict-then-optimize models.

The base loss is the excess cost of acting on a predicted cost vector:
``c @ (w*(c_hat) - w*(c))``.  The margin variants penalize predictions
whose dual norm falls below a confidence threshold ``gamma`` by
interpolating toward (or jumping to) the worst-case gap ``omega_S(c)``.
The dual norm is always that of the region's own norm
(``region.norm_exponent``), the norm in which its ``mu`` is stated.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from ._inputs import _read_object
from .geometry import FeasibleRegion, dual_norm_rows


@dataclass(eq=False)
class LabeledSample:
    """n observations of (feature vector, realized cost vector)."""

    xs: np.ndarray
    cs: np.ndarray

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.cs = np.asarray(self.cs, dtype=float)
        if self.xs.ndim != 2 or self.cs.ndim != 2:
            raise ValueError("xs and cs must be 2-D arrays")
        if self.xs.shape[0] != self.cs.shape[0]:
            raise ValueError("xs and cs must have the same number of rows")
        if self.xs.shape[0] < 1:
            raise ValueError("sample must contain at least one observation")
        if not (np.all(np.isfinite(self.xs)) and np.all(np.isfinite(self.cs))):
            raise ValueError("sample entries must be finite")

    @property
    def n(self) -> int:
        return self.xs.shape[0]

    @property
    def p(self) -> int:
        return self.xs.shape[1]

    @property
    def d(self) -> int:
        return self.cs.shape[1]

    # -- serialization: one row per observation, x components then c components
    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([f"x{j}" for j in range(self.p)] + [f"c{j}" for j in range(self.d)])
        for x, c in zip(self.xs, self.cs):
            writer.writerow([repr(float(v)) for v in x] + [repr(float(v)) for v in c])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "LabeledSample":
        rows = list(csv.reader(io.StringIO(text)))
        if len(rows) < 2:
            raise ValueError("csv must contain a header and at least one row")
        header = rows[0]
        p = sum(1 for name in header if name.startswith("x"))
        d = len(header) - p
        if p < 1 or d < 1 or header != [f"x{j}" for j in range(p)] + [f"c{j}" for j in range(d)]:
            raise ValueError("csv header must be x0..x<p-1> then c0..c<d-1>, got "
                             + ",".join(header))
        for line, row in enumerate(rows[1:], start=2):
            if len(row) != len(header):
                raise ValueError(f"csv line {line} has {len(row)} cells, the header {len(header)}")
        data = np.array([[float(v) for v in row] for row in rows[1:]])
        return cls(xs=data[:, :p], cs=data[:, p:])

    def to_json(self) -> str:
        return json.dumps({"xs": self.xs.tolist(), "cs": self.cs.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "LabeledSample":
        data = _read_object(json.loads(text), "sample", {"xs": 2, "cs": 2}, ("xs", "cs"))
        return cls(xs=data["xs"], cs=data["cs"])


# ---------------------------------------------------------------------------
# pointwise losses: batch kernels, and their one-row forms
# ---------------------------------------------------------------------------

def _spo_losses(region: FeasibleRegion, C_hat, C) -> tuple[np.ndarray, np.ndarray]:
    """The SPO losses and the validated ``C``; each batch is checked once."""
    C_hat = region._check_cost_batch(C_hat)
    C = region._check_cost_batch(C, rows=C_hat.shape[0])
    return region._decision_cost(C_hat, C) - region._decision_cost(C, C), C


def spo_loss_batch(region: FeasibleRegion, C_hat, C) -> np.ndarray:
    """Excess cost of deciding with each row of ``C_hat`` when the true cost
    is the matching row of ``C``."""
    return _spo_losses(region, C_hat, C)[0]


def margin_mix(base: np.ndarray, gap: np.ndarray, dual_norms: np.ndarray,
               gamma: float) -> np.ndarray:
    """Margin loss from its parts: the base losses, the gaps ``omega_S(c)``
    and the predictions' dual norms.  Callers that evaluate many ``gamma``
    on one sample compute the parts once."""
    weight = np.minimum(dual_norms / gamma, 1.0)
    return weight * base + (1.0 - weight) * gap


def _check_gamma(gamma: float, zero_ok: bool) -> None:
    if not (math.isfinite(gamma) and (gamma >= 0 if zero_ok else gamma > 0)):
        raise ValueError(f"gamma must be finite and {'>= 0' if zero_ok else '> 0'}, "
                         f"got {gamma!r}")


def margin_spo_loss_batch(region: FeasibleRegion, C_hat, C, gamma: float) -> np.ndarray:
    """Margin loss: equals the base loss when the prediction's dual norm
    exceeds ``gamma`` (a finite value > 0), else interpolates between it
    and the gap ``omega_S(c)`` with weight ``||c_hat||_* / gamma``."""
    _check_gamma(gamma, zero_ok=False)
    base, C = _spo_losses(region, C_hat, C)
    return margin_mix(base, region._gap(C),
                      dual_norm_rows(C_hat, region.norm_exponent), gamma)


def hard_margin_spo_loss_batch(region: FeasibleRegion, C_hat, C, gamma: float) -> np.ndarray:
    """Hard margin loss: the gap ``omega_S(c)`` whenever the prediction's
    dual norm is at most ``gamma`` (a finite value >= 0; at 0 the
    threshold binds only for a zero prediction), else the base loss."""
    _check_gamma(gamma, zero_ok=True)
    base, C = _spo_losses(region, C_hat, C)
    above = dual_norm_rows(C_hat, region.norm_exponent) > gamma
    return np.where(above, base, region._gap(C))


def _one_row(kernel, region: FeasibleRegion, c_hat, c, *args) -> float:
    rows = [np.asarray(v, dtype=float)[None] for v in (c_hat, c)]
    return float(kernel(region, *rows, *args)[0])


def spo_loss(region: FeasibleRegion, c_hat, c) -> float:
    return _one_row(spo_loss_batch, region, c_hat, c)


def margin_spo_loss(region: FeasibleRegion, c_hat, c, gamma: float) -> float:
    return _one_row(margin_spo_loss_batch, region, c_hat, c, gamma)


def hard_margin_spo_loss(region: FeasibleRegion, c_hat, c, gamma: float) -> float:
    return _one_row(hard_margin_spo_loss_batch, region, c_hat, c, gamma)


# ---------------------------------------------------------------------------
# empirical risk
# ---------------------------------------------------------------------------

def predict_batch(predictor, xs: np.ndarray) -> np.ndarray:
    """Evaluate a d x p matrix predictor B on feature rows.

    Returns ``(B @ xs.T).T``: the same bits as ``xs @ B.T`` on the
    experiment shapes, in about half the time on tall batches, and
    column-major, so each decision-cost column sweep reads contiguous
    memory."""
    xs = np.asarray(xs, dtype=float)
    B = np.asarray(predictor, dtype=float)
    if B.ndim != 2 or B.shape[1] != xs.shape[1]:
        raise ValueError(f"predictor matrix has shape {B.shape}, expected (d, {xs.shape[1]})")
    return (B @ xs.T).T


def empirical_risk(region: FeasibleRegion, predictor, sample: LabeledSample,
                   kind: str = "spo", gamma: float | None = None) -> float:
    """Mean loss of the predictor over the sample.

    ``kind`` is one of ``"spo"``, ``"margin"`` or ``"hard"``; the margin
    kinds require ``gamma`` and measure predictions in the dual of the
    region's norm.
    """
    preds = predict_batch(predictor, sample.xs)
    if kind == "spo":
        losses = spo_loss_batch(region, preds, sample.cs)
    elif kind == "margin":
        if gamma is None:
            raise ValueError("margin risk requires gamma")
        losses = margin_spo_loss_batch(region, preds, sample.cs, gamma)
    elif kind == "hard":
        if gamma is None:
            raise ValueError("hard-margin risk requires gamma")
        losses = hard_margin_spo_loss_batch(region, preds, sample.cs, gamma)
    else:
        raise ValueError(f"unknown loss kind: {kind!r}")
    return float(losses.mean())
