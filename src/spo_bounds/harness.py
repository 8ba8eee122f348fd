"""Experiment driver: synthetic data, least-squares baseline, Monte-Carlo
risk estimation and bound-validity trials.

The data generator (features on the unit sphere or standard Gaussian,
costs linear in the features plus Gaussian noise, projected into the
declared cost domain) is an artifact choice: it exists so the bounds have
a concrete distribution to be tested against, and reports label it as
such.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from ._inputs import _read_object, _require_number
from ._rng import ARRAY_BYTES_MAX, substream
from .bounds import BoundInputs, evaluate
from .complexity import linear_class_rad_bound
from .geometry import (CostDomain, DagPathPolytope, FeasibleRegion, LqBall,
                       UnitSimplex, VertexPolytope, dual_norm_rows,
                       region_from_dict, vector_norm_rows)
from .losses import LabeledSample, margin_mix, predict_batch, spo_loss_batch

GENERATOR_NOTE = "gaussian-linear synthetic generator (artifact choice; not prescribed by the theory)"

_STREAM_SAMPLE = 1
_STREAM_RISK = 2

#: config fields whose dict key is not their name
_CONFIG_KEY_OF = {"ns": "n"}


@dataclass(eq=False)
class ExperimentConfig:
    """Inputs for one experiment: region, cost domain, true model, and sizes."""

    region: FeasibleRegion
    cost_domain: CostDomain
    b_star: np.ndarray
    noise: float = 0.0
    feature_dist: str = "sphere"  # sphere | gaussian
    ns: list[int] = field(default_factory=lambda: [100])
    trials: int = 1
    delta: float = 0.05
    gamma_grid: list[float] = field(default_factory=list)
    beta: float | None = None
    m_fresh: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if isinstance(self.ns, (int, np.integer)):
            self.ns = [self.ns]
        for key, vals, bound in (("n", self.ns, {"integer": True, "at_least": 1}),
                                 ("gamma_grid", self.gamma_grid, {"above": 0})):
            if not isinstance(vals, (list, tuple, np.ndarray)):
                raise ValueError(f"{key} must be a list, got {vals!r}")
            for val in vals:
                _require_number(key, val, **bound)
        # numpy scalars are stored as Python numbers, which the summary echoes
        self.trials = _require_number("trials", self.trials, True, at_least=1)
        self.m_fresh = _require_number("m_fresh", self.m_fresh, True, at_least=1)
        self.seed = _require_number("seed", self.seed, True, at_least=0)
        self.noise = _require_number("noise", self.noise, at_least=0)
        self.delta = _require_number("delta", self.delta, above=0, below=1)
        self.b_star = np.asarray(self.b_star, dtype=float)
        if self.b_star.ndim != 2 or self.b_star.shape[0] != self.region.dim:
            raise ValueError(f"b_star must have shape ({self.region.dim}, p)")
        if not np.all(np.isfinite(self.b_star)):
            raise ValueError("b_star must be finite")
        if self.beta is None:
            self.beta = 2.0 * float(np.linalg.norm(self.b_star)) + 1.0
        self.beta = _require_number("beta", self.beta, above=0)
        if self.feature_dist not in ("sphere", "gaussian"):
            raise ValueError(f"unknown feature distribution: {self.feature_dist!r}")
        self.ns = [int(n) for n in self.ns]
        if not self.ns:
            raise ValueError("n must be a non-empty list")
        self.gamma_grid = [float(g) for g in self.gamma_grid]
        if any(a >= b for a, b in zip(self.gamma_grid, self.gamma_grid[1:])):
            raise ValueError("gamma grid must be strictly ascending")
        if self.gamma_grid and not self.strongly_convex:
            raise ValueError("a gamma grid is read only by the margin bounds, which need mu > 0")
        # a sample of `rows` draws holds 8 * rows * (p + d) bytes of
        # features and costs; refuse one over the budget before drawing it
        for key, rows in (("m_fresh", int(self.m_fresh)), ("n", max(self.ns))):
            need = 8 * rows * (self.p + self.d)
            if need > ARRAY_BYTES_MAX:
                raise ValueError(f"{key} = {rows} needs {need} bytes of samples, "
                                 f"over the {ARRAY_BYTES_MAX}-byte budget")

    @property
    def d(self) -> int:
        return self.region.dim

    @property
    def p(self) -> int:
        return self.b_star.shape[1]

    @property
    def x_radius(self) -> float:
        """sup of the feature l2 norm; only bounded for sphere features."""
        if self.feature_dist == "sphere":
            return 1.0
        raise ValueError("gaussian features are unbounded; no finite x radius")

    @property
    def strongly_convex(self) -> bool:
        region = self.region
        return isinstance(region, LqBall) and region.mu is not None and region.mu > 0

    @property
    def polyhedral(self) -> bool:
        return isinstance(self.region, (VertexPolytope, UnitSimplex, DagPathPolytope))

    def to_dict(self) -> dict:
        data = {_CONFIG_KEY_OF.get(f.name, f.name): getattr(self, f.name)
                for f in fields(self)}
        data.update(region=self.region.to_dict(), cost_domain=self.cost_domain.to_dict(),
                    b_star=self.b_star.tolist())
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """The config ``to_dict`` wrote; an absent key takes its field's default."""
        by_key = {_CONFIG_KEY_OF.get(f.name, f.name): f.name for f in fields(cls)}
        keys = {**dict.fromkeys(by_key, object), "b_star": 2}
        data = _read_object(data, "experiment config", keys, ("region", "cost_domain", "b_star"))
        kwargs = {by_key[key]: val for key, val in data.items()}
        kwargs["region"] = region = region_from_dict(data["region"])
        kwargs["cost_domain"] = CostDomain.from_dict(region, data["cost_domain"])
        return cls(**kwargs)


# ---------------------------------------------------------------------------
# data generation and fitting
# ---------------------------------------------------------------------------

def _draw_features(config: ExperimentConfig, rng: np.random.Generator,
                   n: int) -> np.ndarray:
    X = rng.standard_normal((n, config.p))
    if config.feature_dist == "sphere":
        norms = vector_norm_rows(X, 2.0)
        norms[norms == 0] = 1.0
        X /= norms[:, None]
    return X


def _draw_pairs(config: ExperimentConfig, rng: np.random.Generator,
                n: int) -> tuple[np.ndarray, np.ndarray]:
    X = _draw_features(config, rng, n)
    C = X @ config.b_star.T
    if config.noise > 0:
        C = C + config.noise * rng.standard_normal((n, config.d))
    return X, config.cost_domain.project(C)


def generate_sample(config: ExperimentConfig, trial_seed: int,
                    n: int | None = None) -> LabeledSample:
    """Draw a labeled sample; identical (config, trial_seed) gives identical
    bits.  Costs are projected into the declared cost domain so its radius
    and gap stay valid."""
    rng = substream(config.seed, _STREAM_SAMPLE, trial_seed)
    X, C = _draw_pairs(config, rng, config.ns[0] if n is None else n)
    return LabeledSample(xs=X, cs=C)


def _data_source(config: ExperimentConfig) -> tuple:
    """Every input the draws of a config read: the seed, the true model
    (shape, memory layout and bytes; a matrix product may round differently
    by layout), the noise, the feature law, the cost domain, ``ns``,
    ``trials`` and ``m_fresh``.  Configs with equal keys draw the same
    fresh sample and training samples bit for bit, whatever their region,
    gamma grid, beta or delta."""
    b_star = config.b_star
    return (config.seed, b_star.shape, b_star.strides, b_star.tobytes(), config.noise,
            config.feature_dist, repr(config.cost_domain.to_dict()), tuple(config.ns),
            config.trials, config.m_fresh)


def fit_least_squares(sample: LabeledSample, ridge: float = 1e-8) -> np.ndarray:
    """Ridge-stabilized least-squares fit of ``c ~ B x``; returns B (d x p)."""
    X, C = sample.xs, sample.cs
    gram = X.T @ X + ridge * np.eye(sample.p)
    return np.linalg.solve(gram, X.T @ C).T


def clip_frobenius(B: np.ndarray, beta: float) -> np.ndarray:
    """Project a matrix onto the Frobenius ball of radius beta."""
    norm = float(np.linalg.norm(B))
    if norm <= beta:
        return B
    return B * (beta / norm)


class RiskEvaluator:
    """Fresh-sample Monte-Carlo estimator of the expected decision loss, on
    one evaluation sample shared by every trial of a run and by every region
    it serves.

    ``RiskEvaluator(config)`` serves one config; ``RiskEvaluator(configs)``
    serves configs with one data source (see ``run_suite``), whose samples
    are the same bits, so the sample is drawn once.  It is independent of
    all training draws (separate stream), so each trial's estimate stays an
    unbiased fresh-sample MC estimate of its predictor's risk; sharing it
    just avoids regenerating and re-solving ``m_fresh`` points per trial.
    The features and costs are stored column-major, so the prediction and
    decision-cost sweeps read contiguous columns; each region validates the
    costs once, here, and its optimal costs ``c @ w*(c)`` are precomputed
    once.

    ``true_risk`` validates the predictor matrix B itself, not its m
    predictions: B must have shape (d, p) and finite entries, and since
    every prediction satisfies ``|x @ b| <= max|B| * sum_j max_i |X_ij|``,
    the predictions are scanned only when that bound reaches 1e300 (where
    they may overflow).  The predictions of the last predictor scored are
    kept, read-only, so the regions that score one predictor object form
    them once; another object, or the same one with other entries, is
    predicted afresh.  The estimate and its standard error are numpy's
    ``mean`` and ``std(ddof=1) / sqrt(m)``, step for step, sharing the one
    sum of the losses.
    """

    def __init__(self, configs):
        group = [configs] if isinstance(configs, ExperimentConfig) else list(configs)
        if len({_data_source(config) for config in group}) != 1:
            raise ValueError("an evaluator's configs must share one data source")
        lead = group[0]
        rng = substream(lead.seed, _STREAM_RISK)
        X, C = _draw_pairs(lead, rng, lead.m_fresh)
        # each draw is dropped before the next copy, so the column-major
        # copies add nothing to the memory peak of the draws themselves
        self.X = np.asfortranarray(X)
        del X
        self.C = np.asfortranarray(C)
        del C
        self.regions: list[FeasibleRegion] = []
        self._opt_costs: list[np.ndarray] = []
        for region in (config.region for config in group):
            if not any(region is seen for seen in self.regions):
                region._check_cost_batch(self.C)
                self.regions.append(region)
                self._opt_costs.append(region._decision_cost(self.C, self.C))
        # sum_j max_i |X_ij|, a bound on |x @ b| / max|b| over the sample
        self._xbound = float(sum(max(col.max(), -col.min()) for col in self.X.T))
        self._last = None  # (predictor, its bytes, its predictions)

    def _predictions(self, predictor, region: FeasibleRegion) -> np.ndarray:
        p = self.X.shape[1]
        B = np.asarray(predictor, dtype=float)
        if B.shape != (region.dim, p):
            raise ValueError(f"predictor matrix has shape {B.shape}, "
                             f"expected ({region.dim}, {p})")
        if not np.all(np.isfinite(B)):
            raise ValueError("predictor matrix has non-finite entries")
        entries = B.tobytes()
        if self._last is None or self._last[0] is not predictor or self._last[1] != entries:
            self._last = None  # free the last predictions before forming these
            preds = predict_batch(B, self.X)
            preds.flags.writeable = False
            self._last = (predictor, entries, preds)
        preds = self._last[2]
        if not float(np.abs(B).max()) * self._xbound < 1e300:
            region._check_cost_batch(preds)
        return preds

    def true_risk(self, predictor, region: FeasibleRegion | None = None) -> tuple[float, float]:
        """``(estimate, std_error)`` of the predictor's SPO risk on
        ``region``, one of the evaluator's regions (the object itself); it
        may be left out when the evaluator serves one region."""
        if region is None and len(self.regions) == 1:
            region = self.regions[0]
        k = next((k for k, seen in enumerate(self.regions) if seen is region), None)
        if k is None:
            raise ValueError("true_risk needs one of the evaluator's regions")
        losses = region._decision_cost(self._predictions(predictor, region), self.C)
        np.subtract(losses, self._opt_costs[k], out=losses)
        m = losses.size
        est = np.add.reduce(losses) / m
        if m < 2:
            return float(est), 0.0
        # numpy's var steps on the losses' own buffer: deviations from the
        # mean, squared in place, summed and divided by m - 1
        np.subtract(losses, est, out=losses)
        np.square(losses, out=losses)
        se = np.sqrt(np.add.reduce(losses) / (m - 1)) / math.sqrt(m)
        return float(est), float(se)


# ---------------------------------------------------------------------------
# bound-validity experiment
# ---------------------------------------------------------------------------

@dataclass
class TrialRecord:
    """One trial of one config: its empirical risks, its fresh-sample true
    risk, and the value of each bound ``run_trial`` scored, by column id
    (``covering``, ``margin@0.5``, ...) in output order.  Every output
    (``trials.csv``, the summary, the plot frames) reads its bound columns
    from here."""

    trial: int
    n: int
    gamma_star: float | None
    emp_spo: float
    emp_margin: dict[float, float]
    true_risk: float
    true_risk_stderr: float
    bounds: dict[str, float]

    def slack(self, bound_id: str) -> float:
        """The bound minus the true-risk estimate less three standard
        errors; the trial violates the bound exactly when this is
        negative."""
        return self.bounds[bound_id] - (self.true_risk - 3.0 * self.true_risk_stderr)

    def row(self) -> dict[str, str]:
        """This trial's ``trials.csv`` cells, by column name in order."""
        cells = {"trial": str(self.trial), "n": str(self.n),
                 "gamma_star": "" if self.gamma_star is None else repr(self.gamma_star),
                 "emp_spo": repr(self.emp_spo)}
        cells.update((f"emp_margin@{g!r}", repr(risk)) for g, risk in self.emp_margin.items())
        cells.update(true_risk=repr(self.true_risk),
                     true_risk_stderr=repr(self.true_risk_stderr))
        cells.update((f"bound@{b}", repr(val)) for b, val in self.bounds.items())
        cells.update((f"violation@{b}", str(int(self.slack(b) < 0))) for b in self.bounds)
        return cells


@dataclass
class BoundValidityResult:
    config: ExperimentConfig
    records: list[TrialRecord]
    summary: dict

    def trials_csv(self) -> str:
        rows = [rec.row() for rec in self.records]
        lines = [",".join(rows[0])] + [",".join(row.values()) for row in rows]
        return "\n".join(lines) + "\n"

    def plot_frames(self) -> dict[str, list[tuple[int, float, float]]]:
        """Per bound id: rows of (n, mean bound value, mean true risk)."""
        frames: dict[str, list[tuple[int, float, float]]] = {}
        for bound_id in self.records[0].bounds:
            rows = []
            for n in self.config.ns:
                recs = [r for r in self.records if r.n == n]
                rows.append((n,
                             float(np.mean([r.bounds[bound_id] for r in recs])),
                             float(np.mean([r.true_risk for r in recs]))))
            frames[bound_id] = rows
        return frames


def _bound_inputs(config: ExperimentConfig, n: int) -> BoundInputs:
    """The bound inputs a config fixes at sample size n: all but the
    empirical risk and the margin's gamma and gamma_bar.  A polyhedral
    region adds its extreme-point count; a strongly convex one adds mu and
    the closed-form multivariate complexity bound of the clipped predictors,
    the Frobenius ball of radius beta."""
    region, domain = config.region, config.cost_domain
    card_S = region.extreme_point_count() if config.polyhedral else None
    mu = rad = None
    if config.strongly_convex:
        mu = region.mu
        rad = linear_class_rad_bound("frobenius", config.beta, config.d, config.p,
                                     config.x_radius, n)
    return BoundInputs(n=n, delta=config.delta, omega=domain.omega, rho2_C=domain.rho2,
                       rho2_S=region.radius(2.0), d=config.d, p=config.p,
                       card_S=card_S, mu=mu, rad=rad)


def run_trial(config: ExperimentConfig, sample: LabeledSample, fit: np.ndarray,
              trial: int, evaluator: RiskEvaluator) -> TrialRecord:
    """One trial of one config, on a training sample and its least-squares
    fit that every config of its data source shares.  The one place that
    decides a config's bound columns: each is scored through
    ``bounds.evaluate`` into ``bounds``, in output order."""
    region, n = config.region, sample.n
    predictor = clip_frobenius(fit, config.beta) if config.strongly_convex else fit

    # the predictions and their SPO losses serve every risk of this trial
    preds = predict_batch(predictor, sample.xs)
    base = spo_loss_batch(region, preds, sample.cs)
    emp_spo = float(base.mean())
    fixed = _bound_inputs(config, n)
    bounds_vals: dict[str, float] = {}
    inputs = replace(fixed, empirical_risk=emp_spo)
    if config.polyhedral:
        bounds_vals["linear_polyhedral"] = evaluate("linear_polyhedral", inputs).value
    bounds_vals["covering"] = evaluate("covering", inputs).value

    emp_margin: dict[float, float] = {}
    gamma_star = None
    if config.strongly_convex:
        # every gamma mixes the same base losses, gaps and prediction norms
        # (in the dual of the region's norm); spo_loss_batch validated the costs
        gap = region._gap(sample.cs)
        norms = dual_norm_rows(preds, region.norm_exponent)

        def margin_risk(g: float) -> float:
            return float(margin_mix(base, gap, norms, g).mean())

        for g in config.gamma_grid:
            emp_margin[g] = margin_risk(g)
            inputs = replace(fixed, empirical_risk=emp_margin[g], gamma=g)
            bounds_vals[f"margin@{g!r}"] = evaluate("margin", inputs, "expected").value
        # data-driven gamma via the uniform bound, capped at the largest
        # prediction norm seen in training
        gamma_bar = max(float(norms.max()), 1e-12)
        candidates = [g for g in config.gamma_grid if g <= gamma_bar] or [gamma_bar]
        best_val, best_gamma = math.inf, candidates[0]
        for g in candidates:
            risk = emp_margin.get(g)
            if risk is None:
                risk = margin_risk(g)
            inputs = replace(fixed, empirical_risk=risk, gamma=g, gamma_bar=gamma_bar)
            val = evaluate("margin_uniform", inputs, "expected").value
            if val < best_val:
                best_val, best_gamma = val, g
        bounds_vals["margin_uniform"] = best_val
        gamma_star = best_gamma

    true_est, true_se = evaluator.true_risk(predictor, region)
    return TrialRecord(trial=trial, n=n, gamma_star=gamma_star, emp_spo=emp_spo,
                       emp_margin=emp_margin, true_risk=true_est,
                       true_risk_stderr=true_se, bounds=bounds_vals)


def run_suite(configs) -> list[BoundValidityResult]:
    """Run the full trial grid of every config and check every applicable
    bound against a fresh-sample estimate of the true risk (violation =
    estimate minus three standard errors still exceeds the bound); the
    results are in input order.

    Configs with one data source (equal seed, true model, noise, feature
    law, cost domain, ``ns``, ``trials`` and ``m_fresh``; see
    ``_data_source``) draw the same bits, so they run as one group: one
    fresh sample, one training sample and fit per (n, trial), and one set
    of fresh-sample predictions per predictor object.  Each config forms its
    own losses, bounds and risks, so its result is the same bits alone or in
    a group."""
    configs = list(configs)
    for config in configs:
        if config.strongly_convex:
            if not config.gamma_grid:
                raise ValueError("margin bounds need a gamma grid")
            config.x_radius  # raises for unbounded feature distributions
    groups: dict[tuple, list[int]] = {}
    for i, config in enumerate(configs):
        groups.setdefault(_data_source(config), []).append(i)
    results: list[BoundValidityResult | None] = [None] * len(configs)
    for members in groups.values():
        group = [configs[i] for i in members]
        for i, config, records in zip(members, group, _run_group(group)):
            results[i] = _result(config, records)
    return results


def _run_group(group: list[ExperimentConfig]) -> list[list[TrialRecord]]:
    """The trial records of configs with one data source, config by config;
    the evaluator is freed on return, before the next group draws."""
    evaluator = RiskEvaluator(group)
    lead = group[0]
    records: list[list[TrialRecord]] = [[] for _ in group]
    for n_idx, n in enumerate(lead.ns):
        for t in range(lead.trials):
            sample = generate_sample(lead, n_idx * lead.trials + t, n=n)
            fit = fit_least_squares(sample)
            for config, recs in zip(group, records):
                recs.append(run_trial(config, sample, fit, t, evaluator))
    return records


def _result(config: ExperimentConfig, records: list[TrialRecord]) -> BoundValidityResult:
    omega = config.cost_domain.omega
    per_bound = {}
    for bound_id in records[0].bounds:
        slacks = [r.slack(bound_id) for r in records]
        count = sum(slack < 0 for slack in slacks)
        tightest = slacks.index(min(slacks))
        per_bound[bound_id] = {
            "trials": len(records),
            "violations": count,
            "frequency": count / len(records),
            "vacuous": sum(r.bounds[bound_id] >= omega for r in records),
            "min_slack": slacks[tightest],
            "min_slack_n": records[tightest].n,
            "min_slack_trial": records[tightest].trial,
        }
    summary = {
        "config": config.to_dict(),
        "generator": GENERATOR_NOTE,
        "bounds": per_bound,
        "delta": config.delta,
        "total_trials": len(records),
        "any_violation": any(v["violations"] for v in per_bound.values()),
    }
    return BoundValidityResult(config=config, records=records, summary=summary)


# ---------------------------------------------------------------------------
# default experiment suite
# ---------------------------------------------------------------------------

def default_suite(seed: int = 0, trials: int = 200,
                  m_fresh: int = 100_000) -> list[ExperimentConfig]:
    """The grid used by the acceptance experiment: l2-ball and simplex
    regions over d, p in {2, 5} and n in {50, 100, 400}."""
    configs = []
    for d in (2, 5):
        for p in (2, 5):
            rng = substream(seed, 17, d, p)
            b_star = rng.standard_normal((d, p))
            l2_ball = LqBall(q=2.0, radius=1.0, center=np.zeros(d), mu=1.0)
            for region, gamma_grid in ((l2_ball, [0.05, 0.1, 0.25, 0.5, 1.0]),
                                       (UnitSimplex(d), [])):
                configs.append(ExperimentConfig(
                    region=region, cost_domain=CostDomain.ball(region, radius=1.0),
                    b_star=b_star, noise=0.1, feature_dist="sphere",
                    ns=[50, 100, 400], trials=trials, delta=0.05,
                    gamma_grid=gamma_grid, m_fresh=m_fresh, seed=seed))
    return configs


def config_label(config: ExperimentConfig) -> str:
    kind = {"LqBall": "l2_ball", "UnitSimplex": "simplex",
            "VertexPolytope": "polytope", "DagPathPolytope": "dag"}[config.region.kind]
    return f"{kind}_d{config.d}_p{config.p}"
