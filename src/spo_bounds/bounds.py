"""Closed-form generalization-bound calculators with per-term breakdowns.

Every calculator returns a :class:`BoundReport` whose ``value`` is the
exact sum of its named additive ``terms``.  Natural logarithms are used
throughout; base 2 appears only inside the uniform-margin uniformity
term.  When both a Monte-Carlo complexity estimate and a closed-form
complexity bound are available, callers should pass the closed form in
``rad`` (it is a valid upper bound; an MC estimate is advisory only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from ._inputs import _read_object, _require_number

VARIANTS = ("expected", "empirical")

#: the additive terms a report may hold, in the ``bound all`` column order
TERMS = ("empirical_risk", "complexity", "deviation", "uniformity", "remainder")

#: the count inputs, which are integers
_COUNTS = ("n", "d_N", "card_S", "d", "p")
#: each input's range, as ``_require_number`` keywords
_RANGES = {"n": {"at_least": 1}, "delta": {"above": 0, "below": 1}, "d_N": {"at_least": 0},
           **dict.fromkeys(("card_S", "d", "p"), {"at_least": 1}),
           **dict.fromkeys(("empirical_risk", "omega", "rho2_C", "rho2_S", "rad"),
                           {"at_least": 0}),
           **dict.fromkeys(("mu", "gamma", "gamma_bar"), {"above": 0})}
#: each input's plain class and the ends of its range
_FAST = {name: (int if name in _COUNTS else float,
                spec.get("at_least", spec.get("above", -math.inf)),
                spec.get("at_most", spec.get("below", math.inf)))
         for name, spec in _RANGES.items()}


@dataclass(frozen=True)
class BoundInputs:
    """Inputs shared by the bound calculators; leave unused ones as None."""

    n: int
    delta: float
    empirical_risk: float = 0.0
    omega: float | None = None
    rho2_C: float | None = None
    rho2_S: float | None = None
    mu: float | None = None
    gamma: float | None = None
    gamma_bar: float | None = None
    d_N: int | None = None
    card_S: int | None = None
    d: int | None = None
    p: int | None = None
    rad: float | None = None

    def __post_init__(self):
        # the experiment builds thousands, so a value of its plain class
        # strictly between the ends of its range passes without a call, as
        # does an unset optional input; the rule sees any other value and
        # stores a numpy scalar as the Python number it equals
        for name, val in vars(self).items():
            cls, low, high = _FAST[name]
            if val.__class__ is cls and low < val < high \
                    or val is None and name not in ("n", "delta", "empirical_risk"):
                continue
            object.__setattr__(self, name, _require_number(name, val, cls is int, **_RANGES[name]))

    def to_dict(self) -> dict:
        # every field is a scalar, so a shallow read is a full copy
        return {f.name: getattr(self, f.name) for f in fields(self)
                if getattr(self, f.name) is not None}

    @classmethod
    def from_dict(cls, data: dict) -> "BoundInputs":
        keys = dict.fromkeys((f.name for f in fields(cls)), object)
        return cls(**_read_object(data, "bound inputs", keys, ("n", "delta")))


@dataclass
class BoundReport:
    """A computed bound: its identifier, value, additive terms, and inputs."""

    theorem_id: str
    value: float
    terms: dict[str, float]
    inputs: dict

    def to_dict(self) -> dict:
        return {"theorem_id": self.theorem_id, "value": self.value,
                "terms": dict(self.terms), "inputs": dict(self.inputs)}


def _report(theorem_id: str, terms: dict[str, float], inputs: BoundInputs,
            variant: str | None = None) -> BoundReport:
    echo = inputs.to_dict()
    if variant is not None:
        echo["variant"] = variant
    for name, val in terms.items():
        if not val >= 0:
            raise ValueError(f"term {name!r} is negative or NaN: {val}")
    return BoundReport(theorem_id, math.fsum(terms.values()), terms, echo)


class MissingInputError(ValueError):
    """A bound needs an input that was left as None."""


def _require(inputs: BoundInputs, *names: str) -> None:
    missing = [name for name in names if getattr(inputs, name) is None]
    if missing:
        raise MissingInputError(f"missing bound inputs: {missing}")


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")


def _deviation(omega: float, delta: float, n: int, variant: str,
               split: float = 1.0) -> float:
    """High-probability deviation term: one-sided for the expected-complexity
    variant, tripled two-sided for the empirical-complexity variant.  A
    bound that spends delta over ``split`` events by a union bound puts
    ``split`` in the log's numerator (delta itself is never divided, so a
    subnormal delta gives an infinite term, not a division by zero).  The
    term is 0 when omega is 0, however small delta is."""
    if omega == 0:
        return 0.0
    if variant == "expected":
        return omega * math.sqrt(math.log(split / delta) / (2.0 * n))
    return 3.0 * omega * math.sqrt(math.log(2.0 * split / delta) / (2.0 * n))


# ---------------------------------------------------------------------------
# calculators
# ---------------------------------------------------------------------------

def bound_rademacher(inputs: BoundInputs, variant: str = "empirical") -> BoundReport:
    """Risk bound from a (supplied) Rademacher complexity of the loss class:
    ``R_hat + 2 * rad + deviation``."""
    _check_variant(variant)
    _require(inputs, "omega", "rad")
    terms = {
        "empirical_risk": inputs.empirical_risk,
        "complexity": 2.0 * inputs.rad,
        "deviation": _deviation(inputs.omega, inputs.delta, inputs.n, variant),
    }
    return _report("rademacher", terms, inputs, variant)


def bound_natarajan(inputs: BoundInputs) -> BoundReport:
    """Combinatorial bound for polyhedral regions:
    ``R_hat + 2 * omega * sqrt(2 * d_N * ln(n * |S|^2) / n) + omega * sqrt(ln(1/delta) / (2n))``."""
    _require(inputs, "omega", "d_N", "card_S")
    log_arg = inputs.n * inputs.card_S ** 2
    if log_arg <= 1:
        raise ValueError("n * card_S**2 must exceed 1")
    terms = {
        "empirical_risk": inputs.empirical_risk,
        "complexity": 2.0 * inputs.omega
        * math.sqrt(2.0 * inputs.d_N * math.log(log_arg) / inputs.n),
        "deviation": _deviation(inputs.omega, inputs.delta, inputs.n, "expected"),
    }
    return _report("natarajan", terms, inputs)


def bound_linear_polyhedral(inputs: BoundInputs) -> BoundReport:
    """Natarajan bound with the linear-class dimension cap ``d_N = d * p``."""
    _require(inputs, "d", "p")
    report = bound_natarajan(replace(inputs, d_N=inputs.d * inputs.p))
    report.theorem_id = "linear_polyhedral"
    return report


def bound_covering(inputs: BoundInputs) -> BoundReport:
    """Covering-argument bound for linear predictors over any compact convex
    region, including the explicit O(1/n) remainder."""
    _require(inputs, "omega", "rho2_C", "rho2_S", "d", "p")
    log_arg = 2.0 * inputs.n * inputs.rho2_S * inputs.d
    if log_arg <= 1:
        raise ValueError("2 * n * rho2_S * d must exceed 1")
    root = math.sqrt(2.0 * inputs.p * math.log(log_arg) / inputs.n)
    terms = {
        "empirical_risk": inputs.empirical_risk,
        "complexity": 4.0 * inputs.d * inputs.omega * root,
        "deviation": _deviation(inputs.omega, inputs.delta, inputs.n, "empirical"),
        "remainder": 2.0 * (2.0 * inputs.rho2_C / inputs.n) * (1.0 + 2.0 * inputs.d * root),
    }
    return _report("covering", terms, inputs)


def margin_rad_bound(rho2_C: float, rad: float, gamma: float, mu: float) -> float:
    """Margin-loss Rademacher complexity from the multivariate complexity of
    the prediction class: ``5 * sqrt(2) * rho2_C * rad / (gamma * mu)``.
    Refuses NaN, an infinity or a bool in any input, a gamma or mu <= 0, a
    ``gamma * mu`` that underflows to 0 and a rho2_C or rad < 0."""
    _require_number("gamma", gamma, above=0)
    _require_number("mu", mu, above=0)
    if gamma * mu == 0:
        raise ValueError(f"gamma, mu and gamma * mu must be > 0, got {gamma!r}, {mu!r}")
    _require_number("rho2_C", rho2_C, at_least=0)
    _require_number("rad", rad, at_least=0)
    return 5.0 * math.sqrt(2.0) * rho2_C * rad / (gamma * mu)


def bound_margin(inputs: BoundInputs, variant: str = "empirical") -> BoundReport:
    """Margin bound for strongly convex regions:
    ``R_hat_gamma + 10 * sqrt(2) * rho2_C * rad / (gamma * mu) + deviation``."""
    _check_variant(variant)
    _require(inputs, "omega", "rho2_C", "mu", "gamma", "rad")
    terms = {
        "empirical_risk": inputs.empirical_risk,
        "complexity": 2.0 * margin_rad_bound(inputs.rho2_C, inputs.rad,
                                             inputs.gamma, inputs.mu),
        "deviation": _deviation(inputs.omega, inputs.delta, inputs.n, variant),
    }
    return _report("margin", terms, inputs, variant)


def bound_margin_uniform(inputs: BoundInputs, variant: str = "empirical") -> BoundReport:
    """Margin bound holding uniformly over gamma in (0, gamma_bar]; doubles
    the complexity factor and adds a ``ln(log2(2 gamma_bar / gamma))``
    uniformity term."""
    _check_variant(variant)
    _require(inputs, "omega", "rho2_C", "mu", "gamma", "gamma_bar", "rad")
    if inputs.gamma > inputs.gamma_bar:
        raise ValueError("gamma must satisfy gamma <= gamma_bar")
    uniformity = inputs.omega * math.sqrt(
        math.log(math.log2(2.0 * inputs.gamma_bar / inputs.gamma)) / inputs.n)
    terms = {
        "empirical_risk": inputs.empirical_risk,
        "complexity": 4.0 * margin_rad_bound(inputs.rho2_C, inputs.rad,
                                             inputs.gamma, inputs.mu),
        "uniformity": uniformity,
        "deviation": _deviation(inputs.omega, inputs.delta, inputs.n, variant, 2.0),
    }
    return _report("margin_uniform", terms, inputs, variant)


#: theorem id -> (calculator, whether it takes a complexity variant)
THEOREMS = {
    "rademacher": (bound_rademacher, True),
    "natarajan": (bound_natarajan, False),
    "linear_polyhedral": (bound_linear_polyhedral, False),
    "covering": (bound_covering, False),
    "margin": (bound_margin, True),
    "margin_uniform": (bound_margin_uniform, True),
}


def evaluate(theorem_id: str, inputs: BoundInputs,
             variant: str | None = None) -> BoundReport:
    """Evaluate one bound by identifier.  A theorem with variants reads an
    unset variant as ``"empirical"``; one without refuses any variant."""
    if theorem_id not in THEOREMS:
        raise ValueError(f"unknown theorem id: {theorem_id!r}")
    calculator, takes_variant = THEOREMS[theorem_id]
    if takes_variant:
        return calculator(inputs, "empirical" if variant is None else variant)
    if variant is not None:
        raise ValueError(f"{theorem_id} takes no variant, got {variant!r}")
    return calculator(inputs)


def evaluate_all(inputs: BoundInputs) -> list[BoundReport]:
    """Evaluate every bound whose inputs are present, both variants where
    applicable.  Bounds with missing inputs are skipped; present but invalid
    inputs raise."""
    reports = []
    for theorem_id, (_, takes_variant) in THEOREMS.items():
        for variant in VARIANTS if takes_variant else (None,):
            try:
                reports.append(evaluate(theorem_id, inputs, variant))
            except MissingInputError:
                continue
    return reports
