"""Decision-aware losses, complexity estimators, generalization-bound
calculators, and a verification harness for predict-then-optimize models."""

from .bounds import (BoundInputs, BoundReport, bound_covering,
                     bound_linear_polyhedral, bound_margin,
                     bound_margin_uniform, bound_natarajan, bound_rademacher,
                     evaluate, evaluate_all, margin_rad_bound)
from .complexity import (FiniteHypothesisSet, count_restrictions,
                         linear_class_rad_bound, massart_bound,
                         natarajan_dim_bruteforce, oracle_label_table,
                         rademacher_multivariate_mc, rademacher_spo_mc)
from .geometry import (CostDomain, DagPathPolytope, FeasibleRegion, LqBall,
                       UnitSimplex, VertexPolytope, ViolationReport,
                       region_from_dict, region_from_json,
                       verify_optimality_condition, verify_strong_convexity)
from .harness import (ExperimentConfig, RiskEvaluator, TrialRecord,
                      default_suite, fit_least_squares, generate_sample,
                      run_suite)
from .losses import (LabeledSample, empirical_risk, hard_margin_spo_loss,
                     margin_spo_loss, spo_loss)

__version__ = "0.1.0"

__all__ = [
    "BoundInputs", "BoundReport", "CostDomain", "DagPathPolytope",
    "ExperimentConfig", "FeasibleRegion", "FiniteHypothesisSet",
    "LabeledSample", "LqBall", "RiskEvaluator", "TrialRecord", "UnitSimplex",
    "VertexPolytope", "ViolationReport",
    "bound_covering", "bound_linear_polyhedral", "bound_margin",
    "bound_margin_uniform", "bound_natarajan", "bound_rademacher",
    "count_restrictions", "default_suite",
    "empirical_risk", "evaluate", "evaluate_all", "fit_least_squares",
    "generate_sample", "hard_margin_spo_loss", "linear_class_rad_bound",
    "margin_rad_bound", "margin_spo_loss", "massart_bound",
    "natarajan_dim_bruteforce", "oracle_label_table",
    "rademacher_multivariate_mc", "rademacher_spo_mc", "region_from_dict",
    "region_from_json", "run_suite", "spo_loss",
    "verify_optimality_condition", "verify_strong_convexity",
]
