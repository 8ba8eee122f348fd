"""Command-line interface.

Subcommands:

* ``loss eval``           -- evaluate the decision losses for one (c_hat, c)
* ``complexity rad-spo``  -- MC Rademacher complexity of the loss class
* ``complexity rad-multi``-- MC multivariate Rademacher complexity
* ``complexity natarajan``-- brute-force Natarajan dimension
* ``bound <id> | all``    -- evaluate generalization bounds from a JSON input file
* ``experiment run``      -- bound-validity experiment (trials.csv, summary.json, plotdata/)
* ``verify all``          -- run every property audit; nonzero exit on any failure
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from .audits import render_report, run_all_audits
from .bounds import BoundInputs
from .complexity import (FiniteHypothesisSet, LabelTable,
                         check_natarajan_budget, natarajan_dim_bruteforce,
                         oracle_label_table, rademacher_multivariate_mc,
                         rademacher_spo_mc)
from .geometry import dual_norm, region_from_json
from .harness import (BoundValidityResult, ExperimentConfig, config_label,
                      default_suite, run_bound_validity)
from .losses import (LabeledSample, MarginParams, hard_margin_spo_loss,
                     margin_spo_loss, spo_loss)


def _load_region(path: str):
    return region_from_json(Path(path).read_text())


def _load_sample(path: str) -> LabeledSample:
    text = Path(path).read_text()
    if path.endswith(".csv"):
        return LabeledSample.from_csv(text)
    return LabeledSample.from_json(text)


def _load_vectors(path: str) -> np.ndarray:
    xs = np.asarray(json.loads(Path(path).read_text()), dtype=float)
    if xs.ndim != 2:
        raise ValueError(f"{path}: expected a JSON list of feature vectors")
    return xs


def _parse_vector(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(",")])


def _emit(data: dict) -> None:
    print(json.dumps(data, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_loss(args) -> int:
    region = _load_region(args.region)
    c_hat = _parse_vector(args.c_hat)
    c = _parse_vector(args.c)
    out = {
        "spo": spo_loss(region, c_hat, c),
        "omega": region.gap(c),
        "dual_norm_c_hat": dual_norm(c_hat, region.norm_exponent),
    }
    if args.gamma is not None:
        params = MarginParams(gamma=args.gamma, norm_q=region.norm_exponent)
        out["gamma"] = args.gamma
        out["margin"] = margin_spo_loss(region, c_hat, c, params)
        out["hard_margin"] = hard_margin_spo_loss(region, c_hat, c, params)
    _emit(out)
    return 0


def _cmd_complexity(args) -> int:
    if args.estimator == "rad-spo":
        region = _load_region(args.region)
        hyp = FiniteHypothesisSet.from_json(Path(args.hypotheses).read_text())
        sample = _load_sample(args.sample)
        est, se = rademacher_spo_mc(region, hyp, sample, m_draws=args.draws,
                                    seed=args.seed)
        _emit({"estimator": "rad-spo", "estimate": est, "std_error": se,
               "draws": args.draws, "seed": args.seed})
        return 0
    if args.estimator == "rad-multi":
        hyp = FiniteHypothesisSet.from_json(Path(args.hypotheses).read_text())
        xs = _load_vectors(args.xs)
        est, se = rademacher_multivariate_mc(hyp, xs, m_draws=args.draws,
                                             seed=args.seed)
        _emit({"estimator": "rad-multi", "estimate": est, "std_error": se,
               "draws": args.draws, "seed": args.seed})
        return 0
    # natarajan
    if args.table is not None:
        # no dtype: LabelTable rejects labels that are not integers
        table = LabelTable(np.asarray(json.loads(Path(args.table).read_text())))
    else:
        if not (args.region and args.hypotheses and args.xs):
            raise ValueError("natarajan needs --table or all of "
                             "--region/--hypotheses/--xs")
        region = _load_region(args.region)
        hyp = FiniteHypothesisSet.from_json(Path(args.hypotheses).read_text())
        xs = _load_vectors(args.xs)
        check_natarajan_budget(len(xs), len(hyp))
        table = oracle_label_table(region, hyp, xs)
    _emit({"estimator": "natarajan", "dimension": natarajan_dim_bruteforce(table),
           "points": table.n_points, "hypotheses": table.n_hypotheses})
    return 0


def _report_csv_row(report) -> dict:
    row = {"theorem_id": report.theorem_id,
           "variant": report.inputs.get("variant", ""),
           "value": report.value}
    for term in ("empirical_risk", "complexity", "deviation", "uniformity",
                 "remainder"):
        row[term] = report.terms.get(term, "")
    return row


def _cmd_bound(args) -> int:
    inputs = BoundInputs.from_dict(json.loads(Path(args.inputs).read_text()))
    if args.theorem == "all":
        reports = bounds_mod.evaluate_all(inputs)
        header = ["theorem_id", "variant", "value", "empirical_risk",
                  "complexity", "deviation", "uniformity", "remainder"]
        lines = [",".join(header)]
        for report in reports:
            row = _report_csv_row(report)
            lines.append(",".join(
                repr(row[h]) if isinstance(row[h], float) else str(row[h])
                for h in header))
        text = "\n".join(lines) + "\n"
        if args.csv:
            Path(args.csv).write_text(text)
        else:
            print(text, end="")
        return 0
    report = bounds_mod.evaluate(args.theorem, inputs, args.variant)
    _emit(report.to_dict())
    return 0


def _write_experiment(result: BoundValidityResult, outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "trials.csv").write_text(result.trials_csv())
    (outdir / "summary.json").write_text(
        json.dumps(result.summary, indent=2, sort_keys=True) + "\n")
    plotdir = outdir / "plotdata"
    plotdir.mkdir(exist_ok=True)
    for bound_id, rows in result.plot_frames().items():
        name = bound_id.replace("@", "_at_").replace(".", "p") + ".csv"
        lines = ["n,mean_bound,mean_true_risk"]
        lines += [f"{n},{b!r},{t!r}" for n, b, t in rows]
        (plotdir / name).write_text("\n".join(lines) + "\n")


def _cmd_experiment(args) -> int:
    outdir = Path(args.out)
    if args.config:
        config = ExperimentConfig.from_dict(json.loads(Path(args.config).read_text()))
        result = run_bound_validity(config)
        _write_experiment(result, outdir)
        print(f"wrote {outdir}/trials.csv ({len(result.records)} trials), "
              f"violations: {int(result.summary['any_violation'])}")
        return 0
    # default grid
    configs = default_suite(seed=args.seed, trials=args.trials,
                            m_fresh=args.m_fresh)
    overall: dict = {"suites": {}, "any_violation": False}
    for config in configs:
        label = config_label(config)
        result = run_bound_validity(config)
        _write_experiment(result, outdir / label)
        overall["suites"][label] = {
            bound_id: stats["violations"]
            for bound_id, stats in result.summary["bounds"].items()}
        overall["any_violation"] = (overall["any_violation"]
                                    or result.summary["any_violation"])
        print(f"{label}: {len(result.records)} trials, violations "
              f"{int(result.summary['any_violation'])}")
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "summary.json").write_text(
        json.dumps(overall, indent=2, sort_keys=True) + "\n")
    return 0


def _cmd_verify(args) -> int:
    results = run_all_audits(seed=args.seed, fast=args.fast)
    text = render_report(results, args.seed)
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spo-bounds")
    sub = parser.add_subparsers(dest="command", required=True)

    loss = sub.add_parser("loss", help="evaluate decision losses")
    loss_sub = loss.add_subparsers(dest="loss_command", required=True)
    loss_eval = loss_sub.add_parser("eval")
    loss_eval.add_argument("--region", required=True, help="region JSON file")
    loss_eval.add_argument("--c-hat", required=True, help="comma-separated prediction")
    loss_eval.add_argument("--c", required=True, help="comma-separated true cost")
    loss_eval.add_argument("--gamma", type=float, default=None)
    loss_eval.set_defaults(handler=_cmd_loss)

    comp = sub.add_parser("complexity", help="complexity estimators")
    comp_sub = comp.add_subparsers(dest="estimator", required=True)
    for name in ("rad-spo", "rad-multi", "natarajan"):
        est = comp_sub.add_parser(name)
        # natarajan may take a --table in place of region, hypotheses and points
        est.add_argument("--region", required=name == "rad-spo", default=None)
        est.add_argument("--hypotheses", required=name != "natarajan", default=None,
                         help="JSON list of d x p matrices")
        if name == "rad-spo":
            est.add_argument("--sample", required=True, help="sample CSV or JSON")
        if name == "rad-multi":
            est.add_argument("--xs", required=True, help="JSON list of feature vectors")
        if name == "natarajan":
            est.add_argument("--xs", default=None)
            est.add_argument("--table", default=None,
                             help="JSON points x hypotheses label table")
        est.add_argument("--draws", type=int, default=2000)
        est.add_argument("--seed", type=int, default=0)
        est.set_defaults(handler=_cmd_complexity)

    bound = sub.add_parser("bound", help="evaluate generalization bounds")
    bound.add_argument("theorem",
                       choices=list(bounds_mod.THEOREM_IDS) + ["all"])
    bound.add_argument("--inputs", required=True, help="JSON file of bound inputs")
    bound.add_argument("--variant", choices=list(bounds_mod.VARIANTS),
                       default="empirical")
    bound.add_argument("--csv", default=None, help="write the 'all' table here")
    bound.set_defaults(handler=_cmd_bound)

    exp = sub.add_parser("experiment", help="bound-validity experiments")
    exp_sub = exp.add_subparsers(dest="experiment_command", required=True)
    run = exp_sub.add_parser("run")
    run.add_argument("--config", default=None, help="experiment config JSON")
    run.add_argument("--defaults", action="store_true",
                     help="run the default region/dimension grid")
    run.add_argument("--out", required=True)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--trials", type=int, default=200)
    run.add_argument("--m-fresh", type=int, default=100_000)
    run.set_defaults(handler=_cmd_experiment)

    verify = sub.add_parser("verify", help="property audits")
    verify_sub = verify.add_subparsers(dest="verify_command", required=True)
    verify_all = verify_sub.add_parser("all")
    verify_all.add_argument("--seed", type=int, default=0)
    verify_all.add_argument("--out", default=None)
    verify_all.add_argument("--fast", action="store_true",
                            help="reduced sample counts (development use)")
    verify_all.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command.  Invalid input (a library ``ValueError``, which
    includes malformed JSON) and unreadable files end in one ``error:`` line
    on stderr and exit status 2."""
    args = build_parser().parse_args(argv)
    if args.command == "experiment" and not (args.config or args.defaults):
        print("experiment run needs --config or --defaults", file=sys.stderr)
        return 2
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
