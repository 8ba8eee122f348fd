"""Command-line interface.

Subcommands:

* ``loss eval``           -- evaluate the decision losses for one (c_hat, c)
* ``complexity rad-spo``  -- MC Rademacher complexity of the loss class
* ``complexity rad-multi``-- MC multivariate Rademacher complexity
* ``complexity natarajan``-- brute-force Natarajan dimension
* ``bound <id> | all``    -- evaluate generalization bounds from a JSON input file;
  ``--variant`` applies to the theorems with a complexity variant
  (``rademacher``, ``margin``, ``margin_uniform``; unset reads as
  ``empirical``) and is refused on the others and on ``all``
* ``experiment run``      -- bound-validity experiment (trials.csv, summary.json, plotdata/)
* ``verify all``          -- run every property audit; nonzero exit on any failure
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import bounds as bounds_mod
from ._inputs import _read_array
from .audits import render_report, run_all_audits
from .bounds import BoundInputs
from .complexity import (FiniteHypothesisSet, check_natarajan_budget,
                         natarajan_dim_bruteforce, oracle_label_table,
                         rademacher_multivariate_mc, rademacher_spo_mc)
from .geometry import dual_norm_rows, region_from_dict
from .harness import (BoundValidityResult, ExperimentConfig, config_label,
                      default_suite, run_suite)
from .losses import (LabeledSample, hard_margin_spo_loss, margin_spo_loss,
                     spo_loss)


def _load_sample(path: str) -> LabeledSample:
    text = Path(path).read_text()
    if path.endswith(".csv"):
        return LabeledSample.from_csv(text)
    return LabeledSample.from_json(text)


def _load_json(path: str):
    return json.loads(Path(path).read_text())


def _parse_vector(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(",")])


def _emit(data: dict) -> None:
    print(json.dumps(data, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_loss(args) -> int:
    region = region_from_dict(_load_json(args.region))
    c_hat = _parse_vector(args.c_hat)
    c = _parse_vector(args.c)
    out = {
        "spo": spo_loss(region, c_hat, c),
        "omega": region.gap(c),
        "dual_norm_c_hat": float(dual_norm_rows(c_hat[None], region.norm_exponent)[0]),
    }
    if args.gamma is not None:
        out["gamma"] = args.gamma
        out["margin"] = margin_spo_loss(region, c_hat, c, args.gamma)
        out["hard_margin"] = hard_margin_spo_loss(region, c_hat, c, args.gamma)
    _emit(out)
    return 0


def _cmd_complexity(args) -> int:
    if args.estimator != "natarajan":
        hyp = FiniteHypothesisSet.from_json(Path(args.hypotheses).read_text())
        if args.estimator == "rad-spo":
            region = region_from_dict(_load_json(args.region))
            est, se = rademacher_spo_mc(region, hyp, _load_sample(args.sample),
                                        m_draws=args.draws, seed=args.seed)
        else:
            xs = _read_array(_load_json(args.xs), "xs", 2)
            est, se = rademacher_multivariate_mc(hyp, xs, m_draws=args.draws, seed=args.seed)
        _emit({"estimator": args.estimator, "estimate": est, "std_error": se,
               "draws": args.draws, "seed": args.seed})
        return 0
    # natarajan
    if args.table is not None:
        # the search rejects labels that are not integers
        table = _read_array(_load_json(args.table), "label table", 2)
    else:
        if not (args.region and args.hypotheses and args.xs):
            raise ValueError("natarajan needs --table or all of "
                             "--region/--hypotheses/--xs")
        region = region_from_dict(_load_json(args.region))
        hyp = FiniteHypothesisSet.from_json(Path(args.hypotheses).read_text())
        xs = _read_array(_load_json(args.xs), "xs", 2)
        check_natarajan_budget(len(xs), len(hyp))
        table = oracle_label_table(region, hyp, xs)
    dimension = natarajan_dim_bruteforce(table)
    _emit({"estimator": "natarajan", "dimension": dimension,
           "points": table.shape[0], "hypotheses": table.shape[1]})
    return 0


def _csv_cell(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _cmd_bound(args) -> int:
    if args.csv and args.theorem != "all":
        raise ValueError(f"--csv applies to 'all' only; {args.theorem} prints "
                         f"one JSON report")
    inputs = BoundInputs.from_dict(_load_json(args.inputs))
    if args.theorem == "all":
        if args.variant is not None:
            raise ValueError("--variant does not apply to 'all', which "
                             "evaluates every variant")
        reports = bounds_mod.evaluate_all(inputs)
        lines = [",".join(("theorem_id", "variant", "value") + bounds_mod.TERMS)]
        for report in reports:
            cells = [report.theorem_id, report.inputs.get("variant", ""), report.value]
            cells += [report.terms.get(term, "") for term in bounds_mod.TERMS]
            lines.append(",".join(map(_csv_cell, cells)))
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
    # --seed, --trials and --m-fresh size the default grid; a config file
    # sets its own, so they are refused next to --config, not ignored
    sizes = {key: getattr(args, key) for key in ("seed", "trials", "m_fresh")
             if getattr(args, key) is not None}
    if args.config:
        if sizes:
            flags = ", ".join("--" + key.replace("_", "-") for key in sizes)
            raise ValueError(f"{flags} cannot be used with --config; "
                             f"set them in the config file")
        config = ExperimentConfig.from_dict(_load_json(args.config))
        [result] = run_suite([config])
        _write_experiment(result, outdir)
        print(f"wrote {outdir}/trials.csv ({len(result.records)} trials), "
              f"violations: {int(result.summary['any_violation'])}")
        return 0
    # default grid
    configs = default_suite(**sizes)
    overall: dict = {"suites": {}, "any_violation": False}
    for config, result in zip(configs, run_suite(configs)):
        label = config_label(config)
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

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and reused by ``main``."""
    parser = argparse.ArgumentParser(prog="spo-bounds")
    sub = parser.add_subparsers(dest="command", required=True)

    loss = sub.add_parser("loss", help="evaluate decision losses")
    loss_sub = loss.add_subparsers(dest="loss_command", required=True)
    loss_eval = loss_sub.add_parser("eval")
    loss_eval.add_argument("--region", required=True, help="region JSON file")
    loss_eval.add_argument("--c-hat", required=True, help="prediction, e.g. --c-hat=-0.5,0.3")
    loss_eval.add_argument("--c", required=True, help="true cost, e.g. --c=-1,0")
    loss_eval.add_argument("--gamma", type=float, default=None)
    loss_eval.set_defaults(handler=_cmd_loss)

    comp = sub.add_parser("complexity", help="complexity estimators")
    comp_sub = comp.add_subparsers(dest="estimator", required=True)
    # each estimator registers only the options it reads
    rad_spo, rad_multi, natarajan = (comp_sub.add_parser(name) for name in
                                     ("rad-spo", "rad-multi", "natarajan"))
    rad_spo.add_argument("--region", required=True)
    for est, data, text in ((rad_spo, "--sample", "sample CSV or JSON"),
                            (rad_multi, "--xs", "JSON list of feature vectors")):
        est.add_argument("--hypotheses", required=True, help="JSON list of d x p matrices")
        est.add_argument(data, required=True, help=text)
        est.add_argument("--draws", type=int, default=2000)
        est.add_argument("--seed", type=int, default=0)
    # natarajan may take a --table in place of region, hypotheses and points
    for flag in ("--region", "--hypotheses", "--xs"):
        natarajan.add_argument(flag, default=None)
    natarajan.add_argument("--table", default=None,
                           help="JSON points x hypotheses label table")
    for est in (rad_spo, rad_multi, natarajan):
        est.set_defaults(handler=_cmd_complexity)

    bound = sub.add_parser("bound", help="evaluate generalization bounds")
    bound.add_argument("theorem", choices=[*bounds_mod.THEOREMS, "all"])
    bound.add_argument("--inputs", required=True, help="JSON file of bound inputs")
    bound.add_argument("--variant", choices=bounds_mod.VARIANTS, default=None,
                       help="rademacher, margin and margin_uniform only "
                            "(default empirical)")
    bound.add_argument("--csv", default=None, help="write the 'all' table here")
    bound.set_defaults(handler=_cmd_bound)

    exp = sub.add_parser("experiment", help="bound-validity experiments")
    exp_sub = exp.add_subparsers(dest="experiment_command", required=True)
    run = exp_sub.add_parser("run")
    source = run.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", default=None, help="experiment config JSON")
    source.add_argument("--defaults", action="store_true",
                        help="run the default region/dimension grid")
    run.add_argument("--out", required=True)
    for flag, default in (("--seed", 0), ("--trials", 200), ("--m-fresh", 100_000)):
        # left None, default_suite supplies the default
        run.add_argument(flag, type=int, default=None,
                         help=f"--defaults only (default {default})")
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
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
