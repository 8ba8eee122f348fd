"""The three benchmark workloads.

Each workload builds its inputs from the workload seed (``build_inputs``),
runs one timed pass through the public CLI of the imported package
(``run_pass``) and checks every pass's outputs (``check``).  The package
only ever sees the generated inputs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import gate

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"

#: seed never used while tuning a change; confirm every claim on it too
HELD_OUT_SEED = 9001


def program_seed(workload: str, seed: int) -> int:
    """Seed handed to the package, derived from (workload, benchmark seed)."""
    digest = hashlib.sha256(f"{workload}/{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


@dataclass
class PassResult:
    wall_s: float
    outdir: Path
    output_bytes: int
    outputs: dict = field(default_factory=dict)
    trial_s: list[float] = field(default_factory=list)


def call_cli(cli, argv: list[str]) -> tuple[int, str]:
    """Run ``spo_bounds.cli.main`` in-process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def write_json(path: Path, data) -> str:
    path.write_text(json.dumps(data) + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# experiment-default
# ---------------------------------------------------------------------------

class ExperimentDefault:
    """``experiment run --defaults``: 8 configs x n in {50, 100, 400} x T
    trials, each checked against 1e5 fresh points."""

    name = "experiment-default"
    units = "trials"
    trials = 21          # 8 configs x 3 n x 21 = 504 trials per pass
    m_fresh = 100_000
    reference_seed = 7   # reference outputs in reference/experiment/
    reference_trials = 2

    def argv(self, seed: int, trials: int) -> list[str]:
        return ["experiment", "run", "--defaults", "--seed", str(seed),
                "--trials", str(trials), "--m-fresh", str(self.m_fresh)]

    def build_inputs(self, seed: int, indir: Path) -> dict:
        argv = self.argv(program_seed(self.name, seed), self.trials)
        write_json(indir / "inputs.json", {"argv": argv})
        return {"argv": argv}

    def run_pass(self, package, inputs: dict, outdir: Path, time_trials: bool) -> PassResult:
        harness = package.harness
        run_trial = harness.run_trial
        trial_s: list[float] = []

        def timed_trial(*args, **kwargs):
            start = perf_counter()
            try:
                return run_trial(*args, **kwargs)
            finally:
                trial_s.append(perf_counter() - start)

        if time_trials:
            harness.run_trial = timed_trial
        try:
            start = perf_counter()
            code, stdout = call_cli(package.cli, inputs["argv"] + ["--out", str(outdir)])
            wall = perf_counter() - start
        finally:
            harness.run_trial = run_trial
        return PassResult(wall, outdir, tree_bytes(outdir) + len(stdout.encode()),
                          {"code": code}, trial_s)

    def check(self, package, inputs: dict, passes: list[PassResult], workdir: Path) -> gate.Verdict:
        labels = sorted(p.stem for p in (REFERENCE_DIR / "experiment").glob("*.csv"))
        attempted = failed = 0
        problems: list[str] = []
        first = None
        for k, result in enumerate(passes):
            (a, f, why), rows = gate.check_trials_dir(result.outdir, labels, 3 * self.trials, first)
            first = first or rows
            attempted, failed = attempted + a, failed + f
            problems += [f"pass {k}: {w}" for w in why]
            summary = result.outdir / "summary.json"
            if result.outputs["code"] != 0 or not summary.is_file() \
                    or json.loads(summary.read_text())["any_violation"]:
                problems.append(f"pass {k}: nonzero exit or a violation in summary.json")
                failed += 1
        # fixed reference inputs, compared with outputs recorded at the seed commit
        refdir = workdir / "reference"
        call_cli(package.cli, self.argv(self.reference_seed, self.reference_trials)
                 + ["--out", str(refdir)])
        for label in labels:
            want = gate.read_csv(REFERENCE_DIR / "experiment" / f"{label}.csv")
            path = refdir / label / "trials.csv"
            got = gate.read_csv(path) if path.is_file() else ([], [])
            for i, why in enumerate(gate.compare_trials(want, got)):
                attempted += 1
                if why is not None:
                    failed += 1
                    problems.append(f"reference {label} row {i}: {why}")
        return attempted, failed, problems


# ---------------------------------------------------------------------------
# verify-all
# ---------------------------------------------------------------------------

class VerifyAll:
    """``verify all --seed S``: the 17-audit property battery."""

    name = "verify-all"
    units = "audits"

    def build_inputs(self, seed: int, indir: Path) -> dict:
        program = program_seed(self.name, seed)
        argv = ["verify", "all", "--seed", str(program)]
        write_json(indir / "inputs.json", {"argv": argv})
        return {"argv": argv, "seed": program}

    def run_pass(self, package, inputs: dict, outdir: Path, time_trials: bool) -> PassResult:
        outdir.mkdir(parents=True, exist_ok=True)
        report = outdir / "report.txt"
        start = perf_counter()
        code, stdout = call_cli(package.cli, inputs["argv"] + ["--out", str(report)])
        wall = perf_counter() - start
        return PassResult(wall, outdir, tree_bytes(outdir) + len(stdout.encode()),
                          {"code": code, "stdout": stdout})

    def check(self, package, inputs: dict, passes: list[PassResult], workdir: Path) -> gate.Verdict:
        names = (REFERENCE_DIR / "audits.txt").read_text().split()
        attempted = failed = 0
        problems: list[str] = []
        first = None
        for k, result in enumerate(passes):
            report = result.outdir / "report.txt"
            text = report.read_text() if report.is_file() else ""
            (a, f, why), lines = gate.check_report(text, names, inputs["seed"], first)
            first = first or lines
            if result.outputs["stdout"] != text or result.outputs["code"] != 0:
                why.append("stdout differs from the report file, or nonzero exit")
                f = max(f, 1)
            attempted, failed = attempted + a, failed + f
            problems += [f"pass {k}: {w}" for w in why]
        return attempted, failed, problems


# ---------------------------------------------------------------------------
# complexity-shortest-path
# ---------------------------------------------------------------------------

class ComplexityShortestPath:
    """Complexity quantities of a seeded finite linear hypothesis set on the
    5x5 shortest-path grid (d = 40 arcs, |S| = 70 paths)."""

    name = "complexity-shortest-path"
    units = "complexity checks"
    grid = 5
    p = 5                 # features
    n = 50                # sample rows: rad-spo, rad-multi
    hypotheses = 100      # rad-spo, rad-multi
    draws = 2000
    natarajan_points = 7
    natarajan_hypotheses = 100
    count_points = 50
    count_hypotheses = 400
    delta = 0.05

    def build_inputs(self, seed: int, indir: Path) -> dict:
        """Region, hypothesis, sample and point files.  Costs follow the
        shortest-path generator of Elmachtoub and Grigas (degree 2, noise
        half-width 0.5)."""
        program = program_seed(self.name, seed)
        rng = np.random.default_rng(program)
        nodes = self.grid * self.grid
        arcs = gate.grid_arcs(self.grid, self.grid)
        d, p = len(arcs), self.p
        B_true = rng.binomial(1, 0.5, (d, p))
        xs = rng.standard_normal((self.n, p))
        cs = ((xs @ B_true.T / math.sqrt(p) + 3.0) ** 2 + 1.0) * rng.uniform(0.5, 1.5, (self.n, d))
        mats = rng.standard_normal((self.hypotheses, d, p))
        nat_mats = rng.standard_normal((self.natarajan_hypotheses, d, p))
        nat_xs = rng.standard_normal((self.natarajan_points, p))
        count_mats = rng.standard_normal((self.count_hypotheses, d, p))
        count_xs = rng.standard_normal((self.count_points, p))

        V = gate.path_matrix(nodes, arcs, 0, nodes - 1)
        gaps = (cs @ V.T).max(axis=1) - (cs @ V.T).min(axis=1)
        # empirical_risk: the best mean SPO loss in the finite class (its ERM)
        base = {"n": self.n, "delta": self.delta,
                "empirical_risk": float(gate.spo_losses(V, mats, xs, cs).mean(axis=1).min()),
                "omega": float(gaps.max()),
                "rho2_C": float(np.linalg.norm(cs, axis=1).max()),
                "rho2_S": float(np.linalg.norm(V, axis=1).max()), "d": d, "p": p}
        sample = io.StringIO()
        writer = csv.writer(sample, lineterminator="\n")
        writer.writerow([f"x{j}" for j in range(p)] + [f"c{j}" for j in range(d)])
        writer.writerows([repr(float(v)) for v in row] for row in np.hstack([xs, cs]))
        (indir / "sample.csv").write_text(sample.getvalue())
        files = {
            "region": write_json(indir / "region.json", {
                "kind": "DagPathPolytope", "nodes": nodes,
                "arcs": [list(a) for a in arcs], "source": 0, "sink": nodes - 1}),
            "hypotheses": write_json(indir / "hypotheses.json", mats.tolist()),
            "xs": write_json(indir / "xs.json", xs.tolist()),
            "sample": str(indir / "sample.csv"),
            "natarajan_hypotheses": write_json(indir / "natarajan_hypotheses.json",
                                               nat_mats.tolist()),
            "natarajan_xs": write_json(indir / "natarajan_xs.json", nat_xs.tolist()),
            "count_hypotheses": write_json(indir / "count_hypotheses.json", count_mats.tolist()),
            "count_xs": write_json(indir / "count_xs.json", count_xs.tolist()),
            "bound_base": write_json(indir / "bound_base.json", base),
        }
        return {"files": files, "seeds": (program, program + 1), "V": V,
                "xs": xs, "cs": cs, "mats": mats, "nat_mats": nat_mats, "nat_xs": nat_xs,
                "count_mats": count_mats, "count_xs": count_xs, "base": base}

    def run_pass(self, package, inputs: dict, outdir: Path, time_trials: bool) -> PassResult:
        files = inputs["files"]
        outdir.mkdir(parents=True, exist_ok=True)
        cli = package.cli
        out: dict = {}
        printed = 0

        def run_json(argv: list[str]) -> dict:
            nonlocal printed
            code, stdout = call_cli(cli, argv)
            printed += len(stdout.encode())
            return {"code": code, **json.loads(stdout)}

        spo_seed, multi_seed = inputs["seeds"]
        start = perf_counter()
        out["rad-spo"] = run_json(["complexity", "rad-spo", "--region", files["region"],
                                   "--hypotheses", files["hypotheses"],
                                   "--sample", files["sample"],
                                   "--draws", str(self.draws), "--seed", str(spo_seed)])
        out["rad-multi"] = run_json(["complexity", "rad-multi",
                                     "--hypotheses", files["hypotheses"], "--xs", files["xs"],
                                     "--draws", str(self.draws), "--seed", str(multi_seed)])
        out["natarajan"] = run_json(["complexity", "natarajan", "--region", files["region"],
                                     "--hypotheses", files["natarajan_hypotheses"],
                                     "--xs", files["natarajan_xs"]])
        # restriction counting has no CLI command: call the public function
        complexity = package.complexity
        region = package.geometry.region_from_json(Path(files["region"]).read_text())
        hyp = complexity.FiniteHypothesisSet.from_json(
            Path(files["count_hypotheses"]).read_text())
        count_xs = np.asarray(json.loads(Path(files["count_xs"]).read_text()))
        out["restrictions"] = complexity.count_restrictions(region, hyp, count_xs)
        bound_inputs = dict(json.loads(Path(files["bound_base"]).read_text()),
                            d_N=out["natarajan"]["dimension"],
                            card_S=region.extreme_point_count(),
                            rad=out["rad-spo"]["estimate"])
        path = write_json(outdir / "bound_inputs.json", bound_inputs)
        code, stdout = call_cli(cli, ["bound", "all", "--inputs", path,
                                      "--csv", str(outdir / "bounds.csv")])
        wall = perf_counter() - start
        out["bounds"] = {"code": code, "inputs": bound_inputs,
                         "csv": (outdir / "bounds.csv").read_text()}
        return PassResult(wall, outdir, tree_bytes(outdir) + printed + len(stdout.encode()), out)

    def reference(self, inputs: dict) -> dict:
        V = inputs["V"]
        spo_seed, multi_seed = inputs["seeds"]
        nat_table = gate.label_table(V, inputs["nat_mats"], inputs["nat_xs"])
        est, se = gate.rademacher_spo(gate.spo_losses(V, inputs["mats"], inputs["xs"],
                                                      inputs["cs"]), self.draws, spo_seed)
        multi = gate.rademacher_multi(inputs["mats"], inputs["xs"], self.draws, multi_seed)
        return {"rad-spo": (est, se), "rad-multi": multi,
                "natarajan": (gate.natarajan_dimension(nat_table), *nat_table.shape),
                "restrictions": gate.restriction_count(V, inputs["count_mats"],
                                                       inputs["count_xs"]),
                "card_S": len(V)}

    def check(self, package, inputs: dict, passes: list[PassResult], workdir: Path) -> gate.Verdict:
        ref = self.reference(inputs)
        bounds_want = gate.bound_values(dict(inputs["base"], d_N=ref["natarajan"][0],
                                             card_S=ref["card_S"], rad=ref["rad-spo"][0]))
        attempted = failed = 0
        problems: list[str] = []
        first = None
        for k, result in enumerate(passes):
            out = result.outputs

            def estimate_ok(name: str) -> bool:
                return out[name]["code"] == 0 and all(
                    gate.close(out[name][key], want)
                    for key, want in zip(("estimate", "std_error"), ref[name]))

            checks = {
                "rad-spo": estimate_ok("rad-spo"),
                "rad-multi": estimate_ok("rad-multi"),
                "natarajan": out["natarajan"]["code"] == 0 and (
                    out["natarajan"]["dimension"], out["natarajan"]["points"],
                    out["natarajan"]["hypotheses"]) == ref["natarajan"],
                "restrictions": out["restrictions"] == ref["restrictions"],
                "bounds": out["bounds"]["code"] == 0 and out["bounds"]["inputs"]["card_S"]
                == ref["card_S"] and not gate.bound_csv_problems(out["bounds"]["csv"],
                                                                 bounds_want),
            }
            for name, ok in checks.items():
                attempted += 1
                if ok and first is not None and first[name] != out[name]:
                    ok = False
                if not ok:
                    failed += 1
                    problems.append(f"pass {k}: {name} differs from the reference "
                                    f"or the first pass")
            first = first or out
        return attempted, failed, problems


WORKLOADS = {w.name: w for w in (ExperimentDefault(), VerifyAll(), ComplexityShortestPath())}


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)
