"""Paired benchmark runs of two checkouts, recorded as one JSON file.

Usage, from anywhere:

    python3 tools/bench_pairs.py --parent ../before --change . \
        --run experiment-default:0 --run experiment-default:9001 \
        --pairs 10 --seconds 30 --out BENCH.json

For every ``workload:seed`` (default: every workload of the change tree's
``BENCHMARK.json`` at seed 0) it runs ``bench/run.py --trace 0`` in both
trees for ``--pairs`` pairs, one after the other, alternating which tree
goes first so a drift of the machine's speed hits both sides alike.  After
each run it reads that tree's ``.bench_out/<workload>-seed<seed>-trace0/
result.json``.  A run that fails the gate stops the script.

The output holds, per workload, seed and end-to-end metric of
``BENCHMARK.json``: each side's runs with their median and quartiles, the
change of the medians relative to the parent, how many pairs the change
won, and whether the medians lie further apart than the parent's
interquartile range.  Two verdicts combine these, per workload and metric:

- ``claim_met``: the change won at least 9 of every 10 pairs (a tie counts
  for neither side), and its median is better than the parent's by more
  than the parent's interquartile range.
- ``regression``: ``worse`` if the change's median is worse than the
  parent's by more than the metric's ``bound`` in ``BENCHMARK.json`` (a
  relative change); ``unresolved`` if the parent's interquartile range is
  wider than the bound, relative to its median, and not every change run
  beats every parent run; ``ok`` otherwise.

It also holds each tree's git sha (and whether its working tree was
dirty), its ``src`` and ``tests`` line counts (``wc -l`` of
``src/**/*.py`` and ``tests/**/*.py``), and the environment block of its
last run.  ``environment.variables`` holds the glibc malloc tunables
(``MALLOC_*``) and BLAS thread variables the script ran under, which every
run inherits (a BLAS variable left unset reads null); for example

    MALLOC_MMAP_THRESHOLD_=131072 python3 tools/bench_pairs.py ...

records the fixed mmap threshold of a control run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


#: BLAS thread variables recorded in ``environment.variables``
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="tools/bench_pairs.py",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout measured as the base")
    parser.add_argument("--change", type=Path, required=True, help="checkout measured against it")
    parser.add_argument("--run", action="append", default=[], metavar="WORKLOAD:SEED",
                        help="workload and seed to measure (repeatable)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    for tree in (args.parent, args.change):
        if not (tree / "bench" / "run.py").is_file():
            parser.error(f"{tree} has no bench/run.py")
    return args


def git_state(tree: Path) -> dict:
    def git(*cmd: str) -> str:
        proc = subprocess.run(["git", "-C", str(tree), *cmd], capture_output=True,
                              text=True, timeout=60)
        return proc.stdout.strip()

    return {"git_sha": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain"))}


def line_counts(tree: Path) -> dict:
    """Lines of the tree's Python sources and tests, as ``wc -l`` counts them."""
    return {f"{top}_lines": sum(path.read_bytes().count(b"\n")
                                for path in (tree / top).rglob("*.py"))
            for top in ("src", "tests")}


def run_variables() -> dict:
    """The ``MALLOC_*`` and BLAS thread variables of this process."""
    return {name: os.environ.get(name) for name in THREAD_VARS} | {
        name: value for name, value in sorted(os.environ.items()) if name.startswith("MALLOC_")}


def bench_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    result_path = tree / ".bench_out" / f"{workload}-seed{seed}-trace0" / "result.json"
    if proc.returncode != 0 or not result_path.is_file():
        sys.exit(f"bench_pairs: {workload} seed {seed} failed in {tree}:\n"
                 f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(result_path.read_text())
    if result["failed"]:
        sys.exit(f"bench_pairs: {workload} seed {seed} failed its gate in {tree}")
    return result


def spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    sign = 1.0 if metric["better"] == "lower" else -1.0
    base, new = spread(parent), spread(change)
    wins = sum(sign * c < sign * p for p, c in zip(parent, change))
    rel_change = (new["median"] - base["median"]) / base["median"]
    iqr = base["q3"] - base["q1"]
    beyond = abs(new["median"] - base["median"]) > iqr
    if sign * rel_change > metric["bound"]:
        regression = "worse"
    elif iqr / base["median"] > metric["bound"] and \
            not max(sign * c for c in change) < min(sign * p for p in parent):
        regression = "unresolved"
    else:
        regression = "ok"
    return {"unit": metric["unit"], "better": metric["better"],
            "parent": base, "change": new, "rel_change": rel_change,
            "change_wins": wins, "pairs": len(parent), "beyond_parent_iqr": beyond,
            "claim_met": 10 * wins >= 9 * len(parent) and beyond and sign * rel_change < 0,
            "regression": regression}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    runs = args.run or [f"{w['name']}:0" for w in spec["workloads"]]
    trees = {"parent": args.parent, "change": args.change}
    record = {"pairs": args.pairs, "seconds": args.seconds,
              "trees": {side: {**git_state(tree), **line_counts(tree)}
                        for side, tree in trees.items()},
              "environment": {"variables": run_variables()}, "results": []}
    for item in runs:
        workload, _, seed = item.partition(":")
        seed = int(seed or 0)
        values = {side: {m["name"]: [] for m in metrics} for side in trees}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                result = bench_once(trees[side], workload, seed, args.seconds)
                record["environment"][side] = result["environment"]
                for m in metrics:
                    values[side][m["name"]].append(result["metrics"][m["name"]]["value"])
            print(f"{workload} seed {seed} pair {pair + 1}/{args.pairs}: " + ", ".join(
                f"{m['name']} {values['parent'][m['name']][-1]:.4g} -> "
                f"{values['change'][m['name']][-1]:.4g}" for m in metrics), flush=True)
        record["results"].append({
            "workload": workload, "seed": seed,
            "metrics": {m["name"]: compare(m, values["parent"][m["name"]],
                                           values["change"][m["name"]]) for m in metrics}})
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    for res in record["results"]:
        for name, cmp in res["metrics"].items():
            print(f"{res['workload']} seed {res['seed']} {name}: "
                  f"{cmp['parent']['median']:.4g} -> {cmp['change']['median']:.4g} "
                  f"{cmp['unit']} ({100 * cmp['rel_change']:+.1f}%, "
                  f"{cmp['change_wins']}/{cmp['pairs']} wins, "
                  f"claim_met {cmp['claim_met']}, regression {cmp['regression']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
