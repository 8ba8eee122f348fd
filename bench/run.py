"""Benchmark of spo-bounds: three certification workloads through the public CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload experiment-default --seed 0 --seconds 25 --trace 0

Workloads: experiment-default, verify-all, complexity-shortest-path (see
RATIONALE.md).  The run imports ``spo_bounds`` from ``src/`` of the
checkout, builds the workload inputs from ``--seed``, repeats timed passes
for ``--seconds`` (at least two, so outputs can be compared across passes)
and checks every output.  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it runs an untraced, a traced and an untraced pass
and reports the per-layer metrics of the traced one.  Human-readable lines, including the
environment block, precede the last line of standard output, which is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  A run
whose outputs fail the gate reports the failures and no metric, and exits
with 1.  Spans, inputs and outputs are kept under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
#: BLAS threads for every run: one, so runs do not contend for the cores
BLAS_THREADS = 1
SETUP_REPS = 9
MIN_PASSES = 2
#: no pass starts after this many seconds of measuring
MAX_MEASURE_S = 120.0


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("experiment-default", "verify-all", "complexity-shortest-path"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def import_package():
    """Import ``spo_bounds`` (and its CLI) afresh from the checkout's src/."""
    for name in [n for n in sys.modules if n == "spo_bounds" or n.startswith("spo_bounds.")]:
        del sys.modules[name]
    importlib.import_module("spo_bounds.cli")
    package = sys.modules["spo_bounds"]
    if Path(package.__file__).resolve().parent != (SRC / "spo_bounds").resolve():
        raise RuntimeError(f"spo_bounds was imported from {package.__file__}, not {SRC}")
    return package


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None

    def lines(top: Path) -> int:
        return sum(len(p.read_text().splitlines()) for p in top.rglob("*.py"))

    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_threads_pinned": BLAS_THREADS,
        "git_sha": sha, "src_lines": lines(SRC), "tests_lines": lines(ROOT / "tests"),
    }


def show(name: str, text: str) -> None:
    print(f"  {name:<44}{text}")


def measure(workload, package, inputs: dict, workdir: Path, seconds: float) -> list:
    """Untraced passes until ``seconds`` are used (at least MIN_PASSES)."""
    passes = []
    start = perf_counter()
    while True:
        passes.append(workload.run_pass(package, inputs, workdir / f"pass{len(passes)}", True))
        spent = perf_counter() - start
        if len(passes) >= MIN_PASSES and (spent + passes[-1].wall_s > min(seconds, MAX_MEASURE_S)):
            return passes


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "spo_bounds" / "__init__.py").is_file():
        print(f"bench: no spo_bounds sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import numpy as np  # a dependency, imported before the timed set-up

    import tracer as tracing
    from workloads import HELD_OUT_SEED, WORKLOADS, fresh_dir, log, program_seed

    workload = WORKLOADS[args.workload]
    workdir = fresh_dir(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        setup_s = []
        for _ in range(SETUP_REPS):
            start = perf_counter()
            package = import_package()
            inputs = workload.build_inputs(args.seed, fresh_dir(workdir / "inputs"))
            setup_s.append(perf_counter() - start)
        log(f"bench: {args.workload} seed {args.seed}: set-up done, measuring")
        tracer = None
        if args.trace:
            # untraced, traced, untraced: the overhead is measured against
            # the mean of the two untraced passes around the traced one
            passes = [workload.run_pass(package, inputs, workdir / "pass0", False)]
            tracer = tracing.Tracer()
            tracer.install(package)
            try:
                passes.append(tracer.span(tracing.ROOT_SPAN, workload.run_pass)(
                    package, inputs, workdir / "pass1", False))
            finally:
                tracer.uninstall()
            passes.append(workload.run_pass(package, inputs, workdir / "pass2", False))
        else:
            passes = measure(workload, package, inputs, workdir, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        attempted, failed, problems = workload.check(package, inputs, passes, workdir)
    except Exception:  # a crash in the package is a gate failure, not a time
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    walls = [p.wall_s for p in passes]
    env = environment()
    result = {"workload": args.workload, "seed": args.seed,
              "program_seed": program_seed(args.workload, args.seed),
              "held_out_seed": HELD_OUT_SEED, "trace": args.trace, "environment": env,
              "pass_wall_s": walls, "setup_s": setup_s, "attempted": attempted,
              "failed": failed, "fail_frac": failed / attempted, "problems": problems}
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, trace {args.trace}")
    for line in problems[:20]:
        print(f"  FAILED {line}")
    show("fail_frac", f"{failed / attempted:.6g} ({failed} of {attempted} {workload.units})")
    if failed:
        result["metrics"] = {}
    elif args.trace:
        audit_names = (BENCH_DIR / "reference" / "audits.txt").read_text().split()
        untraced_s = (passes[0].wall_s + passes[2].wall_s) / 2.0
        result["metrics"] = tracing.layer_metrics(tracer, audit_names, untraced_s,
                                                  passes[1].output_bytes)
        tracer.write(workdir / "spans.jsonl")
    else:
        result["metrics"] = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
        trial_ms = [1e3 * t for p in passes for t in p.trial_s]
        if trial_ms:
            p50, p99 = np.percentile(trial_ms, [50, 99])
            result["trials"] = {"count": len(trial_ms), "trial_p50_ms": float(p50),
                                "trial_p99_ms": float(p99)}
            show("trial_p50_ms", f"{p50:.6g} ms")
            show("trial_p99_ms", f"{p99:.6g} ms (over {len(trial_ms)} trials)")
    for name, metric in result["metrics"].items():
        show(name, f"{metric['value']:.6g} {metric['unit']}")
    (workdir / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
