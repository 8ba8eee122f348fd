"""Record the reference outputs that the benchmark gate compares against.

    python3 bench/record_reference.py

Writes ``bench/reference/experiment/<config>.csv`` (the trials.csv of every
default config at the fixed reference seed and size) and
``bench/reference/audits.txt`` (the audit names of ``verify all``, in
report order).  Run it only at a commit whose outputs are known to be
right; the files in the repository were recorded at the seed commit.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
from pathlib import Path

from run import BLAS_THREADS, SRC, THREAD_VARS, import_package


def main() -> int:
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    from workloads import REFERENCE_DIR, WORKLOADS, call_cli

    package = import_package()
    experiment = WORKLOADS["experiment-default"]
    target = REFERENCE_DIR / "experiment"
    shutil.rmtree(target, ignore_errors=True)
    target.mkdir(parents=True)
    with tempfile.TemporaryDirectory() as tmp:
        code, _ = call_cli(package.cli, experiment.argv(experiment.reference_seed,
                                                        experiment.reference_trials)
                           + ["--out", tmp])
        if code != 0:
            raise SystemExit("reference experiment failed")
        for trials in sorted(Path(tmp).glob("*/trials.csv")):
            shutil.copy(trials, target / f"{trials.parent.name}.csv")
    code, report = call_cli(package.cli, ["verify", "all", "--fast", "--seed", "0"])
    if code != 0:
        raise SystemExit("verify all --fast failed")
    names = [line.split(":", 1)[0].split(" ", 1)[1] for line in report.splitlines()[1:-1]]
    (REFERENCE_DIR / "audits.txt").write_text("\n".join(names) + "\n")
    print(f"recorded {len(list(target.glob('*.csv')))} trial tables and {len(names)} audits")
    return 0


if __name__ == "__main__":
    sys.exit(main())
