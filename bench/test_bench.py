"""Self-tests of the benchmark: seed discipline, the output gate on doctored
outputs, the independent references, and BENCHMARK.json's metric list.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

import gate
import tracer
from workloads import REFERENCE_DIR, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
AUDITS = (REFERENCE_DIR / "audits.txt").read_text().split()


def _inputs(tmp_path: Path, workload: str, seed: int) -> dict[str, bytes]:
    indir = tmp_path / f"{workload}-{seed}-{len(list(tmp_path.iterdir()))}"
    indir.mkdir()
    WORKLOADS[workload].build_inputs(seed, indir)
    return {p.name: p.read_bytes() for p in sorted(indir.iterdir())}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path, workload):
    first = _inputs(tmp_path, workload, 3)
    assert first == _inputs(tmp_path, workload, 3)
    other = _inputs(tmp_path, workload, 4)
    assert set(other) == set(first) and other != first


def _reference_trials(tmp_path: Path) -> tuple[Path, list[str]]:
    labels = sorted(p.stem for p in (REFERENCE_DIR / "experiment").glob("*.csv"))
    for label in labels:
        (tmp_path / label).mkdir()
        shutil.copy(REFERENCE_DIR / "experiment" / f"{label}.csv", tmp_path / label / "trials.csv")
    return tmp_path, labels


def test_gate_fails_on_flipped_violation_flag(tmp_path):
    outdir, labels = _reference_trials(tmp_path)
    (attempted, failed, _), _ = gate.check_trials_dir(outdir, labels, 6, None)
    assert (attempted, failed) == (48, 0)
    path = outdir / labels[0] / "trials.csv"
    lines = path.read_text().splitlines()
    lines[2] = lines[2][:-1] + "1"
    path.write_text("\n".join(lines) + "\n")
    (attempted, failed, problems), _ = gate.check_trials_dir(outdir, labels, 6, None)
    assert (attempted, failed) == (48, 1)
    assert "violation@" in problems[0]


def test_gate_fails_on_a_flag_that_hides_a_violation():
    header = ["trial", "true_risk", "true_risk_stderr", "bound@covering", "violation@covering"]
    assert gate.trial_row_problem(header, ["0", "0.5", "0.01", "1.0", "0"]) is None
    assert gate.trial_row_problem(header, ["0", "1.5", "0.01", "1.0", "0"]) is not None


def test_gate_fails_on_drift_from_the_reference():
    want = gate.read_csv(REFERENCE_DIR / "experiment" / "simplex_d2_p2.csv")
    header, rows = want
    assert gate.compare_trials(want, (header, [list(r) for r in rows])) == [None] * len(rows)
    drifted = [list(r) for r in rows]
    col = header.index("true_risk")
    drifted[1][col] = repr(float(drifted[1][col]) * (1 + 1e-6))
    verdicts = gate.compare_trials(want, (header, drifted))
    assert verdicts[1] is not None and verdicts.count(None) == len(rows) - 1


def _report(lines: list[str], seed: int = 5) -> str:
    return "\n".join([f"property audit suite (seed {seed})", *lines,
                      f"{len(lines)}/{len(lines)} audits passed"]) + "\n"


def test_gate_fails_on_a_fail_line():
    passing = [f"PASS {name}: detail" for name in AUDITS]
    (attempted, failed, _), first = gate.check_report(_report(passing), AUDITS, 5, None)
    assert (attempted, failed) == (17, 0)
    doctored = list(passing)
    doctored[6] = doctored[6].replace("PASS", "FAIL")
    (_, failed, problems), _ = gate.check_report(_report(doctored), AUDITS, 5, first)
    assert failed == 1 and AUDITS[6] in problems[0]
    (_, failed, _), _ = gate.check_report(_report(passing[:-1]), AUDITS, 5, first)
    assert failed == 1


def test_gate_fails_on_a_doctored_bound_value():
    inputs = {"n": 50, "delta": 0.05, "empirical_risk": 0.1, "omega": 2.0, "rho2_C": 3.0,
              "rho2_S": 8 ** 0.5, "d": 40, "p": 5, "d_N": 2, "card_S": 70, "rad": 0.3}
    want = gate.bound_values(inputs)
    rows = [f"{t},{v},{val!r},,,,," for (t, v), val in want.items()]
    text = "theorem_id,variant,value,empirical_risk,complexity,deviation,uniformity,remainder\n"
    assert gate.bound_csv_problems(text + "\n".join(rows), want) == []
    rows[2] = f"natarajan,,{want[('natarajan', '')] * 1.001!r},,,,,"
    assert gate.bound_csv_problems(text + "\n".join(rows), want) != []


def test_references_agree_with_the_package_on_the_grid():
    from spo_bounds import bounds, complexity, geometry

    arcs = gate.grid_arcs(5, 5)
    V = gate.path_matrix(25, arcs, 0, 24)
    region = geometry.DagPathPolytope(25, arcs, 0, 24)
    assert V.shape == (70, 40) == (region.extreme_point_count(), region.dim)
    rng = np.random.default_rng(0)
    C = rng.standard_normal((200, 40))
    assert np.array_equal(V[gate.decisions(V, C)], region.linopt_batch(C))
    for table in [np.array([[1, 1, 2, 2], [1, 2, 1, 2]])] + \
            [rng.integers(1, 5, size=(5, 12)) for _ in range(5)]:
        assert gate.natarajan_dimension(table) == complexity.natarajan_dim_bruteforce(table)
    inputs = {"n": 50, "delta": 0.05, "empirical_risk": 0.1, "omega": 2.0, "rho2_C": 3.0,
              "rho2_S": 8 ** 0.5, "d": 40, "p": 5, "d_N": 2, "card_S": 70, "rad": 0.3}
    got = {(r.theorem_id, r.inputs.get("variant", "")): r.value
           for r in bounds.evaluate_all(bounds.BoundInputs(**inputs))}
    want = gate.bound_values(inputs)
    assert set(got) == set(want) and all(gate.close(got[k], want[k]) for k in want)


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        tracer.layer_metric_names(AUDITS)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
