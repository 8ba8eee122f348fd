"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1-8 run the property audits of :mod:`spo_bounds.audits` at full
size, so this suite and ``spo-bounds verify all`` share one implementation
of each check.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is sized for a laptop (the experiment criterion is
the long pole at a couple of minutes).
"""

import subprocess
import sys
import time

from spo_bounds import audits
from spo_bounds.harness import config_label, default_suite, run_suite

SEED = 7
#: seed of the c01-c08 audits; not c10's 7, so their draws stay independent
#: of the `verify all --seed 7` report
AUDIT_SEED = 11


def report(criterion: int, message: str) -> None:
    print(f"\nPASS criterion {criterion}: {message}")


def passing(*checks) -> str:
    """Run property audits at full size; every one must pass.  Returns their
    joined detail lines."""
    results = [check(AUDIT_SEED) for check in checks]
    for res in results:
        assert res.passed, f"{res.name}: {res.detail}"
    return "; ".join(f"{res.name}: {res.detail}" for res in results)


def test_c01_binary_equivalence():
    """Interval region with costs +-1: exact 0-1 and ramp equivalence."""
    report(1, passing(audits.audit_binary_equivalence))


def test_c02_lipschitz_like_oracle():
    """Oracle Lipschitz-like ratio <= 1 + 1e-7 over 1e5 pairs in d = 2 and 5;
    witness hits 1; runtime under 10 s."""
    start = time.perf_counter()
    detail = passing(audits.audit_oracle_lipschitz_like)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(2, f"{detail}, runtime {elapsed:.2f}s < 10s")


def test_c03_margin_loss_lipschitz():
    """Margin-loss Lipschitz ratio <= 1 + 1e-7 for both constants, 1e5 triples."""
    report(3, passing(audits.audit_margin_loss_lipschitz))


def test_c04_ordering_and_monotonicity():
    """spo <= margin <= hard <= omega and gamma-monotonicity, 1e4 x 10 gammas."""
    report(4, passing(audits.audit_loss_ordering))


def test_c05_strong_convexity_and_optimality():
    """Certified mu passes at 1e4 samples; overstated mu=10 is rejected with a
    witness whose breach recomputes; the optimality condition holds."""
    report(5, passing(audits.audit_strong_convexity, audits.audit_optimality_condition))


def test_c06_massart_natarajan_chain():
    """MC <= Massart bound via restriction counts; Natarajan dim <= d*p."""
    report(6, passing(audits.audit_massart_domination, audits.audit_natarajan_linear_cap))


def test_c07_frobenius_domination():
    """MC multivariate complexity <= closed-form Frobenius bound + 3se."""
    report(7, passing(audits.audit_frobenius_domination))


def test_c08_bound_arithmetic():
    """Frozen bound values, cross-consistency, exact uniformity-term kill."""
    report(8, passing(audits.audit_bound_anchors))


def test_c09_bound_validity_experiment():
    """Default grid, T=200, delta=0.05: zero violations, runtime < 10 min.
    The grid runs through ``run_suite``, as ``experiment run --defaults``
    does."""
    start = time.perf_counter()
    total_records = 0
    bound_ids = set()
    configs = default_suite(seed=SEED, trials=200, m_fresh=100_000)
    for config, result in zip(configs, run_suite(configs)):
        total_records += len(result.records)
        for bound_id, stats in result.summary["bounds"].items():
            bound_ids.add(bound_id)
            assert stats["violations"] == 0, \
                f"{config_label(config)} {bound_id}: {stats}"
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(9, f"{total_records} trials across 8 configs x 3 sample sizes, "
              f"0 violations for every bound ({len(bound_ids)} bound ids), "
              f"runtime {elapsed:.0f}s < 600s")


def test_c10_verify_all_deterministic(tmp_path):
    """Two runs of `verify all --seed 7` produce byte-identical reports."""
    outputs = []
    for i in (1, 2):
        out_file = tmp_path / f"report{i}.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "spo_bounds.cli", "verify", "all",
             "--seed", "7", "--out", str(out_file)],
            capture_output=True, timeout=600)
        assert proc.returncode == 0, proc.stdout.decode()
        outputs.append((out_file.read_bytes(), proc.stdout))
    assert outputs[0] == outputs[1]
    assert b"PASS oracle_optimality" in outputs[0][0]
    report(10, f"two `verify all --seed 7` runs byte-identical "
               f"({len(outputs[0][0])} bytes, all audits PASS)")
