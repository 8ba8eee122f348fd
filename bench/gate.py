"""Output gate: checks of every workload's outputs, and the independent
reference computations they are checked against.

The reference code uses numpy only and never imports ``spo_bounds``, so a
defect in the package cannot hide in its own reference.  Each function
returns ``(attempted, failed, problems)``: units checked, units that failed
and one line per failure.
"""

from __future__ import annotations

import math
from itertools import combinations
from pathlib import Path

import numpy as np

#: relative / absolute tolerance on every float compared with a reference
REL_TOL = 1e-9
ABS_TOL = 1e-12

Verdict = tuple[int, int, list[str]]


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


# ---------------------------------------------------------------------------
# experiment-default: trials.csv
# ---------------------------------------------------------------------------

def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def trial_row_problem(header: list[str], row: list[str]) -> str | None:
    """A trial row fails on any violation, or on a flag that disagrees with
    its own numbers (violation = true risk - 3 se > bound)."""
    if len(row) != len(header):
        return "malformed row"
    values = dict(zip(header, row))
    lower = float(values["true_risk"]) - 3.0 * float(values["true_risk_stderr"])
    for col in header:
        if not col.startswith("violation@"):
            continue
        flag = values[col]
        if flag != "0":
            return f"{col} is {flag}"
        if lower > float(values["bound@" + col.split("@", 1)[1]]):
            return f"{col} is 0 but the true risk exceeds the bound"
    return None


def compare_trials(ref: tuple[list[str], list[list[str]]],
                   got: tuple[list[str], list[list[str]]]) -> list[str | None]:
    """Per reference row: None if the row matches, else why not.  Trial,
    n, gamma_star and flags must match exactly, other numbers within
    tolerance."""
    ref_header, ref_rows = ref
    header, rows = got
    if header != ref_header:
        return ["columns differ from the reference"] * len(ref_rows)
    out: list[str | None] = []
    for i, ref_row in enumerate(ref_rows):
        if i >= len(rows) or len(rows[i]) != len(header):
            out.append("row missing or malformed")
            continue
        bad = None
        for col, want, have in zip(header, ref_row, rows[i]):
            exact = col in ("trial", "n", "gamma_star") or col.startswith("violation@")
            if (want != have) if exact else not close(float(want), float(have)):
                bad = f"{col}: {have} != reference {want}"
                break
        out.append(bad)
    return out


def check_trials_dir(outdir: Path, labels: list[str], rows_per_config: int,
                     first: dict[str, list[list[str]]] | None) -> tuple[Verdict, dict]:
    """Check one experiment output directory; ``first`` holds the first
    pass's rows, which every later pass must repeat byte for byte."""
    attempted = failed = 0
    problems: list[str] = []
    seen: dict[str, list[list[str]]] = {}
    for label in labels:
        path = outdir / label / "trials.csv"
        header, rows = read_csv(path) if path.is_file() else ([], [])
        seen[label] = rows
        attempted += rows_per_config
        missing = rows_per_config - len(rows)
        if missing:
            failed += abs(missing)
            problems.append(f"{label}: {len(rows)} trials, expected {rows_per_config}")
        for i, row in enumerate(rows[:rows_per_config]):
            why = trial_row_problem(header, row)
            if why is None and first is not None and first[label][i:i + 1] != [row]:
                why = "differs from the first pass"
            if why is not None:
                failed += 1
                problems.append(f"{label} trial row {i}: {why}")
    return (attempted, failed, problems), seen


# ---------------------------------------------------------------------------
# verify-all: the audit report
# ---------------------------------------------------------------------------

def check_report(text: str, names: list[str], seed: int,
                 first: dict[str, str] | None) -> tuple[Verdict, dict[str, str]]:
    """Every named audit must have a PASS line (identical to the first
    pass's), under the right header and over the right tally line."""
    lines = text.splitlines()
    by_name: dict[str, str] = {}
    for line in lines[1:-1]:
        rest = line.partition(" ")[2]
        by_name[rest.split(":", 1)[0]] = line
    problems: list[str] = []
    failed = 0
    for name in names:
        line = by_name.get(name, "")
        if not line.startswith("PASS "):
            problems.append(f"{name}: {line or 'missing'}")
            failed += 1
        elif first is not None and first.get(name) != line:
            problems.append(f"{name}: report line differs from the first pass")
            failed += 1
    frame = (lines[:1] == [f"property audit suite (seed {seed})"]
             and lines[-1:] == [f"{len(names)}/{len(names)} audits passed"]
             and len(lines) == len(names) + 2)
    if not frame and not failed:
        problems.append("report header, tally or line count is wrong")
        failed = len(names)
    return (len(names), failed, problems), by_name


# ---------------------------------------------------------------------------
# complexity-shortest-path: independent references
# ---------------------------------------------------------------------------

def grid_arcs(rows: int, cols: int) -> list[tuple[int, int]]:
    """Right/down arcs of a grid DAG, node i*cols + j, right arc first."""
    arcs = []
    for i in range(rows):
        for j in range(cols):
            if j + 1 < cols:
                arcs.append((i * cols + j, i * cols + j + 1))
            if i + 1 < rows:
                arcs.append((i * cols + j, (i + 1) * cols + j))
    return arcs


def path_matrix(nodes: int, arcs: list[tuple[int, int]], source: int, sink: int) -> np.ndarray:
    """Incidence vectors of every source->sink path, in lexicographic order
    of their arc-index sequences (so a first argmin breaks ties the same
    way as the package's oracle)."""
    out_arcs: list[list[tuple[int, int]]] = [[] for _ in range(nodes)]
    for idx, (tail, head) in enumerate(arcs):
        out_arcs[tail].append((idx, head))
    paths: list[list[int]] = []

    def extend(v: int, prefix: list[int]) -> None:
        if v == sink:
            paths.append(list(prefix))
            return
        for idx, head in out_arcs[v]:
            extend(head, prefix + [idx])

    extend(source, [])
    V = np.zeros((len(paths), len(arcs)))
    for k, path in enumerate(paths):
        V[k, path] = 1.0
    return V


def decisions(V: np.ndarray, C: np.ndarray) -> np.ndarray:
    """Index of the optimal path of each cost row (lowest index on ties)."""
    return np.argmin(C @ V.T, axis=1)


def spo_losses(V: np.ndarray, mats: np.ndarray, xs: np.ndarray, cs: np.ndarray) -> np.ndarray:
    """(H, n) SPO losses of every linear hypothesis on the sample."""
    path_costs = cs @ V.T  # (n, P)
    best = path_costs.min(axis=1)
    losses = np.empty((len(mats), len(xs)))
    for h, B in enumerate(mats):
        chosen = decisions(V, xs @ B.T)
        losses[h] = path_costs[np.arange(len(xs)), chosen] - best
    return losses


def sign_draws(seed: int, m_draws: int, size: int) -> np.ndarray:
    """The package's documented sign stream: one SeedSequence((seed, k))
    generator per draw index k."""
    rows = [np.random.default_rng(np.random.SeedSequence((seed, k)))
            .integers(0, 2, size=size) * 2.0 - 1.0 for k in range(m_draws)]
    return np.stack(rows)


def mc_summary(values: np.ndarray) -> tuple[float, float]:
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(values.size))


def rademacher_spo(losses: np.ndarray, m_draws: int, seed: int) -> tuple[float, float]:
    signs = sign_draws(seed, m_draws, losses.shape[1])
    return mc_summary((signs @ losses.T / losses.shape[1]).max(axis=1))


def rademacher_multi(mats: np.ndarray, xs: np.ndarray, m_draws: int,
                     seed: int) -> tuple[float, float]:
    flat = np.stack([(xs @ B.T).reshape(-1) for B in mats])
    signs = sign_draws(seed, m_draws, flat.shape[1])
    return mc_summary((signs @ flat.T / len(xs)).max(axis=1))


def label_table(V: np.ndarray, mats: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """(points, hypotheses) table of optimal path indices."""
    return np.stack([decisions(V, xs @ B.T) for B in mats], axis=1)


def natarajan_dimension(table: np.ndarray) -> int:
    """Largest N-shattered point set of a label table, by a vectorized
    search: for each candidate set, keep the pairs of distinct restricted
    labelings that disagree on every point, and drop a pair as soon as one
    mix of the two is not realized."""
    columns = np.unique(table.T, axis=0)
    m = table.shape[0]
    dim = 0
    for size in range(1, m + 1):
        shattered = False
        for subset in combinations(range(m), size):
            R = np.unique(columns[:, list(subset)], axis=0)
            if len(R) < 2:
                continue
            _, R = np.unique(R, return_inverse=True)
            R = R.reshape(-1, size)
            radix = int(R.max()) + 1
            if radix ** size >= 2 ** 62:
                raise ValueError("label table too large for the reference search")
            weights = radix ** np.arange(size, dtype=np.int64)
            pool = np.sort(R @ weights)
            i, j = np.triu_indices(len(R), 1)
            keep = np.all(R[i] != R[j], axis=1)
            i, j = i[keep], j[keep]
            for mask in range(1, (1 << size) - 1):
                if not len(i):
                    break
                pick = ((mask >> np.arange(size)) & 1).astype(bool)
                codes = np.where(pick, R[i], R[j]) @ weights
                pos = np.minimum(np.searchsorted(pool, codes), len(pool) - 1)
                found = pool[pos] == codes
                i, j = i[found], j[found]
            if len(i):
                shattered = True
                break
        if not shattered:
            break
        dim = size
    return dim


def restriction_count(V: np.ndarray, mats: np.ndarray, xs: np.ndarray) -> int:
    """Number of distinct decision tuples over the hypothesis set."""
    return len(np.unique(label_table(V, mats, xs).T, axis=0))


def bound_values(inputs: dict) -> dict[tuple[str, str], float]:
    """The bounds ``bound all`` reports for these inputs, keyed by
    (theorem id, variant), from the closed forms of the paper."""
    n, delta, omega = inputs["n"], inputs["delta"], inputs["omega"]
    risk = inputs["empirical_risk"]
    expected_dev = omega * math.sqrt(math.log(1.0 / delta) / (2.0 * n))
    empirical_dev = 3.0 * omega * math.sqrt(math.log(2.0 / delta) / (2.0 * n))

    def natarajan(d_n: int) -> float:
        log_arg = n * inputs["card_S"] ** 2
        return risk + 2.0 * omega * math.sqrt(2.0 * d_n * math.log(log_arg) / n) + expected_dev

    d, p = inputs["d"], inputs["p"]
    root = math.sqrt(2.0 * p * math.log(2.0 * n * inputs["rho2_S"] * d) / n)
    covering = (risk + 4.0 * d * omega * root + empirical_dev
                + 2.0 * (2.0 * inputs["rho2_C"] / n) * (1.0 + 2.0 * d * root))
    return {
        ("rademacher", "expected"): risk + 2.0 * inputs["rad"] + expected_dev,
        ("rademacher", "empirical"): risk + 2.0 * inputs["rad"] + empirical_dev,
        ("natarajan", ""): natarajan(inputs["d_N"]),
        ("linear_polyhedral", ""): natarajan(d * p),
        ("covering", ""): covering,
    }


def bound_csv_problems(text: str, expected: dict[tuple[str, str], float]) -> list[str]:
    """Compare a ``bound all`` CSV table with the expected values."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("theorem_id,variant,value,"):
        return ["bound table has no header"]
    got: dict[tuple[str, str], float] = {}
    for line in lines[1:]:
        theorem, variant, value = line.split(",")[:3]
        got[(theorem, variant)] = float(value)
    if set(got) != set(expected):
        return [f"bound table rows {sorted(got)} != expected {sorted(expected)}"]
    return [f"{key}: {got[key]!r} != reference {want!r}"
            for key, want in expected.items() if not close(got[key], want)]
