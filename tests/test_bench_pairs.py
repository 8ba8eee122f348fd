"""tools/bench_pairs.py on two stand-in checkouts whose bench/run.py only
writes a result file."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

FAKE_RUN = '''
import json, sys
from pathlib import Path
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
root = Path(__file__).resolve().parents[1]
calls = root / "calls.txt"
k = len(calls.read_text().splitlines()) if calls.exists() else 0
with calls.open("a") as f:
    f.write(args["--workload"] + "\\n")
wall = json.loads((root / "walls.json").read_text())[k]
if wall is None:
    sys.exit(1)
out = root / ".bench_out" / f"{args['--workload']}-seed{args['--seed']}-trace0"
out.mkdir(parents=True, exist_ok=True)
metrics = {"wall_s": {"value": wall, "unit": "s"}, "setup_s": {"value": 0.05, "unit": "s"},
           "peak_rss_mb": {"value": 60.0, "unit": "MiB"}}
(out / "result.json").write_text(json.dumps({"failed": 0, "metrics": metrics,
                                             "environment": {"nproc": 2}}))
'''

SPEC = {"workloads": [{"name": "w"}],
        "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
                       {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
                       {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1}]}


def fake_tree(root: Path, walls: list) -> Path:
    (root / "bench").mkdir(parents=True)
    (root / "bench" / "run.py").write_text(FAKE_RUN)
    (root / "walls.json").write_text(json.dumps(walls))
    (root / "BENCHMARK.json").write_text(json.dumps(SPEC))
    return root


def test_records_medians_quartiles_and_wins(tmp_path):
    parent = fake_tree(tmp_path / "parent", [2.0, 2.2, 1.9, 2.1])
    change = fake_tree(tmp_path / "change", [1.0, 1.1, 2.5, 1.2])
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                             "--pairs", "4", "--seconds", "1", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert set(record["trees"]["change"]) == {"git_sha", "dirty", "src_lines",
                                              "tests_lines"}
    assert record["environment"]["parent"] == {"nproc": 2}
    [result] = record["results"]
    assert (result["workload"], result["seed"]) == ("w", 0)
    wall = result["metrics"]["wall_s"]
    assert wall["parent"]["runs"] == [2.0, 2.2, 1.9, 2.1]
    assert wall["parent"]["median"] == pytest.approx(2.05)
    assert (wall["parent"]["q1"], wall["parent"]["q3"]) == pytest.approx((1.975, 2.125))
    assert wall["change"]["median"] == pytest.approx(1.15)
    assert wall["change_wins"] == 3 and wall["pairs"] == 4
    assert wall["rel_change"] == pytest.approx(1.15 / 2.05 - 1.0)
    assert wall["beyond_parent_iqr"]
    assert result["metrics"]["setup_s"]["change_wins"] == 0
    assert not result["metrics"]["setup_s"]["beyond_parent_iqr"]


def test_records_the_malloc_and_blas_variables_it_ran_under(tmp_path, monkeypatch):
    for name in bench_pairs.THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.setenv("MALLOC_MMAP_THRESHOLD_", "131072")
    monkeypatch.setenv("MALLOC_ARENA_MAX", "2")
    tree = fake_tree(tmp_path / "tree", [1.0, 1.0])
    out = tmp_path / "out.json"
    bench_pairs.main(["--parent", str(tree), "--change", str(tree), "--pairs", "1",
                      "--seconds", "1", "--out", str(out)])
    variables = json.loads(out.read_text())["environment"]["variables"]
    assert variables["OPENBLAS_NUM_THREADS"] == "1"
    assert variables["OMP_NUM_THREADS"] is None
    assert set(bench_pairs.THREAD_VARS) <= set(variables)
    assert variables["MALLOC_MMAP_THRESHOLD_"] == "131072"
    assert variables["MALLOC_ARENA_MAX"] == "2"
    assert {name for name in variables if name.startswith("MALLOC_")} \
        == {name for name in os.environ if name.startswith("MALLOC_")}


def test_records_line_counts_as_wc_does(tmp_path):
    tree = fake_tree(tmp_path / "tree", [1.0, 1.0])
    (tree / "src" / "pkg").mkdir(parents=True)
    (tree / "src" / "pkg" / "a.py").write_text("x = 1\ny = 2\n")
    (tree / "src" / "pkg" / "b.py").write_text("z = 3")  # no final newline: 0 lines
    (tree / "src" / "pkg" / "notes.txt").write_text("not\ncounted\n")
    (tree / "tests").mkdir()
    (tree / "tests" / "test_a.py").write_text("\n" * 5)
    assert bench_pairs.line_counts(tree) == {"src_lines": 2, "tests_lines": 5}
    out = tmp_path / "out.json"
    bench_pairs.main(["--parent", str(tree), "--change", str(tree), "--pairs", "1",
                      "--seconds", "1", "--out", str(out)])
    trees = json.loads(out.read_text())["trees"]
    assert trees["parent"]["src_lines"] == trees["change"]["src_lines"] == 2


def test_alternates_which_tree_runs_first(tmp_path, monkeypatch):
    parent = fake_tree(tmp_path / "parent", [2.0] * 3)
    change = fake_tree(tmp_path / "change", [1.0] * 3)
    order = []
    real = bench_pairs.bench_once

    def spy(tree, *args):
        order.append(tree.name)
        return real(tree, *args)

    monkeypatch.setattr(bench_pairs, "bench_once", spy)
    bench_pairs.main(["--parent", str(parent), "--change", str(change), "--pairs", "3",
                      "--seconds", "1", "--out", str(tmp_path / "out.json")])
    assert order == ["parent", "change", "change", "parent", "parent", "change"]


def test_stops_on_a_failed_run(tmp_path):
    parent = fake_tree(tmp_path / "parent", [2.0, None])
    change = fake_tree(tmp_path / "change", [1.0, 1.0])
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit, match="failed"):
        bench_pairs.main(["--parent", str(parent), "--change", str(change), "--pairs", "2",
                          "--seconds", "1", "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("parent_walls, change_walls, claim_met, regression", [
    # 10/10 wins, medians apart by more than the parent's IQR
    ([2.0, 2.1, 1.9, 2.0, 2.05, 1.95, 2.0, 2.1, 1.9, 2.0], [1.5] * 10, True, "ok"),
    # 9/10 wins and one tie: a tie counts for neither side
    ([2.0, 2.1, 1.9, 2.0, 2.05, 1.95, 2.0, 2.1, 1.9, 2.0], [1.5] * 9 + [2.0], True, "ok"),
    # 8/10 wins are not a claim, however far the medians moved
    ([2.0, 2.1, 1.9, 2.0, 2.05, 1.95, 2.0, 2.1, 1.9, 2.0], [1.5] * 8 + [2.5] * 2,
     False, "ok"),
    # 10/10 wins inside the parent's IQR are not a claim either
    ([1.0, 1.0, 3.0, 3.0], [0.99, 0.99, 2.99, 2.99], False, "unresolved"),
    # the change's median 30% worse than the parent's, past the 25% bound
    ([2.0] * 4, [2.6] * 4, False, "worse"),
    # 20% worse, within the bound, and the parent's runs tight
    ([2.0] * 4, [2.4] * 4, False, "ok"),
    # the parent's IQR is wider than the bound: only a clean sweep resolves it
    ([1.0, 1.5, 2.5, 3.0], [1.2, 1.2, 1.2, 1.2], False, "unresolved"),
    ([1.0, 1.5, 2.5, 3.0], [0.5, 0.5, 0.5, 0.5], True, "ok"),
])
def test_verdicts(tmp_path, parent_walls, change_walls, claim_met, regression):
    pairs = len(parent_walls)
    parent = fake_tree(tmp_path / "parent", parent_walls)
    change = fake_tree(tmp_path / "change", change_walls)
    out = tmp_path / "out.json"
    bench_pairs.main(["--parent", str(parent), "--change", str(change),
                      "--pairs", str(pairs), "--seconds", "1", "--out", str(out)])
    [result] = json.loads(out.read_text())["results"]
    wall = result["metrics"]["wall_s"]
    assert (wall["claim_met"], wall["regression"]) == (claim_met, regression)
    # equal runs on both sides: no win, no claim, no regression
    for name in ("setup_s", "peak_rss_mb"):
        assert result["metrics"][name]["change_wins"] == 0
        assert not result["metrics"][name]["claim_met"]
        assert result["metrics"][name]["regression"] == "ok"
