import inspect
import json
import math

import pytest

from spo_bounds import bounds, cli, complexity, harness
from spo_bounds.bounds import TERMS
from spo_bounds.cli import main
from spo_bounds.geometry import UnitSimplex

SIMPLEX = {"kind": "UnitSimplex", "dim": 2}
BALL = {"kind": "LqBall", "q": 2.0, "radius": 1.0, "center": [0.0, 0.0], "mu": 1.0}
DAG = {"kind": "DagPathPolytope", "nodes": 3, "arcs": [[0, 1], [1, 2]], "source": 0,
       "sink": 2}


def write(path, data):
    """``data`` as JSON, or bytes as they are."""
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(json.dumps(data))
    return str(path)


def chain_config(nodes):
    """An experiment config on the one path of a ``nodes``-node chain DAG,
    with a ball cost domain, whose omega is the DAG's diameter."""
    return {"region": {"kind": "DagPathPolytope", "nodes": nodes,
                       "arcs": [[v, v + 1] for v in range(nodes - 1)],
                       "source": 0, "sink": nodes - 1},
            "cost_domain": {"kind": "ball", "radius": 1.0},
            "b_star": [[0.01]] * (nodes - 1), "n": [10], "m_fresh": 100}


@pytest.fixture
def ball_region_file(tmp_path):
    return write(tmp_path / "region.json",
                 {"kind": "LqBall", "dim": 2, "q": 2.0, "radius": 1.0,
                  "center": [0.0, 0.0], "mu": 1.0})


class TestLossEval:
    def test_spo_and_margin(self, ball_region_file, capsys):
        rc = main(["loss", "eval", "--region", ball_region_file,
                   "--c-hat", "3,4", "--c", "1,0", "--gamma", "10"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["spo"] == pytest.approx(0.4)
        assert out["dual_norm_c_hat"] == 5.0
        assert out["omega"] == 2.0
        assert "margin" in out and "hard_margin" in out


    def test_a_negative_first_entry_takes_the_equals_form(self, ball_region_file, capsys):
        # argparse reads "-0.5,0.3" after a space as an option, not a value
        with pytest.raises(SystemExit) as stop:
            main(["loss", "eval", "--region", ball_region_file, "--c-hat", "-0.5,0.3",
                  "--c", "1,0"])
        assert stop.value.code == 2
        assert "expected one argument" in capsys.readouterr().err
        assert main(["loss", "eval", "--region", ball_region_file, "--c-hat=-0.5,0.3",
                     "--c=-1,0"]) == 0
        assert json.loads(capsys.readouterr().out)["dual_norm_c_hat"] == pytest.approx(
            math.hypot(0.5, 0.3))
        with pytest.raises(SystemExit):
            main(["loss", "eval", "--help"])
        assert "--c-hat=-0.5,0.3" in capsys.readouterr().out


class TestComplexityCommands:
    def test_rad_spo(self, tmp_path, ball_region_file, capsys):
        region_file = write(tmp_path / "simplex.json",
                            {"kind": "UnitSimplex", "dim": 2})
        hyp_file = write(tmp_path / "hyp.json",
                         [[[1.0, 0.0], [0.0, 1.0]], [[-1.0, 0.5], [0.2, 0.1]]])
        sample_file = write(tmp_path / "sample.json",
                            {"xs": [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
                             "cs": [[1.0, -1.0], [0.0, 1.0], [0.3, 0.3]]})
        rc = main(["complexity", "rad-spo", "--region", region_file,
                   "--hypotheses", hyp_file, "--sample", sample_file,
                   "--draws", "500", "--seed", "3"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["estimate"] >= 0.0
        assert out["std_error"] > 0.0

    def test_rad_spo_accepts_csv_sample(self, tmp_path, capsys):
        from spo_bounds.losses import LabeledSample
        region_file = write(tmp_path / "simplex.json",
                            {"kind": "UnitSimplex", "dim": 2})
        hyp_file = write(tmp_path / "hyp.json", [[[1.0, 0.0], [0.0, 1.0]]])
        sample = LabeledSample(xs=[[1.0, 0.0], [0.0, 2.0]],
                               cs=[[0.5, -0.5], [1.0, 0.0]])
        csv_file = tmp_path / "sample.csv"
        csv_file.write_text(sample.to_csv())
        rc = main(["complexity", "rad-spo", "--region", region_file,
                   "--hypotheses", hyp_file, "--sample", str(csv_file),
                   "--draws", "200"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["draws"] == 200

    def test_rad_multi(self, tmp_path, capsys):
        hyp_file = write(tmp_path / "hyp.json", [[[1.0, 0.0]], [[0.0, 1.0]]])
        xs_file = write(tmp_path / "xs.json", [[1.0, 0.0], [0.0, 1.0]])
        rc = main(["complexity", "rad-multi", "--hypotheses", hyp_file,
                   "--xs", xs_file, "--draws", "400"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["estimate"] >= 0.0

    def test_natarajan_from_table(self, tmp_path, capsys):
        table_file = write(tmp_path / "table.json", [[1, 1, 2, 2], [1, 2, 1, 2]])
        rc = main(["complexity", "natarajan", "--table", table_file])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["dimension"] == 2

    def test_natarajan_from_oracle(self, tmp_path, capsys):
        region_file = write(tmp_path / "simplex.json",
                            {"kind": "UnitSimplex", "dim": 2})
        hyp_file = write(tmp_path / "hyp.json",
                         [[[a], [b]] for a in (-1.0, 0.0, 1.0)
                          for b in (-1.0, 0.0, 1.0)])
        xs_file = write(tmp_path / "xs.json", [[-1.0], [1.0]])
        rc = main(["complexity", "natarajan", "--region", region_file,
                   "--hypotheses", hyp_file, "--xs", xs_file])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["dimension"] <= 2

    def test_natarajan_missing_inputs(self, capsys):
        rc = main(["complexity", "natarajan"])
        assert rc == 2


class TestBoundCommands:
    def test_single_bound_json(self, tmp_path, capsys):
        inputs_file = write(tmp_path / "inputs.json",
                            {"n": 100, "delta": 0.05, "omega": 1.0,
                             "d_N": 2, "card_S": 3})
        rc = main(["bound", "natarajan", "--inputs", inputs_file])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["theorem_id"] == "natarajan"
        assert out["value"] == pytest.approx(1.1656, abs=5e-4)

    def test_all_bounds_csv(self, tmp_path, capsys):
        inputs_file = write(tmp_path / "inputs.json",
                            {"n": 200, "delta": 0.05, "omega": 1.0, "rad": 0.1,
                             "rho2_C": 1.0, "rho2_S": 1.0, "d": 2, "p": 2,
                             "card_S": 4, "mu": 1.0, "gamma": 0.5,
                             "gamma_bar": 1.0})
        out_file = tmp_path / "table.csv"
        rc = main(["bound", "all", "--inputs", inputs_file, "--csv",
                   str(out_file)])
        assert rc == 0
        lines = out_file.read_text().splitlines()
        assert lines[0].startswith("theorem_id,variant,value")
        ids = {line.split(",")[0] for line in lines[1:]}
        assert "margin_uniform" in ids and "covering" in ids

    def test_all_header_is_the_terms(self, tmp_path, capsys):
        inputs_file = write(tmp_path / "inputs.json",
                            {"n": 200, "delta": 0.05, "omega": 1.0, "rad": 0.1})
        assert main(["bound", "all", "--inputs", inputs_file]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == "theorem_id,variant,value," + ",".join(TERMS)

    @pytest.mark.parametrize("flags, variant", [([], "empirical"),
                                                (["--variant", "empirical"], "empirical"),
                                                (["--variant", "expected"], "expected")])
    def test_variant_theorems_read_unset_as_empirical(self, flags, variant, tmp_path,
                                                       capsys):
        inputs_file = write(tmp_path / "inputs.json",
                            {"n": 200, "delta": 0.05, "omega": 1.0, "rad": 0.1})
        assert main(["bound", "rademacher", "--inputs", inputs_file, *flags]) == 0
        assert json.loads(capsys.readouterr().out)["inputs"]["variant"] == variant


    def test_zero_omega_with_a_subnormal_delta_prints_no_nan(self, tmp_path, capsys):
        inputs_file = write(tmp_path / "inputs.json",
                            {"n": 2, "delta": 5e-324, "omega": 0.0, "rad": 0.1,
                             "rho2_C": 1.0, "rho2_S": 1.0, "d": 2, "p": 2, "d_N": 1,
                             "card_S": 4, "mu": 1.0, "gamma": 0.5, "gamma_bar": 1.0})
        assert main(["bound", "all", "--inputs", inputs_file]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        deviation = header.split(",").index("deviation")
        assert len(rows) == 9 and "nan" not in "".join(rows)
        assert {row.split(",")[deviation] for row in rows} == {"0.0"}


class TestParser:
    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        assert cli.build_parser() is cli.build_parser()
        table_file = write(tmp_path / "table.json", [[1, 1, 2, 2], [1, 2, 1, 2]])
        inputs_file = write(tmp_path / "inputs.json",
                            {"n": 100, "delta": 0.05, "omega": 1.0, "d_N": 2,
                             "card_S": 3})
        assert main(["complexity", "natarajan", "--table", table_file]) == 0
        assert json.loads(capsys.readouterr().out)["dimension"] == 2
        assert main(["bound", "natarajan", "--inputs", inputs_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["theorem_id"] == "natarajan" and "variant" not in report["inputs"]
        # a usage error still exits 2, and the next call parses afresh
        with pytest.raises(SystemExit) as stop:
            main(["bound", "natarajan"])
        assert stop.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            "error: the following arguments are required: --inputs")
        assert main(["complexity", "natarajan", "--table", table_file]) == 0
        assert json.loads(capsys.readouterr().out)["dimension"] == 2


class TestExperimentCommand:
    def test_run_writes_outputs_deterministically(self, tmp_path, capsys):
        cfg = {"region": {"kind": "UnitSimplex", "dim": 2},
               "cost_domain": {"kind": "ball", "radius": 1.0},
               "b_star": [[0.4, -0.1], [0.2, 0.3]], "noise": 0.1,
               "feature_dist": "sphere", "n": [20, 40], "trials": 2,
               "delta": 0.05, "gamma_grid": [], "m_fresh": 500, "seed": 13}
        cfg_file = write(tmp_path / "cfg.json", cfg)
        rc = main(["experiment", "run", "--config", cfg_file, "--out",
                   str(tmp_path / "out1")])
        assert rc == 0
        rc = main(["experiment", "run", "--config", cfg_file, "--out",
                   str(tmp_path / "out2")])
        assert rc == 0
        for name in ("trials.csv", "summary.json"):
            assert (tmp_path / "out1" / name).read_bytes() \
                == (tmp_path / "out2" / name).read_bytes()
        summary = json.loads((tmp_path / "out1" / "summary.json").read_text())
        assert not summary["any_violation"]
        plot = (tmp_path / "out1" / "plotdata" / "covering.csv").read_text()
        assert plot.splitlines()[0] == "n,mean_bound,mean_true_risk"

    def test_long_chain_with_a_ball_domain(self, tmp_path, capsys):
        # the diameter of a 1,200-node path polytope, past the recursion limit
        cfg_file = write(tmp_path / "cfg.json", chain_config(1200))
        out = tmp_path / "out"
        assert main(["experiment", "run", "--config", cfg_file, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert json.loads((out / "summary.json").read_text())["any_violation"] is False

    def assert_argparse_error(self, flags, message, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["experiment", "run", *flags, "--out", "nowhere"])
        assert stop.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(f"error: {message}")

    def test_needs_config_or_defaults(self, capsys):
        self.assert_argparse_error(
            [], "one of the arguments --config --defaults is required", capsys)

    def test_config_and_defaults_exclude_each_other(self, capsys):
        self.assert_argparse_error(
            ["--config", "cfg.json", "--defaults"],
            "argument --defaults: not allowed with argument --config", capsys)

    def test_defaults_pass_only_the_given_sizes(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "default_suite", lambda **sizes: calls.append(sizes) or [])
        assert main(["experiment", "run", "--defaults", "--out", str(tmp_path / "a")]) == 0
        assert main(["experiment", "run", "--defaults", "--seed", "4", "--m-fresh", "50",
                     "--out", str(tmp_path / "b")]) == 0
        assert calls == [{}, {"seed": 4, "m_fresh": 50}]
        defaults = inspect.signature(harness.default_suite).parameters
        assert {key: p.default for key, p in defaults.items()} == \
            {"seed": 0, "trials": 200, "m_fresh": 100_000}


    def test_defaults_trees_equal_config_runs(self, tmp_path, capsys):
        # --defaults runs the grid as groups that share draws; each config's
        # tree must be the bytes of that config run alone through --config
        sizes = {"seed": 3, "trials": 2, "m_fresh": 2000}
        flags = [f"--{key.replace('_', '-')}={value}" for key, value in sizes.items()]
        assert main(["experiment", "run", "--defaults", *flags,
                     "--out", str(tmp_path / "grid")]) == 0
        for config in harness.default_suite(**sizes):
            label = harness.config_label(config)
            cfg_file = write(tmp_path / f"{label}.json", config.to_dict())
            alone = tmp_path / "alone" / label
            assert main(["experiment", "run", "--config", cfg_file, "--out", str(alone)]) == 0
            files = sorted(p.relative_to(alone) for p in alone.rglob("*") if p.is_file())
            grid = tmp_path / "grid" / label
            assert files == sorted(p.relative_to(grid) for p in grid.rglob("*") if p.is_file())
            for name in files:
                assert (alone / name).read_bytes() == (grid / name).read_bytes(), name


class TestVerifyCommand:
    def test_fast_verify_deterministic(self, tmp_path, capsys):
        rc1 = main(["verify", "all", "--seed", "3", "--fast", "--out",
                    str(tmp_path / "r1.txt")])
        out1 = capsys.readouterr().out
        rc2 = main(["verify", "all", "--seed", "3", "--fast", "--out",
                    str(tmp_path / "r2.txt")])
        out2 = capsys.readouterr().out
        assert rc1 == rc2 == 0
        assert out1 == out2
        assert (tmp_path / "r1.txt").read_bytes() == (tmp_path / "r2.txt").read_bytes()
        assert "PASS oracle_optimality" in out1

    @pytest.mark.parametrize("error", [ValueError, ZeroDivisionError])
    def test_a_raising_audit_fails_alone(self, error, monkeypatch, capsys):
        def raises(inputs):
            raise error("no bound today")

        monkeypatch.setattr(bounds, "THEOREMS",
                            {**bounds.THEOREMS, "natarajan": (raises, False)})
        assert main(["verify", "all", "--seed", "3", "--fast"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert len(lines[1:-1]) == 17 and lines[-1] == "15/17 audits passed"
        # the two bound-contract audits evaluate THEOREMS; the rest still report
        assert [line for line in lines if line.startswith("FAIL")] == [
            f"FAIL {name}: raised {error.__name__}: no bound today"
            for name in ("bound_monotonicity", "bound_term_consistency")]


class TestInputErrors:
    """Invalid input ends in one stderr line and exit 2, never a traceback."""

    def assert_one_error_line(self, capsys, needle):
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and needle in lines[0]

    def test_verify_refuses_a_negative_seed(self, capsys):
        assert main(["verify", "all", "--seed", "-1", "--fast"]) == 2
        self.assert_one_error_line(capsys, "seed must be an integer >= 0, got -1")

    def test_bound_all_rejects_single_sample_single_point(self, tmp_path, capsys):
        inputs_file = write(tmp_path / "inputs.json",
                            {"n": 1, "delta": 0.05, "omega": 1.0, "d_N": 1,
                             "card_S": 1})
        assert main(["bound", "all", "--inputs", inputs_file]) == 2
        self.assert_one_error_line(capsys, "card_S")

    @pytest.mark.parametrize("theorem", ["natarajan", "linear_polyhedral", "covering",
                                         "all"])
    @pytest.mark.parametrize("variant", ["expected", "empirical"])
    def test_variant_refused_where_there_is_none(self, theorem, variant, tmp_path,
                                                 capsys):
        inputs_file = write(tmp_path / "inputs.json",
                            {"n": 200, "delta": 0.05, "omega": 1.0, "rho2_C": 1.0,
                             "rho2_S": 1.0, "d": 2, "p": 2, "d_N": 2, "card_S": 4})
        assert main(["bound", theorem, "--inputs", inputs_file,
                     "--variant", variant]) == 2
        self.assert_one_error_line(capsys, "variant")

    @pytest.mark.parametrize("key, value, shown", [
        ("n", math.nan, "nan"), ("n", 100.5, "100.5"), ("d", 2.5, "2.5"),
        ("card_S", math.inf, "inf")])
    def test_bound_inputs_refuse_non_integer_counts(self, key, value, shown, tmp_path,
                                                    capsys):
        # json reads the NaN and Infinity literals as floats
        inputs_file = write(tmp_path / "inputs.json",
                            {"n": 100, "delta": 0.05, "omega": 1.0, "rho2_C": 1.0,
                             "rho2_S": 1.0, "d": 2, "p": 2, "card_S": 4, key: value})
        assert main(["bound", "all", "--inputs", inputs_file]) == 2
        self.assert_one_error_line(capsys, f"{key} must be an integer >= 1, got {shown}")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rad_multi_refuses_non_finite_features(self, bad, tmp_path, capsys):
        hyp_file = write(tmp_path / "hyp.json", [[[1.0, 0.0]], [[0.0, 1.0]]])
        xs_file = write(tmp_path / "xs.json", [[1.0, 0.0], [bad, 1.0]])
        assert main(["complexity", "rad-multi", "--hypotheses", hyp_file,
                     "--xs", xs_file, "--draws", "10"]) == 2
        self.assert_one_error_line(capsys, "xs must be finite")

    def test_malformed_region_json(self, tmp_path, capsys):
        region_file = tmp_path / "region.json"
        region_file.write_text('{"kind": "LqBall", "dim": 2')
        assert main(["loss", "eval", "--region", str(region_file),
                     "--c-hat", "1,0", "--c", "1,0"]) == 2
        self.assert_one_error_line(capsys, "delimiter")

    def test_region_missing_key(self, tmp_path, capsys):
        region_file = write(tmp_path / "region.json", {"kind": "LqBall", "dim": 2})
        assert main(["loss", "eval", "--region", region_file,
                     "--c-hat", "1,0", "--c", "1,0"]) == 2
        self.assert_one_error_line(capsys, "missing key 'q'")

    @pytest.mark.parametrize("flags, named", [
        (["--seed", "3"], "--seed"),
        (["--trials", "5", "--m-fresh", "100"], "--trials, --m-fresh"),
    ])
    def test_config_refuses_default_grid_sizes(self, flags, named, tmp_path, capsys):
        # a config file sets its own seed, trials and m_fresh; the flags
        # must not be silently ignored next to it
        cfg_file = write(tmp_path / "cfg.json",
                         {"region": SIMPLEX, "b_star": [[1.0], [0.0]],
                          "cost_domain": {"kind": "ball", "radius": 1.0}})
        out = tmp_path / "out"
        assert main(["experiment", "run", "--config", cfg_file, *flags,
                     "--out", str(out)]) == 2
        self.assert_one_error_line(capsys, f"{named} cannot be used with --config")
        assert not out.exists()

    @pytest.mark.parametrize("key, value, shown", [
        ("noise", math.nan, "nan"), ("gamma_grid", [math.nan], "nan"),
        ("beta", math.inf, "inf")])
    def test_config_refuses_non_finite_values(self, key, value, shown, tmp_path, capsys,
                                              monkeypatch):
        # refused while the config is read, before any draw
        monkeypatch.setattr(harness, "_draw_pairs", None)
        cfg_file = write(tmp_path / "cfg.json",
                         {"region": BALL, "b_star": [[1.0], [0.0]], "gamma_grid": [0.5],
                          "cost_domain": {"kind": "ball", "radius": 1.0}, key: value})
        out = tmp_path / "out"
        assert main(["experiment", "run", "--config", cfg_file, "--out", str(out)]) == 2
        low = ">= 0" if key == "noise" else "> 0"
        self.assert_one_error_line(capsys, f"{key} must be a finite number {low}, got {shown}")
        assert not out.exists()

    def test_sample_size_budget(self, tmp_path, capsys, monkeypatch):
        # refused while the default grid is built, before any draw
        monkeypatch.setattr(harness, "_draw_pairs", None)
        assert main(["experiment", "run", "--defaults", "--trials", "1",
                     "--m-fresh", str(10 ** 9), "--out", str(tmp_path / "out")]) == 2
        self.assert_one_error_line(
            capsys, "m_fresh = 1000000000 needs 32000000000 bytes of samples, over the "
                    "1073741824-byte budget")

    def test_dag_diameter_table_budget(self, tmp_path, capsys):
        # a (16,385 x 16,385) int32 pair table is over the 1 GiB budget
        cfg_file = write(tmp_path / "cfg.json", chain_config(16385))
        out = tmp_path / "out"
        assert main(["experiment", "run", "--config", cfg_file, "--out", str(out)]) == 2
        self.assert_one_error_line(
            capsys, "the diameter of a DAG with 16385 nodes on source-sink paths needs "
                    "1073872900 bytes, over the 1073741824-byte budget")
        assert not out.exists()

    @pytest.mark.parametrize("estimator", ["rad-spo", "rad-multi"])
    def test_estimator_prediction_budget(self, estimator, tmp_path, capsys):
        # rad-multi holds every prediction: 1,000 hypotheses x 4,000 points x
        # 40 outputs, 1.28e9 bytes; rad-spo streams them and holds the SPO
        # losses: 1,000 hypotheses x 140,000 points, 1.12e9 bytes; each is
        # refused before it is formed
        if estimator == "rad-spo":
            hyp_file = write(tmp_path / "hyp.json", [[[0.5]]] * 1000)
            xs = [[1.0]] * 140000
            argv = ["--region", write(tmp_path / "simplex.json",
                                      {"kind": "UnitSimplex", "dim": 1}),
                    "--sample", write(tmp_path / "sample.json",
                                      {"xs": xs, "cs": [[0.0]] * 140000})]
            message = ("1000 hypotheses x 140000 points need 1120000000 bytes of "
                       "SPO losses, over the 1073741824-byte budget")
        else:
            hyp_file = write(tmp_path / "hyp.json", [[[0.5]] * 40] * 1000)
            argv = ["--xs", write(tmp_path / "xs.json", [[1.0]] * 4000)]
            message = ("1000 hypotheses x 4000 points x 40 outputs need 1280000000 bytes "
                       "of predictions, over the 1073741824-byte budget")
        assert main(["complexity", estimator, "--hypotheses", hyp_file, *argv]) == 2
        self.assert_one_error_line(capsys, message)

    @pytest.mark.parametrize("estimator", ["rad-spo", "rad-multi"])
    def test_estimator_correlation_budget(self, estimator, tmp_path, capsys, monkeypatch):
        # 2 hypotheses on 2 points, 100 draws: one block of 100 x 2
        # correlations, 1,600 bytes, over a budget cut to 1,000 bytes
        monkeypatch.setattr(complexity, "ARRAY_BYTES_MAX", 1000)
        hyp_file = write(tmp_path / "hyp.json", [[[1.0]], [[0.5]]])
        xs = [[1.0], [0.0]]
        argv = (["--region", write(tmp_path / "simplex.json", {"kind": "UnitSimplex", "dim": 1}),
                 "--sample", write(tmp_path / "sample.json", {"xs": xs, "cs": [[0.0]] * 2})]
                if estimator == "rad-spo" else ["--xs", write(tmp_path / "xs.json", xs)])
        assert main(["complexity", estimator, "--hypotheses", hyp_file, *argv,
                     "--draws", "100"]) == 2
        self.assert_one_error_line(capsys, "100 sign draws x 2 hypotheses need 1600 bytes "
                                           "of correlations, over the 1000-byte budget")

    @pytest.mark.parametrize("theorem", ["natarajan", "rademacher"])
    def test_csv_refused_for_a_single_theorem(self, theorem, tmp_path, capsys):
        inputs_file = write(tmp_path / "inputs.json",
                            {"n": 100, "delta": 0.05, "omega": 1.0, "d_N": 2,
                             "card_S": 3, "rad": 0.1})
        out_file = tmp_path / "table.csv"
        assert main(["bound", theorem, "--inputs", inputs_file,
                     "--csv", str(out_file)]) == 2
        self.assert_one_error_line(capsys, "--csv applies to 'all' only")
        assert not out_file.exists()

    @pytest.mark.parametrize("theorem", ["margin", "margin_uniform", "all"])
    def test_margin_refuses_an_underflowing_gamma_mu(self, theorem, tmp_path, capsys):
        inputs_file = write(tmp_path / "inputs.json",
                            {"n": 100, "delta": 0.05, "omega": 1.0, "rho2_C": 1.0,
                             "rad": 0.1, "mu": 1e-200, "gamma": 1e-200, "gamma_bar": 1.0})
        assert main(["bound", theorem, "--inputs", inputs_file]) == 2
        self.assert_one_error_line(capsys, "gamma, mu and gamma * mu must be > 0, "
                                           "got 1e-200, 1e-200")

    def test_missing_file(self, tmp_path, capsys):
        assert main(["loss", "eval", "--region", str(tmp_path / "none.json"),
                     "--c-hat", "1,0", "--c", "1,0"]) == 2
        self.assert_one_error_line(capsys, "none.json")

    @pytest.mark.parametrize("argv, missing", [
        (["rad-spo", "--hypotheses", "h.json", "--sample", "s.csv"], "--region"),
        (["rad-spo", "--region", "r.json", "--sample", "s.csv"], "--hypotheses"),
        (["rad-multi", "--xs", "xs.json"], "--hypotheses"),
    ])
    def test_estimator_missing_argument(self, argv, missing, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["complexity", *argv])
        assert stop.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            f"error: the following arguments are required: {missing}")

    @pytest.mark.parametrize("argv, unread", [
        (["natarajan", "--table", "t.json", "--draws", "5"], "--draws 5"),
        (["natarajan", "--table", "t.json", "--seed", "3"], "--seed 3"),
        (["rad-multi", "--hypotheses", "h.json", "--xs", "xs.json",
          "--region", "/nonexistent.json"], "--region /nonexistent.json"),
    ])
    def test_estimator_refuses_an_option_it_does_not_read(self, argv, unread, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["complexity", *argv])
        assert stop.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            f"error: unrecognized arguments: {unread}")

    def test_natarajan_rejects_non_integer_labels(self, tmp_path, capsys):
        table_file = write(tmp_path / "table.json", [[1.5, 2.7], [1.2, 2.2]])
        assert main(["complexity", "natarajan", "--table", table_file]) == 2
        self.assert_one_error_line(capsys, "labels must be integers")

    def test_natarajan_budget_checked_before_any_oracle_call(self, tmp_path, capsys,
                                                             monkeypatch):
        def no_oracle(region, C):
            raise AssertionError("oracle called on an over-budget input")

        # every oracle path, checked or not, ends in the region's kernel
        monkeypatch.setattr(UnitSimplex, "_linopt", no_oracle)
        region_file = write(tmp_path / "simplex.json", {"kind": "UnitSimplex", "dim": 2})
        hyp_file = write(tmp_path / "hyp.json", [[[1.0], [0.0]]])
        xs_file = write(tmp_path / "xs.json", [[float(i)] for i in range(13)])
        assert main(["complexity", "natarajan", "--region", region_file,
                     "--hypotheses", hyp_file, "--xs", xs_file]) == 2
        self.assert_one_error_line(capsys, "13 points x 1 hypotheses exceeds")

    def test_rad_multi_sign_budget(self, tmp_path, capsys, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated for an over-budget sign request")

        # 10**9 draws of 2 x 2 signs: the request is refused before any
        # array is built, seeding included
        monkeypatch.setattr("spo_bounds._rng._pool_states", no_allocation)
        hyp_file = write(tmp_path / "hyp.json", [[[1.0, 0.0]], [[0.0, 1.0]]])
        xs_file = write(tmp_path / "xs.json", [[1.0, 0.0], [0.0, 1.0]])
        assert main(["complexity", "rad-multi", "--hypotheses", hyp_file,
                     "--xs", xs_file, "--draws", str(10 ** 9)]) == 2
        self.assert_one_error_line(capsys, "1000000000 x 2 sign draws need")

    @pytest.mark.parametrize("command, data, needle", [
        pytest.param("rad-spo", {"xs": [[1.0, 0.0]]}, "sample is missing key 'cs'",
                     id="sample-missing-cs"),
        pytest.param("rad-spo", [[1.0, 0.0]], "sample must be a JSON object",
                     id="sample-not-object"),
        pytest.param("rad-multi", 5, "hypotheses must be a non-empty JSON list of numbers "
                                     "nested 3 deep",
                     id="hypotheses-not-list"),
        pytest.param("experiment", {"region": SIMPLEX, "b_star": [[1.0], [0.0]]},
                     "experiment config is missing key 'cost_domain'",
                     id="config-missing-cost-domain"),
        pytest.param("experiment", [1, 2], "experiment config must be a JSON object",
                     id="config-not-object"),
        pytest.param("experiment", {"region": SIMPLEX, "b_star": [[1.0], [0.0]],
                                    "cost_domain": {"kind": "ball"}},
                     "ball cost domain is missing key 'radius'", id="domain-missing-radius"),
        pytest.param("experiment", {"region": SIMPLEX, "b_star": [[1.0], [0.0]],
                                    "cost_domain": 3},
                     "cost domain must be a JSON object", id="domain-not-object"),
        pytest.param("bound", {"delta": 0.05, "omega": 1.0}, "bound inputs is missing key 'n'",
                     id="bound-inputs-missing-n"),
        pytest.param("bound", [1, 2], "bound inputs must be a JSON object",
                     id="bound-inputs-not-object"),
        pytest.param("bound", {"n": "abc", "delta": 0.05}, "n must be an integer >= 1, got 'abc'",
                     id="bound-inputs-string-n"),
        pytest.param("bound", {"n": 100, "delta": 0.05, "omega": True},
                     "omega must be a finite number >= 0, got True", id="bound-inputs-bool-omega"),
        pytest.param("experiment", {"region": SIMPLEX, "b_star": [[1.0], [0.0]],
                                    "cost_domain": {"kind": "ball", "radius": 1.0},
                                    "trials": "2"},
                     "trials must be an integer >= 1, got '2'", id="config-string-trials"),
        pytest.param("experiment", {"region": SIMPLEX, "b_star": [[1.0], [0.0]],
                                    "cost_domain": {"kind": "ball", "radius": 1.0},
                                    "n": [50, False]},
                     "n must be an integer >= 1, got False", id="config-bool-n"),
        *[pytest.param("experiment", {"region": {**region, key: value}, "b_star": [[1.0], [0.0]],
                                      "cost_domain": {"kind": "ball", "radius": 1.0}},
                       f"{region['kind']} region {key} must be {expected}, got {value!r}",
                       id=f"region-{key}")
          for region, key, value, expected in [
              (BALL, "q", "x", "a finite number"),
              (BALL, "radius", [1.0], "a finite number"),
              (BALL, "mu", True, "a finite number"),
              (SIMPLEX, "dim", 2.5, "an integer"),
              (DAG, "nodes", "3", "an integer")]],
        *[pytest.param("region", {**region, key: value}, f"{region['kind']} region {key} must be "
                       f"a non-empty JSON list of numbers{nesting}", id=f"region-{key}")
          for region, key, value, nesting in [
              (BALL, "center", [0.0, "a"], ""),
              (DAG, "arcs", [[0, 1], [1]], " nested 2 deep, whose lists share one shape")]],
        *[pytest.param("experiment", {"region": SIMPLEX, "b_star": [[1.0], [0.0]],
                                      "cost_domain": domain}, needle, id=f"domain-{name}")
          for name, domain, needle in [
              ("string-radius", {"kind": "ball", "radius": "1"},
               "ball cost domain radius must be a finite number, got '1'"),
              ("bool-radius", {"kind": "ball", "radius": True},
               "ball cost domain radius must be a finite number, got True"),
              ("radius-and-members", {"kind": "ball", "radius": 1.0, "members": [[1.0, 0.0]]},
               "unknown key 'members' in ball cost domain"),
              ("object-member", {"kind": "enumerated", "members": [{"a": 1}]},
               "enumerated cost domain members must be a non-empty JSON list of numbers "
               "nested 2 deep")]],
        pytest.param("xs", {"a": 1}, "xs must be a non-empty JSON list of numbers nested 2 deep",
                     id="xs-object"),
        pytest.param("rad-multi", [{"a": 1}], "hypotheses must be a non-empty JSON list of "
                     "numbers nested 3 deep", id="hypotheses-object"),
        pytest.param("rad-spo", {"xs": [[1.0, 0.0]], "cs": {"a": 1}},
                     "sample cs must be a non-empty JSON list of numbers nested 2 deep",
                     id="sample-object-cs"),
        pytest.param("rad-spo", {"xs": [[1.0, 0.0]], "cs": [[0.0, 1.0]], "w": [1.0]},
                     "unknown key 'w' in sample", id="sample-extra-key"),
        pytest.param("experiment", {"region": SIMPLEX, "b_star": {"a": 1},
                                    "cost_domain": {"kind": "ball", "radius": 1.0}},
                     "experiment config b_star must be a non-empty JSON list of numbers "
                     "nested 2 deep", id="config-object-b-star"),
        pytest.param("region", {**BALL, "mu_": 1.0}, "unknown key 'mu_' in region",
                     id="region-misspelt-mu"),
        pytest.param("table", [[0, 1], [1]], "label table must be a non-empty JSON list of "
                     "numbers nested 2 deep", id="table-ragged"),
        pytest.param("region", {"kind": "VertexPolytope", "vertices": [[0.0, 0.0], [1.0, 0.0]],
                                "mu": 1e6}, "VertexPolytope region mu must be null, got 1000000.0",
                     id="polytope-mu"),
        pytest.param("experiment", {"region": SIMPLEX, "b_star": [[1.0], [0.0]],
                                    "cost_domain": {"kind": "ball", "radius": 1.0},
                                    "gamma_grid": [0.5]},
                     "gamma grid is read only by the margin bounds", id="config-unread-gamma-grid"),
        pytest.param("bound", {"n": 10, "delta": 0.05, "empirical_risk": None, "omega": 1.0,
                               "rad": 0.1},
                     "empirical_risk must be a finite number >= 0, got None",
                     id="bound-inputs-null-risk"),
        # nested past Python's recursion limit, which json reports as a
        # RecursionError
        pytest.param("rad-multi", b"[" * 200_000, "hypotheses is nested too deeply to read",
                     id="hypotheses-too-deep"),
        pytest.param("region", b"[" * 200_000, "input.json is nested too deeply to read",
                     id="region-too-deep"),
        *[pytest.param("region", {**region, "dim": 5}, f"{region['kind']} region dim must be "
                       f"{dim}, the dimension it describes, got 5", id=f"region-dim-{name}")
          for name, region, dim in [
              ("ball", BALL, 2), ("dag", DAG, 2),
              ("polytope", {"kind": "VertexPolytope", "vertices": [[0.0, 0.0], [1.0, 0.0]]}, 2)]],
    ])
    def test_malformed_json_input(self, command, data, needle, tmp_path, capsys):
        path = write(tmp_path / "input.json", data)
        argv = {
            "rad-spo": ["complexity", "rad-spo",
                        "--region", write(tmp_path / "simplex.json", SIMPLEX),
                        "--hypotheses", write(tmp_path / "hyp.json", [[[1.0, 0.0], [0.0, 1.0]]]),
                        "--sample", path],
            "rad-multi": ["complexity", "rad-multi", "--hypotheses", path, "--xs",
                          write(tmp_path / "xs.json", [[1.0, 0.0]])],
            "experiment": ["experiment", "run", "--config", path,
                           "--out", str(tmp_path / "out")],
            "bound": ["bound", "all", "--inputs", path],
            "xs": ["complexity", "rad-multi", "--hypotheses",
                   write(tmp_path / "hyp.json", [[[1.0, 0.0]]]), "--xs", path],
            "table": ["complexity", "natarajan", "--table", path],
            "region": ["loss", "eval", "--region", path, "--c-hat", "1,0", "--c", "1,0"],
        }[command]
        assert main(argv) == 2
        self.assert_one_error_line(capsys, needle)
