import json

import pytest

from spo_bounds.cli import main
from spo_bounds.geometry import UnitSimplex


def write(path, data):
    path.write_text(json.dumps(data))
    return str(path)


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

    def test_needs_config_or_defaults(self, capsys):
        rc = main(["experiment", "run", "--out", "nowhere"])
        assert rc == 2


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


class TestInputErrors:
    """Invalid input ends in one stderr line and exit 2, never a traceback."""

    def assert_one_error_line(self, capsys, needle):
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ") and needle in lines[0]

    def test_bound_all_rejects_single_sample_single_point(self, tmp_path, capsys):
        inputs_file = write(tmp_path / "inputs.json",
                            {"n": 1, "delta": 0.05, "omega": 1.0, "d_N": 1,
                             "card_S": 1})
        assert main(["bound", "all", "--inputs", inputs_file]) == 2
        self.assert_one_error_line(capsys, "card_S")

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

    def test_natarajan_rejects_non_integer_labels(self, tmp_path, capsys):
        table_file = write(tmp_path / "table.json", [[1.5, 2.7], [1.2, 2.2]])
        assert main(["complexity", "natarajan", "--table", table_file]) == 2
        self.assert_one_error_line(capsys, "labels must be integers")

    def test_natarajan_budget_checked_before_any_oracle_call(self, tmp_path, capsys,
                                                             monkeypatch):
        def no_oracle(region, C):
            raise AssertionError("oracle called on an over-budget input")

        monkeypatch.setattr(UnitSimplex, "linopt_batch", no_oracle)
        region_file = write(tmp_path / "simplex.json", {"kind": "UnitSimplex", "dim": 2})
        hyp_file = write(tmp_path / "hyp.json", [[[1.0], [0.0]]])
        xs_file = write(tmp_path / "xs.json", [[float(i)] for i in range(13)])
        assert main(["complexity", "natarajan", "--region", region_file,
                     "--hypotheses", hyp_file, "--xs", xs_file]) == 2
        self.assert_one_error_line(capsys, "13 points x 1 hypotheses exceeds")
