import json
import math
import os
import re
import subprocess
import sys

import pytest

import qshannon
from qshannon import cli


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, out


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        assert cli.main([]) == 2

    def test_unknown_params(self, capsys):
        assert cli.main(["entropy"]) == 2  # no probs/state given

    def test_bad_config_path(self, capsys):
        assert cli.main(["entropy", "--config", "/nonexistent.json"]) == 2

    @pytest.mark.parametrize("config", [
        [{"command": "entropy", "probs": [0.5, 0.5]}],
        "entropy",
        {"command": "entropy", "params": [["probs", [0.5, 0.5]]]},
        {"command": "entropy", "params": "probs"},
    ], ids=["list", "string", "params_list", "params_string"])
    def test_config_not_an_object_is_usage_error(self, tmp_path, capsys, config):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert cli.main(["--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error: config")

    @pytest.mark.parametrize("config,argv", [
        ({"command": "compress", "probs": [0.5, 0.5], "n": 0, "rate": 0.5,
          "states": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}, []),
        ({"command": "compress", "example": "schumacher3qubit", "n": 0}, []),
        ({"command": "concentrate"}, ["--trials", "1"]),
        ({"command": "concentrate"}, ["--trials", "2"]),
    ], ids=["compress_rate_n0", "compress_spec_n0", "concentrate_1", "concentrate_2"])
    def test_sample_too_small_is_usage_error(self, tmp_path, capsys, config, argv):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert cli.main(["--config", str(cfg), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")


class TestEntropyCommand:
    def test_probs_json(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"command": "entropy", "probs": [0.5, 0.5]}))
        code, out = run(["--config", str(cfg)], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["results"]["shannon_entropy"] == pytest.approx(1.0)

    def test_state_matrix_input(self, tmp_path, capsys):
        state = [[[0.75, 0.0], [0.25, 0.0]], [[0.25, 0.0], [0.25, 0.0]]]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"command": "entropy", "state": state}))
        code, out = run(["--config", str(cfg)], capsys)
        assert code == 0
        assert json.loads(out)["results"]["von_neumann_entropy"] == pytest.approx(
            0.60088, abs=1e-4)

    def test_csv_format(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"command": "entropy", "probs": [0.25, 0.75]}))
        code, out = run(["--config", str(cfg), "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "name,value"
        assert lines[1].startswith("shannon_entropy,0.811278124459")


class TestSchema:
    def test_reports_validate(self, tmp_path, capsys):
        import jsonschema

        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"command": "compress",
                                   "example": "schumacher3qubit"}))
        code, out = run(["--config", str(cfg)], capsys)
        assert code == 0
        jsonschema.validate(json.loads(out), cli.load_schema())


class TestDeterminism:
    def test_byte_identical_modulo_wall_time(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"command": "capacity", "family": "erasure",
                                   "grid": [0.0, 0.25], "which": ["Q1"],
                                   "seed": 5}))
        outputs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert cli.main(["--config", str(cfg), "--out", str(out)]) == 0
            report = json.loads(out.read_text())
            del report["wall_time"]
            outputs.append(json.dumps(report, sort_keys=True))
        assert outputs[0] == outputs[1]

    def test_csv_deterministic(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"command": "blackhole", "n": 6, "k": 2,
                                   "c": 2, "trials": 10, "seed": 3,
                                   "format": "csv"}))
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert cli.main(["--config", str(cfg), "--out", str(a)]) == 0
        assert cli.main(["--config", str(cfg), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCapacityCommand:
    def test_erasure_q1_rows(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"command": "capacity", "family": "erasure",
                                   "grid": [0.0, 0.1, 0.25, 0.4],
                                   "which": ["Q1"], "format": "csv"}))
        code, out = run(["--config", str(cfg)], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "family,p,quantity,value,err,converged"
        values = [float(line.split(",")[3]) for line in lines[1:]]
        assert values == pytest.approx([1.0, 0.8, 0.5, 0.2], abs=1e-4)


class TestDecoupleCommand:
    def test_pure_source_example(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"command": "decouple",
                                   "dims": {"A1": 64, "A2": 2},
                                   "trials": 60, "seed": 7}))
        code, out = run(["--config", str(cfg)], capsys)
        assert code == 0
        res = json.loads(out)["results"]
        assert res["bound"] == pytest.approx(0.1767766952966369)
        assert res["mean_l1"] <= res["bound"] + 4 * res["mc_stderr"]

    def test_missing_dims_is_usage_error(self, capsys):
        assert cli.main(["decouple"]) == 2

    @pytest.mark.parametrize("config", [
        {"command": "decouple", "dims": {"A1": 0, "A2": 2}},
        {"command": "decouple", "dims": {"A1": 2, "A2": -1}},
        {"command": "decouple", "dims": {"A1": 2, "A2": 2}, "e_dim": 0},
    ])
    def test_dimension_below_one_is_usage_error(self, tmp_path, capsys, config):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert cli.main(["--config", str(cfg)]) == 2


class TestMonteCarloTrials:
    @pytest.mark.parametrize("argv", [
        ["blackhole", "--trials", "1", "--seed", "5"],
        ["measure", "--example", "haar_gain", "--trials", "1"],
    ])
    def test_one_trial_is_usage_error(self, argv):
        # a standard error needs two trials; run as a process to see stderr whole
        src = os.path.dirname(os.path.dirname(qshannon.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-m", "qshannon.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
        assert "Warning" not in proc.stderr


    @pytest.mark.parametrize("command", ["concentrate", "measure", "decouple", "blackhole"])
    @pytest.mark.parametrize("flag,config_trials", [
        ("0", None), ("-5", None), (None, 0), (None, -1), (None, True), (None, 2.5),
        (None, "10"),
    ], ids=["flag_0", "flag_negative", "config_0", "config_negative", "config_bool",
            "config_float", "config_string"])
    def test_bad_trials_is_usage_error(self, tmp_path, capsys, command, flag, config_trials):
        config = {"command": command, "example": "haar_gain", "n": 4,
                  "dims": {"A1": 2, "A2": 2}}
        if config_trials is not None:
            config["trials"] = config_trials
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        argv = ["--config", str(cfg)] + (["--trials", flag] if flag else [])
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: trials") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


    @pytest.mark.parametrize("seed", [True, 2.5, "7"], ids=["bool", "float", "string"])
    def test_bad_seed_is_usage_error(self, tmp_path, capsys, seed):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"command": "concentrate", "seed": seed, "trials": 50}))
        assert cli.main(["--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: seed") and captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


class TestBlackholeCommand:
    @pytest.mark.parametrize("params,word", [
        ({"n": 8, "k": 2, "c": -1}, "margins"),
        ({"n": 8, "k": -1, "c": 2}, "k >= 0"),
        ({"n": 0, "k": 2, "c": 2}, "n >= 1"),
    ], ids=["c_negative", "k_negative", "n_zero"])
    def test_negative_margins_are_usage_errors(self, tmp_path, capsys, params, word):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"command": "blackhole", "age": "old", **params}))
        assert cli.main(["--config", str(cfg), "--trials", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert word in captured.err


class TestConcentrateCommand:
    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_single_outcome_law_reports_finite_pvalue(self, tmp_path, capsys, p):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"command": "concentrate", "p": p, "n": 10}))
        code, out = run(["--config", str(cfg), "--trials", "50"], capsys)
        assert code == 0
        pvalue = json.loads(out)["results"]["chi2_pvalue"]
        assert isinstance(pvalue, float) and math.isfinite(pvalue)
        assert pvalue == 1.0


class TestSuiteCommand:
    def test_unknown_suite_is_usage_error(self, capsys):
        assert cli.main(["suite", "--name", "bogus"]) == 2

    def test_golden_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = cli.main(["suite", "--name", "golden", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["results"]["passed"] is True
        assert all(report["results"]["checks"].values())


class TestFlagOverrides:
    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"command": "blackhole", "n": 6, "k": 2,
                                   "c": 2, "trials": 5, "seed": 3}))
        code, out = run(["--config", str(cfg), "--trials", "12"], capsys)
        assert code == 0
        assert json.loads(out)["config"]["trials"] == 12


class TestDefaultsTable:
    @pytest.mark.parametrize("config,argv,word", [
        ({"command": "blackhole", "n": 8, "k": 2.9}, ["--trials", "2"], "k must be int"),
        ({"command": "concentrate", "p": "0.2"}, ["--trials", "50"], "p must be float"),
        ({"command": "concentrate", "n": True}, ["--trials", "50"], "n must be int"),
        ({"command": "concentrate", "n": 0, "p": 0.2}, ["--trials", "50"], "n >= 1"),
        ({"command": "concentrate", "p": 10 ** 400}, ["--trials", "50"], "too large"),
        ({"command": "measure", "d": 2.5}, ["--trials", "50"], "d must be int"),
        ({"command": "measure"}, [], "measure needs example"),
        ({"command": "measure", "example": "bogus", "d": 3}, [], "measure needs example"),
        ({"command": "measure", "example": "trine"}, ["--seed", "3"], "takes no seed"),
        ({"command": "decouple", "dims": {"A1": 2.5, "A2": 2}}, ["--trials", "5"],
         "dims.A1 must be int"),
        ({"command": "compress", "example": "schumacher3qubit", "rate": "0.5"}, [],
         "rate must be float"),
        ({"command": "capacity", "family": "erasure"}, ["--trials", "5"], "takes no trials"),
        ({"command": "suite", "name": "golden"}, ["--trials", "5"], "takes no trials"),
        ({"command": "entropy", "probs": [0.5, 0.5]}, ["--seed", "3"], "takes no seed"),
        ({"command": "entropy", "probs": [0.5, 0.5], "out": 2}, [], "out must be"),
        ({"command": "entropy", "probs": [0.5, 0.5], "format": "xml"}, [], "format must be"),
        ({"command": "capacity", "family": "erasure", "grid": [0.1], "which": ["Q1", "Q2"]},
         [], "unknown quantities"),
    ], ids=["blackhole_k_float", "concentrate_p_string", "concentrate_n_bool",
            "concentrate_n_zero", "concentrate_p_overflow", "measure_d_float", "measure_no_example",
            "measure_unknown_example", "trine_seed", "decouple_dims_float",
            "compress_rate_string", "capacity_trials", "suite_trials", "entropy_seed",
            "out_int", "format_xml", "capacity_unknown_quantity"])
    def test_bad_input_is_one_line_usage_error(self, tmp_path, capsys, config, argv, word):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        assert cli.main(["--config", str(cfg), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert word in captured.err

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "r.json"
        assert cli.main(["entropy", "--config", self._probs(tmp_path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write report")

    @staticmethod
    def _probs(tmp_path):
        cfg = tmp_path / "p.json"
        cfg.write_text(json.dumps({"probs": [0.5, 0.5]}))
        return str(cfg)

    @pytest.mark.parametrize("config,seed,trials", [
        ({"command": "capacity", "family": "erasure", "grid": [0.25], "which": ["Q1"],
          "restarts": 1}, 19, None),
        ({"command": "concentrate", "n": 6}, 41, 10_000),
        ({"command": "measure", "d": 2}, 71, 10_000),
        ({"command": "decouple", "dims": {"A1": 2, "A2": 2}, "e_dim": 2}, 7, 500),
        ({"command": "blackhole", "n": 4, "k": 1, "c": 1}, 423, 300),
    ], ids=["capacity", "concentrate", "measure", "decouple", "blackhole"])
    def test_report_config_reproduces_the_run(self, tmp_path, capsys, config, seed, trials):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(config))
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        code = cli.main(["--config", str(cfg), "--out", str(first)])
        report = json.loads(first.read_text())
        assert (report["config"]["seed"], report["config"]["trials"]) == (seed, trials)
        cfg.write_text(json.dumps(report["config"]))
        assert cli.main(["--config", str(cfg), "--out", str(second)]) == code
        texts = [re.sub(r'"wall_time": .*', "", p.read_text()) for p in (first, second)]
        assert texts[0] == texts[1]

    @pytest.mark.parametrize("given,argv,params,seed,trials", [
        ({"command": "blackhole", "n": 4, "seed": 5}, ["--trials", "2"],
         {"n": 4, "k": 2, "c": 2, "age": "old"}, 5, 2),
        ({"command": "measure", "example": "trine"}, [], {"example": "trine"}, None, None),
        ({"command": "compress", "example": "schumacher3qubit"}, [],
         {**cli.SCHUMACHER3, "example": "schumacher3qubit"}, None, None),
    ], ids=["blackhole", "trine", "compress_example"])
    def test_config_records_effective_params(self, tmp_path, capsys, given, argv, params,
                                             seed, trials):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(given))
        code, out = run(["--config", str(cfg), *argv], capsys)
        assert code in (0, 1)
        assert json.loads(out)["config"] == {"command": given["command"], "params": params,
                                             "seed": seed, "trials": trials,
                                             "format": "json"}

    def test_float_param_takes_an_integer(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"command": "concentrate", "p": 0, "n": 10}))
        code, out = run(["--config", str(cfg), "--trials", "50"], capsys)
        assert code == 0
        assert json.loads(out)["config"]["params"]["p"] == 0.0
