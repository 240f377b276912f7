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

    @pytest.mark.parametrize("params,key", [
        ({"state": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}, "von_neumann_entropy"),
        ({"probs": [1.0, 0.0]}, "shannon_entropy"),
    ], ids=["pure_state", "deterministic_probs"])
    def test_zero_entropy_prints_plus_zero(self, tmp_path, capsys, params, key):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"command": "entropy", **params}))
        code, out = run(["--config", str(cfg)], capsys)
        assert code == 0
        assert f'"{key}": 0.0\n' in out

    def test_csv_format(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"command": "entropy", "probs": [0.25, 0.75]}))
        code, out = run(["--config", str(cfg), "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "name,value"
        assert lines[1].startswith("shannon_entropy,0.811278124459")

    def test_csv_flattens_a_list(self, tmp_path, capsys):
        state = [[[0.75, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.25, 0.0]]]
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"command": "entropy", "state": state}))
        code, out = run(["--config", str(cfg), "--format", "csv"], capsys)
        assert code == 0
        rows = dict(line.split(",") for line in out.strip().splitlines()[1:])
        assert sorted(float(rows[f"eigenvalues[{i}]"]) for i in range(2)) == [0.25, 0.75]
        assert "eigenvalues[2]" not in rows


class TestSchema:
    def test_reports_validate(self, tmp_path, capsys):
        import jsonschema

        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"command": "compress",
                                   "example": "schumacher3qubit"}))
        code, out = run(["--config", str(cfg)], capsys)
        assert code == 0
        jsonschema.validate(json.loads(out), cli.load_schema())

    def test_rejected_report_raises_on_every_call(self):
        # the validator is built once per process; a second bad report must
        # still be checked
        import jsonschema

        for _ in range(2):
            with pytest.raises(jsonschema.ValidationError):
                cli.emit_report({"command": 3}, {}, None, None, "json", 0.0)


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

    def test_err_is_null_without_a_bound(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"command": "capacity", "family": "erasure",
                                   "grid": [0.25], "which": ["CE", "Q1"]}))
        code, out = run(["--config", str(cfg)], capsys)
        assert code == 0
        rows = {r["quantity"]: r for r in json.loads(out)["results"]["rows"]}
        assert rows["Q1"]["err"] is None
        assert -1e-15 <= rows["CE"]["err"] <= 1e-10 and rows["CE"]["converged"]


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

    def test_sigma_shares_no_draw_with_trial_zero(self, tmp_path, capsys, monkeypatch):
        import copy

        import numpy as np

        from qshannon import decoupling as dec
        from qshannon._rng import normal_pairs

        states = []
        draw = dec.random_sigma_ae

        def recording(d_a, d_e, rng):
            states.append(copy.deepcopy(rng.bit_generator.state))
            return draw(d_a, d_e, rng)

        monkeypatch.setattr(dec, "random_sigma_ae", recording)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"command": "decouple", "dims": {"A1": 2, "A2": 4},
                                   "e_dim": 2, "seed": 7}))
        for trials in ("2", "5"):
            assert run(["--config", str(cfg), "--trials", trials], capsys)[0] in (0, 1)
        # one sigma, whatever the trial count
        first, second = (st["state"] for st in states)
        assert all(np.array_equal(first[k], second[k]) for k in ("key", "counter"))
        gen = np.random.Generator(np.random.Philox())
        gen.bit_generator.state = states[0]
        # a run of the sigma stream longer than sigma's draws, of every kind
        sigma_draws = set(gen.standard_normal(4096)) | set(gen.random(4096))
        re, im = normal_pairs(7, 0, 1, (8, 8))
        assert sigma_draws.isdisjoint(re.ravel()) and sigma_draws.isdisjoint(im.ravel())

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
        ({"n": 8, "k": 2, "c": [2, -1]}, "margins"),
        ({"n": 8, "k": -1, "c": 2}, "k >= 0"),
        ({"n": 0, "k": 2, "c": 2}, "n >= 1"),
    ], ids=["c_negative", "c_list_negative", "k_negative", "n_zero"])
    def test_negative_margins_are_usage_errors(self, tmp_path, capsys, params, word):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"command": "blackhole", "age": "old", **params}))
        assert cli.main(["--config", str(cfg), "--trials", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
        assert word in captured.err

    CURVE = {"command": "blackhole", "n": 8, "k": 2, "age": "old", "trials": 6, "seed": 423}
    FIELDS = ("fidelity_estimate", "target", "mean_l1", "mc_stderr", "emitted_qubits")

    def _results(self, tmp_path, capsys, c, *argv):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({**self.CURVE, "c": c}))
        return run(["--config", str(cfg), *argv], capsys)

    def test_margin_list_matches_scalar_runs_and_batch(self, tmp_path, capsys):
        from qshannon import decoupling as dec

        code, out = self._results(tmp_path, capsys, [1, 2, 3])
        assert code == 0
        curve = json.loads(out)["results"]
        batch = dec.black_hole_mirror_batch(8, 2, [1, 2, 3], "old", 6, 423)
        for i, c in enumerate([1, 2, 3]):
            scalar = json.loads(self._results(tmp_path, capsys, c)[1])["results"]
            assert {key: curve[key][i] for key in curve} == scalar
            assert [curve[key][i] for key in self.FIELDS] == [
                getattr(batch[i], key) for key in self.FIELDS]
            assert curve["meets_target"][i] is batch[i].meets_target()

    def test_margin_list_csv_rows(self, tmp_path, capsys):
        code, out = self._results(tmp_path, capsys, [1, 2, 3], "--format", "csv")
        assert code == 0
        names = [line.split(",")[0] for line in out.strip().splitlines()]
        for key in (*self.FIELDS, "meets_target"):
            assert [n for n in names if n.startswith(key + "[")] == [
                f"{key}[{i}]" for i in range(3)]

    def test_any_missed_margin_exits_one(self, tmp_path, capsys, monkeypatch):
        from qshannon import decoupling as dec

        monkeypatch.setattr(dec.MirrorReport, "meets_target",
                            lambda self, slack_sigmas=4.0: self.emitted_qubits != 4)
        code, out = self._results(tmp_path, capsys, [1, 2, 3])
        assert code == 1
        assert json.loads(out)["results"]["meets_target"] == [True, False, True]


class TestConcentrateCommand:
    def test_csv_flattens_the_histogram(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"command": "concentrate", "p": 0.3, "n": 6}))
        code, out = run(["--config", str(cfg), "--trials", "50", "--format", "csv"], capsys)
        assert code == 0
        counts = [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]
                  if line.startswith("histogram.")]
        assert len(counts) > 1 and sum(counts) == 50

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_single_outcome_law_reports_finite_pvalue(self, tmp_path, capsys, p):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"command": "concentrate", "p": p, "n": 10}))
        code, out = run(["--config", str(cfg), "--trials", "50"], capsys)
        assert code == 0
        pvalue = json.loads(out)["results"]["chi2_pvalue"]
        assert isinstance(pvalue, float) and math.isfinite(pvalue)
        assert pvalue == 1.0


class TestMeasureCommand:
    def test_peres_wootters_example(self, capsys):
        code, out = run(["measure", "--example", "peres_wootters"], capsys)
        assert code == 0
        results = json.loads(out)["results"]
        # the computed values, not the suite check's display rounding
        assert results["eigenvalues"] == pytest.approx([0.5, 0.25, 0.25], abs=1e-12)
        assert results["p_error"] == pytest.approx(0.0142977, abs=1e-6)
        assert results["p_error"] != round(results["p_error"], 7)
        assert results["mutual_info"] == pytest.approx(1.369068, abs=1e-6)


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
        ({"command": "blackhole", "n": 8, "c": []}, ["--trials", "2"],
         "c must be int or a non-empty list"),
        ({"command": "blackhole", "n": 8, "c": [1, True]}, ["--trials", "2"], "c[1] must be int"),
        ({"command": "blackhole", "n": 8, "c": [1.5]}, ["--trials", "2"], "c[0] must be int"),
        ({"command": "blackhole", "n": 8, "c": [1, "2"]}, ["--trials", "2"], "c[1] must be int"),
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
        ({"command": "entropy", "probs": [0.5, 0.5], "tol": 0.001}, [], "entropy takes no tol"),
        ({"command": "concentrate", "trails": 50}, [], "concentrate takes no trails"),
        ({"command": "measure", "example": "trine", "d": 3}, [], "measure trine takes no d"),
        ({"command": "compress", "example": "bogus"}, [], "compress takes no example"),
        ({"command": "decouple", "dims": {"A1": 2, "A2": 2, "B": 2}}, ["--trials", "5"],
         "dims takes no B"),
        ({"command": "measure", "d": 10 ** 9}, ["--trials", "5"], "dimension guard"),
        ({"command": "capacity", "family": "depolarizing", "grid": [0.1], "which": ["C1"],
          "restarts": 0}, [], "restarts must be >= 1, got 0"),
        ({"command": "capacity", "family": "erasure", "grid": [0.1], "which": ["Q1"],
          "restarts": -2}, [], "restarts must be >= 1, got -2"),
        ({"command": "capacity", "family": "depolarizing", "grid": [0.1], "which": ["CE"],
          "restarts": 0}, [], "restarts must be >= 1, got 0"),
    ], ids=["blackhole_k_float", "blackhole_c_empty", "blackhole_c_bool", "blackhole_c_float",
            "blackhole_c_string", "concentrate_p_string", "concentrate_n_bool",
            "concentrate_n_zero", "concentrate_p_overflow", "measure_d_float", "measure_no_example",
            "measure_unknown_example", "trine_seed", "decouple_dims_float",
            "compress_rate_string", "capacity_trials", "suite_trials", "entropy_seed",
            "out_int", "format_xml", "capacity_unknown_quantity", "entropy_tol",
            "concentrate_misspelt_trials", "trine_d", "compress_unknown_example",
            "decouple_dims_extra", "measure_d_huge", "capacity_c1_no_restarts",
            "capacity_q1_negative_restarts", "capacity_ce_no_restarts"])
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
        ({"command": "blackhole", "n": 4, "k": 1, "c": [0, 1, 2]}, 423, 300),
        ({"command": "measure", "example": "trine"}, None, None),
        ({"command": "compress", "example": "schumacher3qubit"}, None, None),
    ], ids=["capacity", "concentrate", "measure", "decouple", "blackhole", "blackhole_curve",
            "trine", "schumacher3qubit"])
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
