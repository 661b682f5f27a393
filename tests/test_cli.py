"""End-to-end tests of the command-line interface and its exit-code contract."""

import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import ccflab
from ccflab.cli import main
from ccflab.records import load_records, record_to_dict


def _module_env() -> dict:
    """The environment of a python -m ccflab child that imports this checkout's package."""
    src = str(Path(ccflab.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


class TestExitCodes:
    def test_no_subcommand_prints_help_and_fails(self, capsys):
        assert main([]) == 1
        assert "run" in capsys.readouterr().out

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for sub in ("run", "sweep", "verify", "calibrate", "report"):
            assert sub in out

    def test_unknown_flag_is_an_error(self, capsys):
        assert main(["run", "--frobnicate"]) == 1

    def test_validation_error_names_gamma(self, capsys):
        code = main(["run", "--gamma", "1.5", "--alpha", "0.9"])
        assert code == 1
        assert "gamma" in capsys.readouterr().err

    def test_alpha_outside_schedule_interval_names_alpha(self, capsys):
        code = main(["run", "--gamma", "0.9", "--alpha", "0.05"])
        assert code == 1
        assert "alpha" in capsys.readouterr().err


class TestRunCommand:
    def test_writes_one_record(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--gamma",
                "0.9",
                "--n",
                "64",
                "--t-end",
                "0.2",
                "--datum",
                "cosine:1,1",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        records = load_records(tmp_path / "runs.jsonl")
        assert len(records) == 1
        assert records[0].outcome.value == "Completed"
        assert "Completed" in capsys.readouterr().out

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": 0.6, "n": 64, "t_end": 0.1}))
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        assert (
            main(
                ["run", "--config", str(cfg), "--gamma", "0.8", "--out-dir", str(tmp_path)]
            )
            == 0
        )
        records = load_records(tmp_path / "runs.jsonl")
        assert records[0].config["model"]["gamma"] == 0.6  # file value
        assert records[1].config["model"]["gamma"] == 0.8  # flag wins

    def test_env_out_dir_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CCF_OUT_DIR", str(tmp_path))
        assert main(["run", "--gamma", "0.9", "--n", "64", "--t-end", "0.1"]) == 0
        assert (tmp_path / "runs.jsonl").exists()

    def test_missing_config_file_is_a_validation_error(self, capsys):
        assert main(["run", "--config", "/nonexistent/cfg.json"]) == 1
        assert "config" in capsys.readouterr().err


class TestVerifyCommand:
    def test_table_printed_and_exit_zero(self, capsys):
        assert main(["verify", "--n", "64", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "hilbert_involution" in out
        assert "FAIL" not in out

    def test_grid_size_zero_is_rejected(self, capsys):
        assert main(["verify", "--n", "0"]) == 1
        assert "n must be even" in capsys.readouterr().err


class TestCalibrateCommand:
    def test_prints_constant(self, capsys):
        assert main(["calibrate", "--gamma", "1.0", "--n", "64"]) == 0
        assert "c_gamma" in capsys.readouterr().out

    def test_gamma_flag_required(self, capsys):
        assert main(["calibrate"]) == 1

    def test_grid_size_zero_is_rejected(self, capsys):
        assert main(["calibrate", "--gamma", "0.5", "--n", "0"]) == 1
        captured = capsys.readouterr()
        assert "n must be even" in captured.err and "c_gamma" not in captured.out


class TestSweepAndReportCommands:
    def test_sweep_then_report(self, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "--gamma",
                "0.9",
                "--n",
                "64",
                "--t-end",
                "0.1",
                "--out-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "sweep.jsonl").exists()
        code = main(["report", str(tmp_path / "sweep.jsonl"), "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "summary.csv").exists()

    def test_report_missing_file_names_it(self, capsys):
        assert main(["report", "/nonexistent/records.jsonl"]) == 1
        assert "records" in capsys.readouterr().err

    @pytest.mark.parametrize("missing", ["outcome", "tail_fraction"])
    def test_report_on_a_record_missing_a_key_names_line_and_key(self, tmp_path, capsys, missing):
        assert main(["sweep", "--gamma", "0.9", "--n", "64", "--t-end", "0.1", "--out-dir", str(tmp_path)]) == 0
        path = tmp_path / "sweep.jsonl"
        payload = json.loads(path.read_text())
        del (payload if missing == "outcome" else payload["samples"][1])[missing]
        path.write_text(path.read_text() + json.dumps(payload) + "\n")
        capsys.readouterr()
        assert main(["report", str(path), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "sweep.jsonl:2" in err and repr(missing) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "shape",
        [
            "array",
            "null_samples",
            "null_holder",
            "null_config",
            "null_model",
            "list_datum",
            "string_t_star",
            "bool_t_local",
            "string_wall_time",
            "string_sample_t",
            "bool_sample_l2",
            "bool_holder_value",
            "string_gamma",
            "bool_n",
            "string_datum_param",
            "bool_datum_param",
            "number_datum_kind",
            "string_datum_sample",
        ],
    )
    def test_report_on_a_wrong_shape_line_names_the_line(self, tmp_path, capsys, shape):
        assert main(["sweep", "--gamma", "0.9", "--n", "64", "--t-end", "0.1", "--out-dir", str(tmp_path)]) == 0
        path = tmp_path / "sweep.jsonl"
        payload = json.loads(path.read_text())
        if shape == "array":
            payload = [payload]
        elif shape == "null_samples":
            payload["samples"] = None
        elif shape == "null_holder":
            payload["samples"][1]["holder"] = None
        elif shape == "null_config":
            payload["config"] = None
        elif shape == "null_model":
            payload["config"]["model"] = None
        elif shape == "string_t_star":
            payload["t_star_predicted"] = "0.5"
        elif shape == "bool_t_local":
            payload["t_local_predicted"] = True
        elif shape == "string_wall_time":
            payload["wall_time"] = "fast"
        elif shape == "string_sample_t":
            payload["samples"][1]["t"] = "0.02"
        elif shape == "bool_sample_l2":
            payload["samples"][1]["l2"] = True
        elif shape == "bool_holder_value":
            holder = payload["samples"][1]["holder"]
            holder[next(iter(holder))] = True
        elif shape == "string_gamma":
            payload["config"]["model"]["gamma"] = "x"
        elif shape == "bool_n":
            payload["config"]["model"]["n"] = True
        elif shape == "string_datum_param":
            payload["config"]["datum"]["a"] = "x"
        elif shape == "bool_datum_param":
            payload["config"]["datum"]["a"] = True
        elif shape == "number_datum_kind":
            payload["config"]["datum"]["kind"] = 5
        elif shape == "string_datum_sample":
            payload["config"]["datum"]["samples"] = [1.0, "x"]
        else:
            payload["config"]["datum"] = [payload["config"]["datum"]]
        path.write_text(path.read_text() + json.dumps(payload) + "\n")
        capsys.readouterr()
        assert main(["report", str(path), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "sweep.jsonl:2" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags, axis",
        [
            (["--gamma", "0.6,0.6", "--n", "32"], "gamma_values"),
            (["--gamma", "0.6", "--n", "32,32"], "resolutions"),
            (["--gamma", "0.6", "--n", "32", "--datum", "cosine:1,1", "--datum", "cosine:1,1"], "data"),
        ],
        ids=["gamma", "n", "datum"],
    )
    def test_sweep_with_a_repeated_axis_value_exits_1(self, tmp_path, capsys, flags, axis):
        assert main(["sweep", *flags, "--t-end", "0.1", "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"error: sweep axis {axis} lists one value twice" in err and "Traceback" not in err
        assert not (tmp_path / "sweep.jsonl").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--datum", "custom:{samples}", "--n", "64,128"], "datum custom(n=64) at n=128: "),
            (["--datum", "cosine:1,1", "--datum", "von_mises:800", "--n", "64"], "datum von_mises_bump(800) at n=64: "),
        ],
        ids=["custom_length", "von_mises_underflow"],
    )
    def test_sweep_with_a_datum_that_cannot_be_sampled_exits_1(self, tmp_path, capsys, flags, message):
        """Every (datum, n) is sampled before the first cell runs, so no record is appended."""
        samples = tmp_path / "samples.txt"
        samples.write_text("\n".join(["1.5"] * 64))
        flags = [flag.format(samples=samples) for flag in flags]
        assert main(["sweep", *flags, "--gamma", "0.9", "--t-end", "0.1", "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err and "Traceback" not in err
        assert not (tmp_path / "sweep.jsonl").exists()

    def test_config_axis_may_be_a_bare_number(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {"gamma_values": 0.6, "resolutions": 64, "t_end": 0.1}}))
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        records = load_records(tmp_path / "sweep.jsonl")
        assert [(r.config["model"]["gamma"], r.config["model"]["n"]) for r in records] == [(0.6, 64)]

    @pytest.mark.parametrize("value", [{"a": 0.6}, True])
    def test_config_axis_of_another_type_is_named(self, tmp_path, capsys, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {"gamma_values": value, "resolutions": 64, "t_end": 0.1}}))
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
        assert "gamma_values" in capsys.readouterr().err
        assert not (tmp_path / "sweep.jsonl").exists()

    def test_config_axes_may_be_comma_separated_strings(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {"gamma_values": "0.6,0.9", "resolutions": "64", "t_end": 0.1}}))
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        records = load_records(tmp_path / "sweep.jsonl")
        assert [r.config["model"]["gamma"] for r in records] == [0.6, 0.9]
        assert {r.config["model"]["n"] for r in records} == {64}

    @pytest.mark.parametrize("resolutions", [[64.5], 64.5, "64,64.5"], ids=["list", "number", "string"])
    def test_config_grid_size_must_be_whole(self, tmp_path, capsys, resolutions):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {"gamma_values": 0.9, "resolutions": resolutions, "t_end": 0.1}}))
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
        assert "sweep.resolutions must be a whole number" in capsys.readouterr().err
        assert not (tmp_path / "sweep.jsonl").exists()

    def test_flag_grid_size_must_be_whole(self, tmp_path, capsys):
        assert main(["sweep", "--gamma", "0.9", "--n", "64,64.5", "--out-dir", str(tmp_path)]) == 1
        assert "--n must be a whole number" in capsys.readouterr().err
        assert not (tmp_path / "sweep.jsonl").exists()

    def test_run_config_grid_size_must_be_whole(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 64.5, "t_end": 0.1}))
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
        assert "n must be a whole number, got 64.5" in capsys.readouterr().err
        assert not (tmp_path / "runs.jsonl").exists()

    @pytest.mark.parametrize(
        "sweep_cfg, key",
        [
            ({"gamma_values": ["a"], "resolutions": 64}, "sweep.gamma_values"),
            ({"gamma_values": [None], "resolutions": 64}, "sweep.gamma_values"),
            ({"gamma_values": 0.9, "resolutions": ["sixty-four"]}, "sweep.resolutions"),
            ({"gamma_values": 0.9, "resolutions": 64, "parallelism": 1.5}, "sweep.parallelism"),
        ],
        ids=["string", "null", "resolution", "parallelism"],
    )
    def test_config_value_that_does_not_cast_names_its_key(self, tmp_path, capsys, sweep_cfg, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {**sweep_cfg, "t_end": 0.1}}))
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"error: {key}" in err and "Traceback" not in err
        assert not (tmp_path / "sweep.jsonl").exists()

    def test_run_config_value_that_does_not_cast_names_its_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gamma": "a", "n": 64}))
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
        assert "error: gamma: could not convert" in capsys.readouterr().err

    def test_config_switches_take_json_booleans(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"inviscid": True, "dealias": False, "n": 64, "t_end": 0.1}))
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        (record,) = load_records(tmp_path / "runs.jsonl")
        assert record.config["model"]["dissipation_on"] is False
        assert record.config["model"]["dealias_on"] is False

    @pytest.mark.parametrize(
        "command, cfg, key",
        [
            ("run", {"inviscid": "false", "n": 64}, "inviscid"),
            ("run", {"dealias": "no", "n": 64}, "dealias"),
            ("sweep", {"sweep": {"inviscid": "false", "resolutions": 64}}, "sweep.inviscid"),
            ("sweep", {"sweep": {"dealias": 0, "resolutions": 64}}, "sweep.dealias"),
        ],
        ids=["run.inviscid", "run.dealias", "sweep.inviscid", "sweep.dealias"],
    )
    def test_config_switch_that_is_not_a_boolean_is_named(self, tmp_path, capsys, command, cfg, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**cfg, "t_end": 0.1}))
        assert main([command, "--config", str(path), "--out-dir", str(tmp_path)]) == 1
        assert f"error: {key} must be true or false" in capsys.readouterr().err
        assert list(tmp_path.glob("*.jsonl")) == []

    @pytest.mark.parametrize(
        "command, cfg, key",
        [
            ("run", {"gamma": True, "n": 64}, "gamma"),
            ("sweep", {"sweep": {"gamma_values": [True], "resolutions": 64}}, "sweep.gamma_values"),
            ("run", {"constants": {"k1": True}, "n": 64}, "constants.k1"),
        ],
        ids=["run.gamma", "sweep.gamma_values", "constants.k1"],
    )
    def test_config_number_that_is_a_boolean_is_named(self, tmp_path, capsys, command, cfg, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**cfg, "t_end": 0.1}))
        assert main([command, "--config", str(path), "--out-dir", str(tmp_path)]) == 1
        assert f"error: {key} must be a number, got True" in capsys.readouterr().err
        assert list(tmp_path.glob("*.jsonl")) == []

    @pytest.mark.parametrize(
        "cfg, message",
        [
            ({"constants": 5}, "constants must be an object"),
            ({"constants": {"k1": "abc"}}, "constants.k1: could not convert"),
            ({"sweep": 5}, "sweep must be an object"),
            ({"sweep": {"data": "cosine:1,1", "resolutions": 64}}, "sweep.data must be an array"),
            ({"sweep": {"data": 5, "resolutions": 64}}, "sweep.data must be an array"),
        ],
        ids=["constants_number", "constant_string", "sweep_number", "data_string", "data_number"],
    )
    def test_config_block_of_the_wrong_type_is_named(self, tmp_path, capsys, cfg, message):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**cfg, "t_end": 0.1}))
        assert main(["sweep", "--config", str(path), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err and "Traceback" not in err
        assert not (tmp_path / "sweep.jsonl").exists()

    @pytest.mark.parametrize(
        "command, cfg, key",
        [
            ("run", {"datum": 5, "n": 64}, "datum"),
            ("sweep", {"sweep": {"data": [5], "resolutions": 64}}, "sweep.data"),
        ],
        ids=["run.datum", "sweep.data"],
    )
    def test_config_datum_that_is_not_a_string_is_named(self, tmp_path, capsys, command, cfg, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**cfg, "t_end": 0.1}))
        assert main([command, "--config", str(path), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"error: {key} must be a datum spec string" in err and "Traceback" not in err
        assert list(tmp_path.glob("*.jsonl")) == []

    @pytest.mark.parametrize(
        "command, spec, key",
        [
            ("run", "cosine:1,x", "datum"),
            ("run", "custom:{missing}", "datum"),
            ("sweep", "cosine:1,x", "sweep.data"),
            ("sweep", "custom:{missing}", "sweep.data"),
        ],
        ids=["run.bad_number", "run.missing_file", "sweep.bad_number", "sweep.missing_file"],
    )
    def test_config_datum_spec_that_does_not_parse_is_named(self, tmp_path, capsys, command, spec, key):
        spec = spec.format(missing=tmp_path / "missing.txt")
        cfg = {"datum": spec, "n": 64} if command == "run" else {"sweep": {"data": [spec], "resolutions": 64}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**cfg, "t_end": 0.1}))
        assert main([command, "--config", str(path), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"error: {key}: " in err and "Traceback" not in err
        assert list(tmp_path.glob("*.jsonl")) == []

    def test_non_finite_datum_parameter_is_named(self, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--datum", "von_mises:inf", "--n", "64", "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: datum: von_mises_bump parameter kappa must be finite, got inf" in err
        assert list(tmp_path.glob("*.jsonl")) == []

    def test_unknown_constant_in_config_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"constants": {"C_star": 2.0, "k9": 1.0}}))
        assert main(["run", "--config", str(cfg), "--n", "64", "--out-dir", str(tmp_path)]) == 1
        assert "k9" in capsys.readouterr().err


class TestOneCellPipeline:
    """run is a one-cell sweep: both commands read one table of model and control
    keys and build their cells through SweepPlan.cells."""

    @pytest.mark.parametrize(
        "flags",
        [[], ["--cfl", "0.8", "--dt-max", "0.02", "--alpha", "0.3", "--snapshot-every", "0.01"]],
        ids=["defaults", "every_shared_flag"],
    )
    def test_run_record_equals_the_one_cell_sweep_record(self, tmp_path, capsys, flags):
        common = ["--gamma", "0.9", "--n", "64", "--t-end", "0.1", *flags, "--out-dir", str(tmp_path)]
        assert main(["run", *common]) == 0
        assert main(["sweep", *common]) == 0
        (ran,) = load_records(tmp_path / "runs.jsonl")
        (swept,) = load_records(tmp_path / "sweep.jsonl")
        if not flags:
            assert ran.config_hash == swept.config_hash == "9ebcafa580f9"
        else:
            assert ran.config["control"] == {"cfl": 0.8, "dt_max": 0.02, "snapshot_every": 0.01, "t_end": 0.1}
            assert ran.config["holder_alphas"] == [0.3]
        ran, swept = record_to_dict(ran), record_to_dict(swept)
        ran.pop("wall_time")
        swept.pop("wall_time")
        assert ran == swept

    def test_each_sweep_cell_tracks_its_own_policy_alpha(self, tmp_path, capsys):
        assert main(["sweep", "--gamma", "0.6,1.2", "--n", "64", "--t-end", "0.1", "--out-dir", str(tmp_path)]) == 0
        low, high = load_records(tmp_path / "sweep.jsonl")
        assert low.config["holder_alphas"] == [0.5]
        assert high.config["holder_alphas"] == []
        assert all(sample.holder == {} for sample in high.samples)

    def test_sweep_alpha_off_one_cells_schedule_exits_1(self, tmp_path, capsys):
        flags = ["--gamma", "0.6,0.9", "--n", "64", "--alpha", "0.3", "--t-end", "0.1", "--out-dir", str(tmp_path)]
        assert main(["sweep", *flags]) == 1
        assert "error: alpha must be in [1-gamma, 1)" in capsys.readouterr().err
        assert not (tmp_path / "sweep.jsonl").exists()

    def test_sweep_config_block_sets_every_shared_key(self, tmp_path, capsys):
        block = {"gamma_values": 0.9, "resolutions": 64, "t_end": 0.1, "cfl": 0.8, "dt_max": 0.025,
                 "snapshot_every": 0.05, "alpha": 0.3, "inviscid": True, "dealias": False}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": block}))
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 0
        (record,) = load_records(tmp_path / "sweep.jsonl")
        assert record.config["control"] == {"cfl": 0.8, "dt_max": 0.025, "snapshot_every": 0.05, "t_end": 0.1}
        assert record.config["holder_alphas"] == [0.3]
        assert record.config["model"]["dissipation_on"] is False
        assert record.config["model"]["dealias_on"] is False

    @pytest.mark.parametrize(
        "command, cfg, key",
        [
            ("run", {"cfl": "x", "n": 64}, "cfl"),
            ("run", {"alpha": "x", "n": 64}, "alpha"),
            ("sweep", {"sweep": {"dt_max": "x", "resolutions": 64}}, "sweep.dt_max"),
            ("sweep", {"sweep": {"alpha": [0.3], "resolutions": 64}}, "sweep.alpha"),
        ],
        ids=["run.cfl", "run.alpha", "sweep.dt_max", "sweep.alpha"],
    )
    def test_shared_key_error_names_the_key_with_its_prefix(self, tmp_path, capsys, command, cfg, key):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**cfg, "t_end": 0.1}))
        assert main([command, "--config", str(path), "--out-dir", str(tmp_path)]) == 1
        assert f"error: {key}: " in capsys.readouterr().err
        assert list(tmp_path.glob("*.jsonl")) == []

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_infinite_dt_max_is_rejected(self, tmp_path, capsys, command):
        """An infinite dt_max would reach runs.jsonl as Infinity, which strict JSON parsers reject."""
        flags = ["--gamma", "0.9", "--n", "64", "--t-end", "0.1", "--dt-max", "inf", "--out-dir", str(tmp_path)]
        assert main([command, *flags]) == 1
        assert "error: dt_max must be positive and finite, got inf" in capsys.readouterr().err
        assert list(tmp_path.glob("*.jsonl")) == []

    def test_infinite_t_end_is_rejected_before_stepping(self, tmp_path):
        """At t_end = inf the first snapshot time 0 * inf is NaN and stepping heads for
        t = inf; the child process and its timeout keep such a hang out of the suite."""
        command = [sys.executable, "-m", "ccflab", "run", "--gamma", "0.9", "--n", "64", "--t-end", "inf",
                   "--out-dir", str(tmp_path)]
        proc = subprocess.run(command, capture_output=True, text=True, env=_module_env(), timeout=60)
        assert proc.returncode == 1
        assert "error: t_end must be positive and finite, got inf" in proc.stderr
        assert list(tmp_path.glob("*.jsonl")) == []

    def test_infinite_constant_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 64, "t_end": 0.1, "constants": {"C1": float("inf")}}))
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
        assert "error: C1 must be strictly positive and finite, got inf" in capsys.readouterr().err
        assert list(tmp_path.glob("*.jsonl")) == []


class TestConsoleScript:
    def test_entry_point_is_installed(self):
        exe = shutil.which("ccflab")
        assert exe is not None
        proc = subprocess.run([exe, "--help"], capture_output=True, text=True)
        assert proc.returncode == 0
        assert "verify" in proc.stdout

    def test_package_runs_as_a_module(self):
        """python -m ccflab reaches cli.main without the installed script."""
        proc = subprocess.run(
            [sys.executable, "-m", "ccflab", "verify", "--n", "64"], capture_output=True, text=True, env=_module_env()
        )
        assert proc.returncode == 0, proc.stderr
        assert "product_rule_identity_gamma_0.9" in proc.stdout
