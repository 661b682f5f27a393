"""End-to-end tests of the command-line interface and its exit-code contract."""

import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ccflab
from ccflab.cli import main
from ccflab.experiments import DATUM_FAMILIES
from ccflab.records import load_records, record_to_dict
from ccflab.report import parse_csv

# Two records written in schema 1 by an earlier build with the sweep flags below,
# and the same sweep as the last schema 2 build wrote it.
SCHEMA_1_FILE = Path(__file__).with_name("data") / "sweep_v1.jsonl"
SCHEMA_2_FILE = Path(__file__).with_name("data") / "sweep_v2.jsonl"
SCHEMA_1_SWEEP = ["sweep", "--gamma", "0.6,1.2", "--n", "64", "--t-end", "0.1"]


def _schema_1_line(tmp_path) -> Path:
    """tmp_path/sweep.jsonl holding the first schema 1 record."""
    path = tmp_path / "sweep.jsonl"
    path.write_text(SCHEMA_1_FILE.read_text().splitlines(keepends=True)[0])
    return path


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

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_datum_help_names_every_family_in_the_table(self, command, capsys, monkeypatch):
        """The --datum help is read from DATUM_FAMILIES, an added family included."""
        monkeypatch.setenv("COLUMNS", "200")  # argparse wraps at the terminal width
        monkeypatch.setitem(DATUM_FAMILIES, "scaled_bump", ("bump", ("k", "w"), None))
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        for alias, _, _ in DATUM_FAMILIES.values():
            assert f" {alias}:" in out or f"({alias}:" in out
        assert "bump:k,w" in out and "custom:path" in out

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

    def test_appends_after_a_torn_last_line(self, tmp_path, capsys):
        flags = ["run", "--gamma", "0.9", "--n", "64", "--t-end", "0.1", "--out-dir", str(tmp_path)]
        assert main(flags) == 0
        path = tmp_path / "runs.jsonl"
        whole = path.read_bytes()
        path.write_bytes(whole + whole[: len(whole) // 2])
        with pytest.warns(UserWarning, match="dropped a torn last line"):
            assert main([*flags[:-2], "--n", "32", *flags[-2:]]) == 0
        first, second = load_records(path)
        assert path.read_bytes().startswith(whole)
        assert (first.config["model"]["n"], second.config["model"]["n"]) == (64, 32)
        assert main(["report", str(path), "--out-dir", str(tmp_path)]) == 0

    def test_a_run_that_stops_early_exits_0_and_appends_its_record(self, tmp_path, capsys):
        """A stop is an outcome, not an error: 1e12*cos x collapses the first step."""
        datum = tmp_path / "big.txt"
        np.savetxt(datum, 1e12 * np.cos(2 * np.pi * np.arange(64) / 64))
        assert main(["run", "--datum", f"custom:{datum}", "--n", "64", "--out-dir", str(tmp_path)]) == 0
        detail = "step size collapsed to 3.927e-14 at t=0"
        assert capsys.readouterr().out.startswith(f"StepCollapse: {detail}\n")
        (record,) = load_records(tmp_path / "runs.jsonl")
        assert (record.outcome.value, record.outcome_detail) == ("StepCollapse", detail)
        assert (len(record.samples), record.step_count) == (1, 0)

    @pytest.mark.parametrize(
        "t_end, message",
        [
            ("1e-11", "snapshot_every must be in (1e-12, t_end], got 1.9999999999999998e-13"),
            ("1e-13", "t_end must exceed the time floor 1e-12, got 1e-13"),
        ],
        ids=["cadence", "t_end"],
    )
    def test_a_time_below_the_time_floor_is_a_validation_error(self, tmp_path, capsys, t_end, message):
        """--t-end 1e-11 leaves the default cadence t_end/50 = 2e-13 below DT_FLOOR;
        --t-end 1e-13 is itself below it, so the error names t_end, not the cadence."""
        assert main(["run", "--n", "64", "--t-end", t_end, "--out-dir", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "runs.jsonl").exists()

    def test_t_star_is_that_of_the_one_tracked_exponent(self, tmp_path, capsys):
        """--alpha 0.3 at gamma 0.9 tracks C^0.3, so T* is T*(0.3), not the policy
        T*(0.2) = 5.83e-5, and the summary reads the C^0.3 series after it."""
        flags = ["--gamma", "0.9", "--n", "64", "--t-end", "0.1", "--alpha", "0.3", "--out-dir", str(tmp_path)]
        assert main(["run", *flags]) == 0
        assert main(["report", str(tmp_path / "runs.jsonl"), "--out-dir", str(tmp_path)]) == 0
        (record,) = load_records(tmp_path / "runs.jsonl")
        assert record.t_star_predicted == pytest.approx(3.359232e-03, rel=1e-12)
        series = record.samples.holder[0.3][record.samples.t > record.t_star_predicted]
        (row,) = parse_csv((tmp_path / "summary.csv").read_text())
        assert (row["holder_alpha"], row["max_holder_after_tstar"]) == (0.3, max(series))

    def test_an_exponent_within_1e_12_of_the_policy_one_keeps_the_policy_t_star(self, tmp_path, capsys):
        """--alpha 0.2 at gamma 0.9 is the policy exponent 0.19999999999999996, so
        its T* is the policy run's bit for bit."""
        flags = ["--gamma", "0.9", "--n", "64", "--t-end", "0.1", "--out-dir", str(tmp_path)]
        assert main(["run", *flags]) == 0
        assert main(["run", *flags, "--alpha", "0.2"]) == 0
        policy, given = load_records(tmp_path / "runs.jsonl")
        assert given.config["holder_alphas"] == [0.2] != policy.config["holder_alphas"]
        assert given.t_star_predicted == policy.t_star_predicted == 5.8254222222222e-05


class TestVerifyCommand:
    def test_table_printed_and_exit_zero(self, capsys):
        assert main(["verify", "--n", "64", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "hilbert_involution" in out
        assert "FAIL" not in out

    def test_grid_size_zero_is_rejected(self, capsys):
        assert main(["verify", "--n", "0"]) == 1
        assert "n must be even" in capsys.readouterr().err

    def test_negative_seed_is_rejected_naming_seed(self, capsys):
        assert main(["verify", "--n", "64", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: seed must be a non-negative integer, got -1\n"
        assert captured.out == ""

    def test_json_flag_prints_the_rows_as_a_json_array(self, capsys):
        assert main(["verify", "--n", "64", "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert rows[0]["name"] == "hilbert_involution_H2_eq_minus_I"
        assert all(set(row) == {"name", "residual", "tolerance", "passed"} and row["passed"] for row in rows)


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

    def test_a_datum_whose_transform_overflows_keeps_the_other_cell(self, tmp_path, capsys):
        sweep = ["sweep", "--datum", "cosine:1,1", "--datum", "cosine:5e307,5e307", "--gamma", "0.9"]
        assert main([*sweep, "--n", "64", "--t-end", "0.1", "--out-dir", str(tmp_path)]) == 0
        kept, stopped = load_records(tmp_path / "sweep.jsonl")
        assert (kept.outcome.value, stopped.outcome.value) == ("Completed", "BlowupSuspected")
        assert (stopped.outcome_detail, len(stopped.samples)) == ("non-finite state at t=0", 0)
        assert main(["report", str(tmp_path / "sweep.jsonl"), "--out-dir", str(tmp_path)]) == 0
        rows = parse_csv((tmp_path / "summary.csv").read_text())
        assert [row["outcome"] for row in rows] == ["Completed", "BlowupSuspected"]

    def test_a_second_report_prints_no_wrote_line(self, tmp_path, capsys):
        shutil.copyfile(SCHEMA_1_FILE, tmp_path / "sweep.jsonl")
        report = ["report", str(tmp_path / "sweep.jsonl"), "--out-dir", str(tmp_path)]
        assert main(report) == 0
        wrote = capsys.readouterr().out.splitlines()
        assert sorted(wrote) == sorted(f"wrote {tmp_path / name}" for name in (
            "summary.csv", "norms_766337153669.svg", "norms_4ae00d24a92d.svg"))
        assert main(report) == 0
        assert "wrote" not in capsys.readouterr().out
        (tmp_path / "norms_4ae00d24a92d.svg").unlink()
        assert main(report) == 0
        assert capsys.readouterr().out == f"wrote {tmp_path / 'norms_4ae00d24a92d.svg'}\n"

    def test_report_missing_file_names_it(self, capsys):
        assert main(["report", "/nonexistent/records.jsonl"]) == 1
        assert "records" in capsys.readouterr().err

    @pytest.mark.parametrize("missing", ["outcome", "tail_fraction"])
    def test_report_on_a_record_missing_a_key_names_line_and_key(self, tmp_path, capsys, missing):
        path = _schema_1_line(tmp_path)
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
            "number_outcome_detail",
            "other_holder_exponents",
            "huge_int_sample",
            "null_holder_alphas",
            "string_holder_alpha",
            "huge_int_gamma",
            "huge_int_t_star",
            "huge_int_holder_alpha",
        ],
    )
    def test_report_on_a_wrong_shape_line_names_the_line(self, tmp_path, capsys, shape):
        path = _schema_1_line(tmp_path)
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
        elif shape == "number_outcome_detail":
            payload["outcome_detail"] = 5
        elif shape == "other_holder_exponents":
            # A sample after T* that lacks the tracked exponent.
            payload["samples"][10]["holder"] = {"0.3": 1.0}
            payload["t_star_predicted"] = 0.01
        elif shape == "huge_int_sample":
            payload["samples"][1]["l2"] = 10**400
        elif shape == "null_holder_alphas":
            payload["config"]["holder_alphas"] = None
        elif shape == "string_holder_alpha":
            payload["config"]["holder_alphas"] = ["0.2"]
        elif shape == "huge_int_gamma":
            payload["config"]["model"]["gamma"] = 10**400
        elif shape == "huge_int_t_star":
            payload["t_star_predicted"] = 10**400
        elif shape == "huge_int_holder_alpha":
            payload["config"]["holder_alphas"] = [10**400]
        else:
            payload["config"]["datum"] = [payload["config"]["datum"]]
        path.write_text(path.read_text() + json.dumps(payload) + "\n")
        capsys.readouterr()
        assert main(["report", str(path), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "sweep.jsonl:2" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "shape, key",
        [
            ("string_in_column", "'t'"),
            ("bool_in_column", "'l2'"),
            ("length_mismatch", "'hdot_mid'"),
            ("missing_column", "'tail_fraction'"),
            ("null_holder", "'holder'"),
            ("bool_holder_value", "'0.5'"),
            ("huge_int_in_column", "'linf'"),
        ],
    )
    def test_report_on_a_wrong_schema_2_column_names_line_and_key(self, tmp_path, capsys, shape, key):
        path = tmp_path / "sweep.jsonl"
        first = SCHEMA_2_FILE.read_text().splitlines(keepends=True)[0]
        payload = json.loads(first)
        samples = payload["samples"]
        if shape == "string_in_column":
            samples["t"][1] = "0.02"
        elif shape == "bool_in_column":
            samples["l2"][1] = True
        elif shape == "length_mismatch":
            samples["hdot_mid"].pop()
        elif shape == "missing_column":
            del samples["tail_fraction"]
        elif shape == "null_holder":
            samples["holder"] = None
        elif shape == "huge_int_in_column":
            samples["linf"][1] = 10**400
        else:
            samples["holder"]["0.5"][1] = True
        path.write_text(first + json.dumps(payload) + "\n")
        assert main(["report", str(path), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "sweep.jsonl:2: " in err and key in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "shape, key",
        [
            ("array_column", "'t'"),
            ("number_holder_column", "'0.5'"),
            ("bad_base64", "'mean'"),
            ("byte_length", "'hdot_mid'"),
        ],
    )
    def test_report_on_a_wrong_schema_3_column_names_line_and_key(self, tmp_path, capsys, shape, key):
        assert main(["sweep", "--gamma", "0.6", "--n", "64", "--t-end", "0.1", "--out-dir", str(tmp_path)]) == 0
        path = tmp_path / "sweep.jsonl"
        payload = json.loads(path.read_text())
        samples = payload["samples"]
        if shape == "array_column":
            samples["t"] = [0.0, 0.002]
        elif shape == "number_holder_column":
            samples["holder"]["0.5"] = 1.2
        elif shape == "bad_base64":
            samples["mean"] = "*" + samples["mean"][1:]
        else:
            samples["hdot_mid"] = samples["hdot_mid"][:-12]  # 9 bytes fewer
        path.write_text(path.read_text() + json.dumps(payload) + "\n")
        capsys.readouterr()
        assert main(["report", str(path), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "sweep.jsonl:2: " in err and key in err
        assert "Traceback" not in err

    def test_schema_1_sweep_resumes_with_no_rerun_then_gains_schema_3_lines(self, tmp_path, capsys):
        path = tmp_path / "sweep.jsonl"
        shutil.copyfile(SCHEMA_1_FILE, path)
        assert main([*SCHEMA_1_SWEEP, "--out-dir", str(tmp_path)]) == 0
        assert path.read_bytes() == SCHEMA_1_FILE.read_bytes()
        assert main(["sweep", "--gamma", "0.6,0.9,1.2", "--n", "64", "--t-end", "0.1", "--out-dir", str(tmp_path)]) == 0
        assert path.read_bytes().startswith(SCHEMA_1_FILE.read_bytes())
        assert [json.loads(line)["schema_version"] for line in path.read_text().splitlines()] == [1, 1, 3]
        old, new = load_records(SCHEMA_1_FILE), load_records(path)
        assert new[:2] == old
        assert new[2].config["model"]["gamma"] == 0.9 and new[2].step_count > 0

    def test_schema_2_sweep_resumes_with_no_rerun_then_gains_schema_3_lines(self, tmp_path, capsys):
        path = tmp_path / "sweep.jsonl"
        shutil.copyfile(SCHEMA_2_FILE, path)
        assert main([*SCHEMA_1_SWEEP, "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.endswith(f"2 records in {path}\n")
        assert path.read_bytes() == SCHEMA_2_FILE.read_bytes()
        assert main(["sweep", "--gamma", "0.6,0.9,1.2", "--n", "64", "--t-end", "0.1", "--out-dir", str(tmp_path)]) == 0
        assert path.read_bytes().startswith(SCHEMA_2_FILE.read_bytes())
        lines = path.read_text().splitlines()
        assert [json.loads(line)["schema_version"] for line in lines] == [2, 2, 3]
        assert isinstance(json.loads(lines[2])["samples"]["t"], str)
        new = load_records(path)
        assert new[:2] == load_records(SCHEMA_2_FILE)
        assert new[2].config["model"]["gamma"] == 0.9 and new[2].step_count > 0

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
